// Property test for the timing-wheel scheduler: drive EventQueue and a
// naive sorted-vector reference model through randomized push / cancel /
// pop / run_until interleavings and require identical pop order — including
// FIFO tie-breaks at equal timestamps. Horizons are drawn from every wheel
// level (near, the three far wheels, and the overflow heap) so cascades and
// page advances are exercised, and pushes use all three event kinds so the
// typed paths share the ordering proof.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace planck::sim {
namespace {

/// The reference model: a flat vector popped by linear scan for the
/// smallest (when, push-order). Obviously correct, O(n) per op.
class ReferenceQueue {
 public:
  std::uint64_t push(Time when, int tag) {
    if (when < floor_) when = floor_;  // same clamp as the wheel
    events_.push_back(Ref{when, next_order_++, tag, /*cancelled=*/false});
    return events_.back().order;
  }

  void cancel(std::uint64_t order) {
    for (Ref& r : events_) {
      if (r.order == order) r.cancelled = true;
    }
  }

  bool empty() const {
    return std::none_of(events_.begin(), events_.end(),
                        [](const Ref& r) { return !r.cancelled; });
  }

  Time next_time() {
    const Ref* best = find_min();
    return best->when;
  }

  /// Pops the earliest live event; returns its (when, tag).
  std::pair<Time, int> pop() {
    Ref* best = find_min();
    const std::pair<Time, int> out{best->when, best->tag};
    floor_ = best->when;
    best->cancelled = true;  // consumed
    return out;
  }

  void set_floor(Time t) {
    if (t > floor_) floor_ = t;
  }

 private:
  struct Ref {
    Time when;
    std::uint64_t order;
    int tag;
    bool cancelled;
  };

  Ref* find_min() {
    Ref* best = nullptr;
    for (Ref& r : events_) {
      if (r.cancelled) continue;
      if (best == nullptr || r.when < best->when ||
          (r.when == best->when && r.order < best->order)) {
        best = &r;
      }
    }
    return best;
  }

  std::vector<Ref> events_;
  std::uint64_t next_order_ = 1;
  Time floor_ = 0;
};

/// One offset drawn from a horizon class chosen to hit a specific wheel
/// level: same-tick, near wheel, each far wheel, and the overflow heap.
Duration random_offset(Rng& rng) {
  switch (rng.below(6)) {
    case 0: return 0;                                            // same ns
    case 1: return static_cast<Duration>(rng.below(8192));       // near
    case 2: return static_cast<Duration>(rng.below(1u << 21));   // level 1
    case 3: return static_cast<Duration>(rng.below(1u << 29));   // level 2
    case 4: return static_cast<Duration>(rng.below(1ull << 37)); // level 3
    default:
      return static_cast<Duration>(rng.below(1ull << 40));       // overflow
  }
}

void run_property_trial(std::uint64_t seed, int ops) {
  EventQueue wheel;
  ReferenceQueue model;
  Rng rng(seed);

  Time now = 0;
  int next_tag = 0;
  std::vector<int> wheel_tags;  // filled by executed events
  std::vector<std::pair<EventId, std::uint64_t>> live;  // (wheel id, model id)

  net::Packet pkt;
  pkt.payload = 64;
  const auto call_fn = [](void* target, std::uint32_t aux) {
    static_cast<std::vector<int>*>(target)->push_back(static_cast<int>(aux));
  };
  const auto packet_fn = [](void* target, std::uint32_t aux,
                            const net::Packet&) {
    static_cast<std::vector<int>*>(target)->push_back(static_cast<int>(aux));
  };

  const auto push_one = [&] {
    const Time when = now + random_offset(rng);
    const int tag = next_tag++;
    EventId id = 0;
    switch (rng.below(3)) {
      case 0:
        id = wheel.push(when, [&wheel_tags, tag] { wheel_tags.push_back(tag); });
        break;
      case 1:
        id = wheel.push_call(when, &wheel_tags,
                             static_cast<std::uint32_t>(tag), call_fn);
        break;
      default:
        id = wheel.push_packet(when, &wheel_tags,
                               static_cast<std::uint32_t>(tag), packet_fn,
                               pkt);
        break;
    }
    live.emplace_back(id, model.push(when, tag));
  };

  const auto pop_one = [&] {
    ASSERT_FALSE(wheel.empty());
    ASSERT_FALSE(model.empty());
    ASSERT_EQ(wheel.next_time(), model.next_time());
    const std::size_t before = wheel_tags.size();
    Time when = 0;
    wheel.run_top(&when);
    const auto [ref_when, ref_tag] = model.pop();
    ASSERT_EQ(when, ref_when);
    ASSERT_EQ(wheel_tags.size(), before + 1);
    ASSERT_EQ(wheel_tags.back(), ref_tag);
    now = when;
  };

  for (int op = 0; op < ops; ++op) {
    if (::testing::Test::HasFatalFailure()) return;
    const std::uint64_t r = rng.below(100);
    if (r < 55) {
      push_one();
    } else if (r < 70 && !live.empty()) {
      // Cancel a random id — possibly one that already fired, which must be
      // a safe no-op on the wheel and is modeled as cancel-of-consumed.
      const std::size_t pick = rng.below(live.size());
      wheel.cancel(live[pick].first);
      model.cancel(live[pick].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (r < 90) {
      if (!wheel.empty()) pop_one();
      ASSERT_EQ(wheel.empty(), model.empty());
    } else {
      // run_until: drain everything up to a deadline, then advance the
      // clock floor past it (subsequent pushes clamp identically).
      const Time deadline = now + static_cast<Duration>(rng.below(1u << 22));
      while (!wheel.empty() && wheel.next_time() <= deadline) {
        pop_one();
        if (::testing::Test::HasFatalFailure()) return;
      }
      ASSERT_EQ(wheel.empty(), model.empty());
      now = deadline;
      model.set_floor(deadline);
    }
  }
  // Drain to the end: the full remaining order must match.
  while (!wheel.empty()) {
    pop_one();
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(model.empty());
  ASSERT_EQ(wheel.size(), 0u);
  ASSERT_EQ(wheel.nodes_in_use(), 0u);  // every cancelled node was freed
}

class EventWheelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventWheelProperty, MatchesReferenceModel) {
  run_property_trial(GetParam(), /*ops=*/4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventWheelProperty,
                         ::testing::Values(1u, 42u, 20260805u));

// A directed FIFO burst: many events on one nanosecond, across kinds and
// cascade boundaries, must drain in exact push order.
TEST(EventWheelProperty, MassiveTieBreakIsFifo) {
  EventQueue q;
  std::vector<int> order;
  const Time when = milliseconds(3);  // lands in a far wheel, cascades down
  const auto call_fn = [](void* target, std::uint32_t aux) {
    static_cast<std::vector<int>*>(target)->push_back(static_cast<int>(aux));
  };
  for (int i = 0; i < 5000; ++i) {
    if (i % 2 == 0) {
      q.push_call(when, &order, static_cast<std::uint32_t>(i), call_fn);
    } else {
      q.push(when, [&order, i] { order.push_back(i); });
    }
  }
  while (!q.empty()) q.run_top();
  ASSERT_EQ(order.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

// --- the memoized pop -------------------------------------------------------
// Simulation::run_until peeks (next_time) and then pops (run_top); run_top
// reuses the peeked node when it sits in the near page. These pin down that
// the memo never outlives a change that could make it stale.

/// Pushes a callback that appends `tag` to `out`.
EventId push_tag(EventQueue& q, Time when, std::vector<int>& out, int tag) {
  return q.push(when, [&out, tag] { out.push_back(tag); });
}

TEST(EventWheelMemo, EarlierPushAfterPeekPopsFirst) {
  EventQueue q;
  std::vector<int> order;
  push_tag(q, 500, order, 1);
  ASSERT_EQ(q.next_time(), 500);  // memoizes the t=500 event
  push_tag(q, 200, order, 2);     // earlier than the memo, not before cursor
  Time when = 0;
  q.run_top(&when);
  EXPECT_EQ(when, 200);
  EXPECT_EQ(order, (std::vector<int>{2}));
  q.run_top(&when);
  EXPECT_EQ(when, 500);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(EventWheelMemo, EqualTimePushAfterPeekKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  push_tag(q, 700, order, 1);
  ASSERT_EQ(q.next_time(), 700);
  push_tag(q, 700, order, 2);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventWheelMemo, CancellingTheMemoPopsTheNextEvent) {
  EventQueue q;
  std::vector<int> order;
  const EventId first = push_tag(q, 100, order, 1);
  push_tag(q, 300, order, 2);
  ASSERT_EQ(q.next_time(), 100);
  q.cancel(first);
  ASSERT_EQ(q.size(), 1u);
  Time when = 0;
  q.run_top(&when);
  EXPECT_EQ(when, 300);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventWheelMemo, CancellingAnotherEventKeepsTheMemo) {
  EventQueue q;
  std::vector<int> order;
  push_tag(q, 100, order, 1);
  const EventId second = push_tag(q, 300, order, 2);
  push_tag(q, 400, order, 3);
  ASSERT_EQ(q.next_time(), 100);
  q.cancel(second);
  Time when = 0;
  q.run_top(&when);
  EXPECT_EQ(when, 100);
  q.run_top(&when);
  EXPECT_EQ(when, 400);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventWheelMemo, FarLevelMemoStillCascades) {
  // Each memo below lives outside the near page — in a far wheel or the
  // overflow heap — so run_top must cascade it down rather than reuse it.
  for (const Time far : {Time{20'000}, milliseconds(3), milliseconds(900),
                         seconds(200)}) {
    EventQueue q;
    std::vector<int> order;
    push_tag(q, far + 5, order, 2);
    push_tag(q, far, order, 1);
    ASSERT_EQ(q.next_time(), far) << far;
    push_tag(q, far, order, 3);  // ties the memo: FIFO puts it after tag 1
    Time when = 0;
    q.run_top(&when);
    EXPECT_EQ(when, far);
    // A push after the cascade lands relative to the new cursor.
    push_tag(q, far + 1, order, 4);
    while (!q.empty()) q.run_top();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 2})) << far;
  }
}

TEST(EventWheelMemo, NearPushBeatsAFarMemo) {
  EventQueue q;
  std::vector<int> order;
  push_tag(q, seconds(200), order, 1);  // overflow heap
  ASSERT_EQ(q.next_time(), seconds(200));
  push_tag(q, 10, order, 2);
  Time when = 0;
  q.run_top(&when);
  EXPECT_EQ(when, 10);
  q.run_top(&when);
  EXPECT_EQ(when, seconds(200));
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

// --- eager cancellation ------------------------------------------------------
// A cancelled wheel event leaves its slot list and the slab at once; only
// overflow-heap entries (more than ~137 s out) wait for their page.

TEST(EventWheelCancel, HeadMiddleAndTailCancelsKeepSurvivorsFifo) {
  // 500 ns is a near (level-0) slot; the others start in far slots and
  // cascade down, so the unlinks happen in a far slot's list.
  for (const Time when : {Time{500}, Time{20'000}, milliseconds(3),
                          milliseconds(900)}) {
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int tag = 0; tag < 7; ++tag) {
      ids.push_back(push_tag(q, when, order, tag));
    }
    q.cancel(ids[0]);  // head
    q.cancel(ids[3]);  // middle
    q.cancel(ids[6]);  // tail
    EXPECT_EQ(q.size(), 4u) << when;
    EXPECT_EQ(q.nodes_in_use(), 4u) << when;
    push_tag(q, when, order, 7);  // appends behind the new tail
    while (!q.empty()) q.run_top();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7})) << when;
    EXPECT_EQ(q.nodes_in_use(), 0u) << when;
  }
}

TEST(EventWheelCancel, ExecutingEventCancelsTheNewHeadOfItsSlot) {
  EventQueue q;
  std::vector<int> order;
  EventId second = 0;
  q.push(100, [&] {
    order.push_back(1);
    q.cancel(second);  // the head of this slot now that tag 1 is running
  });
  second = push_tag(q, 100, order, 2);
  push_tag(q, 100, order, 3);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));

  // Cancelling the slot's last survivor empties it mid-execution.
  EventId only = 0;
  q.push(200, [&] {
    order.push_back(4);
    q.cancel(only);
  });
  only = push_tag(q, 200, order, 5);
  push_tag(q, 300, order, 6);
  while (!q.empty()) q.run_top();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 6}));
  EXPECT_EQ(q.nodes_in_use(), 0u);
}

TEST(EventWheelCancel, OverflowCancelsAreFreedWhenTheirPageIsPulled) {
  EventQueue q;
  std::vector<int> order;
  const EventId dead = push_tag(q, seconds(200), order, 1);  // overflow heap
  push_tag(q, seconds(200) + 1, order, 2);
  q.cancel(dead);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.nodes_in_use(), 2u);  // the cancelled entry is still held
  EXPECT_EQ(q.next_time(), seconds(200) + 1);
  EXPECT_EQ(q.nodes_in_use(), 2u);  // a peek frees nothing
  Time when = 0;
  q.run_top(&when);
  EXPECT_EQ(when, seconds(200) + 1);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(q.nodes_in_use(), 0u);
}

TEST(EventWheelCancel, ArmAndCancelKeepsTheSlabBounded) {
  // The delayed-ACK pattern: arm a 40 ms timer, let 100 ns pass, cancel
  // it, re-arm. 100k cycles span 10 ms, well inside the timers' horizon,
  // so a wheel that only marked cancelled nodes would hold all of them.
  EventQueue q;
  std::vector<int> order;
  Time now = 0;
  for (int i = 0; i < 100'000; ++i) {
    const EventId timer = push_tag(q, now + milliseconds(40), order, -1);
    push_tag(q, now + 100, order, i);
    q.run_top(&now);
    q.cancel(timer);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order.size(), 100'000u);
  EXPECT_LE(q.capacity(), 4u);
  EXPECT_EQ(q.nodes_in_use(), 0u);
}

}  // namespace
}  // namespace planck::sim
