// Differential fuzz harness: the production timing wheel (sim::EventQueue)
// against the preserved pre-wheel binary heap (bench::BaselineHeapQueue).
//
// Both schedulers promise identical observable ordering: events pop in
// (time, push-order) order, FIFO at equal timestamps, and cancellation is
// an exact no-show. The harness feeds both the same operation stream and
// demands byte-identical pop order and timestamps; any divergence aborts
// with the step at which the schedulers disagreed.
//
// Time deltas are generated as base << shift with shift up to 39 bits so
// inputs exercise every wheel level — the 8192-slot nanosecond wheel, all
// three far wheels, cascade boundaries, and the >137 s overflow heap.
//
// Ops: push (2 of 5), cancel, pop, and a bare peek (next_time with no pop).
// The peek leaves the wheel's memoized minimum in place, so later pushes and
// cancels must invalidate it exactly when it stops being the minimum — the
// pop that follows reuses it.
//
// Memory invariant, checked after every op: the wheel's slab nodes in use
// equal the live events plus the cancelled overflow-heap entries not yet
// freed. A wheel-resident cancel frees its node at once; an overflow entry
// (its 2^37 ns page is past the cursor's) stays until the cursor enters
// that page, which the first pop inside it does.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baseline_heap_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace {

[[noreturn]] void divergence(const char* what, std::uint64_t step,
                             long long wheel, long long heap) {
  std::fprintf(stderr,
               "fuzz_wheel_vs_heap: DIVERGENCE (%s) at pop %llu: "
               "wheel=%lld heap=%lld\n",
               what, static_cast<unsigned long long>(step), wheel, heap);
  std::abort();
}

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t u8() { return pos < size ? data[pos++] : 0; }
  std::uint16_t u16() {
    return static_cast<std::uint16_t>(u8() | (u8() << 8));
  }
  bool done() const { return pos >= size; }
};

// The wheel's overflow boundary: events outside the cursor's 2^37 ns page
// wait in the overflow heap (sim/event_queue.hpp).
constexpr int kOverflowShift = 37;

struct Live {
  std::uint64_t seq;
  planck::sim::Time when;
  planck::sim::EventId wheel_id;
  planck::bench::BaselineHeapQueue::EventId heap_id;
};

// Each popped callback records its sequence number here; the driver
// compares the two records after every paired pop.
std::uint64_t g_wheel_seq = 0;
std::uint64_t g_heap_seq = 0;

}  // namespace

void planck_fuzz_one(const std::uint8_t* data, std::size_t size) {
  planck::sim::EventQueue wheel;
  planck::bench::BaselineHeapQueue heap;
  Reader in{data, size};

  // Both queues clamp nothing themselves below `now` because we only push
  // at now + delta, delta >= 0, where `now` is the last popped timestamp
  // (the wheel clamps earlier pushes to it; the heap would not — pushing
  // only forward keeps the comparison exact and matches the Simulation
  // driver's own monotonicity guarantee).
  planck::sim::Time now{0};
  std::uint64_t next_seq = 1;
  std::uint64_t pops = 0;
  std::vector<Live> live;
  // Pages of cancelled events still held in the wheel's overflow heap.
  std::vector<planck::sim::Time> cancelled_overflow;

  const auto check_memory = [&] {
    const std::size_t in_use = wheel.nodes_in_use();
    if (in_use != live.size() + cancelled_overflow.size()) {
      std::fprintf(stderr,
                   "fuzz_wheel_vs_heap: LEAK at pop %llu: %zu slab nodes in "
                   "use, %zu live + %zu cancelled overflow entries\n",
                   static_cast<unsigned long long>(pops), in_use, live.size(),
                   cancelled_overflow.size());
      std::abort();
    }
  };

  const auto pop_both = [&] {
    planck::sim::Time wheel_when{0};
    planck::sim::Time heap_when{0};
    const planck::sim::Time wheel_next = wheel.next_time();
    const planck::sim::Time heap_next = heap.next_time();
    if (wheel_next != heap_next) {
      divergence("next_time", pops, static_cast<long long>(wheel_next),
                 static_cast<long long>(heap_next));
    }
    g_wheel_seq = 0;
    g_heap_seq = 0;
    wheel.run_top(&wheel_when);
    heap.pop(&heap_when)();
    ++pops;
    if (wheel_when != heap_when) {
      divergence("pop time", pops, static_cast<long long>(wheel_when),
                 static_cast<long long>(heap_when));
    }
    if (g_wheel_seq != g_heap_seq) {
      divergence("pop order", pops, static_cast<long long>(g_wheel_seq),
                 static_cast<long long>(g_heap_seq));
    }
    now = wheel_when;
    // The cursor has entered now's page: every overflow entry up to it was
    // pulled, and the cancelled ones freed.
    std::erase_if(cancelled_overflow, [&](planck::sim::Time page) {
      return page <= (now >> kOverflowShift);
    });
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].seq == g_wheel_seq) {
        live[i] = live.back();
        live.pop_back();
        break;
      }
    }
  };

  while (!in.done()) {
    const std::uint8_t op = in.u8() % 5;
    if (op <= 1) {  // push (weighted 2x: keeps the queues populated)
      const std::uint64_t base = in.u8();
      const int shift = in.u8() % 40;  // up to ~2^39 ns spans the overflow
      const planck::sim::Time when = now + static_cast<planck::sim::Time>(
                                               base << shift);
      const std::uint64_t seq = next_seq++;
      const auto wheel_id = wheel.push(when, [seq] { g_wheel_seq = seq; });
      const auto heap_id = heap.push(when, [seq] { g_heap_seq = seq; });
      live.push_back(Live{seq, when, wheel_id, heap_id});
    } else if (op == 2) {  // cancel a live event in both queues
      if (!live.empty()) {
        const std::size_t i = in.u16() % live.size();
        wheel.cancel(live[i].wheel_id);
        heap.cancel(live[i].heap_id);
        const planck::sim::Time page = live[i].when >> kOverflowShift;
        if (page > (now >> kOverflowShift)) cancelled_overflow.push_back(page);
        live[i] = live.back();
        live.pop_back();
      }
    } else if (op == 3) {  // pop one from both, compare
      if (wheel.empty() != heap.empty()) {
        divergence("empty", pops, wheel.empty() ? 1 : 0, heap.empty() ? 1 : 0);
      }
      if (!wheel.empty()) pop_both();
    } else {  // bare peek: the wheel memoizes its minimum, nothing pops
      if (!wheel.empty()) {
        const planck::sim::Time wheel_next = wheel.next_time();
        const planck::sim::Time heap_next = heap.next_time();
        if (wheel_next != heap_next) {
          divergence("peek", pops, static_cast<long long>(wheel_next),
                     static_cast<long long>(heap_next));
        }
      }
    }
    check_memory();
  }

  // Drain: the full residual pop order must also match.
  while (!wheel.empty()) {
    if (heap.empty()) divergence("drain empty", pops, 0, 1);
    pop_both();
    check_memory();
  }
  if (!heap.empty()) divergence("drain empty", pops, 1, 0);
}

#include "fuzz_driver.hpp"
