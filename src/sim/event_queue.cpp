#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace planck::sim {
namespace {

// Min-heap on (when, seq) via the std heap algorithms' max-heap order.
struct OverflowLater {
  bool operator()(const auto& a, const auto& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

std::uint32_t scan_bits(const std::uint64_t* bits, int nwords,
                        std::uint32_t start) {
  const auto total = static_cast<std::uint32_t>(nwords) * 64;
  if (start >= total) return 0xffffffffu;
  int w = static_cast<int>(start >> 6);
  std::uint64_t word = bits[w] & (~0ULL << (start & 63));
  for (;;) {
    if (word != 0) {
      return static_cast<std::uint32_t>(w) * 64 +
             static_cast<std::uint32_t>(__builtin_ctzll(word));
    }
    if (++w >= nwords) return 0xffffffffu;
    word = bits[w];
  }
}

void set_bit(std::uint64_t* bits, std::uint32_t i) {
  bits[i >> 6] |= 1ULL << (i & 63);
}

void clear_bit(std::uint64_t* bits, std::uint32_t i) {
  bits[i >> 6] &= ~(1ULL << (i & 63));
}

}  // namespace

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() {
  // Pending nodes still own payloads (cancelled ones were destroyed at
  // cancel time); release them before the chunks go away.
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    Node& n = node(i);
    if (n.state == State::kPending) destroy_payload(n);
  }
}

std::size_t EventQueue::nodes_in_use() const {
  std::size_t used = 0;
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    if (node(i).state != State::kFree) ++used;
  }
  return used;
}

// --- slab -----------------------------------------------------------------

std::uint32_t EventQueue::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = node(idx).next;
    return idx;
  }
  const std::uint32_t idx = node_count_;
  if ((idx & (kChunkSize - 1)) == 0) {
    chunks_.emplace_back(new Node[kChunkSize]);
  }
  ++node_count_;
  return idx;
}

void EventQueue::free_node(std::uint32_t idx) {
  Node& n = node(idx);
  ++n.gen;  // invalidates every outstanding EventId for this slot
  n.state = State::kFree;
  n.next = free_head_;
  free_head_ = idx;
}

void EventQueue::destroy_payload(Node& n) {
  switch (n.kind) {
    case Kind::kCallback:
      n.u.cb.~Callback();
      break;
    case Kind::kPacket:
      n.u.dp.~DeliverPacket();
      break;
    case Kind::kCall:
      n.u.call.~Call();
      break;
  }
}

// --- scheduling -----------------------------------------------------------

std::uint32_t EventQueue::prepare(Time when) {
  if (when < cursor_) when = cursor_;  // time never moves backwards
  if (cached_ != kNil && when < cached_when_) {
    cached_ = kNil;  // the new event beats the memoized minimum
  }
  const std::uint32_t idx = alloc_node();
  Node& n = node(idx);
  n.when = when;
  n.seq = ++seq_;
  n.next = kNil;
  n.state = State::kPending;
  return idx;
}

EventId EventQueue::push(Time when, Callback cb) {
  const std::uint32_t idx = prepare(when);
  Node& n = node(idx);
  n.kind = Kind::kCallback;
  ::new (&n.u.cb) Callback(std::move(cb));
  insert(idx);
  ++live_;
  return (static_cast<EventId>(idx + 1) << 32) | n.gen;
}

EventId EventQueue::push_packet(Time when, void* target, std::uint32_t aux,
                                PacketFn fn, const net::Packet& packet) {
  const std::uint32_t idx = prepare(when);
  Node& n = node(idx);
  n.kind = Kind::kPacket;
  ::new (&n.u.dp) DeliverPacket{fn, target, aux, packet};
  insert(idx);
  ++live_;
  return (static_cast<EventId>(idx + 1) << 32) | n.gen;
}

EventId EventQueue::push_call(Time when, void* target, std::uint32_t aux,
                              CallFn fn) {
  const std::uint32_t idx = prepare(when);
  Node& n = node(idx);
  n.kind = Kind::kCall;
  ::new (&n.u.call) Call{fn, target, aux};
  insert(idx);
  ++live_;
  return (static_cast<EventId>(idx + 1) << 32) | n.gen;
}

void EventQueue::append(Slot& slot, std::uint64_t* bits,
                        std::uint32_t slot_index, std::uint32_t idx) {
  Node& n = node(idx);
  n.next = kNil;
  n.prev = slot.tail;
  if (slot.head == kNil) {
    slot.head = idx;
    set_bit(bits, slot_index);
  } else {
    node(slot.tail).next = idx;
  }
  slot.tail = idx;
}

void EventQueue::insert(std::uint32_t idx) {
  Node& n = node(idx);
  const Time when = n.when;
  if ((when >> kL0Bits) == (cursor_ >> kL0Bits)) {
    const auto s = static_cast<std::uint32_t>(when) & (kL0Slots - 1);
    n.level = 0;
    append(l0_[s], l0_bits_, s, idx);
    return;
  }
  for (int level = 0; level < kFarLevels; ++level) {
    const int shift = kFarShift[level];
    if ((when >> (shift + kFarBits)) == (cursor_ >> (shift + kFarBits))) {
      const auto s = static_cast<std::uint32_t>(when >> shift) &
                     (kFarSlots - 1);
      n.level = static_cast<std::uint8_t>(level + 1);
      append(far_[level][s], far_bits_[level], s, idx);
      return;
    }
  }
  n.level = kOverflowLevel;
  overflow_.push_back(OverflowEntry{when, n.seq, idx});
  std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
}

void EventQueue::unlink(std::uint32_t idx) {
  const Node& n = node(idx);
  assert(n.level != kOverflowLevel);
  // A node's slot follows from its level and its time, as in insert().
  Slot* slot = nullptr;
  std::uint64_t* bits = nullptr;
  std::uint32_t s = 0;
  if (n.level == 0) {
    s = static_cast<std::uint32_t>(n.when) & (kL0Slots - 1);
    slot = &l0_[s];
    bits = l0_bits_;
  } else {
    const int level = n.level - 1;
    s = static_cast<std::uint32_t>(n.when >> kFarShift[level]) &
        (kFarSlots - 1);
    slot = &far_[level][s];
    bits = far_bits_[level];
  }
  (n.prev == kNil ? slot->head : node(n.prev).next) = n.next;
  (n.next == kNil ? slot->tail : node(n.next).prev) = n.prev;
  if (slot->head == kNil) clear_bit(bits, s);
}

// --- cancellation ---------------------------------------------------------

void EventQueue::cancel(EventId id) {
  const auto idx_plus = static_cast<std::uint32_t>(id >> 32);
  if (idx_plus == 0 || idx_plus > node_count_) return;
  Node& n = node(idx_plus - 1);
  if (n.gen != static_cast<std::uint32_t>(id)) return;  // fired: safe no-op
  if (n.state != State::kPending) return;  // executing right now: no-op
  destroy_payload(n);  // release captured resources promptly
  --live_;
  // Only the memoized node itself stops being the minimum: cancelling any
  // other event leaves the earliest live one where it was.
  if (cached_ == idx_plus - 1) cached_ = kNil;
  if (n.level == kOverflowLevel) {
    n.state = State::kCancelled;  // freed when advance() pulls its page
    return;
  }
  unlink(idx_plus - 1);
  free_node(idx_plus - 1);
}

// --- popping --------------------------------------------------------------

Time EventQueue::next_time() {
  const std::uint32_t idx = peek();
  assert(idx != kNil);
  return node(idx).when;
}

void EventQueue::run_top(Time* when) {
  const std::uint32_t idx = find_next();
  assert(idx != kNil);
  Node& n = node(idx);
  if (when != nullptr) *when = n.when;

  // find_next always leaves its result at the head of a level-0 slot.
  assert(n.level == 0 && n.prev == kNil);
  unlink(idx);
  cached_ = kNil;
  --live_;
  n.state = State::kExecuting;  // cancel(own id) during execution: no-op

  // Execute in place: the chunked slab keeps `n` stable even if the event
  // pushes (growing the slab) while running.
  switch (n.kind) {
    case Kind::kCallback:
      n.u.cb();
      break;
    case Kind::kPacket:
      n.u.dp.fn(n.u.dp.target, n.u.dp.aux, n.u.dp.packet);
      break;
    case Kind::kCall:
      n.u.call.fn(n.u.call.target, n.u.call.aux);
      break;
  }
  destroy_payload(n);
  free_node(idx);
}

std::uint32_t EventQueue::find_next() {
  assert(live_ > 0);
  // The single-scan pop: the Simulation driver peeks (next_time) right
  // before it pops, so a memo in the near page is exactly what the scan
  // below would find — it is the surviving head of its level-0 slot, and
  // push/cancel drop the memo whenever it could stop being the minimum.
  if (cached_ != kNil && (cached_when_ >> kL0Bits) == (cursor_ >> kL0Bits)) {
    cursor_ = cached_when_;
    return cached_;
  }
  for (;;) {
    const std::uint32_t h = near_head();
    if (h != kNil) {
      cursor_ = node(h).when;
      return h;
    }
    if (!advance()) return kNil;  // unreachable while live_ > 0
  }
}

std::uint32_t EventQueue::near_head() {
  // Wheel slots hold only live nodes (cancel unlinks at once), and a
  // level-0 slot spans a single nanosecond with its list in push order, so
  // the head of the first occupied slot from the cursor on is the page's
  // (when, seq) minimum.
  const std::uint32_t s = scan_bits(l0_bits_, kL0Words,
                                    static_cast<std::uint32_t>(cursor_) &
                                        (kL0Slots - 1));
  return s == kNotFound ? kNil : l0_[s].head;
}

std::uint32_t EventQueue::peek() {
  if (cached_ != kNil) return cached_;
  assert(live_ > 0);
  // A pure read of the earliest (when, seq): it frees nothing, never moves
  // cursor_ and never cascades, so probing the queue cannot affect where
  // later pushes land.
  //
  // Level containment makes this a short walk: every event resident in a
  // far level is strictly later than every event one level below (the
  // cursor entering a page cascades that page's slot first), so the first
  // occupied level holds the minimum, and within a level the first
  // occupied slot does.
  std::uint32_t best = near_head();
  for (int level = 0; best == kNil && level < kFarLevels; ++level) {
    const int shift = kFarShift[level];
    const auto from = static_cast<std::uint32_t>(cursor_ >> shift) &
                      (kFarSlots - 1);
    const std::uint32_t fs = scan_bits(far_bits_[level], kFarWords, from);
    if (fs == kNotFound) continue;
    // A far slot spans many nanoseconds; walk it for the minimum.
    best = far_[level][fs].head;
    for (std::uint32_t h = node(best).next; h != kNil; h = node(h).next) {
      if (earlier(h, best)) best = h;
    }
  }
  if (best == kNil) {
    // Only the overflow heap holds cancelled entries, and its top may be
    // one: a pass over the heap finds the earliest live entry without
    // popping, so the peek stays pure. The wheel is empty here, and the
    // next pop pulls this page into it.
    for (const OverflowEntry& e : overflow_) {
      if (node(e.idx).state == State::kPending &&
          (best == kNil || earlier(e.idx, best))) {
        best = e.idx;
      }
    }
    if (best == kNil) return kNil;  // unreachable while live_ > 0
  }
  cached_ = best;
  cached_when_ = node(best).when;
  return best;
}

bool EventQueue::advance() {
  // The near page is drained; cascade the next occupied far slot down one
  // level. The far slot covering the *current* position at each level is
  // always empty (it was cascaded when the cursor entered it), so scanning
  // from the current index inclusive is safe.
  for (int level = 0; level < kFarLevels; ++level) {
    const int shift = kFarShift[level];
    const auto from = static_cast<std::uint32_t>(cursor_ >> shift) &
                      (kFarSlots - 1);
    const std::uint32_t s = scan_bits(far_bits_[level], kFarWords, from);
    if (s == kNotFound) continue;
    // Jump the cursor to the base of that slot (lower-level indices reset
    // to zero) before re-bucketing, so insert() routes into the new page.
    const Time page_mask = (Time{1} << (shift + kFarBits)) - 1;
    cursor_ = (cursor_ & ~page_mask) | (static_cast<Time>(s) << shift);
    cascade(level, s);
    return true;
  }
  if (overflow_.empty()) return false;
  // Pull the next occupied L3 page out of the overflow heap. Popping in
  // (when, seq) order keeps equal-time events in push order, preserving the
  // FIFO invariant through the re-bucketing.
  const Time page = overflow_.front().when >> kOverflowShift;
  if (page != (cursor_ >> kOverflowShift)) {
    cursor_ = page << kOverflowShift;
  }
  while (!overflow_.empty() &&
         (overflow_.front().when >> kOverflowShift) == page) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    const std::uint32_t idx = overflow_.back().idx;
    overflow_.pop_back();
    if (node(idx).state == State::kCancelled) {
      free_node(idx);
    } else {
      insert(idx);
    }
  }
  return true;
}

void EventQueue::cascade(int level, std::uint32_t slot_index) {
  Slot& slot = far_[level][slot_index];
  std::uint32_t h = slot.head;
  slot.head = slot.tail = kNil;
  clear_bit(far_bits_[level], slot_index);
  // Re-bucketing in list order preserves the relative order of equal-time
  // events (lists are appended in push order), which is what keeps FIFO
  // ties exact across cascades.
  while (h != kNil) {
    const std::uint32_t next = node(h).next;
    insert(h);
    h = next;
  }
}

}  // namespace planck::sim
