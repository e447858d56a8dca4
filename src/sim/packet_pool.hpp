#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace planck::sim {

/// Packet storage for the data plane's FIFO queues (switch output ports,
/// host NICs): a chunked slab of packet slots with a free list. Each
/// Simulation owns one (Simulation::packet_pool), so every ParallelEngine
/// partition has its own and only that partition's thread touches it: the
/// pool is partition-owned through its Simulation, like the EventQueue.
///
/// A queue is a singly linked list of slots (PacketPool::Queue: head, tail,
/// size), so enqueue and dequeue never allocate once the slab has grown to
/// the run's peak occupancy. All queues of a partition share the slab, so
/// memory follows the peak of the *sum* of queue depths, not the sum of
/// per-queue peaks that per-port ring buffers would keep. Chunks never
/// move: a reference from front() stays valid while other queues grow.
class PacketPool {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A FIFO of pool slots, owned by one component. Default-constructed
  /// empty; holds no memory of its own.
  class Queue {
   public:
    bool empty() const { return head_ == kNil; }
    std::size_t size() const { return size_; }

   private:
    friend class PacketPool;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
    std::uint32_t size_ = 0;
  };

  /// Appends a copy of `packet` to the back of `q`.
  void push_back(Queue& q, const net::Packet& packet) {
    const std::uint32_t idx = alloc();
    Slot& s = slot(idx);
    s.packet = packet;
    s.next = kNil;
    if (q.tail_ == kNil) {
      q.head_ = idx;
    } else {
      slot(q.tail_).next = idx;
    }
    q.tail_ = idx;
    ++q.size_;
  }

  /// The oldest packet of `q`. Precondition: !q.empty().
  net::Packet& front(const Queue& q) {
    assert(!q.empty());
    return slot(q.head_).packet;
  }

  /// Removes the oldest packet of `q`, returning its slot to the pool.
  /// Precondition: !q.empty().
  void pop_front(Queue& q) {
    assert(!q.empty());
    const std::uint32_t idx = q.head_;
    q.head_ = slot(idx).next;
    if (q.head_ == kNil) q.tail_ = kNil;
    --q.size_;
    release(idx);
  }

  /// Keeps the first `keep` packets of `q` and returns every later slot to
  /// the pool, calling `on_drop(packet)` on each dropped packet in queue
  /// order first.
  template <typename OnDrop>
  void truncate(Queue& q, std::size_t keep, OnDrop&& on_drop) {
    if (q.size_ <= keep) return;
    std::uint32_t last = kNil;  // the last kept slot
    std::uint32_t idx = q.head_;
    for (std::size_t i = 0; i < keep; ++i) {
      last = idx;
      idx = slot(idx).next;
    }
    while (idx != kNil) {
      const std::uint32_t next = slot(idx).next;
      on_drop(static_cast<const net::Packet&>(slot(idx).packet));
      release(idx);
      idx = next;
    }
    if (last == kNil) {
      q.head_ = kNil;
    } else {
      slot(last).next = kNil;
    }
    q.tail_ = last;
    q.size_ = static_cast<std::uint32_t>(keep);
  }

  /// Slots currently held by some queue.
  std::size_t live() const { return live_; }
  /// Slots the slab has grown to (live plus free).
  std::size_t capacity() const { return slot_count_; }

 private:
  struct Slot {
    net::Packet packet;
    std::uint32_t next = kNil;  // queue link, or free-list link
  };

  static constexpr std::uint32_t kChunkBits = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  std::uint32_t alloc() {
    ++live_;
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = slot(idx).next;
      return idx;
    }
    const std::uint32_t idx = slot_count_++;
    if ((idx & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    return idx;
  }

  void release(std::uint32_t idx) {
    --live_;
    slot(idx).next = free_head_;
    free_head_ = idx;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
};

}  // namespace planck::sim
