// LCRQ: Morrison & Afek's lock-free linked concurrent ring queue
// (PPoPP'13), the best-performing prior queue in the paper's Figure 2.
//
// Each segment is a CRQ: a ring of R cells indexed by unbounded head/tail
// counters. FAA acquires an index; a double-width CAS (CAS2) transitions
// the 16-byte cell (state word, value word). A CRQ that fills or livelocks
// is "closed" (tail bit 63) and a fresh CRQ is linked behind it, MS-Queue
// style. Hazard pointers reclaim drained CRQs (added by the paper's
// evaluation, §5.1).
//
// Cell state word layout: bit 63 = "safe", bits 62..0 = cell index. A cell
// (safe=1, idx=k, val=EMPTY) accepts an enqueue for index k' >= k (k' ≡ k
// mod R); dequeuers that overtake an index mark the cell unsafe so a tardy
// enqueuer cannot deposit a value that would never be found.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/align.hpp"
#include "common/atomics.hpp"
#include "core/slot_codec.hpp"
#include "memory/hazard_pointers.hpp"

namespace wfq::baselines {

template <class T, std::size_t kRingSize = 4096>
class LCRQ {
  static_assert((kRingSize & (kRingSize - 1)) == 0,
                "ring size must be a power of two");

  using Codec = SlotCodec<T>;
  static constexpr uint64_t kEmptyVal = ~uint64_t{0};  // codec never emits it
  static constexpr uint64_t kSafeBit = uint64_t{1} << 63;
  static constexpr uint64_t kIdxMask = kSafeBit - 1;
  static constexpr uint64_t kClosedBit = uint64_t{1} << 63;  // on CRQ tail
  /// Enqueue attempts on one CRQ before declaring livelock and closing it
  /// (Morrison & Afek's starvation counter).
  static constexpr int kStarvationLimit = 4096;

  struct CRQ {
    CacheAligned<std::atomic<uint64_t>> head;
    CacheAligned<std::atomic<uint64_t>> tail;  // bit 63: closed
    CacheAligned<std::atomic<CRQ*>> next;
    U128 ring[kRingSize];

    explicit CRQ(uint64_t first_val = kEmptyVal) {
      head->store(0, std::memory_order_relaxed);
      next->store(nullptr, std::memory_order_relaxed);
      for (std::size_t i = 0; i < kRingSize; ++i) {
        ring[i] = U128{kSafeBit | i, kEmptyVal};
      }
      if (first_val != kEmptyVal) {
        // Seed a fresh CRQ with the value whose enqueue closed the old one.
        ring[0] = U128{kSafeBit | 0, first_val};
        tail->store(1, std::memory_order_relaxed);
      } else {
        tail->store(0, std::memory_order_relaxed);
      }
    }
  };

  using Domain = HazardPointerDomain<1>;

 public:
  using value_type = T;

  class Handle {
   public:
    Handle(Handle&& o) noexcept : q_(o.q_), rec_(o.rec_) { o.rec_ = nullptr; }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      if (rec_ != nullptr) q_->hp_.release(rec_);
    }

   private:
    friend class LCRQ;
    explicit Handle(LCRQ& q) : q_(&q), rec_(q.hp_.acquire()) {}
    LCRQ* q_;
    typename Domain::ThreadRec* rec_;
  };

  LCRQ() {
    CRQ* crq = aligned_new<CRQ>();
    head_->store(crq, std::memory_order_relaxed);
    tail_->store(crq, std::memory_order_relaxed);
  }

  LCRQ(const LCRQ&) = delete;
  LCRQ& operator=(const LCRQ&) = delete;

  ~LCRQ() {
    // Drain boxed payloads, then free the CRQ list.
    CRQ* crq = head_->load(std::memory_order_relaxed);
    while (crq != nullptr) {
      if constexpr (Codec::kBoxed) {
        // Visit each physical cell once: a non-empty value word is a
        // deposited-but-unconsumed payload (consumed cells are reset to
        // kEmptyVal by the dequeue transition).
        for (std::size_t i = 0; i < kRingSize; ++i) {
          uint64_t v = crq->ring[i].hi;
          if (v != kEmptyVal) Codec::destroy_slot(v);
        }
      }
      CRQ* next = crq->next->load(std::memory_order_relaxed);
      aligned_delete(crq);
      crq = next;
    }
  }

  Handle get_handle() { return Handle(*this); }

  void enqueue(Handle& h, T v) {
    uint64_t val = Codec::encode(std::move(v));
    for (;;) {
      CRQ* crq = hp_.protect(h.rec_, 0, *tail_);
      CRQ* next = crq->next->load(std::memory_order_acquire);
      if (next != nullptr) {
        // Tail CRQ pointer lagging; help swing it.
        tail_->compare_exchange_strong(crq, next, std::memory_order_release,
                                       std::memory_order_relaxed);
        continue;
      }
      if (crq_enqueue(crq, val)) {
        hp_.clear(h.rec_, 0);
        return;
      }
      // CRQ closed: link a fresh one seeded with our value.
      CRQ* ncrq = aligned_new<CRQ>(val);
      CRQ* expected = nullptr;
      if (crq->next->compare_exchange_strong(expected, ncrq,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
        tail_->compare_exchange_strong(crq, ncrq, std::memory_order_release,
                                       std::memory_order_relaxed);
        hp_.clear(h.rec_, 0);
        return;
      }
      aligned_delete(ncrq);  // lost the linking race; retry on the winner
    }
  }

  std::optional<T> dequeue(Handle& h) {
    for (;;) {
      CRQ* crq = hp_.protect(h.rec_, 0, *head_);
      uint64_t val;
      if (crq_dequeue(crq, val)) {
        hp_.clear(h.rec_, 0);
        return Codec::decode(val);
      }
      // This CRQ observed empty. Without a successor, the queue is empty;
      // with one, the CRQ is closed — retire it and move on once drained.
      if (crq->next->load(std::memory_order_acquire) == nullptr) {
        hp_.clear(h.rec_, 0);
        return std::nullopt;
      }
      // A successor exists, so the CRQ is closed, but values enqueued after
      // our empty observation and before the close may still be in it: look
      // again before leaving it. A closed CRQ hands out no new enqueue
      // indices, so an empty result now means every index left in it has
      // a dequeuer.
      if (crq_dequeue(crq, val)) {
        hp_.clear(h.rec_, 0);
        return Codec::decode(val);
      }
      CRQ* expected = crq;
      if (head_->compare_exchange_strong(expected,
                                         crq->next->load(std::memory_order_acquire),
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
        hp_.clear(h.rec_, 0);
        hp_.retire(h.rec_, crq,
                   [](void* p) { aligned_delete(static_cast<CRQ*>(p)); });
      }
    }
  }

  /// Diagnostics: CRQ segments currently linked (test helper).
  std::size_t live_crqs() const {
    std::size_t n = 0;
    for (CRQ* c = head_->load(std::memory_order_acquire); c != nullptr;
         c = c->next->load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

 private:
  static bool closed(uint64_t tail_word) {
    return (tail_word & kClosedBit) != 0;
  }

  /// Enqueue into one CRQ; false <=> the CRQ is (now) closed.
  bool crq_enqueue(CRQ* q, uint64_t val) {
    int attempts = 0;
    for (;;) {
      uint64_t t_raw = q->tail->fetch_add(1, std::memory_order_seq_cst);
      if (closed(t_raw)) return false;
      uint64_t t = t_raw & kIdxMask;
      U128* cell = &q->ring[t & (kRingSize - 1)];
      U128 c = load2(cell);
      uint64_t idx = c.lo & kIdxMask;
      bool safe = (c.lo & kSafeBit) != 0;
      if (c.hi == kEmptyVal && idx <= t &&
          (safe || q->head->load(std::memory_order_seq_cst) <= t)) {
        if (cas2(cell, c, U128{kSafeBit | t, val})) return true;
      }
      // Full or starving: close the CRQ so the list can grow.
      uint64_t head = q->head->load(std::memory_order_seq_cst);
      if (t - head >= kRingSize || ++attempts >= kStarvationLimit) {
        q->tail->fetch_or(kClosedBit, std::memory_order_seq_cst);
        return false;
      }
    }
  }

  /// Dequeue from one CRQ; false <=> the CRQ was observed empty.
  bool crq_dequeue(CRQ* q, uint64_t& out) {
    for (;;) {
      uint64_t h = q->head->fetch_add(1, std::memory_order_seq_cst);
      U128* cell = &q->ring[h & (kRingSize - 1)];
      for (;;) {
        U128 c = load2(cell);
        uint64_t idx = c.lo & kIdxMask;
        uint64_t safe_bit = c.lo & kSafeBit;
        if (c.hi != kEmptyVal) {
          if (idx == h) {
            // Our value: consume it, advancing the cell to the next lap.
            if (cas2(cell, c, U128{safe_bit | (h + kRingSize), kEmptyVal})) {
              out = c.hi;
              return true;
            }
          } else {
            // A value for a later lap: mark the cell unsafe so its
            // enqueuer's lap-h peer cannot deposit at an index we passed.
            if (cas2(cell, c, U128{idx, c.hi})) break;
          }
        } else {
          // Empty cell: advance its index so a tardy lap-h enqueuer fails.
          if (cas2(cell, c, U128{safe_bit | (h + kRingSize), kEmptyVal})) {
            break;
          }
        }
      }
      // Missed; if the CRQ has no more values, report empty.
      uint64_t t = q->tail->load(std::memory_order_seq_cst) & kIdxMask;
      if (t <= h + 1) {
        fix_state(q);
        return false;
      }
    }
  }

  /// After dequeuers overrun the tail, push tail back up to head so the
  /// next enqueue lands on a live index (Morrison & Afek's fixState).
  void fix_state(CRQ* q) {
    for (;;) {
      uint64_t t_raw = q->tail->load(std::memory_order_seq_cst);
      uint64_t h = q->head->load(std::memory_order_seq_cst);
      if ((t_raw & kIdxMask) >= h) return;
      uint64_t desired = (t_raw & kClosedBit) | h;
      if (q->tail->compare_exchange_strong(t_raw, desired,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed)) {
        return;
      }
    }
  }

  CacheAligned<std::atomic<CRQ*>> head_;
  CacheAligned<std::atomic<CRQ*>> tail_;
  Domain hp_;
};

}  // namespace wfq::baselines
