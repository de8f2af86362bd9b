// wCQ-style wait-free bounded queue (after Nikolaev & Ravindran,
// PPoPP'22; arXiv:2201.02179), built on the SCQ ring geometry of
// core/scq.hpp.
//
// Shape: the same SCQD construction as ScqQueue — fq (free indices, a
// plain single-width ScqRing) + aq (allocated indices) + n data slots —
// but aq's entries are double-width (U128: the SCQ meta word plus a tag
// word) and its enqueue has a helping slow path, which is what upgrades
// the enqueue side from lock-free to wait-free:
//
//   fast path   bounded SCQ install attempts (kPatience tickets, each one
//               FAA + CAS2). Fast installs carry tag 0 = final.
//   slow path   the enqueuer publishes a request in its handle —
//               a 16-byte (state, candidate-ticket) pair mutated only by
//               CAS2 — and then *helps itself* with the same routine every
//               other thread uses to help it:
//
//                 candidate   FAA a ticket, CAS2 it into the request
//                 prepare     CAS2 the ring entry to (cycle, idx) with a
//                             tag naming (handle, seq, PREPARED)
//                 commit      CAS2 the request kHaveIdx -> kDone; the CAS
//                             validates the candidate is still current, so
//                             exactly one prepare per request commits
//                 finalize    CAS2 the entry's tag PREPARED -> FINAL;
//                             only FINAL (or tag-0) entries are consumable
//                 retract     a prepare whose request moved on (committed
//                             elsewhere, or candidate advanced) is CAS2'd
//                             back to an unsafe ⊥ entry by whoever meets it
//
//               A candidate is abandoned (new ticket, CAS2'd over the old
//               one) only against *dead evidence* — the entry's cycle
//               reached the candidate's with a foreign tag, or an
//               unusable older entry was first poisoned to the candidate
//               cycle — so a stalled helper's late prepare either fails
//               its CAS2, fails its commit, or is retracted before any
//               consumer can take it: values are delivered exactly once.
//
// Dequeue is the SCQ dequeue over the double-width entries (consume
// preserves the tag so helpers can still see their install happened) with
// one addition: consumers meeting a PREPARED entry help the owning request
// commit-or-retract before deciding, and a dequeuer about to report EMPTY
// first helps pending enqueue requests on the handle ring and retries
// once — so a value whose owner stalled mid-slow-path is still delivered
// (the stall/conservation property tests/fault/wcq_fault_test.cpp checks).
// Dequeue itself stays lock-free with threshold-bounded EMPTY detection;
// the full paper also runs dequeues through request helping, a deviation
// docs/ALGORITHM.md §13 spells out.
//
// Memory is bounded at construction: two rings of 2n entries and n slots;
// footprint_bytes() is exact and never grows, stalled threads or not.
//
// Precondition (inherited from the SCQ rings): capacity must be at least
// the number of threads operating concurrently — the threshold empty-
// detection bound counts holes per in-flight operation. See the matching
// note on ScqQueue.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/align.hpp"
#include "common/atomics.hpp"
#include "core/handle_registry.hpp"
#include "core/op_stats.hpp"
#include "core/queue_concepts.hpp"
#include "core/scq.hpp"
#include "core/slot_codec.hpp"
#include "harness/fault_inject.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"

namespace wfq {

namespace detail {

/// Fast-path install attempts before an enqueue publishes a request (the
/// wCQ paper's PATIENCE). Overridable via `Traits::kWcqPatience` — tests
/// set 0 to force every enqueue through the helping slow path.
template <class Traits, class = void>
struct WcqPatience {
  static constexpr int value = 16;
};
template <class Traits>
struct WcqPatience<Traits, std::void_t<decltype(Traits::kWcqPatience)>> {
  static constexpr int value = Traits::kWcqPatience;
};

}  // namespace detail

template <class T, class Traits = DefaultRingTraits>
class WcqQueue {
  using Codec = SlotCodec<T>;
  using Metrics = obs::MetricsOf<Traits>;
  using Faa = typename detail::RingFaaOf<Traits>::type;

 public:
  using value_type = T;
  using Traits_ = Traits;
  static constexpr const char* kName = "wcq";
  /// Enqueue is wait-free (FAA fast path + request helping); dequeue is
  /// lock-free with threshold-bounded EMPTY detection — see the header
  /// comment and docs/ALGORITHM.md §13 for the exact claim.
  static constexpr bool kIsWaitFree = Faa::kWaitFree;
  static constexpr bool kCollectStats = detail::RingCollectStats<Traits>::value;

  /// Per-thread record: stats/obs plus the published enqueue request other
  /// threads help complete. Registered through HandleRegistry like every
  /// backend; the ring link doubles as the helping scan order.
  struct Rec {
    std::atomic<Rec*> next{nullptr};
    /// (state, candidate ticket), mutated only by CAS2.
    /// state: [seq:37 | idx:25 | phase:2]; ticket 0 = none chosen yet.
    U128 req;
    uint16_t id = 0;          ///< 1-based, names this rec in entry tags
    uint64_t enq_seq = 0;     ///< owner-local; bumped per slow-path op
    uint64_t help_tick = 0;   ///< owner-local; paces periodic peer helping
    std::atomic<Rec*> peer{nullptr};  ///< next handle to help
    OpStats stats;
    typename Metrics::PerHandle obs;
    Rec* next_free = nullptr;
  };

  class HandleGuard {
   public:
    explicit HandleGuard(WcqQueue& q) : q_(&q), h_(q.register_handle()) {}
    ~HandleGuard() {
      if (h_ != nullptr) q_->release_handle(h_);
    }
    HandleGuard(HandleGuard&& o) noexcept : q_(o.q_), h_(o.h_) {
      o.h_ = nullptr;
    }
    HandleGuard(const HandleGuard&) = delete;
    HandleGuard& operator=(const HandleGuard&) = delete;
    Rec* get() const noexcept { return h_; }
    Rec* operator->() const noexcept { return h_; }

   private:
    WcqQueue* q_;
    Rec* h_;
  };
  using Handle = HandleGuard;

  explicit WcqQueue(std::size_t capacity = kDefaultCapacity)
      : n_(detail::ceil_pow2(capacity < 2 ? 2 : capacity)),
        ring_(2 * n_),
        lg_ring_(detail::log2_pow2(2 * n_)),
        fq_(n_),
        entries_(new U128[2 * n_]),
        data_(new std::atomic<uint64_t>[n_]),
        rec_table_(new std::atomic<Rec*>[kMaxRecs]),
        registry_(nrcl_) {
    assert(n_ <= (std::size_t{1} << 24) && "capacity exceeds the idx field");
    fq_.init_full();
    for (std::size_t j = 0; j < ring_; ++j) {
      entries_[j] = U128{pack(0, true, bot()), 0};
    }
    head_->store(ring_, std::memory_order_relaxed);
    tail_->store(ring_, std::memory_order_relaxed);
    threshold_->store(-1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxRecs; ++i) {
      rec_table_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  WcqQueue(const WcqQueue&) = delete;
  WcqQueue& operator=(const WcqQueue&) = delete;

  ~WcqQueue() {
    // Single-threaded by contract here: drain so boxed payloads are freed.
    auto h = get_handle();
    while (dequeue(h)) {
    }
  }

  Handle get_handle() { return Handle(*this); }

  /// kOk or kFull. Full is decided at the free-index ring: once an index
  /// is held, insertion always completes (helped if need be) — so this
  /// never spuriously reports full and never blocks on a non-full queue.
  /// The index is reserved *before* the value is encoded, so on kFull `v`
  /// is left untouched — callers can park and retry without copies.
  EnqueueResult try_enqueue(Handle& h, T&& v) {
    Rec* r = h.get();
    const uint64_t t0 = obs_start(r);
    uint64_t idx = 0;
    uint64_t probes = 0;
    if (!acquire_index(r, &idx, &probes)) return EnqueueResult::kFull;
    publish_index(r, idx, Codec::encode(std::move(v)), probes, t0);
    return EnqueueResult::kOk;
  }
  EnqueueResult try_enqueue(Handle& h, const T& v) {
    T copy = v;
    return try_enqueue(h, std::move(copy));
  }

  /// Backpressure-blocking convenience: spins with backoff while full.
  void enqueue(Handle& h, T v) {
    Backoff backoff;
    unsigned spins = 0;
    while (try_enqueue(h, std::move(v)) != EnqueueResult::kOk) {
      // Yield once backoff saturates: on an oversubscribed machine the
      // consumer that would free a slot may share our core, and spinning
      // through a scheduler quantum starves it.
      if (++spins >= 16) {
        std::this_thread::yield();
      } else {
        backoff.pause();
      }
    }
  }

  /// Oldest value, or nullopt <=> linearizably empty. Before reporting
  /// empty, helps pending enqueue requests once and re-checks, so stalled
  /// enqueuers cannot strand delivered-but-uncommitted values.
  std::optional<T> dequeue(Handle& h) {
    Rec* r = h.get();
    const uint64_t t0 = obs_start(r);
    uint64_t probes = 0;
    for (int attempt = 0; attempt < 2; ++attempt) {
      uint64_t idx = 0;
      if (deq_idx(&idx, probes)) {
        const uint64_t slot = data_[idx].load(std::memory_order_relaxed);
        fq_.enqueue(idx, probes);
        if constexpr (kCollectStats) {
          r->stats.deq_fast.fetch_add(1, std::memory_order_relaxed);
          note_probes(r->stats.deq_probes, r->stats.max_deq_probes, probes);
        }
        obs_record_deq(r, t0);
        return Codec::decode(slot);
      }
      if (attempt == 0 && !help_peers(r)) break;
    }
    if constexpr (kCollectStats) {
      r->stats.deq_empty.fetch_add(1, std::memory_order_relaxed);
      note_probes(r->stats.deq_probes, r->stats.max_deq_probes, probes);
    }
    return std::nullopt;
  }

  std::size_t capacity() const noexcept { return n_; }

  std::size_t approx_size() const noexcept {
    const uint64_t t = tail_->load(std::memory_order_acquire);
    const uint64_t hd = head_->load(std::memory_order_acquire);
    const int64_t d = int64_t(t - hd);
    if (d <= 0) return 0;
    return std::size_t(d) < n_ ? std::size_t(d) : n_;
  }

  /// Exact construction-time footprint; never grows (the bounded-memory
  /// property the stalled-thread soak asserts).
  std::size_t footprint_bytes() const noexcept {
    return sizeof(WcqQueue) + fq_.footprint_bytes() +
           ring_ * sizeof(U128) + n_ * sizeof(std::atomic<uint64_t>) +
           kMaxRecs * sizeof(std::atomic<Rec*>);
  }

  OpStats stats() const {
    OpStats total;
    registry_.for_each([&](const Rec* r) { total.add(r->stats); });
    if constexpr (fault::InjectorOf<Traits>::kEnabled) {
      using Inj = fault::InjectorOf<Traits>;
      total.injected_stalls.fetch_add(Inj::stalls(),
                                      std::memory_order_relaxed);
      total.injected_crashes.fetch_add(Inj::crashes(),
                                       std::memory_order_relaxed);
    }
    return total;
  }

  void reset_stats() {
    registry_.for_each([](Rec* r) { r->stats.reset(); });
  }

  /// `include_global_ring = false` is for multi-instance aggregators (the
  /// sharded layer), which fold the shared process-global ring in once.
  obs::ObsSnapshot collect_obs(bool include_global_ring = true) const {
    obs::ObsSnapshot snap;
    if constexpr (Metrics::kEnabled) {
      registry_.for_each([&](const Rec* r) {
        snap.enq_ns.merge(r->obs.enq_ns);
        snap.deq_ns.merge(r->obs.deq_ns);
        snap.absorb_ring(r->obs.ring);
      });
      if (include_global_ring) snap.absorb_ring(Metrics::global_ring());
      snap.sort_events();
    }
    return snap;
  }

  void reset_obs() {
    if constexpr (Metrics::kEnabled) {
      registry_.for_each([](Rec* r) {
        const uint32_t id = r->obs.id;
        r->obs = typename Metrics::PerHandle{};
        r->obs.id = id;
      });
    }
  }

 private:
  static constexpr std::size_t kDefaultCapacity = 65536;
  static constexpr std::size_t kMaxRecs = 4096;
  static constexpr int kPatience = detail::WcqPatience<Traits>::value;
  /// Helping iterations a non-owner invests per pending request.
  static constexpr int kHelpBudget = 64;

  // ---- request state word: [seq:37 | idx:25 | phase:2] ------------------
  static constexpr uint64_t kPhaseIdle = 0;
  static constexpr uint64_t kPhaseHaveIdx = 1;
  static constexpr uint64_t kPhaseDone = 2;
  static constexpr uint64_t kIdxMask = (uint64_t{1} << 25) - 1;
  static constexpr uint64_t kSeqMask = (uint64_t{1} << 37) - 1;

  static constexpr uint64_t make_state(uint64_t seq, uint64_t idx,
                                       uint64_t phase) noexcept {
    return ((seq & kSeqMask) << 27) | ((idx & kIdxMask) << 2) | phase;
  }
  static constexpr uint64_t state_phase(uint64_t s) noexcept { return s & 3; }
  static constexpr uint64_t state_idx(uint64_t s) noexcept {
    return (s >> 2) & kIdxMask;
  }
  static constexpr uint64_t state_seq(uint64_t s) noexcept {
    return (s >> 27) & kSeqMask;
  }

  // ---- entry tag word: [rec_id:16 | seq:46 | flags:2] -------------------
  static constexpr uint64_t kTagPrepared = 1;
  static constexpr uint64_t kTagFinal = 2;

  static constexpr uint64_t make_tag(uint16_t id, uint64_t seq,
                                     uint64_t flag) noexcept {
    return (uint64_t(id) << 48) | ((seq & kSeqMask) << 2) | flag;
  }
  static constexpr uint16_t tag_rec(uint64_t tag) noexcept {
    return uint16_t(tag >> 48);
  }
  static constexpr uint64_t tag_seq(uint64_t tag) noexcept {
    return (tag >> 2) & kSeqMask;
  }
  static constexpr uint64_t tag_flag(uint64_t tag) noexcept { return tag & 3; }

  // ---- entry meta word: same packing as ScqRing -------------------------
  uint64_t bot() const noexcept { return idx_mask(); }
  uint64_t idx_mask() const noexcept { return (uint64_t{1} << lg_ring_) - 1; }
  uint64_t safe_mask() const noexcept { return uint64_t{1} << lg_ring_; }
  uint64_t pack(uint64_t cycle, bool safe, uint64_t idx) const noexcept {
    return (cycle << (lg_ring_ + 1)) | (uint64_t(safe) << lg_ring_) | idx;
  }
  uint64_t cycle_of(uint64_t e) const noexcept { return e >> (lg_ring_ + 1); }
  bool safe_of(uint64_t e) const noexcept { return (e & safe_mask()) != 0; }
  uint64_t idx_of(uint64_t e) const noexcept { return e & idx_mask(); }
  int64_t threshold_reset() const noexcept { return int64_t(3 * n_) - 1; }

  std::size_t remap(uint64_t pos) const noexcept {
    const uint64_t i = pos & (ring_ - 1);
    if (lg_ring_ <= 3) return std::size_t(i);
    return std::size_t(((i << 3) | (i >> (lg_ring_ - 3))) & (ring_ - 1));
  }

  /// Inverse of remap: recover the ring offset from the storage slot, so a
  /// consumer can reconstruct the exact ticket a PREPARED entry was
  /// installed under (ticket = cycle * ring + offset).
  uint64_t unremap(std::size_t j) const noexcept {
    const uint64_t i = uint64_t(j);
    if (lg_ring_ <= 3) return i;
    return ((i >> 3) | (i << (lg_ring_ - 3))) & (ring_ - 1);
  }

  uint64_t ticket_of(uint64_t cycle, std::size_t j) const noexcept {
    return (cycle << lg_ring_) | unremap(j);
  }

  // ---- registration -----------------------------------------------------

  Rec* register_handle() {
    return registry_.acquire(
        /*on_recycle=*/
        [](Rec* r) {
          (void)r;
          assert(state_phase(load2(&r->req).lo) != kPhaseHaveIdx &&
                 "recycled a rec with a live enqueue request");
        },
        /*pre_attach=*/
        [this](Rec* r, std::size_t index) {
          assert(index + 1 < kMaxRecs && "handle table exhausted");
          r->id = uint16_t(index + 1);
          r->req = U128{make_state(0, kIdxMask, kPhaseIdle), 0};
          rec_table_[index + 1].store(r, std::memory_order_release);
          if constexpr (Metrics::kEnabled) {
            r->obs.id = uint32_t(index) + 1;
          }
        },
        /*at_link=*/
        [](Rec* r, Rec* after) {
          r->peer.store(after, std::memory_order_relaxed);
        });
  }

  void release_handle(Rec* r) {
    registry_.release(r, [this](Rec* victim) {
      // Orphan adoption: finish a request the releasing thread (crashed,
      // in the fault harness) left pending, so its value is not stranded
      // and the rec can be recycled. Mirrors WFQueueCore's release path.
      // A committed request still needs its entry finalized (help_enq).
      U128 st = load2(&victim->req);
      if (state_phase(st.lo) != kPhaseIdle) {
        help_enq(victim, /*owner=*/true);
        if constexpr (kCollectStats) {
          victim->stats.adopted_handles.fetch_add(1,
                                                  std::memory_order_relaxed);
        }
        trace(victim, obs::TraceEvent::kAdopt, uint64_t(victim->id), 0);
      }
    });
  }

  // ---- enqueue ----------------------------------------------------------

  bool acquire_index(Rec* r, uint64_t* idx, uint64_t* probes) {
    if ((++r->help_tick & 63) == 0) help_peers(r);
    if (!fq_.dequeue(idx, *probes)) {
      if constexpr (kCollectStats) {
        r->stats.enq_full.fetch_add(1, std::memory_order_relaxed);
        note_probes(r->stats.enq_probes, r->stats.max_enq_probes, *probes);
      }
      return false;
    }
    return true;
  }

  void publish_index(Rec* r, uint64_t idx, uint64_t slot, uint64_t probes,
                     uint64_t t0) {
    data_[idx].store(slot, std::memory_order_release);
    bool fast = false;
    for (int i = 0; i < kPatience; ++i) {
      ++probes;
      if (fast_install(idx)) {
        fast = true;
        break;
      }
    }
    if (!fast) enq_slow(r, idx);
    if constexpr (kCollectStats) {
      (fast ? r->stats.enq_fast : r->stats.enq_slow)
          .fetch_add(1, std::memory_order_relaxed);
      note_probes(r->stats.enq_probes, r->stats.max_enq_probes, probes);
    }
    obs_record_enq(r, t0);
  }

  /// One SCQ install attempt: FAA a ticket, CAS2 the entry to
  /// (cycle, idx) with tag 0 (= final). False: ticket unusable.
  bool fast_install(uint64_t idx) {
    const uint64_t t = Faa::fetch_add(*tail_, 1, std::memory_order_seq_cst);
    WFQ_INJECT(Traits, "ring_enq_faa");
    const uint64_t cyc = t >> lg_ring_;
    const std::size_t j = remap(t);
    U128 e = load2(&entries_[j]);
    for (;;) {
      // Unsafe entries are reusable only while Head <= T (the ticket's
      // dequeuer is still guaranteed to come) — see ScqRing::enqueue.
      if (!(cycle_of(e.lo) < cyc && idx_of(e.lo) == bot() &&
            (safe_of(e.lo) ||
             int64_t(head_->load(std::memory_order_seq_cst) - t) <= 0))) {
        return false;
      }
      if (cas2(&entries_[j], e, U128{pack(cyc, true, idx), 0})) {
        reset_threshold();
        return true;
      }
      e = load2(&entries_[j]);
    }
  }

  void reset_threshold() {
    if (threshold_->load(std::memory_order_seq_cst) != threshold_reset()) {
      threshold_->store(threshold_reset(), std::memory_order_seq_cst);
    }
  }

  /// Publish the request and help it to completion. The value (already in
  /// data_[idx]) is inserted exactly once; see the header comment for the
  /// prepare/commit/finalize/retract protocol.
  void enq_slow(Rec* r, uint64_t idx) {
    const uint64_t seq = ++r->enq_seq;
    const U128 pending{make_state(seq, idx, kPhaseHaveIdx), 0};
    U128 cur = load2(&r->req);
    while (!cas2(&r->req, cur, pending)) cur = load2(&r->req);
    WFQ_INJECT(Traits, "wcq_enq_slow_published");
    trace(r, obs::TraceEvent::kEnqSlow, idx, seq);
    help_enq(r, /*owner=*/true);
    // Retire the request: done -> idle (owner-only transition; helpers
    // only read a done request).
    cur = load2(&r->req);
    while (state_phase(cur.lo) == kPhaseDone &&
           !cas2(&r->req, cur, U128{make_state(seq, kIdxMask, kPhaseIdle), 0})) {
      cur = load2(&r->req);
    }
  }

  /// The cooperative insert: run by the owner (to completion) and by
  /// helpers (bounded budget). Every step is an idempotent CAS2 on shared
  /// state, so any mix of threads — including a crashed owner whose rec is
  /// being adopted — drives the request to kPhaseDone and its committed
  /// entry to FINAL.
  void help_enq(Rec* v, bool owner) {
    const uint16_t vid = v->id;
    for (int64_t iter = 0; owner || iter < kHelpBudget; ++iter) {
      U128 st = load2(&v->req);
      if (state_phase(st.lo) == kPhaseDone) {
        finalize_committed(v, st, load2(&entries_[remap(st.hi)]));
        return;
      }
      if (state_phase(st.lo) != kPhaseHaveIdx) return;
      const uint64_t seq = state_seq(st.lo);
      const uint64_t idx = state_idx(st.lo);
      const uint64_t tag_p = make_tag(vid, seq, kTagPrepared);
      const uint64_t tag_f = make_tag(vid, seq, kTagFinal);

      if (st.hi == 0) {
        // No candidate yet: reserve the current tail position, and only
        // the reservation winner advances tail past it. Reserve-then-
        // advance (not FAA-then-publish) matters: with FAA, every helper
        // losing the publish CAS2 leaks its ticket as a permanent hole,
        // tail outruns head by far more than the threshold (3n-1) can
        // bridge, and dequeuers report EMPTY with values stranded in the
        // ring. Reserving first means a request consumes ring positions
        // one at a time, which is what keeps the threshold bound valid.
        const uint64_t t = tail_->load(std::memory_order_seq_cst);
        WFQ_INJECT(Traits, "wcq_help_install");
        if (cas2(&v->req, st, U128{st.lo, t})) {
          uint64_t exp = t;
          tail_->compare_exchange_strong(exp, t + 1,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed);
        }
        continue;
      }
      const uint64_t p = st.hi;
      const uint64_t cyc = p >> lg_ring_;
      const std::size_t j = remap(p);
      U128 e = load2(&entries_[j]);

      if (e.hi == tag_p || e.hi == tag_f) {
        // Our install is in the ring (consumed or not): commit it, then
        // finalize the entry the commit names. Only a commit seen to
        // succeed may finalize `e`: after a failed one `e` may be a late
        // prepare at a candidate the request has already left, and the
        // value would be delivered twice. Else the next load sees
        // kPhaseDone and finalizes from a fresh read.
        WFQ_INJECT(Traits, "wcq_finalize");
        const U128 done{make_state(seq, idx, kPhaseDone), p};
        if (cas2(&v->req, st, done)) {
          finalize_committed(v, done, e);
          return;
        }
        continue;
      }
      const uint64_t ecyc = cycle_of(e.lo);
      if (ecyc < cyc) {
        // Same Head <= T reuse rule as ScqRing::enqueue: prepare only
        // where a future dequeuer ticket is still guaranteed.
        if (idx_of(e.lo) == bot() &&
            (safe_of(e.lo) ||
             int64_t(head_->load(std::memory_order_seq_cst) - p) <= 0)) {
          cas2(&entries_[j], e, U128{pack(cyc, true, idx), tag_p});
          continue;
        }
        if (idx_of(e.lo) == bot()) {
          // Unsafe ⊥ entry already overtaken by head: poison it up to our
          // cycle so no late install (ours included) can ever succeed
          // here — that is the dead evidence advancing requires.
          cas2(&entries_[j], e, U128{pack(cyc, safe_of(e.lo), bot()), 0});
          continue;
        }
        // Occupied older entry (possible only for stale candidates): fall
        // through to advance. A late prepare here is caught by the commit
        // validation + retract path, not by evidence.
      }
      // Dead candidate (foreign tag at/past our cycle, or unusable old
      // entry): advance to a fresh position, reserve-then-advance again.
      // The CAS2 validates the request still points at p, so racing
      // advances collapse to one and candidates strictly increase
      // (tail is monotonic and p itself came from tail).
      const uint64_t t = tail_->load(std::memory_order_seq_cst);
      if (t == p) {
        // Tail has not passed the dead candidate yet (possible after a
        // dequeuer-side catchup): push it first so the next iteration
        // reads a genuinely fresh position.
        uint64_t exp = p;
        tail_->compare_exchange_strong(exp, p + 1,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed);
        continue;
      }
      if (cas2(&v->req, st, U128{st.lo, t})) {
        uint64_t exp = t;
        tail_->compare_exchange_strong(exp, t + 1,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed);
      }
    }
  }

  /// Mark the entry a committed request names FINAL, unless it already is
  /// (or was consumed); `e` is a read of that entry, possibly stale. Runs
  /// before the owner retires the request: once the request reads idle, a
  /// consumer meeting a still-PREPARED entry cannot tell it was committed,
  /// retracts it, and the value is lost.
  void finalize_committed(Rec* v, U128 st, U128 e) {
    const uint64_t seq = state_seq(st.lo);
    const uint64_t p = st.hi;
    const uint64_t tag_p = make_tag(v->id, seq, kTagPrepared);
    const std::size_t j = remap(p);
    // Bounded: a PREPARED entry changes only by losing its safe bit, by
    // being finalized, or by being retracted, which a committed request's
    // entry never is.
    while (e.hi == tag_p && cycle_of(e.lo) == p >> lg_ring_) {
      if (cas2(&entries_[j], e, U128{e.lo, make_tag(v->id, seq, kTagFinal)})) {
        reset_threshold();
        return;
      }
      e = load2(&entries_[j]);
    }
  }

  /// Help every handle with a pending request, one ring sweep starting at
  /// r's rotating peer pointer. Returns whether any request was seen.
  bool help_peers(Rec* r) {
    Rec* p = r->peer.load(std::memory_order_acquire);
    if (p == nullptr) return false;
    bool saw = false;
    Rec* cur = p;
    for (std::size_t k = 0; k < kMaxRecs; ++k) {
      if (cur != r &&
          state_phase(load2(&cur->req).lo) == kPhaseHaveIdx) {
        saw = true;
        help_enq(cur, /*owner=*/false);
        trace(r, obs::TraceEvent::kHelpGiven, uint64_t(cur->id), 0);
      }
      Rec* nxt = cur->next.load(std::memory_order_acquire);
      if (nxt == nullptr || nxt == p) break;
      cur = nxt;
    }
    r->peer.store(cur->next.load(std::memory_order_acquire),
                  std::memory_order_release);
    return saw;
  }

  // ---- dequeue ----------------------------------------------------------

  /// SCQ dequeue over the double-width entries. Consumable = real index
  /// with tag 0 or FINAL; PREPARED entries are resolved (commit-or-
  /// retract) in place.
  bool deq_idx(uint64_t* out, uint64_t& probes) {
    if (threshold_->load(std::memory_order_seq_cst) < 0) return false;
    for (;;) {
      ++probes;
      const uint64_t h =
          Faa::fetch_add(*head_, 1, std::memory_order_seq_cst);
      WFQ_INJECT(Traits, "ring_deq_faa");
      const uint64_t cyc = h >> lg_ring_;
      const std::size_t j = remap(h);
      U128 e = load2(&entries_[j]);
      for (;;) {
        const uint64_t ecyc = cycle_of(e.lo);
        if (ecyc == cyc && idx_of(e.lo) != bot()) {
          if (tag_flag(e.hi) == kTagPrepared) {
            if (!resolve_prepared(j, h, &e)) {
              continue;  // entry changed under us: re-examine
            }
            if (idx_of(e.lo) == bot()) break;  // retracted: no value here
          }
          // Final (or fast) value: consume, preserving the tag so the
          // owner's helpers can still see the install happened.
          const U128 consumed{pack(cyc, safe_of(e.lo), bot()), e.hi};
          if (cas2(&entries_[j], e, consumed)) {
            *out = idx_of(e.lo);
            return true;
          }
          e = load2(&entries_[j]);
          continue;
        }
        if (ecyc < cyc) {
          const U128 ne = idx_of(e.lo) == bot()
                              ? U128{pack(cyc, safe_of(e.lo), bot()), 0}
                              : U128{e.lo & ~safe_mask(), e.hi};
          if (!(ne == e) && !cas2(&entries_[j], e, ne)) {
            e = load2(&entries_[j]);
            continue;
          }
        }
        // ecyc == cyc with ⊥ (a poisoned slow-path candidate), ecyc > cyc,
        // or we just marked the entry: nothing to take at this ticket.
        break;
      }
      const uint64_t t = tail_->load(std::memory_order_seq_cst);
      if (int64_t(t - (h + 1)) <= 0) {
        catchup(t, h + 1);
        threshold_->fetch_sub(1, std::memory_order_seq_cst);
        return false;
      }
      if (threshold_->fetch_sub(1, std::memory_order_seq_cst) <= 0) {
        return false;
      }
    }
  }

  /// Decide a PREPARED entry at slot j / ticket h: commit its request if
  /// this is the current candidate, else retract it. True: `*e` now holds
  /// a settled view (final value, or ⊥ after retract). False: the entry
  /// moved concurrently; caller re-reads.
  bool resolve_prepared(std::size_t j, uint64_t h, U128* e) {
    const uint64_t tag = e->hi;
    const uint64_t cyc = cycle_of(e->lo);
    const uint64_t p = ticket_of(cyc, j);
    (void)h;
    assert((p & (ring_ - 1)) == (h & (ring_ - 1)));
    Rec* v = rec_table_[tag_rec(tag)].load(std::memory_order_acquire);
    assert(v != nullptr && "tagged entry from an unregistered rec");
    const uint64_t seq = tag_seq(tag);
    U128 st = load2(&v->req);
    if (state_seq(st.lo) == seq && state_phase(st.lo) == kPhaseHaveIdx &&
        st.hi == p) {
      // Current candidate, not yet committed: commit it ourselves.
      cas2(&v->req, st,
           U128{make_state(seq, state_idx(st.lo), kPhaseDone), p});
      st = load2(&v->req);
    }
    const bool committed_here = state_seq(st.lo) == seq &&
                                state_phase(st.lo) == kPhaseDone &&
                                st.hi == p;
    if (committed_here) {
      const U128 finald{e->lo, make_tag(tag_rec(tag), seq, kTagFinal)};
      if (cas2(&entries_[j], *e, finald)) {
        reset_threshold();
        *e = finald;
        return true;
      }
      *e = load2(&entries_[j]);
      return false;
    }
    // Stale prepare (the request moved on, committed elsewhere, or was
    // recycled): retract so the slot is a plain hole.
    const U128 hole{pack(cyc, false, bot()), 0};
    if (cas2(&entries_[j], *e, hole)) {
      *e = hole;
      return true;
    }
    *e = load2(&entries_[j]);
    return false;
  }

  void catchup(uint64_t t, uint64_t h) noexcept {
    while (!tail_->compare_exchange_weak(t, h, std::memory_order_seq_cst,
                                         std::memory_order_relaxed)) {
      h = head_->load(std::memory_order_seq_cst);
      t = tail_->load(std::memory_order_seq_cst);
      if (int64_t(t - h) >= 0) return;
    }
  }

  // ---- small shared helpers --------------------------------------------

  static uint64_t obs_start(Rec* r) noexcept {
    (void)r;
    if constexpr (Metrics::kEnabled) {
      return Metrics::op_start(r->obs);
    } else {
      return 0;
    }
  }

  static void obs_record_enq(Rec* r, uint64_t t0) noexcept {
    (void)r;
    (void)t0;
    if constexpr (Metrics::kEnabled) {
      if (t0 != 0) r->obs.enq_ns.record(Metrics::now_ns() - t0);
    }
  }

  static void obs_record_deq(Rec* r, uint64_t t0) noexcept {
    (void)r;
    (void)t0;
    if constexpr (Metrics::kEnabled) {
      if (t0 != 0) r->obs.deq_ns.record(Metrics::now_ns() - t0);
    }
  }

  static void trace(Rec* r, obs::TraceEvent ev, uint64_t a,
                    uint64_t b) noexcept {
    (void)r;
    (void)ev;
    (void)a;
    (void)b;
    if constexpr (Metrics::kEnabled) {
      r->obs.ring.emit(ev, Metrics::now_ns(), r->obs.id, a, b);
    }
  }

  static void note_probes(std::atomic<uint64_t>& total,
                          std::atomic<uint64_t>& high_water,
                          uint64_t probes) noexcept {
    total.fetch_add(probes, std::memory_order_relaxed);
    uint64_t cur = high_water.load(std::memory_order_relaxed);
    while (probes > cur &&
           !high_water.compare_exchange_weak(cur, probes,
                                             std::memory_order_relaxed)) {
    }
  }

  const std::size_t n_;
  const std::size_t ring_;
  const unsigned lg_ring_;
  ScqRing<Traits> fq_;  ///< free indices (single-width SCQ ring)
  std::unique_ptr<U128[]> entries_;  ///< aq: double-width (meta, tag)
  std::unique_ptr<std::atomic<uint64_t>[]> data_;
  std::unique_ptr<std::atomic<Rec*>[]> rec_table_;  ///< tag rec_id -> Rec*
  CacheAligned<std::atomic<uint64_t>> head_;
  CacheAligned<std::atomic<uint64_t>> tail_;
  CacheAligned<std::atomic<int64_t>> threshold_;
  NullReclaim nrcl_;
  HandleRegistry<Rec, NullReclaim> registry_;
};

static_assert(ConcurrentQueue<WcqQueue<uint64_t>>);
static_assert(BoundedQueue<WcqQueue<uint64_t>>);

}  // namespace wfq
