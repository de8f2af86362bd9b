// The wait-free FAA-based FIFO queue of Yang & Mellor-Crummey (PPoPP'16),
// "A Wait-free Queue as Fast as Fetch-and-Add".
//
// This file is a faithful C++20 transcription of the paper's Listings 2-4:
// the FAA fast path, the request-publishing slow paths with ring-of-handles
// helping (Kogan-Petrank fast-path-slow-path), and Dijkstra's protocol
// between enqueuers and dequeue helpers. Function and field names follow
// the paper (find_cell, enq_fast, enq_slow, help_enq, deq_fast, deq_slow,
// help_deq, advance_end_for_linearizability) so the code can be read side
// by side with the listings. Known errata fixed here (each checked against
// the authors' reference C implementation):
//
//  * Listing 4 line 174 passes a segment pointer where help_enq needs the
//    helper's handle; we pass the handle.
//  * Listing 5 line 236 forgets to restore q->I from -1 when nothing was
//    reclaimable, which would wedge cleanup forever; we restore it.
//  * Listing 5's scan starts at h->next and never considers the cleaner's
//    own tail pointer, which may lag its head; like the reference
//    implementation we start the scan at the cleaner itself.
//  * help_enq decides from the request state its failed claim CAS
//    observed, not from the state it read before the CAS. If the request
//    was claimed for this very cell in between (typically by its owner,
//    which reserved the cell and saw ⊥), the dequeuer commits the value
//    itself instead of returning ⊤ while the owner's commit lands in a
//    cell no dequeuer visits again. The reference C gets this from its
//    CAS writing the observed id back; whether Listing 3 has the same slip
//    is not settled in this repository, which holds no copy of it.
//
// The two infrastructure layers the algorithm rides on live elsewhere:
//
//  * core/segment_list.hpp — the emulated infinite array (§3.2): segment
//    allocation, list extension, find_cell traversal, recycling pool.
//  * memory/segment_reclaim.hpp — the reclamation policy (§3.6 and its
//    Listing 5, plus hazard-pointer and epoch alternatives). Selected by
//    `Traits::Reclaim`; PaperReclaim is the default and reproduces the
//    paper's scheme exactly, including the erratum fixes above.
//
// The core operates on raw 64-bit slots with reserved values; see
// wf_queue.hpp for the typed, value-owning public wrapper.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "common/align.hpp"
#include "common/atomics.hpp"
#include "common/packed_state.hpp"
#include "core/adaptive.hpp"
#include "core/handle_registry.hpp"
#include "core/op_stats.hpp"
#include "core/segment_list.hpp"
#include "harness/fault_inject.hpp"
#include "memory/segment_reclaim.hpp"
#include "obs/metrics.hpp"

namespace wfq {

// Reserved slot values (§3.1: two special values ⊥ and ⊤ that may not be
// enqueued; EMPTY is an API-level result, never stored in a cell). These
// are namespace-scope so the cell layout below is independent of the queue
// traits; WFQueueCore re-exports them as kBot/kTop/kEmpty.
inline constexpr uint64_t kSlotBot = 0;                   ///< ⊥
inline constexpr uint64_t kSlotTop = ~uint64_t{0};        ///< ⊤
inline constexpr uint64_t kSlotEmpty = ~uint64_t{0} - 1;  ///< EMPTY
/// Return-only sentinel: dequeue could not complete because segment
/// allocation failed cleanly (the OOM seam exhausted retries and the
/// reserve pool). Never stored in a cell.
inline constexpr uint64_t kSlotNoMem = ~uint64_t{0} - 2;

/// An enqueue request: logically (val, pending, id). `state` packs
/// (pending, id) into one word so helpers can claim it with a single CAS.
struct WfEnqReq {
  std::atomic<uint64_t> val{kSlotBot};
  std::atomic<uint64_t> state{PackedState(false, 0).word()};
};

/// A dequeue request: logically (id, pending, idx); `state` packs
/// (pending, idx).
struct WfDeqReq {
  std::atomic<uint64_t> id{0};
  std::atomic<uint64_t> state{PackedState(false, 0).word()};
};

/// One queue cell: (val, enq, deq), initially (⊥, ⊥e, ⊥d). `reset()`
/// restores the pristine state when the segment pool recycles a segment
/// (SegmentList requirement).
struct WfCell {
  std::atomic<uint64_t> val{kSlotBot};
  std::atomic<WfEnqReq*> enq{nullptr};
  std::atomic<WfDeqReq*> deq{nullptr};

  void reset() {
    val.store(kSlotBot, std::memory_order_relaxed);
    enq.store(nullptr, std::memory_order_relaxed);
    deq.store(nullptr, std::memory_order_relaxed);
  }
};

/// Compile-time configuration of the queue core.
///
/// `kSegmentSize` is the paper's N (it used 2^10). `kConservativeOrdering`
/// upgrades every atomic access to seq_cst and adds explicit fences around
/// hazard-pointer publication — the portable correctness anchor. The default
/// (tuned) mode reproduces the paper's x86 claim: the hazard-pointer store on
/// the fast path is a plain release store ordered by the FAA that immediately
/// follows it, so the common path carries no extra fence. `Faa` selects the
/// fetch-and-add implementation: NativeFaa, or EmulatedFaa to reproduce the
/// paper's Power7 (LL/SC) configuration.
struct DefaultWfTraits {
  static constexpr std::size_t kSegmentSize = 1024;
  static constexpr bool kConservativeOrdering = false;
  static constexpr bool kCollectStats = true;
  using Faa = NativeFaa;

  /// Segment-reclamation policy (memory/segment_reclaim.hpp): decides when
  /// retired segments may be freed and what each operation publishes to
  /// make that safe. PaperReclaim is the §3.6 scheme — zero fast-path
  /// fences on x86; HpReclaim / EpochReclaim are the textbook alternatives
  /// for comparison (see docs/ALGORITHM.md "Reclamation policies").
  template <class SL>
  using Reclaim = PaperReclaim<SL>;

  /// Retired segments up to this count are recycled through a lock-free
  /// per-queue pool instead of round-tripping the allocator — the role
  /// jemalloc played in the paper's setup (§5.1: "jemalloc ... to avoid
  /// requesting memory pages from the OS on every allocation"). 0 disables
  /// pooling (every retired segment is freed immediately).
  static constexpr std::size_t kSegmentPoolCap = 32;

  /// Test seam: invoked at interleaving-sensitive points (after index FAAs,
  /// between a cell reservation and its validation, inside helping loops).
  /// A no-op in production; stress tests override it with randomized yields
  /// to widen the explored schedule space — essential on hosts with few
  /// hardware threads, where natural preemption rarely lands mid-operation.
  static void interleave_hint() {}

  /// Fault-injection hook (src/harness/fault_inject.hpp). NullInjector
  /// compiles every WFQ_INJECT site to nothing; fault tests substitute
  /// fault::ScriptedInjector to stall/crash/alloc-fail a victim thread at
  /// named points. Traits types that omit this member get NullInjector via
  /// fault::InjectorOf detection, so pre-existing custom traits still work.
  using Injector = fault::NullInjector;

  /// Observability hook (src/obs/metrics.hpp), same discipline as the
  /// injector: NullMetrics compiles every recording site — latency
  /// histograms AND the slow-path trace ring — to nothing (tools/ci.sh's
  /// obs leg greps a release binary to enforce it). Substitute
  /// obs::ObsMetrics<> to record; traits types that omit the member get
  /// NullMetrics via obs::MetricsOf detection.
  using Metrics = obs::NullMetrics;
};

/// How the PATIENCE knob is driven at runtime (WfConfig::patience_mode).
enum class PatienceMode : uint8_t {
  kFixed = 0,    ///< the paper's behavior: WfConfig::patience, forever
  kAdaptive = 1  ///< per-handle controller moved by the observed slow-path
                 ///< ratio (src/core/adaptive.hpp; docs/ALGORITHM.md §14)
};

/// Runtime tunables (the paper's PATIENCE and MAX_GARBAGE).
struct WfConfig {
  /// Extra fast-path attempts before an operation switches to the slow
  /// path. PATIENCE = 10 is the paper's practical setting (WF-10);
  /// PATIENCE = 0 stresses the slow path (WF-0). An operation makes
  /// `patience + 1` fast-path attempts in total, as in Listing 3/4.
  /// Under kAdaptive this seeds each handle's controller (clamped to
  /// [1, 64]) instead of being read directly.
  unsigned patience = 10;
  /// Number of retired segments allowed to accumulate before a dequeuer
  /// attempts reclamation (amortizes cleanup cost, §3.6).
  int64_t max_garbage = 64;
  /// Segments pre-allocated into the SegmentList's OOM reserve pool
  /// (clamped to SegmentList::kReserveSlots). Consulted only after
  /// allocation retries fail; refilled with priority as segments retire.
  /// 0 (the default) disables the airbag — operations fail as soon as
  /// retries do — and keeps segment accounting identical to a queue
  /// without the OOM seam.
  std::size_t reserve_segments = 0;
  // New knobs go below the original three — existing positional aggregate
  // initializers (WfConfig{patience, max_garbage, reserve}) must keep
  // meaning what they meant.
  /// Fixed PATIENCE (the default, and the only mode the paper evaluates)
  /// or per-handle adaptive PATIENCE. Adaptation moves only *when* the
  /// helping slow path starts, never whether it completes, so the
  /// wait-freedom bound is unchanged (docs/ALGORITHM.md §14).
  PatienceMode patience_mode = PatienceMode::kFixed;
  /// Adaptive-mode controller tuning (epoch length, EWMA weight,
  /// hysteresis thresholds). Ignored under kFixed; `adaptive.initial` is
  /// overridden by `patience` at construction.
  adaptive::PatienceConfig adaptive{};
  /// Next-segment header prefetch depth for the segment walk: how many
  /// successor headers find_cell_range pulls ahead of the batch, and
  /// whether single-op find_cell prefetches across an upcoming segment
  /// boundary. 0 disables; 1 is the pre-adaptive behavior.
  unsigned prefetch_segments = 1;
};

template <class Traits = DefaultWfTraits>
class WFQueueCore {
 public:
  using Traits_ = Traits;
  static constexpr std::size_t kSegmentSize = Traits::kSegmentSize;

  using SegList = SegmentList<WfCell, Traits>;
  using Segment = typename SegList::Segment;
  using Reclaim = typename Traits::template Reclaim<SegList>;

  // Algorithm-layer aliases kept for tests and wrappers that predate the
  // segment-layer split.
  using Cell = WfCell;
  using EnqReq = WfEnqReq;
  using DeqReq = WfDeqReq;

  /// Bulk operations resolve cells in chunks of this many at a time (one
  /// segment walk per chunk, stack-allocated pointer array). Batches larger
  /// than this still pay only one FAA; they just take ceil(n / chunk)
  /// segment walks.
  static constexpr std::size_t kBulkChunk = 64;
  static constexpr uint64_t kBot = kSlotBot;      ///< ⊥: cell untouched
  static constexpr uint64_t kTop = kSlotTop;      ///< ⊤: cell unusable
  static constexpr uint64_t kEmpty = kSlotEmpty;  ///< dequeue saw empty
  static constexpr uint64_t kNoMem = kSlotNoMem;  ///< dequeue failed: OOM

  /// Fault-injection hook resolved from the traits (NullInjector unless the
  /// traits opt in; see src/harness/fault_inject.hpp).
  using Injector = fault::InjectorOf<Traits>;

  /// Observability hook resolved from the traits (NullMetrics unless the
  /// traits opt in; see src/obs/metrics.hpp). Every recording site below is
  /// guarded by `if constexpr (Metrics::kEnabled)`, so a NullMetrics build
  /// carries no histogram or trace code at all.
  using Metrics = obs::MetricsOf<Traits>;

  /// True iff a slot value is legal to enqueue.
  static constexpr bool is_enqueueable(uint64_t v) noexcept {
    return v != kBot && v != kTop && v != kEmpty && v != kNoMem;
  }

  // Sentinels for the cell's request-pointer fields (⊥e/⊤e, ⊥d/⊤d).
  static EnqReq* enq_bot() noexcept { return nullptr; }
  static EnqReq* enq_top() noexcept {
    return reinterpret_cast<EnqReq*>(uintptr_t{1});
  }
  static DeqReq* deq_bot() noexcept { return nullptr; }
  static DeqReq* deq_top() noexcept {
    return reinterpret_cast<DeqReq*>(uintptr_t{1});
  }

  /// Per-thread state (Listing 2 `Handle`, augmented with the reclamation
  /// policy's per-handle block and instrumentation).
  struct Handle {
    // Segment pointers for enqueues/dequeues. Atomic because a cleaning
    // thread advances them on the owner's behalf (§3.6 "Update head and
    // tail pointers").
    std::atomic<Segment*> tail{nullptr};  ///< paper: Handle.tail / C: Ep
    std::atomic<Segment*> head{nullptr};  ///< paper: Handle.head / C: Dp
    std::atomic<Handle*> next{nullptr};   ///< ring of all handles
    typename Reclaim::PerHandle rcl;      ///< policy state (§3.6: hzdp)

    // Enqueue-/dequeue-side helping state. The request records are
    // helper-shared (CAS-claimed by any thread in the ring); the peer
    // cursors are owner-local. Padding keeps each request record alone on
    // its cache line so helper CAS traffic cannot invalidate the owner's
    // cursor line, and the alignas keeps each side off its neighbours'
    // lines (see the static_asserts after Handle).
    struct alignas(kCacheLineSize) EnqSide {
      EnqReq req;              ///< helper-shared request record
      char pad_[kCacheLineSize - sizeof(EnqReq)];
      Handle* peer = nullptr;  ///< enqueue peer to help (owner-local)
      uint64_t help_id = 0;    ///< paper: enq.id — pending peer request id
    };
    struct alignas(kCacheLineSize) DeqSide {
      DeqReq req;              ///< helper-shared request record
      char pad_[kCacheLineSize - sizeof(DeqReq)];
      Handle* peer = nullptr;  ///< dequeue peer to help (owner-local)
    };

    EnqSide enq;
    DeqSide deq;

    Segment* spare = nullptr;  ///< one cached segment to recycle failed
                               ///< list-extension allocations (reference
                               ///< implementation optimization)
    uint64_t op_probes = 0;    ///< cells probed by the in-flight operation
                               ///< (owner-only; wait-freedom accounting)

    // Robustness state (orphan adoption; see docs/ALGORITHM.md §11).
    // `op_phase` is owner-written and read by an adopter only once the
    // owner provably takes no more steps (dead, or parked by the fault
    // injector): it distinguishes a request record that belongs to the
    // crashed operation from a stale one left by an ancient completed op
    // whose cell may long since have been reclaimed.
    std::atomic<uint8_t> op_phase{0};     ///< kPhaseIdle/kPhaseEnq/kPhaseDeq
    std::atomic<bool> orphaned{false};    ///< adopted via adopt_handle();
                                          ///< the owner's late release is
                                          ///< then a plain freelist push

    OpStats stats;
    typename Metrics::PerHandle obs;  ///< latency histograms + trace ring
                                      ///< (empty struct under NullMetrics)

    // Adaptive fast-path tuning (src/core/adaptive.hpp). Owner-local plain
    // state — ZERO atomics on the operation path; read/written only by the
    // handle's owner, reconfigured at registration. Dormant under kFixed.
    adaptive::PatienceController patience_ctl;
    adaptive::BulkKController bulk_ctl;

    Handle* next_free = nullptr;      ///< freelist link (guarded by mutex)
  };

  // Operation phases for Handle::op_phase.
  static constexpr uint8_t kPhaseIdle = 0;
  static constexpr uint8_t kPhaseEnq = 1;
  static constexpr uint8_t kPhaseDeq = 2;

  // False-sharing audit of Handle. Each request record must fit its line,
  // the owner-local cursor that follows it must start on the next line, and
  // each side's size must round to a whole number of lines — which, with
  // the alignas, also guarantees the owner-local fields after `deq`
  // (`spare`, `op_probes`, `stats`) begin on a fresh line of their own.
  static_assert(sizeof(EnqReq) <= kCacheLineSize &&
                    sizeof(DeqReq) <= kCacheLineSize,
                "request records must each fit one cache line");
  static_assert(offsetof(typename Handle::EnqSide, peer) == kCacheLineSize,
                "enq.peer must sit on the line after the enq request record");
  static_assert(offsetof(typename Handle::DeqSide, peer) == kCacheLineSize,
                "deq.peer must sit on the line after the deq request record");
  static_assert(sizeof(typename Handle::EnqSide) % kCacheLineSize == 0 &&
                    sizeof(typename Handle::DeqSide) % kCacheLineSize == 0,
                "helping-state blocks must tile whole cache lines");
  // (enq and deq cannot share a line with each other or with `spare`:
  // alignas places each side on a line boundary and the sizeof asserts
  // above make every block a whole number of lines.)

  explicit WFQueueCore(WfConfig cfg = {})
      : cfg_(cfg),
        segs_(cfg.reserve_segments, cfg.prefetch_segments),
        registry_(rcl_) {
    // The paper's knob doubles as the adaptive controller's seed; the
    // controller clamps it into [kMinPatience, kMaxPatience].
    cfg_.adaptive.initial = cfg_.patience;
    tail_index_->store(0, std::memory_order_relaxed);
    head_index_->store(0, std::memory_order_relaxed);
  }

  WFQueueCore(const WFQueueCore&) = delete;
  WFQueueCore& operator=(const WFQueueCore&) = delete;

  ~WFQueueCore() {
    // Handle spares bypass the pool: the SegmentList destructor (which runs
    // after this body) frees the remaining chain and drains the pool.
    registry_.for_each([this](Handle* h) {
      if (h->spare != nullptr) {
        segs_.free_raw(h->spare);
        h->spare = nullptr;
      }
    });
  }

  // -------------------------------------------------------------------
  // Thread registration: every thread operates through a Handle that is
  // linked into the helper ring (§3.3 "Thread-local state"). Handles are
  // recycled: releasing returns one to a freelist but never unlinks it from
  // the ring, which keeps the helping invariants (a peer pointer never
  // dangles) and lets cleaners keep advancing idle handles' segment
  // pointers. Registration is off the operation path and may block briefly
  // on the cleaner lock; enqueue/dequeue themselves stay wait-free.
  //
  // The mechanics (freelist, ring publication, frontier exclusion) are
  // HandleRegistry's; this queue contributes only its hooks — the recycled-
  // handle hardening assert, the obs-id assignment, and the helping-peer /
  // segment-pointer wiring that must happen inside the registration
  // critical section (docs/ALGORITHM.md §13).
  // -------------------------------------------------------------------

  Handle* register_handle() {
    return registry_.acquire(
        [this](Handle* h) {
          // release_handle hardening: a recycled handle must come back
          // clean — no published protection, no in-flight phase, no
          // pending request.
          assert(!rcl_.op_active(h) &&
                 h->op_phase.load(std::memory_order_relaxed) == kPhaseIdle &&
                 !PackedState::from_word(
                      h->enq.req.state.load(std::memory_order_relaxed))
                      .pending() &&
                 !PackedState::from_word(
                      h->deq.req.state.load(std::memory_order_relaxed))
                      .pending() &&
                 "recycled handle carries live operation state");
          (void)h;
        },
        [](Handle* h, std::size_t index) {
          (void)h;
          (void)index;
          if constexpr (Metrics::kEnabled) {
            // Stable per-handle obs id (1-based; 0 is the process-global
            // ring). Recycled handles keep theirs — trace rows stay
            // attributable.
            h->obs.id = uint32_t(index) + 1;
          }
        },
        [this](Handle* h, Handle* after) {
          // Inside the frontier lock, before h is published to the ring:
          // capture the current first segment (a cleaner must not free it
          // under us) and aim the helping peers at the handle that will
          // follow h (h itself when the ring was empty).
          Segment* front = segs_.first(std::memory_order_relaxed);
          h->tail.store(front, std::memory_order_relaxed);
          h->head.store(front, std::memory_order_relaxed);
          h->enq.peer = after;
          h->deq.peer = after;
          // Adaptive controllers restart from the queue's configured
          // baseline: a recycled handle's new owner inherits the knobs,
          // not the previous owner's workload history.
          h->patience_ctl.configure(cfg_.adaptive);
          h->bulk_ctl.reset();
        });
  }

  /// Return a handle to the freelist. Hardened: a handle released with a
  /// pending request or still-published protection (a guard leaked from the
  /// middle of an operation, a thread unwinding after an injected crash) is
  /// *adopted* first — its request is driven to completion and its
  /// protection cleared — so the next register_handle() reuser starts clean
  /// and, crucially, the reclamation frontier is no longer pinned by a
  /// dead operation (the paper assumes every thread keeps taking steps;
  /// see docs/ALGORITHM.md §11).
  void release_handle(Handle* h) {
    registry_.release(h, [this](Handle* victim) {
      if (victim->orphaned.exchange(false, std::memory_order_acq_rel)) {
        // adopt_handle() already completed the operation and cleared the
        // state while the owner was stalled; nothing left but the freelist.
      } else if (rcl_.op_active(victim) ||
                 victim->op_phase.load(std::memory_order_acquire) !=
                     kPhaseIdle) {
        adopt_orphan(victim);
      }
      assert(!rcl_.op_active(victim) &&
             "released handle still publishes protection");
    });
  }

  /// Adopt a handle whose owner provably takes no more steps (dead thread,
  /// permanently stalled victim) WITHOUT waiting for its HandleGuard to
  /// unwind: completes any pending request, clears protection, and marks
  /// the handle so the owner's eventual release (if it ever runs) is a
  /// plain freelist push. The handle stays out of circulation until that
  /// release — adoption unblocks the *cleaner*, not the handle slot.
  /// Precondition: the owner performs no further queue operations.
  void adopt_handle(Handle* h) {
    registry_.with_lock([&] {
      if (h->orphaned.load(std::memory_order_acquire)) return;
      if (rcl_.op_active(h) ||
          h->op_phase.load(std::memory_order_acquire) != kPhaseIdle) {
        adopt_orphan(h);
      }
      h->orphaned.store(true, std::memory_order_release);
    });
  }

  /// RAII registration for one thread.
  class HandleGuard {
   public:
    explicit HandleGuard(WFQueueCore& q) : q_(&q), h_(q.register_handle()) {}
    ~HandleGuard() {
      if (h_ != nullptr) q_->release_handle(h_);
    }
    HandleGuard(HandleGuard&& o) noexcept : q_(o.q_), h_(o.h_) {
      o.h_ = nullptr;
    }
    HandleGuard(const HandleGuard&) = delete;
    HandleGuard& operator=(const HandleGuard&) = delete;
    Handle* get() const noexcept { return h_; }
    Handle* operator->() const noexcept { return h_; }

   private:
    WFQueueCore* q_;
    Handle* h_;
  };

  // -------------------------------------------------------------------
  // Public operations (Listings 3 and 4).
  // -------------------------------------------------------------------

  /// Appends slot value `v` (must satisfy is_enqueueable). Wait-free:
  /// `patience + 1` fast-path attempts, then the helping slow path, which
  /// completes once every contending dequeuer has become a helper
  /// (Lemma 4.3: at most (n-1)^2 slow-path failures).
  ///
  /// Returns false only when segment allocation failed cleanly (the OOM
  /// seam exhausted retries and the reserve pool): the value was NOT
  /// enqueued and the queue state is intact — indices the operation FAA'd
  /// are abandoned exactly like contention-wasted fast-path attempts.
  bool enqueue(Handle* h, uint64_t v) {
    assert(is_enqueueable(v));
    // Op-start marker: park the request state at the unreachable index
    // kMaxIndex so an adopter can tell "no slow-path request this op" from
    // a stale record of an ancient, completed operation.
    h->enq.req.state.store(PackedState(false, PackedState::kMaxIndex).word(),
                           std::memory_order_relaxed);
    h->op_phase.store(kPhaseEnq, std::memory_order_release);
    // Protect the operation's root segment (with PaperReclaim this is the
    // §3.6 hazard-pointer publish whose fast-path ordering the FAA below
    // provides for free on x86).
    rcl_.begin_op(h, h->tail);
    WFQ_INJECT(Traits, "enq_begin");
    Traits::interleave_hint();  // protection published, operation not begun
    if constexpr (Traits::kCollectStats) h->op_probes = 0;
    const uint64_t obs_t0 = obs_start(h);
    uint64_t cell_id = 0;
    bool done = false;
    bool ok = true;
    const unsigned patience = effective_patience(h);
    try {
      for (unsigned p = 0; p <= patience && !done; ++p) {
        done = enq_fast(h, v, cell_id);
      }
    } catch (const SegmentAllocError&) {
      // Fast-path find_cell could not extend the list. No request was
      // published and no cell holds the value: fail the operation cleanly.
      ok = false;
    }
    if (ok) {
      // WF-10 completes >99% of operations on the fast path (Table 2);
      // the hint keeps the straight-line path fall-through.
      if (done) [[likely]] {
        count(h->stats.enq_fast);
      } else [[unlikely]] {
        // One kEnqSlow event per enqueue that left the fast path — the
        // trace total matches the enq_slow counter exactly (re-drives
        // inside enq_slow_finish do not re-emit).
        obs_trace(h, obs::TraceEvent::kEnqSlow, cell_id);
        ok = enq_slow(h, v, cell_id);
        count(h->stats.enq_slow);
      }
      note_adaptive(h, /*slow=*/!done);
    }
    flush_probes(h, h->stats.enq_probes, h->stats.max_enq_probes);
    obs_lat(h, obs_t0, [](auto& o) -> auto& { return o.enq_ns; });
    h->op_phase.store(kPhaseIdle, std::memory_order_release);
    rcl_.end_op(h);
    return ok;
  }

  /// Removes and returns the oldest value, kEmpty if the queue was observed
  /// empty at the linearization point, or kNoMem if segment allocation
  /// failed cleanly before any value was claimed (queue state intact).
  /// Wait-free (Lemma 4.4).
  uint64_t dequeue(Handle* h) {
    h->deq.req.state.store(PackedState(false, PackedState::kMaxIndex).word(),
                           std::memory_order_relaxed);
    h->op_phase.store(kPhaseDeq, std::memory_order_release);
    rcl_.begin_op(h, h->head);
    WFQ_INJECT(Traits, "deq_begin");
    if constexpr (Traits::kCollectStats) h->op_probes = 0;
    const uint64_t obs_t0 = obs_start(h);
    uint64_t v = kTop;
    uint64_t cell_id = 0;
    const unsigned patience = effective_patience(h);
    bool slow = false;
    try {
      for (unsigned p = 0; p <= patience; ++p) {
        v = deq_fast(h, cell_id);
        if (v != kTop) break;
      }
      // Same Table-2 asymmetry as enqueue: the slow fork is the rare one.
      if (v == kTop) [[unlikely]] {
        slow = true;
        obs_trace(h, obs::TraceEvent::kDeqSlow, cell_id);
        v = deq_slow(h, cell_id);
        count(h->stats.deq_slow);
      } else [[likely]] {
        count(h->stats.deq_fast);
      }
      note_adaptive(h, slow);
    } catch (const SegmentAllocError&) {
      // deq_fast rethrows only after parking its consumed index in the
      // debt table (settle_unreachable) and deq_slow cancels its request
      // before rethrowing, so no value has been claimed for this
      // operation and no index was silently abandoned.
      v = kNoMem;
    }
    if (v == kEmpty) {
      count(h->stats.deq_empty);
    } else if (v != kNoMem) {
      // Listing 4 line 135: a successful dequeuer helps its dequeue peer,
      // then moves to the next peer in the ring (Invariant 13).
      WFQ_INJECT(Traits, "deq_help_peer");
      try {
        help_deq(h, h->deq.peer);
      } catch (const SegmentAllocError&) {
        // Helping is best-effort under OOM: the peer's own loop (or a
        // later helper) completes the request once memory returns. Our
        // value is already claimed, so the operation still succeeds.
      }
      h->deq.peer = h->deq.peer->next.load(std::memory_order_relaxed);
    }
    // Probe accounting includes the peer help above: helping is part of
    // the dequeue's bounded work (Lemma 4.4).
    flush_probes(h, h->stats.deq_probes, h->stats.max_deq_probes);
    obs_lat(h, obs_t0, [](auto& o) -> auto& { return o.deq_ns; });
    h->op_phase.store(kPhaseIdle, std::memory_order_release);
    rcl_.end_op(h);
    poll_reclaim(h);
    return v;
  }

  // -------------------------------------------------------------------
  // Batched operations. One FAA on the shared index reserves `n`
  // consecutive cell ids — n prepaid fast-path tickets with consecutive
  // indices, indistinguishable to every other thread from n single-op
  // threads that FAA'd back to back and are being scheduled one after
  // another. The batch then commits each ticket through the ordinary
  // fast-path cell protocol, so the per-cell state machine (help_enq,
  // Dijkstra's protocol, the helping paths) is exactly the single-op one.
  // The contended FAA — the only serialized step (§3.2) — is paid once per
  // batch instead of once per item.
  // -------------------------------------------------------------------

  /// Batched enqueue: append vals[0..n) in order with one FAA on T.
  ///
  /// Linearizes as n consecutive enqueues in array order: tickets are
  /// consumed in increasing cell order, and any value whose tickets were
  /// all stolen (a dequeuer ⊤-ed the cell first — the same wasted attempt a
  /// failed enq_fast produces) falls back to the ordinary per-item
  /// operation, whose fast- or slow-path cell ids all land at or above
  /// base + n because the batch FAA already advanced T past them. Per-item
  /// wait-freedom is preserved: each item costs at most one prepaid ticket
  /// here plus one ordinary wait-free enqueue.
  ///
  /// Invariant 4 (T > cid before a value is visible at cid) holds for every
  /// ticket up front — the batch FAA advanced T to base + n — so ticket
  /// commits need no advance_end_for_linearizability, like enq_fast.
  /// Returns the number of values actually enqueued — `n` except under a
  /// clean allocation failure, where a prefix [0, returned) was enqueued
  /// and the rest was not (queue state intact).
  std::size_t enqueue_bulk(Handle* h, const uint64_t* vals, std::size_t n) {
    if (n == 0) return 0;
    if (n == 1) return enqueue(h, vals[0]) ? 1 : 0;
#ifndef NDEBUG
    for (std::size_t j = 0; j < n; ++j) assert(is_enqueueable(vals[j]));
#endif
    rcl_.begin_op(h, h->tail);
    Traits::interleave_hint();  // protection published, operation not begun
    if constexpr (Traits::kCollectStats) h->op_probes = 0;
    const uint64_t obs_t0 = obs_start(h);  // per batch, not per item
    const uint64_t base =
        Traits::Faa::fetch_add(*tail_index_, uint64_t(n), sc());
    WFQ_INJECT(Traits, "enq_bulk_faa_post");
    Traits::interleave_hint();  // stall point: n indices claimed, no cell
                                // touched — helpers must cope, as for a
                                // stalled single-op enqueuer
    std::size_t committed = 0;
    Segment* s = h->tail.load(acq());
    Cell* cells[kBulkChunk];
    std::size_t ticket = 0;
    try {
      for (; ticket < n;) {
        const std::size_t take = std::min(n - ticket, kBulkChunk);
        find_cell_range(h, s, base + ticket, take, cells, "enq_bulk");
        for (std::size_t j = 0; j < take; ++j) {
          Traits::interleave_hint();
          uint64_t expected = kBot;
          if (cells[j]->val.compare_exchange_strong(
                  expected, vals[committed], sc(),
                  std::memory_order_relaxed) &&
              !deposit_retracted(h, cells[j], base + ticket + j)) {
            if (++committed == n) break;
          }
          // else: a dequeuer sealed this cell, or the deposit landed in a
          // debt-parked cell and was retracted — ticket wasted, value
          // retries on the next one.
        }
        if (committed == n) break;
        ticket += take;
      }
    } catch (const SegmentAllocError&) {
      // Unreachable tickets are abandoned like contention-wasted ones (the
      // remaining values retry below as ordinary fallible enqueues), but a
      // parked debt at an abandoned ticket can never be repaid: drop them.
      for (std::size_t u = ticket; u < n; ++u) debt_gc(base + u);
    }
    h->tail.store(s, rel());
    count(h->stats.enq_bulk_batches);
    count_n(h->stats.enq_bulk_fast, committed);
    flush_probes(h, h->stats.enq_probes, h->stats.max_enq_probes);
    obs_lat(h, obs_t0, [](auto& o) -> auto& { return o.enq_bulk_ns; });
    rcl_.end_op(h);
    // Residual values (every ticket from theirs onward was stolen): plain
    // per-item wait-free enqueues, in order, stopping at the first clean
    // allocation failure.
    for (; committed < n; ++committed) {
      if (!enqueue(h, vals[committed])) break;
    }
    return committed;
  }

  /// Batched dequeue: remove up to `n` values into out[0..) with one FAA
  /// on H; returns the number of values claimed.
  ///
  /// Every reserved cell is visited through help_enq — exactly what a
  /// fast-path dequeuer landing there would do, so in-flight enqueues at
  /// those cells still get helped. Visiting all n cells is mandatory, not
  /// an optimization: no future dequeuer will ever FAA into these indices,
  /// and an unvisited cell could strand a deposited value (or an enqueue
  /// request Dijkstra's protocol obliges this dequeuer to referee).
  ///
  /// Linearizes as the sequence of successful claims, which occur at
  /// strictly increasing cell ids — the same shape as one thread running
  /// `got` single dequeues. A short return (got < n) means help_enq
  /// observed the queue empty at some reserved cell (Invariant 6: a valid
  /// instantaneous emptiness witness). The unfilled portion of the batch is
  /// deliberately NOT reported as per-item EMPTY results: an EMPTY observed
  /// mid-batch cannot be reordered after values claimed at later cells, so
  /// the contract is "short count == queue was seen empty during the call",
  /// exactly what a caller polling a queue needs.
  ///
  /// If tickets were lost to competing claimers but no emptiness was
  /// observed, the shortfall is topped up with ordinary per-item dequeues
  /// (ids >= base + n), stopping at the first EMPTY.
  ///
  /// Under PatienceMode::kAdaptive the caller's n is additionally split
  /// into FAA reservations capped by the handle's BulkKController, so a
  /// near-empty queue stops burning head indices on tickets its own
  /// emptiness witness predicts will be wasted. Each sub-reservation runs
  /// the fixed-mode protocol unchanged, and a short sub-batch is exactly
  /// the fixed contract's emptiness witness — the public contract ("short
  /// count == queue was seen empty during the call") carries over
  /// verbatim. Fixed mode takes the pre-adaptive code path, byte for byte.
  std::size_t dequeue_bulk(Handle* h, uint64_t* out, std::size_t n) {
    if (cfg_.patience_mode == PatienceMode::kAdaptive && n > 1) {
      return dequeue_bulk_adaptive(h, out, n);
    }
    return dequeue_bulk_fixed(h, out, n);
  }

  /// Fixed-reservation batched dequeue (see dequeue_bulk): one FAA claims
  /// all n tickets up front.
  std::size_t dequeue_bulk_fixed(Handle* h, uint64_t* out, std::size_t n) {
    if (n == 0) return 0;
    if (n == 1) {
      uint64_t v = dequeue(h);
      if (v == kEmpty) return 0;
      out[0] = v;
      return 1;
    }
    rcl_.begin_op(h, h->head);
    if constexpr (Traits::kCollectStats) h->op_probes = 0;
    const uint64_t obs_t0 = obs_start(h);  // per batch, not per item
    const uint64_t base =
        Traits::Faa::fetch_add(*head_index_, uint64_t(n), sc());
    WFQ_INJECT(Traits, "deq_bulk_faa_post");
    Traits::interleave_hint();  // stall point: n indices claimed, cells unseen
    std::size_t got = 0;
    bool saw_empty = false;
    Segment* s = h->head.load(acq());
    Cell* cells[kBulkChunk];
    std::size_t ticket = 0;
    try {
      for (; ticket < n; ticket += kBulkChunk) {
        const std::size_t take = std::min(n - ticket, kBulkChunk);
        find_cell_range(h, s, base + ticket, take, cells, "deq_bulk");
        for (std::size_t j = 0; j < take; ++j) {
          Traits::interleave_hint();
          const uint64_t v = help_enq(h, cells[j], base + ticket + j);
          if (v == kEmpty) {
            saw_empty = true;
            continue;  // keep visiting: later cells may need helping
          }
          if (v == kTop) continue;  // cell unusable, ticket wasted
          DeqReq* expected = deq_bot();
          if (cells[j]->deq.compare_exchange_strong(
                  expected, deq_top(), sc(), std::memory_order_relaxed)) {
            out[got++] = v;  // claimed, FIFO by increasing cell id
          }
          // else: a slow-path dequeue request claimed this value first.
        }
      }
    } catch (const SegmentAllocError&) {
      // Values claimed so far are real. The tickets from the failed chunk
      // onward were consumed by the FAA but their cells never visited —
      // and an enqueue whose walk succeeds later (reserve pool, memory
      // returning) could still deposit there. Park each as a debt, or
      // settle it in person, exactly as deq_fast does for its one index.
      for (std::size_t u = ticket; u < n; ++u) {
        const uint64_t sv = settle_unreachable(h, base + u);
        if (sv == kEmpty) {
          saw_empty = true;
        } else if (sv != kTop && sv != kNoMem) {
          out[got++] = sv;  // settled in person and claimed
        }
      }
    }
    h->head.store(s, rel());
    if (got != 0) {
      // As in dequeue (Listing 4 line 135): a successful dequeuer helps its
      // dequeue peer — once per batch, matching the one shared FAA.
      try {
        help_deq(h, h->deq.peer);
      } catch (const SegmentAllocError&) {
        // Best-effort under OOM, as in dequeue().
      }
      h->deq.peer = h->deq.peer->next.load(rlx());
    }
    count(h->stats.deq_bulk_batches);
    count_n(h->stats.deq_bulk_fast, got);
    if (saw_empty) count(h->stats.deq_empty);
    flush_probes(h, h->stats.deq_probes, h->stats.max_deq_probes);
    obs_lat(h, obs_t0, [](auto& o) -> auto& { return o.deq_bulk_ns; });
    rcl_.end_op(h);
    poll_reclaim(h);
    while (!saw_empty && got < n) {
      const uint64_t v = dequeue(h);
      if (v == kEmpty || v == kNoMem) break;
      out[got++] = v;
    }
    return got;
  }

  /// Adaptive-reservation batched dequeue (see dequeue_bulk): the AIMD
  /// controller caps each FAA so the reservation tracks how much the queue
  /// has actually been delivering to this handle. A full sub-batch grows
  /// the cap, a short one (the emptiness witness) halves it and ends the
  /// call, so per-item progress bounds are those of dequeue_bulk_fixed.
  std::size_t dequeue_bulk_adaptive(Handle* h, uint64_t* out, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const std::size_t k = std::min(n - got, h->bulk_ctl.k());
      const std::size_t r = dequeue_bulk_fixed(h, out + got, k);
      h->bulk_ctl.note_batch(k, r);
      got += r;
      if (r < k) break;  // saw empty (or clean OOM): stop reserving
    }
    if constexpr (Traits::kCollectStats) {
      OpStats::raise_max(h->stats.bulk_k_current, h->bulk_ctl.k());
    }
    return got;
  }

  // -------------------------------------------------------------------
  // Introspection (tests, benchmarks, Table 2).
  // -------------------------------------------------------------------

  /// Snapshot of all per-handle counters (call while quiesced for exact
  /// numbers; any time for an approximation).
  OpStats collect_stats() const {
    OpStats total;
    registry_.for_each([&](const Handle* h) { total.add(h->stats); });
    // Seam and injector counters live on the segment list / the (process-
    // global) injector rather than on handles; fold them in here.
    total.alloc_failures.fetch_add(segs_.alloc_failures(),
                                   std::memory_order_relaxed);
    total.reserve_pool_hits.fetch_add(segs_.reserve_pool_hits(),
                                      std::memory_order_relaxed);
    total.injected_stalls.fetch_add(Injector::stalls(),
                                    std::memory_order_relaxed);
    total.injected_crashes.fetch_add(Injector::crashes(),
                                     std::memory_order_relaxed);
    return total;
  }

  void reset_stats() {
    registry_.for_each([](Handle* h) { h->stats.reset(); });
  }

  /// Snapshot of everything the metrics layer recorded: merged latency
  /// histograms, retained trace records, and exact per-type event totals
  /// (per-handle rings plus the process-global segment-layer ring). Under
  /// NullMetrics returns an empty snapshot. Same quiescence contract as
  /// collect_stats for exact numbers. `include_global_ring = false` skips
  /// the process-global ring — for aggregators holding several queue
  /// instances (the sharded layer), which must absorb that shared ring
  /// exactly once across all of them.
  obs::ObsSnapshot collect_obs(bool include_global_ring = true) const {
    obs::ObsSnapshot snap;
    if constexpr (Metrics::kEnabled) {
      registry_.for_each([&](const Handle* h) {
        snap.enq_ns.merge(h->obs.enq_ns);
        snap.deq_ns.merge(h->obs.deq_ns);
        snap.enq_bulk_ns.merge(h->obs.enq_bulk_ns);
        snap.deq_bulk_ns.merge(h->obs.deq_bulk_ns);
        snap.absorb_ring(h->obs.ring);
      });
      if (include_global_ring) snap.absorb_ring(Metrics::global_ring());
    }
    return snap;
  }

  /// Clear all recorded metrics (histograms and rings, including the
  /// process-global one — so run-to-run soak phases start clean).
  void reset_obs() {
    if constexpr (Metrics::kEnabled) {
      registry_.for_each([](Handle* h) {
        h->obs.enq_ns.reset();
        h->obs.deq_ns.reset();
        h->obs.enq_bulk_ns.reset();
        h->obs.deq_bulk_ns.reset();
        h->obs.ring.reset();
      });
      Metrics::global_ring().reset();
    }
  }

  /// Number of segments currently in the list (O(segments); test helper).
  std::size_t live_segments() const { return segs_.live_segments(); }

  uint64_t tail_index() const {
    return tail_index_->load(std::memory_order_acquire);
  }
  uint64_t head_index() const {
    return head_index_->load(std::memory_order_acquire);
  }

  /// Heuristic occupancy indicator: tail minus head index, clamped at 0.
  /// NOT linearizable and NOT exact — indices also count cells wasted by
  /// contention and by EMPTY dequeues, and both move concurrently. Useful
  /// for monitoring/backpressure, never for emptiness decisions (use
  /// dequeue(), whose EMPTY result is linearizable).
  uint64_t approx_size() const {
    uint64_t t = tail_index_->load(std::memory_order_relaxed);
    uint64_t h = head_index_->load(std::memory_order_relaxed);
    return t > h ? t - h : 0;
  }
  const WfConfig& config() const noexcept { return cfg_; }

  /// Total segments ever allocated minus freed (test helper for leak
  /// checks; exact only while quiesced — with a deferring policy, segments
  /// handed to an HP/epoch domain count as freed at hand-off).
  int64_t segments_outstanding() const { return segs_.outstanding(); }

  /// High-water mark of simultaneously live segments (the memory-bound
  /// axis of bench_reclaim_scheme; see SegmentList::peak_live_segments).
  std::size_t peak_live_segments() const {
    return segs_.peak_live_segments();
  }

  /// The active reclamation policy instance (benchmark diagnostics such as
  /// EpochReclaim::limbo_count).
  Reclaim& reclaimer() noexcept { return rcl_; }
  const Reclaim& reclaimer() const noexcept { return rcl_; }

 private:
  // ---- memory-order shorthands -------------------------------------
  static constexpr std::memory_order acq() {
    return Traits::kConservativeOrdering ? std::memory_order_seq_cst
                                         : std::memory_order_acquire;
  }
  static constexpr std::memory_order rel() {
    return Traits::kConservativeOrdering ? std::memory_order_seq_cst
                                         : std::memory_order_release;
  }
  static constexpr std::memory_order rlx() {
    return Traits::kConservativeOrdering ? std::memory_order_seq_cst
                                         : std::memory_order_relaxed;
  }
  static constexpr std::memory_order sc() { return std::memory_order_seq_cst; }

  static void count(std::atomic<uint64_t>& c) {
    if constexpr (Traits::kCollectStats) {
      c.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ---- observability shims (src/obs/metrics.hpp) ---------------------
  // Same discarded-statement discipline as WFQ_INJECT: under NullMetrics
  // every call below is inside a discarded `if constexpr` branch, so the
  // clock reads, the histogram selectors (generic lambdas — never
  // instantiated when discarded) and the ring emits vanish entirely.

  /// Sampled op-start stamp: 0 means "this op is not sampled".
  static uint64_t obs_start(Handle* h) {
    if constexpr (Metrics::kEnabled) {
      return Metrics::op_start(h->obs);
    } else {
      return 0;
    }
  }

  /// Record the elapsed latency of a sampled op into the histogram `sel`
  /// picks out of the per-handle block.
  template <class Sel>
  static void obs_lat(Handle* h, uint64_t t0, Sel&& sel) {
    if constexpr (Metrics::kEnabled) {
      if (t0 != 0) sel(h->obs).record(Metrics::now_ns() - t0);
    }
  }

  /// Emit a typed slow-path event into `h`'s trace ring. Never sampled:
  /// trace totals must agree exactly with the OpStats counters they shadow.
  static void obs_trace(Handle* h, obs::TraceEvent ev, uint64_t a = 0,
                        uint64_t b = 0) {
    if constexpr (Metrics::kEnabled) {
      h->obs.ring.emit(ev, Metrics::now_ns(), h->obs.id, a, b);
    }
  }

  static void count_n(std::atomic<uint64_t>& c, uint64_t k) {
    if constexpr (Traits::kCollectStats) {
      c.fetch_add(k, std::memory_order_relaxed);
    }
  }

  /// Fold the finished operation's probe count into the per-handle totals
  /// and high-water mark (wait-freedom accounting).
  static void flush_probes(Handle* h, std::atomic<uint64_t>& total,
                           std::atomic<uint64_t>& max) {
    if constexpr (Traits::kCollectStats) {
      total.fetch_add(h->op_probes, std::memory_order_relaxed);
      if (h->op_probes > max.load(std::memory_order_relaxed)) {
        max.store(h->op_probes, std::memory_order_relaxed);
      }
    }
  }

  // ---- adaptive fast-path tuning (src/core/adaptive.hpp) -------------

  /// PATIENCE for this operation: the fixed knob, or the handle's
  /// controller under kAdaptive (an owner-local plain read — no atomics).
  unsigned effective_patience(const Handle* h) const noexcept {
    return cfg_.patience_mode == PatienceMode::kAdaptive
               ? h->patience_ctl.patience()
               : cfg_.patience;
  }

  /// Feed one completed operation to the handle's patience controller and
  /// surface its (rare, epoch-boundary) decisions as stats counters and
  /// trace events. Fixed mode pays one predictable branch; adaptive mode
  /// adds two owner-local increments per op.
  void note_adaptive(Handle* h, bool slow) {
    if (cfg_.patience_mode != PatienceMode::kAdaptive) return;
    switch (h->patience_ctl.note_op(slow)) {
      case adaptive::Decision::kRaise:
        count(h->stats.patience_raises);
        obs_trace(h, obs::TraceEvent::kPatienceRaise,
                  h->patience_ctl.patience());
        break;
      case adaptive::Decision::kDrop:
        count(h->stats.patience_drops);
        obs_trace(h, obs::TraceEvent::kPatienceDrop,
                  h->patience_ctl.patience());
        break;
      case adaptive::Decision::kHold:
        break;
    }
  }

  /// Listing 2 find_cell, with probe accounting and the handle's spare
  /// segment wired into the segment layer's traversal.
  Cell* find_cell(Handle* h, Segment*& sp, uint64_t cell_id,
                  const char* who = "?") {
    if constexpr (Traits::kCollectStats) ++h->op_probes;
    return segs_.find_cell(sp, cell_id, h->spare, who);
  }

  /// Batch find_cell: resolve `n` consecutive cells with one segment walk
  /// (SegmentList::find_cell_range). Each cell still counts as one probe —
  /// the wait-freedom accounting bounds cells visited, not walks taken.
  void find_cell_range(Handle* h, Segment*& sp, uint64_t first_id,
                       std::size_t n, Cell** out, const char* who = "?") {
    if constexpr (Traits::kCollectStats) h->op_probes += n;
    segs_.find_cell_range(sp, first_id, n, out, h->spare, who);
  }

  /// Listing 2 advance_end_for_linearizability: raise the head or tail
  /// index to at least `cid` (Invariants 4 and 8).
  static void advance_end_for_linearizability(std::atomic<uint64_t>& e,
                                              uint64_t cid) {
    uint64_t cur = e.load(std::memory_order_relaxed);
    while (cur < cid &&
           !e.compare_exchange_weak(cur, cid, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    }
  }

  /// Listing 3 try_to_claim_req: claim request state (1, id) -> (0, cell).
  /// A failed claim leaves the state the CAS observed in `seen`, read with
  /// acquire so the request's value may be read after it (help_enq).
  static bool try_to_claim_req(std::atomic<uint64_t>& state, uint64_t id,
                               uint64_t cell_id, PackedState& seen) {
    uint64_t w = PackedState(true, id).word();
    const bool claimed = state.compare_exchange_strong(
        w, PackedState(false, cell_id).word(), std::memory_order_seq_cst,
        std::memory_order_acquire);
    seen = PackedState::from_word(w);
    return claimed;
  }

  /// Listing 3 enq_commit: make the enqueue of `v` at cell `cid` visible —
  /// first push T past cid (Invariant 4), then deposit the value.
  void enq_commit(Cell* c, uint64_t v, uint64_t cid) {
    advance_end_for_linearizability(*tail_index_, cid + 1);
    c->val.store(v, rel());
  }

  // ---- OOM debt protocol (conservation under allocation failure) ------
  //
  // A dequeuer's FAA on H irrevocably consumes cell index i. If the
  // subsequent find_cell cannot materialize segment(i), abandoning the
  // index would strand any value a later enqueue deposits there (the
  // enqueuer's walk may succeed where ours failed: the reserve pool, or
  // memory returning) — no dequeue ever FAAs into i again. Instead the
  // dequeuer *parks the index as a debt* in a bounded table that every
  // depositor consults (one shared load when the table is empty) after
  // making a value visible. A depositor that lands on a parked index
  // claims the entry, seals the cell's `deq` field, and deposits the value
  // again at a fresh index — all inside its own operation, so the enqueue
  // simply linearizes at the later deposit and FIFO/linearizability are
  // preserved. Counted in OpStats::oom_rescues.
  //
  // The `deq` field is the single arbiter between a retracting depositor
  // and any dequeue-side claimer (an in-person settler below, or a
  // help_deq candidate claim): whoever CASes it from ⊥d first owns the
  // value's fate, so the value is consumed exactly once.
  //
  // The park itself is race-free against a concurrent deposit because a
  // deposit at i requires segment(i) to exist, and the parking dequeuer
  // re-probes the list *after* publishing the entry (seq_cst RMWs plus a
  // fence — the Dekker pairing with the depositor's seq_cst check): if the
  // list is still too short, no deposit has happened yet and every future
  // depositor sees the entry; if the segment appeared meanwhile, the
  // dequeuer races for its own entry back and settles the cell in person.

  /// Publish cell id `i` as a parked debt. False if the table is full.
  bool debt_log(uint64_t i) {
    for (auto& slot : debt_) {
      uint64_t expected = 0;
      if (slot.load(std::memory_order_relaxed) == 0 &&
          slot.compare_exchange_strong(expected, i + 1,
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        debt_count_->fetch_add(1, std::memory_order_seq_cst);
        return true;
      }
    }
    return false;
  }

  /// Claim (remove) the debt entry for cell id `i`; at most one claimer
  /// succeeds. The slot is cleared before the count drops, so the
  /// depositors' fast-path gate (count == 0) never hides a live entry.
  bool debt_claim(uint64_t i) {
    for (auto& slot : debt_) {
      uint64_t expected = i + 1;
      if (slot.load(std::memory_order_relaxed) == i + 1 &&
          slot.compare_exchange_strong(expected, 0, std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        debt_count_->fetch_sub(1, std::memory_order_seq_cst);
        return true;
      }
    }
    return false;
  }

  /// Drop a parked debt for an index that can never receive a deposit
  /// (its enqueue-side owner abandoned it too, or help_enq sealed the cell
  /// barren). Pure slot hygiene — the cell is dead either way.
  void debt_gc(uint64_t i) {
    if (debt_count_->load(std::memory_order_seq_cst) == 0) return;
    (void)debt_claim(i);
  }

  /// Handle a dequeue-side index whose segment could not be materialized.
  /// Parks it as a debt when possible; when the segment appears
  /// concurrently (or the table is full) settles the cell in person with
  /// the ordinary help_enq / claim protocol. Returns a claimed value,
  /// kEmpty (valid emptiness witness), kTop (ticket wasted), or kNoMem
  /// (index parked; the operation may fail cleanly).
  uint64_t settle_unreachable(Handle* h, uint64_t i) {
    for (;;) {
      Cell* c = nullptr;
      if (debt_log(i)) {
        // Dekker pairing with deposit_retracted: publish, fence, re-probe.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        try {
          Segment* s = h->head.load(acq());
          c = find_cell(h, s, i, "debt_settle");
          h->head.store(s, rel());
        } catch (const SegmentAllocError&) {
          return kNoMem;  // parked; a future depositor will retract
        }
        // The segment appeared while we parked: take the entry back and
        // settle in person. Losing the race means a depositor (or a
        // barren-cell GC) owns the cell now — for us the ticket is dead.
        if (!debt_claim(i)) return kTop;
      } else {
        // Table full: conservation requires visiting the cell, so retry
        // the walk until the allocator recovers. Reaching this corner
        // takes >= kDebtSlots outstanding debts during a persistent OOM
        // storm; progress resumes as soon as any allocation succeeds.
        try {
          Segment* s = h->head.load(acq());
          c = find_cell(h, s, i, "debt_settle_full");
          h->head.store(s, rel());
        } catch (const SegmentAllocError&) {
          std::this_thread::yield();
          continue;
        }
      }
      const uint64_t v = help_enq(h, c, i);
      if (v == kEmpty) return kEmpty;
      if (v == kTop) return kTop;
      DeqReq* expected = deq_bot();
      if (c->deq.compare_exchange_strong(expected, deq_top(), sc(),
                                         std::memory_order_relaxed)) {
        return v;
      }
      return kTop;  // a slow-path dequeue request claimed the value first
    }
  }

  /// Post-deposit check, run by every path that makes a value visible in a
  /// cell. True means the deposit landed in a debt-parked (dead) cell and
  /// was retracted: the caller still owns the value and must deposit it
  /// again at a fresh index. False either because the index was never
  /// parked or because a dequeue-side claimer won the `deq` arbitration —
  /// then the value was consumed normally and the deposit stands.
  bool deposit_retracted(Handle* h, Cell* c, uint64_t i) {
    if (debt_count_->load(std::memory_order_seq_cst) == 0) return false;
    if (!debt_claim(i)) return false;
    DeqReq* expected = deq_bot();
    if (!c->deq.compare_exchange_strong(expected, deq_top(), sc(),
                                        std::memory_order_relaxed)) {
      return false;  // a dequeuer claimed the value first: it is consumed
    }
    count(h->stats.oom_rescues);
    obs_trace(h, obs::TraceEvent::kOomRescue, i);
    return true;
  }

  // ---- enqueue (Listing 3) -------------------------------------------

  /// One fast-path attempt: FAA a cell index, try to deposit with one CAS.
  /// On failure reports the obtained index through `cid` (it seeds the
  /// slow-path request id).
  bool enq_fast(Handle* h, uint64_t v, uint64_t& cid) {
    uint64_t i = Traits::Faa::fetch_add(*tail_index_, uint64_t{1}, sc());
    WFQ_INJECT(Traits, "enq_faa_post");
    Traits::interleave_hint();  // stall point: index claimed, cell untouched
    Segment* s = h->tail.load(acq());
    Cell* c;
    try {
      c = find_cell(h, s, i, "enq_fast");
    } catch (const SegmentAllocError&) {
      debt_gc(i);  // both sides failed to reach i: the cell is barren
      throw;
    }
    h->tail.store(s, rel());
    uint64_t expected = kBot;
    if (c->val.compare_exchange_strong(expected, v, sc(),
                                       std::memory_order_relaxed) &&
        !deposit_retracted(h, c, i)) {
      return true;
    }
    // Ticket wasted (a dequeuer sealed the cell, or the deposit landed in
    // a debt-parked cell and was retracted): the value retries.
    cid = i;
    return false;
  }

  /// Slow path: publish an enqueue request, keep claiming cells; complete
  /// when the enqueuer or any helper claims the request for a cell.
  /// Returns false iff allocation failed and the request was withdrawn
  /// before any helper claimed it (the value was not enqueued).
  bool enq_slow(Handle* h, uint64_t v, uint64_t cell_id) {
    EnqReq* r = &h->enq.req;
    // Publish (val first, then state with the pending bit: helpers read in
    // the reverse order, which is the two-word consistency argument of
    // §3.4 "Write the proper value in a cell").
    r->val.store(v, rel());
    r->state.store(PackedState(true, cell_id).word(), sc());
    WFQ_INJECT(Traits, "enq_slow_published");
    return enq_slow_finish(h, r, v, cell_id);
  }

  /// Drive a published enqueue request to completion. Shared by enq_slow
  /// and orphan adoption (the adopter calls it with the victim's handle to
  /// complete a request the victim abandoned mid-flight). On allocation
  /// failure the request is withdrawn with a single CAS to the unreachable
  /// index kMaxIndex — helpers treat the cancelled record exactly like any
  /// completed one (kMaxIndex can never equal a visited cell id, so the
  /// "claimed but uncommitted" helper branch can never resurrect it).
  bool enq_slow_finish(Handle* h, EnqReq* r, uint64_t v, uint64_t cell_id) {
    // Traverse with a local tail pointer: line 87 may need to revisit an
    // earlier cell than the last one probed.
    Segment* tmp_tail = h->tail.load(acq());
    // Whether WE closed the request. Every other way out of the loop —
    // while-condition seeing !pending(), a failed claim CAS, the OOM
    // withdrawal losing its CAS — means a helper claimed it for us.
    bool self_claimed = false;
    try {
      do {
        uint64_t i = Traits::Faa::fetch_add(*tail_index_, uint64_t{1}, sc());
        WFQ_INJECT(Traits, "enq_slow_faa");
        Traits::interleave_hint();
        Cell* c;
        try {
          c = find_cell(h, tmp_tail, i, "enq_slow_loop");
        } catch (const SegmentAllocError&) {
          debt_gc(i);  // this index is abandoned: a parked debt at it can
                       // never be repaid
          throw;
        }
        // Dijkstra's protocol with help_enq: reserve the cell for the
        // request, then check the cell was not already made unusable.
        EnqReq* expected = enq_bot();
        if (c->enq.compare_exchange_strong(expected, r, sc(),
                                           std::memory_order_relaxed) &&
            c->val.load(sc()) == kBot) {
          Traits::interleave_hint();  // cell reserved and seen ⊥, unclaimed
          PackedState seen;
          self_claimed = try_to_claim_req(r->state, cell_id, i, seen);
          // Request now claimed for some cell (by us or a helper).
          break;
        }
      } while (PackedState::from_word(r->state.load(acq())).pending());
    } catch (const SegmentAllocError&) {
      uint64_t expected = PackedState(true, cell_id).word();
      if (r->state.compare_exchange_strong(
              expected, PackedState(false, PackedState::kMaxIndex).word(),
              sc(), std::memory_order_relaxed)) {
        return false;  // withdrawn cleanly; the value was not enqueued
      }
      // A helper claimed the request concurrently: the value WILL be
      // visible, so fall through and commit it. The commit path below is
      // allocation-free — the claimed cell's segment already exists and is
      // protected by this handle's published hzdp.
    }

    // The request was claimed for cell `id`; find it and commit there.
    uint64_t id = PackedState::from_word(r->state.load(acq())).index();
    assert(id != PackedState::kMaxIndex);
    if constexpr (Metrics::kEnabled) {
      if (!self_claimed) obs_trace(h, obs::TraceEvent::kHelpReceived, 0, id);
    }
    Segment* s = h->tail.load(acq());
    Cell* c = find_cell(h, s, id, "enq_slow_commit");
    h->tail.store(s, rel());
    WFQ_INJECT(Traits, "enq_slow_claimed");
    Traits::interleave_hint();  // request claimed, value not committed
    enq_commit(c, v, id);
    if (deposit_retracted(h, c, id)) {
      // The claimed cell was a parked debt: the request is complete but
      // the value would be stranded there. Re-drive it as a fresh request
      // (bounded: every retraction removes one debt entry).
      return enq_slow(h, v, id);
    }
    return true;
  }

  /// Listing 3 help_enq, called by dequeuers on every cell they visit.
  /// Returns: a deposited value; kTop if the cell is unusable and the
  /// dequeue must move on; kEmpty if the dequeue may linearize as EMPTY at
  /// this cell (Invariant 6: no pending enqueue can fill the cell and
  /// T <= i was observed).
  uint64_t help_enq(Handle* h, Cell* c, uint64_t i) {
    // Mark the cell unusable unless a value is already there (Dijkstra
    // protocol, dequeuer side: RMW on val then read enq).
    uint64_t cv = kBot;
    if (!c->val.compare_exchange_strong(cv, kTop, sc(), sc()) && cv != kTop) {
      return cv;  // an enqueue already deposited a value here
    }
    Traits::interleave_hint();  // Dijkstra window: cell marked, enq unread
    // c->val is now ⊤; try to help a slow-path enqueue use this cell.
    if (c->enq.load(sc()) == enq_bot()) {
      // Select a peer whose pending request we may help (Invariants 2, 3).
      Handle* p;
      EnqReq* r;
      PackedState s;
      for (;;) {  // at most two iterations
        p = h->enq.peer;
        r = &p->enq.req;
        s = PackedState::from_word(r->state.load(acq()));
        if (h->enq.help_id == 0 || h->enq.help_id == s.index()) break;
        // The request we owed help to has completed; move to next peer.
        h->enq.help_id = 0;
        h->enq.peer = p->next.load(rlx());
      }
      EnqReq* expected = enq_bot();
      const bool peer_wants = s.pending() && s.index() <= i;
      if (peer_wants &&
          !c->enq.compare_exchange_strong(expected, r, sc(),
                                          std::memory_order_relaxed)) {
        // Failed to reserve this cell for the peer's request: remember the
        // request id so we keep helping this peer (Invariant 2).
        h->enq.help_id = s.index();
      } else {
        if constexpr (Metrics::kEnabled) {
          // In this branch the CAS either succeeded (expected still ⊥e) or
          // was short-circuited away (!peer_wants, expected untouched), so
          // `peer_wants && expected == ⊥e` means we reserved the cell for
          // the peer's request.
          if (peer_wants && expected == enq_bot() && p != h) {
            obs_trace(h, obs::TraceEvent::kHelpGiven, p->obs.id, i);
          }
        }
        // Peer doesn't need help, can't use this cell, or we just reserved
        // the cell for it: next time help the next peer.
        h->enq.peer = p->next.load(rlx());
      }
      // If no request reserved the cell, seal it so later helpers don't.
      if (c->enq.load(acq()) == enq_bot()) {
        WFQ_INJECT(Traits, "help_enq_sealed");
        EnqReq* eb = enq_bot();
        c->enq.compare_exchange_strong(eb, enq_top(), sc(),
                                       std::memory_order_relaxed);
      }
    }
    EnqReq* e = c->enq.load(sc());
    if (e == enq_top()) {
      // No enqueue will ever fill this cell. A parked debt here can never
      // be repaid — drop it. EMPTY only if not enough enqueues linearized
      // before i (Invariant 6).
      debt_gc(i);
      return tail_index_->load(sc()) <= i ? kEmpty : kTop;
    }
    // The cell holds a real enqueue request. Read state before val (reverse
    // of the publication order) so `v` belongs to request s.id or later.
    PackedState s = PackedState::from_word(e->state.load(acq()));
    uint64_t v = e->val.load(acq());
    Traits::interleave_hint();  // request read, claim not tried
    if (s.index() > i) {
      // Request too new for this cell: it can never deposit here.
      if (c->val.load(acq()) == kTop && tail_index_->load(sc()) <= i) {
        return kEmpty;
      }
    } else if (PackedState seen;
               try_to_claim_req(e->state, s.index(), i, seen)) {
      enq_commit(c, v, i);  // we claimed the request for this cell
    } else if (seen == PackedState(false, i)) {
      // Someone claimed the request for this cell — possibly its owner,
      // after we read `s` — and the value may not be committed yet: commit
      // it ourselves. Judge by the state the CAS observed, not by `s`: the
      // owner's commit may land after we leave, and no dequeuer visits
      // this cell again. Read the value after that state and check the
      // cell last (state → value → cell, as above), so an owner that has
      // committed and published its next request fails the cell check
      // rather than getting its cell overwritten with the next value.
      v = e->val.load(acq());
      if (c->val.load(acq()) == kTop) enq_commit(c, v, i);
    }
    return c->val.load(acq());
  }

  // ---- dequeue (Listing 4) -------------------------------------------

  /// One fast-path attempt. Returns a value, kEmpty, or kTop on failure
  /// (reporting the probed index through `cid`).
  uint64_t deq_fast(Handle* h, uint64_t& cid) {
    uint64_t i = Traits::Faa::fetch_add(*head_index_, uint64_t{1}, sc());
    WFQ_INJECT(Traits, "deq_faa_post");
    Traits::interleave_hint();  // stall point: index claimed, cell unseen
    Segment* s = h->head.load(acq());
    Cell* c;
    try {
      c = find_cell(h, s, i, "deq_fast");
    } catch (const SegmentAllocError&) {
      // The FAA already consumed index i; never abandon it silently. Park
      // it as a debt (clean kNoMem) or settle it in person (see the debt
      // protocol above).
      const uint64_t sv = settle_unreachable(h, i);
      if (sv == kNoMem) throw;  // parked: dequeue() reports kNoMem
      if (sv == kTop) cid = i;
      return sv;  // a claimed value, kEmpty, or kTop (ticket wasted)
    }
    h->head.store(s, rel());
    uint64_t v = help_enq(h, c, i);
    if (v == kEmpty) return kEmpty;
    if (v != kTop) {
      DeqReq* expected = deq_bot();
      if (c->deq.compare_exchange_strong(expected, deq_top(), sc(),
                                         std::memory_order_relaxed)) {
        return v;  // claimed the value
      }
    }
    cid = i;
    return kTop;
  }

  /// Slow path: publish a dequeue request and work on it together with any
  /// helpers until it is complete, then read out the result.
  uint64_t deq_slow(Handle* h, uint64_t cid) {
    DeqReq* r = &h->deq.req;
    r->id.store(cid, rel());
    r->state.store(PackedState(true, cid).word(), sc());
    WFQ_INJECT(Traits, "deq_slow_published");
    Traits::interleave_hint();  // request visible, no self-help yet

    try {
      help_deq(h, h);
    } catch (const SegmentAllocError&) {
      if (cancel_deq_request(h, r)) {
        throw;  // withdrawn before completion; dequeue() reports kNoMem
      }
      // Helpers completed the request concurrently; read out the result.
    }
    return deq_slow_epilogue(h, r);
  }

  /// Withdraw a pending dequeue request by CASing its state to the
  /// unreachable index kMaxIndex (looping across helper announcements).
  /// Returns false if a helper completed the request first. On successful
  /// withdrawal a helper may already have claimed a cell's `deq` field for
  /// the request without closing it; that value is then unreachable, which
  /// we account for pessimistically as an orphan drop.
  bool cancel_deq_request(Handle* h, DeqReq* r) {
    uint64_t w = r->state.load(acq());
    while (PackedState::from_word(w).pending()) {
      const bool announced =
          PackedState::from_word(w).index() != r->id.load(acq());
      if (r->state.compare_exchange_weak(
              w, PackedState(false, PackedState::kMaxIndex).word(), sc(),
              std::memory_order_relaxed)) {
        if (announced) count(h->stats.orphan_drops);
        return true;
      }
    }
    return false;
  }

  /// Completed-request epilogue shared by deq_slow and orphan adoption:
  /// locate the destination cell, read the value, raise H (Invariant 8).
  /// Allocation-free: the destination segment exists (the completing
  /// helper walked to it) and is protected by this handle's hzdp.
  uint64_t deq_slow_epilogue(Handle* h, DeqReq* r) {
    uint64_t i = PackedState::from_word(r->state.load(acq())).index();
    assert(i != PackedState::kMaxIndex);
    Segment* s = h->head.load(acq());
    Cell* c = find_cell(h, s, i, "deq_slow_epilogue");
    h->head.store(s, rel());
    uint64_t v = c->val.load(acq());
    advance_end_for_linearizability(*head_index_, i + 1);  // Invariant 8
    return v == kTop ? kEmpty : v;
  }

  /// Listing 4 help_deq: advance `helpee`'s pending dequeue request to
  /// completion — find candidate cells, announce them, and claim the
  /// announced cell for the request.
  void help_deq(Handle* h, Handle* helpee) {
    DeqReq* r = &helpee->deq.req;
    PackedState s = PackedState::from_word(r->state.load(acq()));
    uint64_t id = r->id.load(acq());
    if (!s.pending() || s.index() < id) return;  // request needs no help
    if constexpr (Metrics::kEnabled) {
      // Help genuinely begins here (the pending check above filtered the
      // common no-op calls); self-help from deq_slow is not "help given".
      if (helpee != h) {
        obs_trace(h, obs::TraceEvent::kHelpGiven, helpee->obs.id, id);
      }
    }

    // Local segment pointer for announced cells; never advances the
    // helpee's own head pointer (§3.5 "Don't advance segment pointers too
    // early").
    Segment* ha = helpee->head.load(acq());
    // §3.6: protect the foreign segment before re-reading the request
    // state. The policy's fence is required even on x86 (the one
    // non-fast-path fence of the paper's scheme). If the segment at `ha`
    // was reclaimed before our protection became visible, the request must
    // have completed and the s.idx == prior check below fails before we
    // dereference `ha`.
    rcl_.protect_foreign(h, ha);
    s = PackedState::from_word(r->state.load(sc()));

    uint64_t prior = id;
    uint64_t i = id;
    uint64_t cand = 0;  // 0 = none (real candidates are >= id + 1 >= 1)
    for (;;) {
      // Find a candidate cell, unless another helper announces one first.
      // `hc` is a second local segment pointer for the candidate scan.
      for (Segment* hc = ha; cand == 0 && s.index() == prior;) {
        WFQ_INJECT(Traits, "help_deq_scan");
        Traits::interleave_hint();
        Cell* c = find_cell(h, hc, ++i, "help_deq_scan");
        uint64_t v = help_enq(h, c, i);
        // Candidate: help_enq said EMPTY, or produced a value no dequeue
        // has claimed yet.
        if (v == kEmpty || (v != kTop && c->deq.load(acq()) == deq_bot())) {
          cand = i;
        } else {
          s = PackedState::from_word(r->state.load(acq()));
        }
      }
      if (cand != 0) {
        // Try to announce our candidate (Invariant 7: announced index only
        // increases).
        uint64_t expected = PackedState(true, prior).word();
        r->state.compare_exchange_strong(expected,
                                         PackedState(true, cand).word(), sc(),
                                         std::memory_order_relaxed);
        s = PackedState::from_word(r->state.load(acq()));
      }
      // Someone completed the request, or the helpee moved to a new one.
      if (!s.pending() || r->id.load(acq()) != id) return;

      // Work on the announced candidate.
      WFQ_INJECT(Traits, "help_deq_announced");
      Cell* c = find_cell(h, ha, s.index(), "help_deq_announced");
      DeqReq* expected = deq_bot();
      if (c->val.load(sc()) == kTop ||
          c->deq.compare_exchange_strong(expected, r, sc(),
                                         std::memory_order_relaxed) ||
          c->deq.load(acq()) == r) {
        // The candidate satisfies the request (permits EMPTY, or we/someone
        // claimed its value for r): close the request (Invariant 11).
        uint64_t sw = s.word();
        r->state.compare_exchange_strong(sw, PackedState(false, s.index()).word(),
                                         sc(), std::memory_order_relaxed);
        return;
      }
      // The announced cell was claimed by another dequeue; keep searching.
      prior = s.index();
      if (s.index() >= i) {
        cand = 0;
        i = s.index();
      }
    }
  }

  // ---- memory reclamation (Listing 5, delegated to the policy) ----------

  /// Called after every dequeue. The frontier cap (erratum, see DESIGN.md):
  /// the candidate frontier comes from the cleaner's *head* pointer, but
  /// when dequeues outrun enqueues (H >> T) head-side segments lie beyond
  /// segment(T / N). Enqueuers' future FAAs on T will still probe cells
  /// from T upward, so no segment at or after segment(T / N) may be freed
  /// and no thread's tail pointer may be advanced past it. Listing 5 omits
  /// this bound; without it the queue plants values at wrong indices and
  /// FIFO order breaks. The cap is read (seq_cst) before the policy's
  /// cleaner election, as the original cleanup did.
  void poll_reclaim(Handle* h) {
    const int64_t head_cap =
        int64_t(head_index_->load(std::memory_order_seq_cst) / kSegmentSize);
    const int64_t tail_cap =
        int64_t(tail_index_->load(std::memory_order_seq_cst) / kSegmentSize);
    ReclaimResult res =
        rcl_.poll(segs_, h, head_cap, tail_cap, cfg_.max_garbage);
    if (res.cleaned) {
      count(h->stats.cleanups);
      if constexpr (Traits::kCollectStats) {
        h->stats.segments_freed.fetch_add(res.freed,
                                          std::memory_order_relaxed);
      }
      obs_trace(h, obs::TraceEvent::kCleanup, uint64_t(res.freed));
    }
  }

  // ---- orphan adoption (docs/ALGORITHM.md §11) -------------------------

  /// Complete whatever operation handle `h` abandoned and clear its
  /// protection. Caller holds the registry lock and guarantees the owner takes
  /// no further steps. Runs under the injector's SuppressScope: adoption
  /// executes *because of* a fault and must not catch another scripted one.
  ///
  /// Decision table, per request record:
  ///   pending                          -> drive to completion (the enq
  ///       value becomes visible; the deq value is consumed and dropped,
  ///       counted as orphan_drops — the caller that would have received
  ///       it no longer exists).
  ///   completed, index == kMaxIndex    -> op-start marker or withdrawn
  ///       request: no cell involvement, nothing to do.
  ///   completed, index == i, phase matches -> the op crashed between its
  ///       claim and its epilogue: re-run the (idempotent) epilogue. The
  ///       phase gate is what makes this safe — without it a stale record
  ///       from an ancient op would send us walking to a reclaimed cell.
  void adopt_orphan(Handle* h) {
    typename Injector::SuppressScope suppress;
    const uint8_t phase = h->op_phase.load(std::memory_order_acquire);
    // Enqueue side.
    {
      EnqReq* r = &h->enq.req;
      PackedState s = PackedState::from_word(r->state.load(sc()));
      if (s.pending()) {
        enq_slow_finish(h, r, r->val.load(acq()), s.index());
      } else if (phase == kPhaseEnq && s.index() != PackedState::kMaxIndex) {
        // Claimed, possibly uncommitted: enq_commit re-raises T (monotone)
        // and re-stores the same value — idempotent even if the victim or
        // a helper already committed.
        uint64_t id = s.index();
        Segment* seg = h->tail.load(acq());
        Cell* c = find_cell(h, seg, id, "adopt_enq_commit");
        h->tail.store(seg, rel());
        enq_commit(c, r->val.load(acq()), id);
        if (deposit_retracted(h, c, id)) {
          // The victim's claimed cell was a parked debt: finish its
          // enqueue by re-driving the value, as enq_slow_finish would.
          enq_slow(h, r->val.load(acq()), id);
        }
      }
    }
    // Dequeue side.
    {
      DeqReq* r = &h->deq.req;
      PackedState s = PackedState::from_word(r->state.load(sc()));
      if (s.pending()) {
        try {
          help_deq(h, h);
          if (deq_slow_epilogue(h, r) != kEmpty) {
            count(h->stats.orphan_drops);
          }
        } catch (const SegmentAllocError&) {
          if (!cancel_deq_request(h, r) &&
              deq_slow_epilogue(h, r) != kEmpty) {
            count(h->stats.orphan_drops);
          }
        }
      } else if (phase == kPhaseDeq && s.index() != PackedState::kMaxIndex) {
        if (deq_slow_epilogue(h, r) != kEmpty) {
          count(h->stats.orphan_drops);
        }
      }
    }
    h->op_phase.store(kPhaseIdle, std::memory_order_release);
    rcl_.end_op(h);  // clears hzdp / hazard slots / epoch pin
    count(h->stats.adopted_handles);
    // Emitted into the victim's own ring (multi-writer safe; the adopter
    // runs on a different thread) so the trace row carries the victim's id.
    obs_trace(h, obs::TraceEvent::kAdopt);
  }

  // ---- members ---------------------------------------------------------

  friend struct WfTestPeek;  // white-box access for deterministic
                             // helping-path tests (tests/ only)

  WfConfig cfg_;
  CacheAligned<std::atomic<uint64_t>> tail_index_{0};  ///< paper: T
  CacheAligned<std::atomic<uint64_t>> head_index_{0};  ///< paper: H

  /// OOM debt table (see the debt-protocol section above): cell ids whose
  /// dequeuer could not materialize the segment, stored as id + 1 (0 =
  /// empty slot). `debt_count_` is the depositors' fast-path gate — a
  /// single shared load that stays 0 unless an allocation ever failed.
  static constexpr std::size_t kDebtSlots = 64;
  CacheAligned<std::atomic<uint64_t>> debt_count_{0};
  std::atomic<uint64_t> debt_[kDebtSlots] = {};
  SegList segs_;    ///< the emulated infinite array (paper: Q)
  Reclaim rcl_;     ///< reclamation policy (owns the paper's I)
  /// Registration scaffolding (freelist, helper ring, frontier exclusion):
  /// shared with SegmentQueueBase via HandleRegistry; this core only
  /// supplies the hooks in register_handle/release_handle above.
  HandleRegistry<Handle, Reclaim> registry_;
};

}  // namespace wfq
