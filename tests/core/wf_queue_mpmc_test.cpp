// Multi-producer/multi-consumer correctness of the wait-free queue:
// no value lost, none duplicated, per-producer FIFO order preserved.
// Parameterized (TEST_P) over thread mix, patience and segment size.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "core/wf_queue.hpp"

namespace wfq {
namespace {

// Payload encoding: (producer id << 40) | sequence. Producer ids and
// sequence numbers stay well below their field widths.
constexpr uint64_t make_val(unsigned producer, uint64_t seq) {
  return (uint64_t(producer) << 40) | (seq + 1);
}
constexpr unsigned val_producer(uint64_t v) {
  return unsigned(v >> 40);
}
constexpr uint64_t val_seq(uint64_t v) {
  return (v & ((uint64_t{1} << 40) - 1)) - 1;
}

struct MpmcParam {
  unsigned producers;
  unsigned consumers;
  unsigned patience;
  uint64_t per_producer;
};

template <class Traits>
void run_mpmc(const MpmcParam& p) {
  WfConfig cfg;
  cfg.patience = p.patience;
  cfg.max_garbage = 8;
  WFQueue<uint64_t, Traits> q(cfg);
  const uint64_t total = p.per_producer * p.producers;

  std::atomic<uint64_t> consumed{0};
  std::atomic<bool> producers_done{false};
  // consumed_by[c] collects what consumer c saw, in its local order.
  std::vector<std::vector<uint64_t>> consumed_by(p.consumers);

  std::vector<std::thread> threads;
  for (unsigned pi = 0; pi < p.producers; ++pi) {
    threads.emplace_back([&, pi] {
      auto h = q.get_handle();
      for (uint64_t s = 0; s < p.per_producer; ++s) {
        q.enqueue(h, make_val(pi, s));
      }
    });
  }
  for (unsigned ci = 0; ci < p.consumers; ++ci) {
    threads.emplace_back([&, ci] {
      auto h = q.get_handle();
      auto& mine = consumed_by[ci];
      mine.reserve(total / p.consumers + 16);
      while (consumed.load(std::memory_order_relaxed) < total) {
        // Flag before dequeue: an EMPTY from a dequeue begun after the
        // producers finished proves the queue drained, so a lost value
        // fails the count assertion below instead of spinning forever.
        const bool was_done = producers_done.load(std::memory_order_acquire);
        auto v = q.dequeue(h);
        if (v.has_value()) {
          mine.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else if (was_done) {
          break;
        }
      }
    });
  }
  // Join producers (the first p.producers threads), flag, join consumers.
  for (unsigned i = 0; i < p.producers; ++i) threads[i].join();
  producers_done.store(true, std::memory_order_release);
  for (unsigned i = p.producers; i < threads.size(); ++i) threads[i].join();

  ASSERT_EQ(consumed.load(), total);

  // (1) No loss, no duplication: every (producer, seq) seen exactly once.
  std::vector<std::vector<bool>> seen(p.producers,
                                      std::vector<bool>(p.per_producer, false));
  for (auto& vec : consumed_by) {
    for (uint64_t v : vec) {
      unsigned prod = val_producer(v);
      uint64_t seq = val_seq(v);
      ASSERT_LT(prod, p.producers);
      ASSERT_LT(seq, p.per_producer);
      ASSERT_FALSE(seen[prod][seq])
          << "value (" << prod << ", " << seq << ") dequeued twice";
      seen[prod][seq] = true;
    }
  }
  // (2) FIFO: within one consumer, sequences from one producer must be
  // increasing (a sound necessary condition for queue linearizability).
  for (unsigned ci = 0; ci < p.consumers; ++ci) {
    std::vector<int64_t> last(p.producers, -1);
    for (uint64_t v : consumed_by[ci]) {
      unsigned prod = val_producer(v);
      auto seq = int64_t(val_seq(v));
      ASSERT_GT(seq, last[prod])
          << "consumer " << ci << " saw producer " << prod
          << " out of order: " << seq << " after " << last[prod];
      last[prod] = seq;
    }
  }
}

class WfMpmc : public ::testing::TestWithParam<MpmcParam> {};

TEST_P(WfMpmc, NoLossNoDupFifo) {
  run_mpmc<DefaultWfTraits>(GetParam());
}

struct SmallSegTraits : DefaultWfTraits {
  static constexpr std::size_t kSegmentSize = 16;
};

struct LlscTraits : DefaultWfTraits {
  using Faa = EmulatedFaa;
};

struct ScTraits : DefaultWfTraits {
  static constexpr bool kConservativeOrdering = true;
};

TEST_P(WfMpmc, NoLossNoDupFifoSmallSegments) {
  // Small segments maximize list churn and reclamation pressure.
  run_mpmc<SmallSegTraits>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadMixes, WfMpmc,
    ::testing::Values(
        MpmcParam{1, 1, 10, 20000},   // SPSC
        MpmcParam{4, 1, 10, 8000},    // MPSC
        MpmcParam{1, 4, 10, 8000},    // SPMC
        MpmcParam{4, 4, 10, 5000},    // MPMC, paper default patience
        MpmcParam{4, 4, 0, 5000},     // WF-0: slow path stressed
        MpmcParam{4, 4, 1, 5000},     // near-zero patience
        MpmcParam{8, 8, 10, 2000},    // oversubscribed on small hosts
        MpmcParam{8, 8, 0, 2000},     // oversubscribed + WF-0
        MpmcParam{2, 6, 10, 5000},    // consumer-heavy (EMPTY churn)
        MpmcParam{6, 2, 10, 5000}),   // producer-heavy (backlog growth)
    [](const ::testing::TestParamInfo<MpmcParam>& info) {
      auto& p = info.param;
      return "p" + std::to_string(p.producers) + "c" +
             std::to_string(p.consumers) + "pat" + std::to_string(p.patience);
    });

TEST(WfMpmcExtra, EmulatedFaaUnderContention) {
  MpmcParam p{4, 4, 10, 3000};
  run_mpmc<LlscTraits>(p);
}

TEST(WfMpmcExtra, ConservativeOrderingUnderContention) {
  MpmcParam p{4, 4, 10, 3000};
  run_mpmc<ScTraits>(p);
}

TEST(WfMpmcExtra, EnqueueDequeuePairsWorkload) {
  // The paper's first benchmark shape as a correctness test: each thread
  // alternates enqueue/dequeue; totals must balance.
  WFQueue<uint64_t> q;
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPairs = 4000;
  std::atomic<uint64_t> dequeued_values{0};
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto h = q.get_handle();
      uint64_t got = 0;
      for (uint64_t i = 0; i < kPairs; ++i) {
        q.enqueue(h, make_val(t, i));
        if (q.dequeue(h).has_value()) ++got;
      }
      dequeued_values.fetch_add(got);
    });
  }
  for (auto& t : ts) t.join();
  // Drain what's left; enqueued == dequeued overall.
  auto h = q.get_handle();
  uint64_t rest = 0;
  while (q.dequeue(h).has_value()) ++rest;
  EXPECT_EQ(dequeued_values.load() + rest, uint64_t{kThreads} * kPairs);
}

}  // namespace
}  // namespace wfq
