// Longer-running stress scenarios across modules: sustained traffic with
// handle churn, boxed payloads under concurrency, bursty phase changes, and
// memory-footprint stability.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "baselines/lcrq.hpp"
#include "baselines/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "support/queue_test_util.hpp"

namespace wfq {
namespace {

struct Seg32Traits : DefaultWfTraits {
  static constexpr std::size_t kSegmentSize = 32;
};

TEST(Stress, WfQueueSustainedMixedTrafficWithHandleChurn) {
  WfConfig cfg;
  cfg.patience = 2;
  cfg.max_garbage = 8;
  WFQueue<uint64_t, Seg32Traits> q(cfg);
  constexpr unsigned kThreads = 6;
  constexpr int kBatches = 60;
  std::atomic<uint64_t> enq_total{0}, deq_total{0};

  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      uint64_t next = (uint64_t(t) << 40) | 1;
      for (int b = 0; b < kBatches; ++b) {
        // Fresh handle per batch: exercises registration reuse under load.
        auto h = q.get_handle();
        for (int i = 0; i < 100; ++i) {
          q.enqueue(h, next++);
          enq_total.fetch_add(1, std::memory_order_relaxed);
          if (q.dequeue(h).has_value()) {
            deq_total.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  auto h = q.get_handle();
  while (q.dequeue(h).has_value()) {
    deq_total.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(enq_total.load(), deq_total.load());
  EXPECT_LT(q.live_segments(), 4000u);  // footprint bounded
}

TEST(Stress, WfQueueBoxedStringsConcurrent) {
  WFQueue<std::string> q;
  constexpr unsigned kProducers = 3, kConsumers = 3;
  constexpr int kPerProducer = 3000;
  std::atomic<uint64_t> consumed{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checksum_in{0}, checksum_out{0};

  std::vector<std::thread> ts;
  for (unsigned p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      auto h = q.get_handle();
      uint64_t local = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        std::string s = std::to_string(p) + ":" + std::to_string(i);
        for (char c : s) local += uint8_t(c);
        q.enqueue(h, std::move(s));
      }
      checksum_in.fetch_add(local);
    });
  }
  for (unsigned c = 0; c < kConsumers; ++c) {
    ts.emplace_back([&] {
      auto h = q.get_handle();
      uint64_t local = 0;
      while (consumed.load() < kProducers * kPerProducer) {
        // Flag before dequeue: an EMPTY from a dequeue begun after the
        // producers finished proves the queue drained, so a lost value
        // fails the count check below instead of spinning forever.
        const bool was_done = done.load();
        auto v = q.dequeue(h);
        if (v.has_value()) {
          for (char ch : *v) local += uint8_t(ch);
          consumed.fetch_add(1);
        } else if (was_done) {
          break;
        }
      }
      checksum_out.fetch_add(local);
    });
  }
  for (unsigned i = 0; i < kProducers; ++i) ts[i].join();
  done.store(true);
  for (unsigned i = kProducers; i < ts.size(); ++i) ts[i].join();
  EXPECT_EQ(consumed.load(), uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(checksum_in.load(), checksum_out.load());
}

TEST(Stress, WfQueueBurstyPhases) {
  // Alternating all-produce / all-consume phases stress segment growth then
  // mass reclamation.
  WfConfig cfg;
  cfg.max_garbage = 4;
  WFQueue<uint64_t, Seg32Traits> q(cfg);
  constexpr unsigned kThreads = 4;
  for (int phase = 0; phase < 10; ++phase) {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        auto h = q.get_handle();
        for (int i = 0; i < 2000; ++i) {
          q.enqueue(h, (uint64_t(t) << 40) | (uint64_t(phase) << 20) |
                           uint64_t(i + 1));
        }
      });
    }
    for (auto& t : ts) t.join();
    ts.clear();
    std::atomic<uint64_t> drained{0};
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        auto h = q.get_handle();
        while (drained.load() < kThreads * 2000) {
          if (q.dequeue(h).has_value()) {
            drained.fetch_add(1);
          } else if (drained.load() >= kThreads * 2000) {
            break;
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(drained.load(), uint64_t{kThreads} * 2000);
  }
  // >= 5000 segments' worth of indices were consumed across the phases;
  // any figure well below that proves reclamation kept up. The bound is
  // deliberately loose: cleanup timing varies with scheduling (and is much
  // slower under sanitizers).
  EXPECT_LT(q.live_segments(), 3000u);
}

TEST(Stress, MsQueueAndLcrqLongChurn) {
  baselines::MSQueue<uint64_t> ms;
  test::run_pairs_conservation(ms, 6, 8000);
  baselines::LCRQ<uint64_t, 128> lcrq;
  test::run_pairs_conservation(lcrq, 6, 8000);
}

TEST(Stress, ManyQueuesInParallel) {
  // Several independent queues active at once (cross-instance isolation).
  constexpr int kQueues = 4;
  std::vector<std::unique_ptr<WFQueue<uint64_t>>> queues;
  for (int i = 0; i < kQueues; ++i) {
    queues.push_back(std::make_unique<WFQueue<uint64_t>>());
  }
  std::vector<std::thread> ts;
  std::atomic<bool> ok{true};
  for (int qi = 0; qi < kQueues; ++qi) {
    ts.emplace_back([&, qi] {
      auto& q = *queues[qi];
      auto h = q.get_handle();
      for (uint64_t i = 1; i <= 20000; ++i) {
        q.enqueue(h, (uint64_t(qi) << 40) | i);
        auto v = q.dequeue(h);
        if (!v.has_value() || (*v >> 40) != uint64_t(qi)) {
          ok.store(false);
          return;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_TRUE(ok.load()) << "cross-queue value leakage";
}

}  // namespace
}  // namespace wfq
