// Batched operations (enqueue_bulk / dequeue_bulk): batch-as-sequence
// linearizability, the short-return emptiness contract, interaction with
// single ops, segment-boundary traversal, and the typed (boxed-codec)
// wrapper. The concurrent cases run under the tsan ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "support/queue_test_util.hpp"

namespace wfq {
namespace {

// Small segments so batches routinely cross segment boundaries.
struct SmallSegTraits : DefaultWfTraits {
  static constexpr std::size_t kSegmentSize = 64;
};

using SmallQ = WFQueue<uint64_t, SmallSegTraits>;

TEST(WfBulk, SequentialFifoAcrossBatchSizes) {
  SmallQ q;
  auto h = q.get_handle();
  std::deque<uint64_t> model;
  uint64_t next = 1;
  for (std::size_t k : {1, 2, 3, 8, 64, 65, 200}) {
    std::vector<uint64_t> vals(k);
    for (auto& v : vals) v = next++;
    q.enqueue_bulk(h, vals.data(), k);
    model.insert(model.end(), vals.begin(), vals.end());
  }
  while (!model.empty()) {
    std::vector<uint64_t> out(7);
    std::size_t got = q.dequeue_bulk(h, out.data(), out.size());
    ASSERT_EQ(got, std::min<std::size_t>(out.size(), model.size()));
    for (std::size_t j = 0; j < got; ++j) {
      ASSERT_EQ(out[j], model.front());
      model.pop_front();
    }
  }
  uint64_t dummy;
  EXPECT_EQ(q.dequeue_bulk(h, &dummy, 1), 0u);
}

TEST(WfBulk, EdgeCases) {
  SmallQ q;
  auto h = q.get_handle();
  uint64_t v = 42;
  q.enqueue_bulk(h, &v, 0);  // no-op
  std::vector<uint64_t> out(16);
  EXPECT_EQ(q.dequeue_bulk(h, out.data(), 0), 0u);
  EXPECT_EQ(q.dequeue_bulk(h, out.data(), 16), 0u);  // empty queue
  q.enqueue_bulk(h, &v, 1);  // single-item batch = ordinary enqueue
  EXPECT_EQ(q.dequeue_bulk(h, out.data(), 16), 1u);  // short: seen empty
  EXPECT_EQ(out[0], 42u);
}

// The satellite differential test: a random mix of bulk and single ops
// checked operation-by-operation against the sequential oracle. With one
// thread every result is deterministic: dequeue_bulk must return exactly
// min(k, size) values in FIFO order.
TEST(WfBulk, MixedBulkSingleDifferentialVsSequentialOracle) {
  std::mt19937_64 rng(0xb01dface);
  for (int round = 0; round < 20; ++round) {
    SmallQ q;
    auto h = q.get_handle();
    std::deque<uint64_t> oracle;
    uint64_t next = 1;
    for (int step = 0; step < 400; ++step) {
      switch (rng() % 4) {
        case 0: {  // single enqueue
          q.enqueue(h, next);
          oracle.push_back(next++);
          break;
        }
        case 1: {  // single dequeue
          auto v = q.dequeue(h);
          if (oracle.empty()) {
            ASSERT_FALSE(v.has_value());
          } else {
            ASSERT_TRUE(v.has_value());
            ASSERT_EQ(*v, oracle.front());
            oracle.pop_front();
          }
          break;
        }
        case 2: {  // bulk enqueue, k in [2, 97]
          std::size_t k = 2 + rng() % 96;
          std::vector<uint64_t> vals(k);
          for (auto& v : vals) {
            v = next++;
            oracle.push_back(v);
          }
          q.enqueue_bulk(h, vals.data(), k);
          break;
        }
        default: {  // bulk dequeue, k in [2, 97]
          std::size_t k = 2 + rng() % 96;
          std::vector<uint64_t> out(k);
          std::size_t got = q.dequeue_bulk(h, out.data(), k);
          ASSERT_EQ(got, std::min(k, oracle.size()));
          for (std::size_t j = 0; j < got; ++j) {
            ASSERT_EQ(out[j], oracle.front());
            oracle.pop_front();
          }
          break;
        }
      }
    }
    // Drain and compare the tail.
    while (!oracle.empty()) {
      auto v = q.dequeue(h);
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, oracle.front());
      oracle.pop_front();
    }
    ASSERT_FALSE(q.dequeue(h).has_value());
  }
}

// Concurrent: producers enqueue in random-size batches, consumers dequeue
// in random-size batches mixed with singles. Checks exactly-once delivery
// and per-consumer FIFO order per producer (the MPMC property), which
// covers intra-batch order: each producer's batch carries increasing
// sequence numbers.
TEST(WfBulk, MpmcMixedBulkAndSingle) {
  constexpr unsigned kProducers = 3, kConsumers = 3;
  constexpr uint64_t kPerProducer = 6'000;
  SmallQ q;
  const uint64_t total = kPerProducer * kProducers;
  std::atomic<uint64_t> consumed{0};
  std::atomic<bool> producers_done{false};
  std::vector<std::vector<uint64_t>> consumed_by(kConsumers);

  std::vector<std::thread> threads;
  for (unsigned pi = 0; pi < kProducers; ++pi) {
    threads.emplace_back([&, pi] {
      std::mt19937_64 rng(1000 + pi);
      auto h = q.get_handle();
      uint64_t s = 0;
      while (s < kPerProducer) {
        std::size_t k = 1 + rng() % 17;
        if (k > kPerProducer - s) k = std::size_t(kPerProducer - s);
        if (rng() % 4 == 0) {
          for (std::size_t j = 0; j < k; ++j, ++s) {
            q.enqueue(h, test::make_val(pi, s));
          }
        } else {
          std::vector<uint64_t> vals(k);
          for (std::size_t j = 0; j < k; ++j, ++s) {
            vals[j] = test::make_val(pi, s);
          }
          q.enqueue_bulk(h, vals.data(), k);
        }
      }
    });
  }
  for (unsigned ci = 0; ci < kConsumers; ++ci) {
    threads.emplace_back([&, ci] {
      std::mt19937_64 rng(2000 + ci);
      auto h = q.get_handle();
      auto& mine = consumed_by[ci];
      mine.reserve(total / kConsumers + 64);
      std::vector<uint64_t> out(32);
      while (consumed.load(std::memory_order_relaxed) < total) {
        // Flag before dequeue: a dequeue begun after the producers finished
        // that returns nothing (a bulk dequeue's short count of 0 is its
        // emptiness witness) proves the queue drained, so a lost value
        // fails the count assertion below instead of spinning forever.
        const bool was_done = producers_done.load(std::memory_order_acquire);
        std::size_t got;
        if (rng() % 4 == 0) {
          auto v = q.dequeue(h);
          got = v.has_value() ? 1 : 0;
          if (got) out[0] = *v;
        } else {
          got = q.dequeue_bulk(h, out.data(), 1 + rng() % 17);
        }
        if (got > 0) {
          mine.insert(mine.end(), out.begin(), out.begin() + got);
          consumed.fetch_add(got, std::memory_order_relaxed);
        } else if (was_done) {
          break;
        }
      }
    });
  }
  for (unsigned i = 0; i < kProducers; ++i) threads[i].join();
  producers_done.store(true, std::memory_order_release);
  for (unsigned i = kProducers; i < threads.size(); ++i) threads[i].join();

  ASSERT_EQ(consumed.load(), total);
  std::vector<std::vector<bool>> seen(
      kProducers, std::vector<bool>(kPerProducer, false));
  for (auto& vec : consumed_by) {
    for (uint64_t v : vec) {
      unsigned prod = test::val_producer(v);
      uint64_t seq = test::val_seq(v);
      ASSERT_LT(prod, kProducers);
      ASSERT_LT(seq, kPerProducer);
      ASSERT_FALSE(seen[prod][seq]) << "duplicate (" << prod << "," << seq
                                    << ")";
      seen[prod][seq] = true;
    }
  }
  for (unsigned ci = 0; ci < kConsumers; ++ci) {
    std::vector<int64_t> last(kProducers, -1);
    for (uint64_t v : consumed_by[ci]) {
      unsigned prod = test::val_producer(v);
      auto seq = int64_t(test::val_seq(v));
      ASSERT_GT(seq, last[prod]) << "consumer " << ci << " saw producer "
                                 << prod << " out of FIFO order";
      last[prod] = seq;
    }
  }
}

// Concurrent bulk dequeuers against bulk enqueuers with zero padding
// between batch sizes and thread counts chosen to force ticket theft and
// residual fallbacks (patience 0 pushes contended items onto the slow
// path, so bulk fallbacks and helpers interleave).
TEST(WfBulk, BulkUnderSlowPathPressure) {
  WfConfig cfg;
  cfg.patience = 0;
  SmallQ q(cfg);
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kPairsPerThread = 3'000;
  std::atomic<uint64_t> got_total{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(42 + t);
      auto h = q.get_handle();
      std::vector<uint64_t> vals(16), out(16);
      uint64_t mine = 0;
      for (uint64_t i = 0; i < kPairsPerThread;) {
        std::size_t k = 1 + rng() % 16;
        if (k > kPairsPerThread - i) k = std::size_t(kPairsPerThread - i);
        for (std::size_t j = 0; j < k; ++j) {
          vals[j] = test::make_val(t, i + j);
        }
        q.enqueue_bulk(h, vals.data(), k);
        mine += q.dequeue_bulk(h, out.data(), k);
        i += k;
      }
      got_total.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  auto h = q.get_handle();
  std::vector<uint64_t> out(64);
  uint64_t rest = 0;
  for (std::size_t got; (got = q.dequeue_bulk(h, out.data(), 64)) > 0;) {
    rest += got;
  }
  ASSERT_EQ(got_total.load() + rest, uint64_t{kThreads} * kPairsPerThread);
  // Wait-freedom accounting stays bounded per *item*, bulk or not.
  auto stats = q.stats();
  EXPECT_EQ(stats.enqueues(), uint64_t{kThreads} * kPairsPerThread);
}

// The typed wrapper's non-identity codec path (boxed slots), including the
// heap spill for batches larger than the inline scratch.
TEST(WfBulk, TypedBoxedCodecRoundTrip) {
  WFQueue<std::string> q;
  auto h = q.get_handle();
  constexpr std::size_t kN = 100;  // > the 64-slot inline scratch
  std::vector<std::string> in(kN), out(kN);
  for (std::size_t j = 0; j < kN; ++j) in[j] = "value-" + std::to_string(j);
  q.enqueue_bulk(h, in.data(), kN);
  ASSERT_EQ(q.dequeue_bulk(h, out.data(), kN), kN);
  for (std::size_t j = 0; j < kN; ++j) EXPECT_EQ(out[j], in[j]);
  // Leave a few boxed values behind: the destructor must drain them.
  q.enqueue_bulk(h, in.data(), 10);
}

}  // namespace
}  // namespace wfq
