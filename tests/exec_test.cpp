/// \file exec_test.cpp
/// \brief Unit tests for the deterministic parallel execution layer: chunk
/// structure, ordered reduction, nested regions, exception propagation, pool
/// reconfiguration, and the dispatch itself — every lane joining every
/// region, back-to-back regions, regions after a failed one.
#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace ppacd::exec {
namespace {

// Restores the entry thread count after each test so the suite's pool state
// does not leak between tests (or into other suites in the same binary).
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = thread_count(); }
  void TearDown() override { set_thread_count(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(ExecTest, ChunkCountFor) {
  EXPECT_EQ(detail::chunk_count_for(0, 4), 0u);
  EXPECT_EQ(detail::chunk_count_for(1, 4), 1u);
  EXPECT_EQ(detail::chunk_count_for(4, 4), 1u);
  EXPECT_EQ(detail::chunk_count_for(5, 4), 2u);
  EXPECT_EQ(detail::chunk_count_for(8, 4), 2u);
  EXPECT_EQ(detail::chunk_count_for(9, 4), 3u);
  EXPECT_EQ(detail::chunk_count_for(7, 0), 7u);  // grain 0 acts as 1
  EXPECT_EQ(detail::chunk_count_for(7, kSerialGrain), 1u);
}

TEST_F(ExecTest, ParallelForVisitsEveryIndexOnce) {
  set_thread_count(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(0, kN, 64, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ExecTest, SerialGrainRunsInline) {
  set_thread_count(8);
  // With kSerialGrain the whole range is one chunk on the caller; no other
  // thread may observe the (unsynchronized) counter mid-flight.
  std::size_t count = 0;
  std::vector<std::size_t> order;
  parallel_for_chunks(0, 1000, kSerialGrain,
                      [&](std::size_t b, std::size_t e, std::size_t c) {
                        EXPECT_EQ(b, 0u);
                        EXPECT_EQ(e, 1000u);
                        EXPECT_EQ(c, 0u);
                        EXPECT_FALSE(inside_parallel_region());
                        count = e - b;
                        order.push_back(c);
                      });
  EXPECT_EQ(count, 1000u);
  EXPECT_EQ(order.size(), 1u);
}

TEST_F(ExecTest, ReduceIsBitIdenticalAcrossThreadCounts) {
  // Sum a series whose terms differ by many orders of magnitude, so any
  // change in accumulation order changes the rounded bits. 157 chunks keep
  // the partials on the caller's stack, 2'500 chunks put them on the heap.
  for (const std::size_t n : {std::size_t{20'000}, std::size_t{320'000}}) {
    auto run = [&](int threads) {
      set_thread_count(threads);
      return parallel_reduce(
          std::size_t{0}, n, 128, 0.0,
          [](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t i = b; i < e; ++i) {
              acc += 1.0 / (1.0 + static_cast<double>(i) * 1e-3) +
                     std::ldexp(1.0, -static_cast<int>(i % 40));
            }
            return acc;
          },
          [](double a, double b) { return a + b; });
    };
    const double serial = run(1);
    for (const int threads : {2, 3, 4, 8}) {
      const double parallel_result = run(threads);
      EXPECT_EQ(serial, parallel_result) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST_F(ExecTest, ReduceOfNonTrivialTypeFoldsInChunkOrder) {
  // A non-trivial partial (a vector of chunk ids) takes the heap path; the
  // fold must still see the chunks in ascending order at every lane count.
  for (const int threads : {1, 2, 4, 8}) {
    set_thread_count(threads);
    const std::vector<std::size_t> order = parallel_reduce(
        std::size_t{0}, std::size_t{1'000}, 16, std::vector<std::size_t>{},
        [](std::size_t b, std::size_t) { return std::vector<std::size_t>{b / 16}; },
        [](std::vector<std::size_t> acc, std::vector<std::size_t> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
    std::vector<std::size_t> want(63);
    std::iota(want.begin(), want.end(), std::size_t{0});
    EXPECT_EQ(order, want) << "threads=" << threads;
  }
}

TEST_F(ExecTest, NestedParallelForDoesNotDeadlockAndCoversRange) {
  set_thread_count(4);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 257;
  std::vector<std::atomic<std::size_t>> inner_sums(kOuter);
  parallel_for(0, kOuter, 1, [&](std::size_t outer) {
    std::size_t local = 0;
    // Nested region: runs inline when the outer chunk landed on a worker,
    // through the pool otherwise. Either way the chunk structure is the same.
    parallel_for(0, kInner, 32, [&](std::size_t inner) { local += inner; });
    inner_sums[outer].store(local, std::memory_order_relaxed);
  });
  const std::size_t expected = kInner * (kInner - 1) / 2;
  for (std::size_t outer = 0; outer < kOuter; ++outer) {
    ASSERT_EQ(inner_sums[outer].load(), expected) << "outer " << outer;
  }
}

TEST_F(ExecTest, ExceptionPropagatesToCaller) {
  set_thread_count(4);
  EXPECT_THROW(
      parallel_for(0, 1'000, 8,
                   [&](std::size_t i) {
                     if (i == 613) throw std::runtime_error("chunk failure");
                   }),
      std::runtime_error);
  // The pool must be reusable after a failed region.
  std::atomic<std::size_t> visited{0};
  parallel_for(0, 100, 8, [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 100u);
}

TEST_F(ExecTest, SetThreadCountReconfigures) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3);
  EXPECT_EQ(worker_slots(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1);
  set_thread_count(0);  // clamped
  EXPECT_EQ(thread_count(), 1);
  set_thread_count(5);
  EXPECT_EQ(thread_count(), 5);
  std::atomic<std::size_t> visited{0};
  parallel_for(0, 1'000, 16, [&](std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 1000u);
}

TEST_F(ExecTest, WorkerSlotIsInRangeDuringRegion) {
  set_thread_count(4);
  std::atomic<bool> out_of_range{false};
  parallel_for(0, 4'096, 16, [&](std::size_t) {
    if (this_worker_slot() >= worker_slots()) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
  EXPECT_EQ(this_worker_slot(), 0u);  // calling thread outside a region
}

/// Barrier with a deadline: arrive() returns false instead of blocking
/// forever when fewer than `parties` threads show up in time.
class TimedBarrier {
 public:
  explicit TimedBarrier(std::size_t parties) : parties_(parties) {}

  bool arrive(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == parties_) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_until(lock, deadline, [this] { return arrived_ >= parties_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
};

TEST_F(ExecTest, EveryLaneJoinsEveryRegion) {
  // A region of exactly thread_count() chunks whose chunks wait for each
  // other can only finish if every lane takes one: a lane that sleeps
  // through the region (a lost wake-up) leaves one chunk unclaimed while the
  // others wait, and the barrier times out instead of hanging.
  set_thread_count(4);
  const std::size_t lanes = worker_slots();
  for (int rep = 0; rep < 1'000; ++rep) {
    TimedBarrier barrier(lanes);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<std::size_t> timed_out{0};
    parallel_for(0, lanes, 1, [&](std::size_t) {
      if (!barrier.arrive(deadline)) timed_out.fetch_add(1);
    });
    ASSERT_EQ(timed_out.load(), 0u) << "a lane missed region " << rep;
  }
}

TEST_F(ExecTest, BackToBackTinyRegions) {
  set_thread_count(4);
  constexpr int kRegions = 100'000;
  std::atomic<std::size_t> visited{0};
  for (int r = 0; r < kRegions; ++r) {
    parallel_for(0, 8, 1, [&](std::size_t) {
      visited.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(visited.load(), std::size_t{8} * kRegions);
}

TEST_F(ExecTest, RegionRightAfterAFailedOneRunsEveryChunk) {
  set_thread_count(4);
  for (int rep = 0; rep < 1'000; ++rep) {
    const std::size_t bad = static_cast<std::size_t>(rep) % 64;
    try {
      parallel_for(0, 64, 1, [&](std::size_t i) {
        if (i == bad) throw std::runtime_error("chunk " + std::to_string(i));
      });
      ADD_FAILURE() << "no exception at rep " << rep;
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()), "chunk " + std::to_string(bad));
    }
    std::vector<std::atomic<int>> visits(64);
    parallel_for(0, 64, 1, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "rep " << rep << " index " << i;
    }
  }
}

}  // namespace
}  // namespace ppacd::exec
