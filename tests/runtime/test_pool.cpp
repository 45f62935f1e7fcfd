// Thread-pool and parallel_for machinery tests: scheduling edge cases the
// analyses rely on — exception propagation, empty ranges, nesting,
// oversubscription, serial fallback — exercised directly on the runtime
// primitives rather than through a circuit.
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace rfmix::runtime {
namespace {

TEST(ThreadPool, SpawnsOneFewerWorkerThanRequested) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 3);
  EXPECT_EQ(pool.concurrency(), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0);
  // With no workers, submit must execute the job before returning.
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
  ThreadPool neg(-3);
  EXPECT_EQ(neg.worker_count(), 0);
}

TEST(ThreadPool, ScopedPoolOverridesCurrent) {
  ThreadPool& before = ThreadPool::current();
  {
    ScopedPool scoped(3);
    EXPECT_EQ(&ThreadPool::current(), &scoped.pool());
    {
      ScopedPool inner(1);
      EXPECT_EQ(&ThreadPool::current(), &inner.pool());
    }
    EXPECT_EQ(&ThreadPool::current(), &scoped.pool());
  }
  EXPECT_EQ(&ThreadPool::current(), &before);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ScopedPool scoped(4);
  std::atomic<int> calls{0};
  parallel_for(0, 0, [&](std::size_t) { ++calls; });
  parallel_for(7, 7, [&](std::size_t) { ++calls; });
  parallel_for(9, 3, [&](std::size_t) { ++calls; });  // inverted: empty
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ScopedPool scoped(8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, RespectsGrainWithoutChangingCoverage) {
  ScopedPool scoped(4);
  constexpr std::size_t kN = 103;  // deliberately not a multiple of the grain
  std::vector<std::atomic<int>> hits(kN);
  ParallelOptions opts;
  opts.grain = 16;
  parallel_for(0, kN, [&](std::size_t i) { ++hits[i]; }, opts);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, PropagatesFirstException) {
  ScopedPool scoped(4);
  std::atomic<int> started{0};
  try {
    parallel_for(0, 64, [&](std::size_t i) {
      ++started;
      if (i == 5) throw std::runtime_error("boom");
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The loop drained before rethrowing: no task is still running, and at
  // least the throwing index executed.
  EXPECT_GE(started.load(), 1);
}

TEST(ParallelFor, ExceptionInSerialFallbackPropagates) {
  ScopedPool scoped(1);
  EXPECT_THROW(
      parallel_for(0, 4, [](std::size_t i) {
        if (i == 2) throw std::invalid_argument("serial");
      }),
      std::invalid_argument);
}

TEST(ParallelFor, NestedParallelForCompletes) {
  ScopedPool scoped(4);
  constexpr std::size_t kOuter = 8, kInner = 32;
  std::vector<std::vector<int>> grid(kOuter, std::vector<int>(kInner, 0));
  parallel_for(0, kOuter, [&](std::size_t o) {
    parallel_for(0, kInner, [&](std::size_t i) { grid[o][i] = static_cast<int>(o * kInner + i); });
  });
  for (std::size_t o = 0; o < kOuter; ++o)
    for (std::size_t i = 0; i < kInner; ++i)
      EXPECT_EQ(grid[o][i], static_cast<int>(o * kInner + i));
}

TEST(ParallelFor, OversubscriptionManySmallLoops) {
  // Far more tasks than lanes, repeatedly, to shake out lost-wakeup and
  // double-claim bugs in the steal path.
  ScopedPool scoped(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    parallel_for(0, 256, [&](std::size_t i) { sum += static_cast<long>(i); });
    EXPECT_EQ(sum.load(), 256L * 255L / 2L);
  }
}

TEST(ParallelFor, ExplicitPoolOptionWins) {
  ScopedPool ambient(8);
  ThreadPool private_pool(2);
  ParallelOptions opts;
  opts.pool = &private_pool;
  std::atomic<int> calls{0};
  parallel_for(0, 10, [&](std::size_t) { ++calls; }, opts);
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelMap, PreservesIndexOrder) {
  ScopedPool scoped(8);
  const auto out = parallel_map(500, [](std::size_t i) { return 3.0 * static_cast<double>(i); });
  ASSERT_EQ(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i], 3.0 * static_cast<double>(i));
}

TEST(ThreadPool, AssistUntilRunsQueuedWorkOnTheWaitingThread) {
  ThreadPool pool(2);  // one worker; the assisting caller is the second lane
  std::atomic<int> done_count{0};
  constexpr int kJobs = 64;
  for (int i = 0; i < kJobs; ++i) pool.submit([&] { ++done_count; });
  pool.assist_until([&] { return done_count.load() >= kJobs; });
  EXPECT_EQ(done_count.load(), kJobs);
}

TEST(ThreadPool, AssistUntilReturnsOnExternallyCompletedCondition) {
  // Nothing queued: the waiter parks on the pool's wake signal and must
  // still notice a condition completed by a non-pool thread.
  ThreadPool pool(4);
  std::atomic<bool> flag{false};
  std::thread external([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flag.store(true);
  });
  pool.assist_until([&] { return flag.load(); });
  EXPECT_TRUE(flag.load());
  external.join();
}

TEST(ThreadPool, AssistUntilSerialFallback) {
  ThreadPool pool(1);  // no workers: submit runs inline
  int ran = 0;
  pool.submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);
  pool.assist_until([&] { return ran == 1; });  // must not hang
}

TEST(ThreadPool, ConfiguredThreadsHonorsEnv) {
  // setenv/getenv is process-global; restore whatever was there.
  const char* old = std::getenv("RFMIX_THREADS");
  const std::string saved = old ? old : "";
  ::setenv("RFMIX_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::configured_threads(), 3);
  ::setenv("RFMIX_THREADS", "0", 1);  // clamped up to 1
  EXPECT_EQ(ThreadPool::configured_threads(), 1);
  ::setenv("RFMIX_THREADS", "-3", 1);  // negative: clamped up to 1 too
  EXPECT_EQ(ThreadPool::configured_threads(), 1);
  if (old)
    ::setenv("RFMIX_THREADS", saved.c_str(), 1);
  else
    ::unsetenv("RFMIX_THREADS");
}

}  // namespace
}  // namespace rfmix::runtime
