// Tests for the task runtime: thread pool semantics and task-graph ordering /
// concurrency / error propagation. The Fig. 5 loading thread is
// data::ChunkStream's, tested with it in data_test and streaming_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace deepphi::par {
namespace {

// --- ThreadPool ---

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i)
    futures.push_back(pool.submit([&] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 30; ++i)
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++counter;
    });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadPool, FuturePropagatesException) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, CountsExecutedTasks) {
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) pool.submit([] {});
  pool.wait_idle();
  EXPECT_EQ(pool.tasks_executed(), 10u);
}

TEST(ThreadPool, SizeReflectsConstruction) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(ThreadPool, DefaultSizeNonZero) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, RejectsNullTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), util::Error);
}

TEST(ThreadPool, WaitIdleFromWorkerThreadFailsFast) {
  // A task calling wait_idle() on its own pool can never complete (the task
  // itself counts as active) — the pool must throw instead of deadlocking.
  ThreadPool pool(1);
  auto result = pool.submit([&] {
    EXPECT_THROW(pool.wait_idle(), util::Error);
  });
  result.get();
  pool.wait_idle();  // from the outside it still works
}

// --- TaskGraph ---

TEST(TaskGraph, SequentialRespectsOrder) {
  TaskGraph g;
  std::vector<int> order;
  auto a = g.add("a", [&] { order.push_back(0); });
  auto b = g.add("b", [&] { order.push_back(1); });
  auto c = g.add("c", [&] { order.push_back(2); });
  g.depends(b, a);
  g.depends(c, b);
  g.run_sequential();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskGraph, PoolRunRespectsDependencies) {
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<int> a_done{0}, violations{0};
  auto a = g.add("a", [&] { a_done = 1; });
  for (int i = 0; i < 8; ++i) {
    auto n = g.add("dep" + std::to_string(i), [&] {
      if (!a_done.load()) ++violations;
    });
    g.depends(n, a);
  }
  g.run(pool);
  EXPECT_EQ(violations.load(), 0);
}

TEST(TaskGraph, IndependentNodesOverlap) {
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<int> in_flight{0}, peak{0};
  for (int i = 0; i < 4; ++i) {
    g.add("n" + std::to_string(i), [&] {
      const int now = ++in_flight;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --in_flight;
    });
  }
  g.run(pool);
  EXPECT_GE(peak.load(), 2);
  EXPECT_GE(g.last_max_concurrency(), 2);
}

TEST(TaskGraph, DetectsCycle) {
  ThreadPool pool(1);
  TaskGraph g;
  auto a = g.add("a", [] {});
  auto b = g.add("b", [] {});
  g.depends(a, b);
  g.depends(b, a);
  EXPECT_THROW(g.run(pool), util::Error);
  EXPECT_THROW(g.topological_order(), util::Error);
}

TEST(TaskGraph, RejectsSelfDependency) {
  TaskGraph g;
  auto a = g.add("a", [] {});
  EXPECT_THROW(g.depends(a, a), util::Error);
}

TEST(TaskGraph, PropagatesNodeException) {
  ThreadPool pool(2);
  TaskGraph g;
  g.add("ok", [] {});
  g.add("bad", [] { throw std::runtime_error("node failed"); });
  EXPECT_THROW(g.run(pool), std::runtime_error);
}

TEST(TaskGraph, ReusableAcrossRuns) {
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<int> count{0};
  auto a = g.add("a", [&] { ++count; });
  auto b = g.add("b", [&] { ++count; });
  g.depends(b, a);
  g.run(pool);
  g.run(pool);
  g.run_sequential();
  EXPECT_EQ(count.load(), 6);
}

TEST(TaskGraph, FinishOrderIsCompleteAndValid) {
  ThreadPool pool(3);
  TaskGraph g;
  auto a = g.add("a", [] {});
  auto b = g.add("b", [] {});
  auto c = g.add("c", [] {});
  g.depends(c, a);
  g.depends(c, b);
  g.run(pool);
  const auto order = g.last_finish_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), c);  // c has to finish last
}

TEST(TaskGraph, CriticalPathLength) {
  TaskGraph g;
  auto a = g.add("a", [] {});
  auto b = g.add("b", [] {});
  auto c = g.add("c", [] {});
  g.add("free", [] {});
  g.depends(b, a);
  g.depends(c, b);
  EXPECT_EQ(g.critical_path_length(), 3u);
}

TEST(TaskGraph, LevelsComputeDepth) {
  TaskGraph g;
  auto a = g.add("a", [] {});
  auto b = g.add("b", [] {});
  auto c = g.add("c", [] {});
  auto d = g.add("d", [] {});
  g.depends(b, a);
  g.depends(c, a);
  g.depends(d, b);
  g.depends(d, c);
  const auto levels = g.levels();
  EXPECT_EQ(levels[a], 0u);
  EXPECT_EQ(levels[b], 1u);
  EXPECT_EQ(levels[c], 1u);
  EXPECT_EQ(levels[d], 2u);
}

TEST(TaskGraph, EmptyGraphRuns) {
  ThreadPool pool(1);
  TaskGraph g;
  EXPECT_NO_THROW(g.run(pool));
  EXPECT_NO_THROW(g.run_sequential());
}

TEST(TaskGraph, Fig6ShapeHasExpectedCriticalPath) {
  // v1→h1→v2→h2→stats→combine: the Fig. 6 skeleton.
  TaskGraph g;
  auto h1 = g.add("h1", [] {});
  auto gw_pos = g.add("gw_pos", [] {});
  auto gc_pos = g.add("gc_pos", [] {});
  auto gb_pos = g.add("gb_pos", [] {});
  auto v2 = g.add("v2", [] {});
  auto gb_neg = g.add("gb_neg", [] {});
  auto h2 = g.add("h2", [] {});
  auto gw_neg = g.add("gw_neg", [] {});
  auto gc_neg = g.add("gc_neg", [] {});
  auto combine = g.add("combine", [] {});
  g.depends(gw_pos, h1);
  g.depends(gc_pos, h1);
  g.depends(v2, h1);
  g.depends(gb_neg, v2);
  g.depends(h2, v2);
  g.depends(gw_neg, h2);
  g.depends(gc_neg, h2);
  for (auto n : {gb_pos, gw_pos, gc_pos, gb_neg, gw_neg, gc_neg})
    g.depends(combine, n);
  // h1 → v2 → h2 → gw_neg → combine = 5 nodes.
  EXPECT_EQ(g.critical_path_length(), 5u);
}

}  // namespace
}  // namespace deepphi::par
