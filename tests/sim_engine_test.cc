// Unit tests for the discrete-event engine and coroutine task machinery.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace mufs {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.Now(), 0);
  EXPECT_TRUE(e.Idle());
}

TEST(EngineTest, ScheduleAdvancesTime) {
  Engine e;
  SimTime seen = -1;
  e.Schedule(Msec(5), [&] { seen = e.Now(); });
  e.Run();
  EXPECT_EQ(seen, Msec(5));
  EXPECT_EQ(e.Now(), Msec(5));
}

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(Msec(3), [&] { order.push_back(3); });
  e.Schedule(Msec(1), [&] { order.push_back(1); });
  e.Schedule(Msec(2), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, TiesBreakInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(Msec(1), [&] { order.push_back(1); });
  e.Schedule(Msec(1), [&] { order.push_back(2); });
  e.Schedule(Msec(1), [&] { order.push_back(3); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineTest, RunUntilBoundStopsClock) {
  Engine e;
  int count = 0;
  e.Schedule(Msec(1), [&] { ++count; });
  e.Schedule(Msec(10), [&] { ++count; });
  e.Run(Msec(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(e.Now(), Msec(5));
  e.Run();
  EXPECT_EQ(count, 2);
}

TEST(EngineTest, NestedScheduleFromEvent) {
  Engine e;
  SimTime inner = -1;
  e.Schedule(Msec(1), [&] { e.Schedule(Msec(2), [&] { inner = e.Now(); }); });
  e.Run();
  EXPECT_EQ(inner, Msec(3));
}

TEST(ProcessTest, SpawnRunsCoroutine) {
  Engine e;
  bool ran = false;
  auto body = [&]() -> Task<void> {
    ran = true;
    co_return;
  };
  e.Spawn(body(), "t");
  e.Run();
  EXPECT_TRUE(ran);
}

TEST(ProcessTest, SleepAdvancesSimTime) {
  Engine e;
  SimTime woke = -1;
  auto body = [&]() -> Task<void> {
    co_await e.Sleep(Sec(2));
    woke = e.Now();
  };
  e.Spawn(body(), "sleeper");
  e.Run();
  EXPECT_EQ(woke, Sec(2));
}

TEST(ProcessTest, NestedTaskReturnValues) {
  Engine e;
  int got = 0;
  auto inner = [&](int x) -> Task<int> {
    co_await e.Sleep(Msec(1));
    co_return x * 2;
  };
  auto outer = [&]() -> Task<void> {
    int a = co_await inner(21);
    got = a;
  };
  e.Spawn(outer(), "outer");
  e.Run();
  EXPECT_EQ(got, 42);
}

TEST(ProcessTest, DeepNestingDoesNotOverflow) {
  Engine e;
  // 50k-deep synchronous await chain: symmetric transfer must not grow the
  // native stack.
  std::function<Task<int>(int)> rec = [&](int n) -> Task<int> {
    if (n == 0) {
      co_return 0;
    }
    int sub = co_await rec(n - 1);
    co_return sub + 1;
  };
  int got = -1;
  auto outer = [&]() -> Task<void> { got = co_await rec(50000); };
  e.Spawn(outer(), "deep");
  e.Run();
  EXPECT_EQ(got, 50000);
}

TEST(ProcessTest, JoinWaitsForChild) {
  Engine e;
  std::vector<std::string> log;
  auto child = [&]() -> Task<void> {
    co_await e.Sleep(Msec(10));
    log.push_back("child-done");
  };
  auto parent = [&]() -> Task<void> {
    ProcessRef c = e.Spawn(child(), "child");
    log.push_back("spawned");
    co_await c;
    log.push_back("joined");
  };
  e.Spawn(parent(), "parent");
  e.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "spawned");
  EXPECT_EQ(log[1], "child-done");
  EXPECT_EQ(log[2], "joined");
}

TEST(ProcessTest, JoinOnFinishedProcessIsImmediate) {
  Engine e;
  auto child = [&]() -> Task<void> { co_return; };
  ProcessRef c = e.Spawn(child(), "child");
  e.Run();
  EXPECT_TRUE(c.Done());
  bool resumed = false;
  auto parent = [&]() -> Task<void> {
    co_await c;
    resumed = true;
  };
  e.Spawn(parent(), "parent");
  e.Run();
  EXPECT_TRUE(resumed);
}

TEST(ProcessTest, ManyProcessesInterleave) {
  Engine e;
  std::vector<int> completions;
  // Coroutine lambdas must not capture: the lambda object dies before the
  // coroutine body runs. Pass state as parameters instead.
  auto body = [](Engine* eng, std::vector<int>* out, int i) -> Task<void> {
    co_await eng->Sleep(Msec(10 - i));
    out->push_back(i);
  };
  for (int i = 0; i < 8; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    e.Spawn(body(&e, &completions, i), std::move(name));
  }
  e.Run();
  ASSERT_EQ(completions.size(), 8u);
  // Earliest wake (largest i) completes first.
  EXPECT_EQ(completions.front(), 7);
  EXPECT_EQ(completions.back(), 0);
}

TEST(ProcessTest, ExceptionPropagatesThroughAwait) {
  Engine e;
  auto thrower = [&]() -> Task<int> {
    co_await e.Sleep(Msec(1));
    throw std::runtime_error("boom");
  };
  bool caught = false;
  auto outer = [&]() -> Task<void> {
    try {
      (void)co_await thrower();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  e.Spawn(outer(), "x");
  e.Run();
  EXPECT_TRUE(caught);
}

TEST(EngineTest, RunUntilPredicate) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    e.Schedule(Msec(i), [&] { ++count; });
  }
  e.RunUntil([&] { return count >= 4; });
  EXPECT_EQ(count, 4);
  EXPECT_EQ(e.Now(), Msec(4));
}

}  // namespace
}  // namespace mufs
