#include "src/sim/process.hpp"

#include <gtest/gtest.h>

#include "src/sim/comutex.hpp"
#include "src/util/assert.hpp"
#include "src/wire/bus.hpp"
#include "src/wire/master.hpp"
#include "src/wire/relay.hpp"
#include "src/wire/slave.hpp"

#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace tb::sim {
namespace {

using namespace tb::sim::literals;

Task<void> simple_delays(Simulator& sim, std::vector<Time>& trace) {
  trace.push_back(sim.now());
  co_await delay(sim, 10_ms);
  trace.push_back(sim.now());
  co_await delay(sim, 5_ms);
  trace.push_back(sim.now());
}

TEST(Process, DelaysAdvanceSimTime) {
  Simulator sim;
  std::vector<Time> trace;
  spawn(simple_delays(sim, trace));
  sim.run();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], Time::zero());
  EXPECT_EQ(trace[1], 10_ms);
  EXPECT_EQ(trace[2], 15_ms);
}

TEST(Process, SpawnRunsSynchronouslyUntilFirstSuspend) {
  Simulator sim;
  bool started = false;
  // Keep the closure alive for the coroutine's lifetime (the frame only
  // references the closure object, it does not copy captures).
  auto body = [&]() -> Task<void> {
    started = true;
    co_await delay(sim, 1_ms);
  };
  Task<void> task = body();
  EXPECT_FALSE(started);  // lazy until spawned
  spawn(std::move(task));
  EXPECT_TRUE(started);
  sim.run();
}

TEST(Process, ZeroDelayIsReady) {
  Simulator sim;
  int steps = 0;
  spawn([&]() -> Task<void> {
    co_await delay(sim, Time::zero());
    ++steps;
    co_await delay(sim, Time::ns(0));
    ++steps;
  });
  // Zero delays never suspend, so the whole body ran inside spawn().
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

Task<int> answer(Simulator& sim) {
  co_await delay(sim, 1_ms);
  co_return 42;
}

TEST(Process, AwaitingChildTaskPropagatesValue) {
  Simulator sim;
  int result = 0;
  spawn([&]() -> Task<void> {
    result = co_await answer(sim);
  });
  sim.run();
  EXPECT_EQ(result, 42);
}

Task<int> immediate_value() { co_return 7; }

TEST(Process, ChildWithoutSuspensionCompletesInline) {
  Simulator sim;
  int result = 0;
  spawn([&]() -> Task<void> {
    result = co_await immediate_value();
  });
  EXPECT_EQ(result, 7);
}

TEST(Process, NestedChildren) {
  Simulator sim;
  std::vector<int> order;
  auto inner = [&](int tag) -> Task<int> {
    co_await delay(sim, 1_ms);
    order.push_back(tag);
    co_return tag * 10;
  };
  spawn([&]() -> Task<void> {
    const int a = co_await inner(1);
    const int b = co_await inner(2);
    order.push_back(a + b);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 30}));
  EXPECT_EQ(sim.now(), 2_ms);
}

Task<int> throws_after_delay(Simulator& sim) {
  co_await delay(sim, 1_ms);
  throw std::runtime_error("boom");
}

TEST(Process, ChildExceptionPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  spawn([&]() -> Task<void> {
    try {
      (void)co_await throws_after_delay(sim);
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  });
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Process, DetachedExceptionEscapesRun) {
  Simulator sim;
  spawn([&]() -> Task<void> {
    co_await delay(sim, 1_ms);
    throw std::runtime_error("detached boom");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Process, ManyProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    spawn([&order, &sim, i]() -> Task<void> {
      for (int step = 0; step < 3; ++step) {
        co_await delay(sim, Time::ms(1 + i));
        order.push_back(i * 10 + step);
      }
    });
  }
  sim.run();
  // Process 0 ticks at 1,2,3 ms; process 1 at 2,4,6; process 2 at 3,6,9.
  // Ties (t=2: procs 0,1; t=6: procs 1,2) break by scheduling order: the
  // event scheduled earlier fires first.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 20, 2, 11, 21, 12, 22}));
}

// --- Simulator::try_advance / sim::advance --------------------------------

struct KernelState {
  Time now;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::size_t peak = 0;
  std::size_t pending = 0;
  bool operator==(const KernelState&) const = default;
};

KernelState state_of(const Simulator& sim) {
  return {sim.now(), sim.scheduled_events(), sim.executed_events(),
          sim.peak_pending_events(), sim.pending_events()};
}

// Calls try_advance(at) and checks a refusal left the kernel untouched.
void expect_refused(Simulator& sim, Time at) {
  const KernelState before = state_of(sim);
  EXPECT_FALSE(sim.try_advance(at));
  EXPECT_EQ(state_of(sim), before);
}

TEST(TryAdvance, RefusesOutsideALoop) {
  Simulator sim;
  sim.schedule_at(5_ms, [] {});
  expect_refused(sim, 1_ms);
  sim.run();
  expect_refused(sim, 10_ms);
}

TEST(TryAdvance, RefusesUnderStep) {
  Simulator sim;
  bool probed = false;
  sim.schedule_at(1_ms, [&] {
    expect_refused(sim, 2_ms);
    probed = true;
  });
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(probed);
  EXPECT_EQ(sim.now(), 1_ms);
}

TEST(TryAdvance, RefusesAfterStop) {
  Simulator sim;
  bool probed = false;
  sim.schedule_at(1_ms, [&] {
    sim.stop();
    expect_refused(sim, 2_ms);
    probed = true;
  });
  sim.run();
  EXPECT_TRUE(probed);
}

TEST(TryAdvance, RefusesWithPerturbationHookAndNeverCallsIt) {
  Simulator sim;
  int hook_calls = 0;
  sim.set_delay_perturbation([&hook_calls](Time, Time d) {
    ++hook_calls;
    return d;
  });
  bool probed = false;
  sim.schedule_at(1_ms, [&] {
    expect_refused(sim, 2_ms);
    probed = true;
  });
  sim.run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(hook_calls, 0);
}

TEST(TryAdvance, RefusesPastTheRunUntilBound) {
  Simulator sim;
  bool probed = false;
  sim.schedule_at(1_ms, [&] {
    expect_refused(sim, 10_ms + Time::ns(1));
    probed = true;
    EXPECT_TRUE(sim.try_advance(10_ms));  // the bound itself is in range
  });
  sim.run_until(10_ms);
  EXPECT_TRUE(probed);
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(TryAdvance, RefusesWhenAnEventIsDueAtOrBeforeTarget) {
  Simulator sim;
  bool probed = false;
  sim.schedule_at(5_ms, [] {});
  sim.schedule_at(1_ms, [&] {
    expect_refused(sim, 5_ms);   // due exactly at `at`: the earlier seq wins
    expect_refused(sim, 6_ms);   // due before `at`
    expect_refused(sim, 1_ms);   // at == now()
    expect_refused(sim, Time::zero());
    probed = true;
    EXPECT_TRUE(sim.try_advance(5_ms - Time::ns(1)));
  });
  sim.run();
  EXPECT_TRUE(probed);
}

TEST(TryAdvance, CancelledEventsDoNotBlock) {
  Simulator sim;
  const EventHandle dead = sim.schedule_at(2_ms, [] {});
  bool advanced = false;
  sim.schedule_at(1_ms, [&] {
    sim.cancel(dead);
    advanced = sim.try_advance(3_ms);
  });
  sim.run();
  EXPECT_TRUE(advanced);
  EXPECT_EQ(sim.now(), 3_ms);
}

// An in-place advance must be indistinguishable from a queued resume event:
// same counters, same peak, and the same id for the next event scheduled.
TEST(TryAdvance, AdvanceMatchesAQueuedDelayExactly) {
  auto run = [](bool in_place) {
    Simulator sim;
    std::vector<Time> seen;
    sim.schedule_at(100_ms, [] {});
    int advanced_in_place = 0;
    spawn([&]() -> Task<void> {
      co_await delay(sim, 1_ms);  // first wait: resumed by a kernel event
      for (int i = 0; i < 5; ++i) {
        if (!in_place) {
          co_await delay(sim, 2_ms);
        } else if (AdvanceAwaiter hop = advance(sim, 2_ms); hop.await_ready()) {
          ++advanced_in_place;
        } else {
          co_await hop;
        }
        seen.push_back(sim.now());
      }
    });
    sim.run_until(50_ms);
    const std::uint64_t next_id = sim.schedule_in(1_ms, [] {}).id();
    return std::tuple(seen, state_of(sim), next_id, advanced_in_place);
  };
  const auto queued = run(false);
  const auto in_place = run(true);
  EXPECT_EQ(std::get<3>(in_place), 5);
  EXPECT_EQ(std::get<0>(in_place), std::get<0>(queued));
  EXPECT_EQ(std::get<1>(in_place), std::get<1>(queued));
  EXPECT_EQ(std::get<2>(in_place), std::get<2>(queued));
  EXPECT_EQ(std::get<0>(queued).back(), 11_ms);
}

// --- the due floor (DESIGN.md §8) -----------------------------------------
//
// try_advance() reads the queue only when its lower bound on the next live
// event lies at or before the target. These walks move that bound from
// inside an in-place walk and check that every hop still advances in place
// exactly when nothing is due first.

struct Hop {
  Time at;
  bool in_place = false;
  bool operator==(const Hop&) const = default;
  friend void PrintTo(const Hop& h, std::ostream* os) {
    *os << '{' << h.at.count_ns() << " ns, "
        << (h.in_place ? "in place" : "queued") << '}';
  }
};

// After a queued first wait to 1 ms, walks `hops` hops of 2 ms, calling
// `between(i)` before hop i and recording where each hop landed.
Task<void> hop_walk(Simulator& sim, int hops, std::vector<Hop>& out,
                    std::function<void(int)> between) {
  co_await delay(sim, 1_ms);
  for (int i = 0; i < hops; ++i) {
    between(i);
    const std::uint64_t before = sim.advanced_in_place();
    co_await advance(sim, 2_ms);
    out.push_back({sim.now(), sim.advanced_in_place() != before});
  }
}

TEST(TryAdvance, EventScheduledInsideTheWalkStopsTheNextHop) {
  Simulator sim;
  std::vector<Hop> hops;
  Time fired_at;
  spawn(hop_walk(sim, 4, hops, [&](int i) {
    if (i == 2) sim.schedule_in(1_ms, [&] { fired_at = sim.now(); });
  }));
  sim.run();
  const std::vector<Hop> expected = {
      {3_ms, true}, {5_ms, true}, {7_ms, false}, {9_ms, true}};
  EXPECT_EQ(hops, expected);
  EXPECT_EQ(fired_at, 6_ms);
  EXPECT_EQ(sim.advanced_in_place(), 3u);
}

TEST(TryAdvance, EventClampedFromThePastStopsTheNextHop) {
  Simulator sim;
  std::vector<Hop> hops;
  Time fired_at;
  spawn(hop_walk(sim, 3, hops, [&](int i) {
    if (i == 1) {
      sim.schedule_at(sim.now() - 1_ms, [&] { fired_at = sim.now(); });
    }
  }));
  sim.run();
  EXPECT_EQ(fired_at, 3_ms);  // clamped to the instant it was scheduled at
  EXPECT_EQ(hops,
            (std::vector<Hop>{{3_ms, true}, {5_ms, false}, {7_ms, true}}));
}

TEST(TryAdvance, CancelledFloorEventThenALaterOne) {
  Simulator sim;
  std::vector<Hop> hops;
  std::vector<Time> fired;
  spawn(hop_walk(sim, 6, hops, [&](int i) {
    if (i != 1) return;
    // The floor drops to 4 ms and stays there after the cancel: still a
    // lower bound, though 8 ms is now the earliest live event. The event
    // scheduled after the cancel, at 10 ms, must not raise it past 8 ms.
    sim.schedule_at(8_ms, [&] { fired.push_back(sim.now()); });
    sim.cancel(sim.schedule_at(4_ms, [] {}));
    sim.schedule_at(10_ms, [&] { fired.push_back(sim.now()); });
  }));
  sim.run();
  EXPECT_EQ(hops, (std::vector<Hop>{{3_ms, true},
                                    {5_ms, true},
                                    {7_ms, true},
                                    {9_ms, false},
                                    {11_ms, false},
                                    {13_ms, true}}));
  EXPECT_EQ(fired, (std::vector<Time>{8_ms, 10_ms}));
}

TEST(TryAdvance, RunUntilBoundStopsAWalkWithNothingDue) {
  Simulator sim;
  std::vector<Hop> hops;
  spawn(hop_walk(sim, 4, hops, [](int) {}));
  sim.run_until(6_ms);
  EXPECT_EQ(hops, (std::vector<Hop>{{3_ms, true}, {5_ms, true}}));
  EXPECT_EQ(sim.now(), 6_ms);
  sim.run();
  const std::vector<Hop> expected = {
      {3_ms, true}, {5_ms, true}, {7_ms, false}, {9_ms, true}};
  EXPECT_EQ(hops, expected);
}

TEST(Task, MoveSemantics) {
  Simulator sim;
  Task<void> task = [&]() -> Task<void> { co_await delay(sim, 1_ms); }();
  EXPECT_TRUE(task.valid());
  Task<void> moved = std::move(task);
  EXPECT_FALSE(task.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved.valid());
  // Destroying an unstarted task must not leak or crash (checked by ASAN-ish
  // builds; here we just exercise the path).
}

TEST(Task, SpawnRejectsEmpty) {
  Task<void> empty;
  EXPECT_THROW(spawn(std::move(empty)), util::PreconditionError);
}

// --- Task::start: owned processes -------------------------------------------

// The frame holds a copy of the shared_ptr: use_count() shows if it lives.
Task<void> sleep_holding(Simulator& sim, CoMutex& mutex,
                         std::shared_ptr<int> /*alive*/, bool& resumed) {
  co_await mutex.lock();
  CoMutex::Guard guard(mutex);
  co_await delay(sim, 10_ms);
  resumed = true;
}

TEST(StartedTask, DestroyedWhileSuspendedRunsLocalDestructorsWithoutResuming) {
  Simulator sim;
  CoMutex mutex(sim);
  auto alive = std::make_shared<int>();
  bool resumed = false;
  {
    Task<void> task = sleep_holding(sim, mutex, alive, resumed);
    task.start();  // runs to the delay, holding the mutex
    EXPECT_FALSE(task.done());
    EXPECT_TRUE(mutex.locked());
    EXPECT_EQ(alive.use_count(), 2);
  }
  EXPECT_EQ(alive.use_count(), 1);
  EXPECT_FALSE(mutex.locked());  // the Guard released it
  EXPECT_FALSE(resumed);
}

TEST(StartedTask, FinishedTaskIsDoneAndFreesItsFrameWhenDestroyed) {
  Simulator sim;
  CoMutex mutex(sim);
  auto alive = std::make_shared<int>();
  bool resumed = false;
  {
    Task<void> task = sleep_holding(sim, mutex, alive, resumed);
    task.start();
    EXPECT_THROW(task.start(), util::PreconditionError);  // started once
    sim.run();
    EXPECT_TRUE(task.done());
    EXPECT_TRUE(resumed);
    EXPECT_EQ(alive.use_count(), 2);  // a finished frame lives on in its Task
  }
  EXPECT_EQ(alive.use_count(), 1);
  Task<void> empty;
  EXPECT_THROW(empty.start(), util::PreconditionError);
}

Task<void> await_throwing_child(Simulator& sim) {
  (void)co_await throws_after_delay(sim);
}

TEST(StartedTask, ExceptionEscapesRun) {
  Simulator sim;
  Task<void> task = await_throwing_child(sim);
  task.start();
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_TRUE(task.done());
}

Task<void> ping_once(wire::Master& master, std::uint8_t node, bool& pinged) {
  (void)co_await master.ping(node);
  pinged = true;
}

// The relay's loop is parked inside Master::ping, under the master's
// CoMutex, with a second process queued on it. Destroying the relay hands
// the mutex on; destroying the rest of the rig must be ASan-clean.
TEST(StartedTask, RelayDestroyedInsidePingUnderTheMasterMutex) {
  Simulator sim;
  wire::LinkConfig link;
  wire::OneWireBus bus(sim, link);
  wire::SlaveDevice slave1(sim, 1, link), slave2(sim, 2, link);
  bus.attach(slave1);
  bus.attach(slave2);
  wire::Master master(bus);
  auto relay = std::make_unique<wire::MasterRelay>(
      master, std::vector<std::uint8_t>{1, 2});
  relay->start();  // runs into its first probe's bus cycle
  ASSERT_EQ(relay->stats().probes, 1u);
  bool pinged = false;
  Task<void> contender = ping_once(master, 2, pinged);
  contender.start();  // queues on the master's mutex
  const std::size_t pending = sim.pending_events();
  relay.reset();
  EXPECT_EQ(sim.pending_events(), pending + 1);  // the contender's wake-up
  EXPECT_FALSE(pinged);
}

}  // namespace
}  // namespace tb::sim
