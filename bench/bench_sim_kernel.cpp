// Simulation-kernel micro-benchmarks: event throughput, cancellation cost,
// coroutine context-switch cost — the substrate's own overheads, which
// bound how large a TpWIRE scenario stays tractable.
#include <benchmark/benchmark.h>

#include "bench/gbench_report.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/comutex.hpp"
#include "src/sim/process.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trigger.hpp"

namespace {

using namespace tb;
using namespace tb::sim::literals;

void BM_ScheduleAndRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_at(sim::Time::ns(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1'000)->Arg(100'000);

void BM_ScheduleAndRunInstrumented(benchmark::State& state) {
  // Same workload with a metrics registry bound (the §7 acceptance bound:
  // within 5% of BM_ScheduleAndRun). The kernel's instrumentation is
  // pull-only, so the per-event cost is three counter bumps; snapshot()
  // runs once, outside the timed region's hot loop.
  const auto batch = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    obs::Registry registry;
    sim.bind_metrics(registry);
    for (int i = 0; i < batch; ++i) {
      sim.schedule_at(sim::Time::ns(i), [] {});
    }
    sim.run();
    fired = registry.snapshot().counter_value("sim.events.fired");
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleAndRunInstrumented)->Arg(1'000)->Arg(100'000);

void BM_CancelledEvents(benchmark::State& state) {
  // Lazy deletion: cancelled entries are skipped at pop time.
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      handles.push_back(sim.schedule_at(sim::Time::ns(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) sim.cancel(handles[i]);
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_CancelledEvents);

void BM_CoroutineDelayLoop(benchmark::State& state) {
  const auto hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::spawn([&sim, hops]() -> sim::Task<void> {
      for (int i = 0; i < hops; ++i) {
        co_await sim::delay(sim, 1_ns);
      }
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineDelayLoop)->Arg(1'000)->Arg(10'000);

void BM_AdvanceInPlaceLoop(benchmark::State& state) {
  // The bit-accurate bus's hop walk: after one queued wait, every hop goes
  // through sim::advance with one far event pending, so each hop advances
  // in place and, under the kernel's due floor, without a queue read.
  const auto hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim.schedule_at(sim::Time::sec(1), [] {});
    sim::spawn([&sim, hops]() -> sim::Task<void> {
      co_await sim::delay(sim, 1_ns);
      for (int i = 0; i < hops; ++i) {
        co_await sim::advance(sim, 1_ns);
      }
    });
    sim.run();
    benchmark::DoNotOptimize(sim.advanced_in_place());
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_AdvanceInPlaceLoop)->Arg(1'000)->Arg(10'000);

void BM_TriggerPingPong(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Trigger ping(sim), pong(sim);
    sim::spawn([&]() -> sim::Task<void> {
      for (int i = 0; i < rounds; ++i) {
        co_await ping.wait();
        pong.notify_all();
      }
    });
    sim::spawn([&]() -> sim::Task<void> {
      for (int i = 0; i < rounds; ++i) {
        ping.notify_all();
        co_await pong.wait();
      }
    });
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_TriggerPingPong)->Arg(1'000);

void BM_CoMutexContention(benchmark::State& state) {
  const auto workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::CoMutex mutex(sim);
    for (int w = 0; w < workers; ++w) {
      sim::spawn([&]() -> sim::Task<void> {
        for (int i = 0; i < 100; ++i) {
          co_await mutex.lock();
          co_await sim::delay(sim, 1_ns);
          mutex.unlock();
        }
      });
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * workers * 100);
}
BENCHMARK(BM_CoMutexContention)->Arg(2)->Arg(16);

}  // namespace

TB_BENCHMARK_MAIN("sim_kernel")
