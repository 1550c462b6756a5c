// Discrete-event simulation kernel.
//
// This is the substrate the paper obtains from NS-2: a time-ordered event
// queue with deterministic execution. Events scheduled for the same instant
// execute in scheduling order (a monotonic sequence number breaks ties), so
// every run with the same seed is bit-identical.
//
// Hot-path layout (DESIGN.md §8): callbacks live in a slab-allocated event
// pool with generation-tagged handles (cancel/is_pending are O(1) array
// probes), callback captures up to 48 bytes are stored inline (no heap
// allocation on the common schedule_in), and pending events sit in a 4-ary
// lazy-deletion heap keyed by (time, seq).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "src/sim/event_pool.hpp"
#include "src/sim/time.hpp"
#include "src/util/rng.hpp"

namespace tb::obs {
class Registry;
}

namespace tb::sim {

/// Identifies a scheduled event; value-semantic and cheap to copy.
/// A default-constructed handle is "null" and safe to cancel (no-op).
/// The id packs a pool slot index with a generation tag, so a handle left
/// over from a fired or cancelled event never aliases a newer event that
/// reuses the slot.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }
  std::uint64_t id() const { return id_; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// The event-driven simulator. Single-threaded by design: all model code runs
/// on the scheduler's call stack, so models need no locking. Independent
/// Simulator instances share no state at all, which is what lets tb::par run
/// one per thread.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at`. An `at` in the past is clamped
  /// to now() — the event fires next, after already-pending events at
  /// now() (seq order breaks the tie). Model code should not rely on the
  /// clamp: define TB_SIM_PAST_IS_FATAL to turn it into a hard assert in
  /// debug builds when flushing out misbehaving models.
  EventHandle schedule_at(Time at, detail::EventFn fn);

  /// Schedules `fn` after a relative delay (must be >= 0).
  EventHandle schedule_in(Time delay, detail::EventFn fn);

  /// Cancels a pending event. Safe on null, fired, stale, or
  /// already-cancelled handles. Returns true iff the event was pending and
  /// is now cancelled.
  bool cancel(EventHandle handle);

  bool is_pending(EventHandle handle) const;

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs all events with timestamp <= `until`, then advances now() to
  /// `until` even if the queue drained early (NS-2 "run for" semantics —
  /// lets callers compose successive run windows).
  void run_until(Time until);

  /// Convenience: run_until(now() + delta).
  void run_for(Time delta) { run_until(now_ + delta); }

  /// Advances now() to `at` in place of dispatching a resume event there,
  /// when that event would be the very next one the running loop
  /// dispatches (DESIGN.md §8). On success the call has the effect of
  /// scheduling an event at `at` and firing it at once: it consumes the
  /// seq number, counts one scheduled and one fired event, and raises
  /// peak_pending_events() as if the event had been pending, so event
  /// order, ids and counters read exactly as with schedule + dispatch.
  /// Returns false and changes nothing when called outside run() /
  /// run_until() (step() never advances in place), after stop(), while a
  /// delay perturbation is installed (the hook is not called), past
  /// run_until()'s bound, when `at <= now()`, or when a live event is due
  /// at or before `at` (one due exactly at `at` was scheduled earlier and
  /// wins the seq tie-break).
  ///
  /// The caller must be the tail of the event being dispatched: code that
  /// a kernel event resumed directly, with nothing left to run in that
  /// event after the caller's wait. sim::advance() is the awaitable form.
  ///
  /// The last check reads the queue only when the due floor (a lower bound
  /// on every live event's time) is at or before `at`, so a walk of hops
  /// with nothing else due costs one queue read, not one per hop.
  bool try_advance(Time at);

  /// Requests run()/run_until() to return after the current event.
  void stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Timestamp of the next live event, or nullopt when the queue is empty.
  /// Discards cancelled entries encountered while peeking.
  std::optional<Time> next_event_time();

  std::size_t pending_events() const { return pool_.live(); }
  std::uint64_t executed_events() const { return executed_; }
  std::uint64_t scheduled_events() const { return scheduled_; }
  std::uint64_t cancelled_events() const { return cancelled_; }
  /// Events try_advance() dispatched in place (a subset of executed).
  std::uint64_t advanced_in_place() const { return advanced_in_place_; }
  /// High-water mark of pending_events() over the run.
  std::size_t peak_pending_events() const { return peak_pending_; }

  /// Observability hook (DESIGN.md §7): installs this simulator as the
  /// registry's clock (unless one is already set) and registers a collector
  /// that mirrors the kernel counters into `sim.events.*` / `sim.queue.*`
  /// at snapshot time (`sim.events.advanced_in_place` counts the fired
  /// events try_advance() dispatched without queueing them). Pull-only —
  /// the hot path pays always-on integer bumps and nothing else. The
  /// simulator must outlive the registry's last snapshot().
  void bind_metrics(obs::Registry& registry);

  /// Root RNG for the simulation; components should fork() child streams.
  util::Xoshiro256& rng() { return rng_; }

  /// Clock-skew / jitter hook (fault injection): every relative delay passed
  /// to schedule_in() is remapped through `f(now, delay)` before scheduling.
  /// The hook must be a pure function of its arguments (and of deterministic
  /// state such as a forked RNG stream) so runs stay reproducible; it must
  /// return a non-negative delay. Pass nullptr to remove.
  using DelayPerturbation = std::function<Time(Time now, Time delay)>;
  void set_delay_perturbation(DelayPerturbation f) {
    perturb_delay_ = std::move(f);
  }
  bool has_delay_perturbation() const { return perturb_delay_ != nullptr; }

 private:
  bool dispatch_next(Time limit, bool bounded);
  void run_loop(Time limit, bool bounded);

  /// The dispatch loop try_advance() may fast-forward: set for the
  /// duration of run()/run_until(), cleared under step().
  struct Loop {
    bool active = false;
    bool bounded = false;
    Time limit = Time::zero();
  };

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;  ///< > 0: a packed event id is never 0
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t advanced_in_place_ = 0;
  std::size_t peak_pending_ = 0;
  /// Lower bound on the time of every live event (Time::max() when none):
  /// schedule_at lowers it; pops and cancels only remove events, so it
  /// stays a bound. try_advance refreshes it from the queue when it is at
  /// or before the target. Once the loop pops an event the floor is at or
  /// before now(), which forces that refresh (DESIGN.md §8).
  Time due_floor_ = Time::max();
  bool stop_requested_ = false;
  Loop loop_;
  detail::EventPool pool_;
  detail::EventQueue queue_;
  util::Xoshiro256 rng_;
  DelayPerturbation perturb_delay_;
};

}  // namespace tb::sim
