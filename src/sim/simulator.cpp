#include "src/sim/simulator.hpp"

#include <cassert>
#include <sstream>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"
#include "src/util/strings.hpp"

namespace tb::sim {

std::string Time::to_string() const {
  return util::format_seconds(seconds());
}

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

EventHandle Simulator::schedule_at(Time at, detail::EventFn fn) {
  TB_REQUIRE(fn != nullptr);
  if (at < now_) {
#ifdef TB_SIM_PAST_IS_FATAL
    assert(false && "event scheduled in the past");
#endif
    at = now_;  // documented clamp: fires next, in seq order at now()
  }
  const std::uint64_t id = pool_.acquire(std::move(fn), next_seq_++);
  queue_.push({at, id});
  if (at < due_floor_) due_floor_ = at;
  ++scheduled_;
  if (pool_.live() > peak_pending_) peak_pending_ = pool_.live();
  return EventHandle(id);
}

EventHandle Simulator::schedule_in(Time delay, detail::EventFn fn) {
  TB_REQUIRE_MSG(delay >= Time::zero(), "negative delay");
  if (perturb_delay_ && delay > Time::zero()) {
    delay = perturb_delay_(now_, delay);
    TB_REQUIRE_MSG(delay >= Time::zero(), "perturbed delay went negative");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid() || !pool_.is_live(handle.id())) return false;
  pool_.release(handle.id());  // destroys the callback; heap entry dies lazily
  ++cancelled_;
  return true;
}

bool Simulator::is_pending(EventHandle handle) const {
  return handle.valid() && pool_.is_live(handle.id());
}

bool Simulator::dispatch_next(Time limit, bool bounded) {
  while (const detail::Entry* top = queue_.peek()) {
    if (!pool_.is_live(top->id)) {
      queue_.pop();  // lazily discard a cancelled event
      continue;
    }
    if (bounded && top->at > limit) return false;
    const detail::Entry entry = *top;
    queue_.pop();
    detail::EventFn fn = pool_.release(entry.id);
    TB_ASSERT(entry.at >= now_);
    now_ = entry.at;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

std::optional<Time> Simulator::next_event_time() {
  while (const detail::Entry* top = queue_.peek()) {
    if (pool_.is_live(top->id)) return top->at;
    queue_.pop();
  }
  return std::nullopt;
}

bool Simulator::try_advance(Time at) {
  if (!loop_.active || stop_requested_ || perturb_delay_ || at <= now_) {
    return false;
  }
  if (loop_.bounded && at > loop_.limit) return false;
  if (due_floor_ <= at) {
    due_floor_ = next_event_time().value_or(Time::max());
    if (due_floor_ <= at) return false;
  }
  // Account for the resume event as if it had been scheduled and fired:
  // its seq, its pool slot's round trip, and the pending high-water mark.
  ++next_seq_;
  pool_.cycle_slot();
  ++scheduled_;
  if (pool_.live() + 1 > peak_pending_) peak_pending_ = pool_.live() + 1;
  ++executed_;
  ++advanced_in_place_;
  now_ = at;
  return true;
}

namespace {
/// Sets `slot` to `value` for the scope's lifetime, restoring the enclosing
/// value on exit (also when an event throws out of the loop).
template <typename T>
class ScopedSet {
 public:
  ScopedSet(T& slot, T value) : slot_(slot), saved_(slot) { slot_ = value; }
  ~ScopedSet() { slot_ = saved_; }
  ScopedSet(const ScopedSet&) = delete;
  ScopedSet& operator=(const ScopedSet&) = delete;

 private:
  T& slot_;
  T saved_;
};
}  // namespace

bool Simulator::step() {
  const ScopedSet<Loop> no_loop(loop_, Loop{});
  return dispatch_next(Time::zero(), /*bounded=*/false);
}

void Simulator::run_loop(Time limit, bool bounded) {
  const ScopedSet<Loop> loop(loop_, Loop{true, bounded, limit});
  stop_requested_ = false;
  while (!stop_requested_ && dispatch_next(limit, bounded)) {
  }
}

void Simulator::run() { run_loop(Time::zero(), /*bounded=*/false); }

void Simulator::run_until(Time until) {
  TB_REQUIRE(until >= now_);
  run_loop(until, /*bounded=*/true);
  if (!stop_requested_ && now_ < until) now_ = until;
}

void Simulator::bind_metrics(obs::Registry& registry) {
  if (!registry.has_clock()) {
    registry.set_clock(
        [this] { return static_cast<std::uint64_t>(now_.count_ns()); });
  }
  obs::Counter& scheduled = registry.counter("sim.events.scheduled");
  obs::Counter& fired = registry.counter("sim.events.fired");
  obs::Counter& cancelled = registry.counter("sim.events.cancelled");
  obs::Counter& in_place = registry.counter("sim.events.advanced_in_place");
  obs::Gauge& depth = registry.gauge("sim.queue.depth");
  obs::Gauge& peak = registry.gauge("sim.queue.peak_depth");
  registry.add_collector([this, &scheduled, &fired, &cancelled, &in_place,
                          &depth, &peak] {
    scheduled.set(scheduled_);
    fired.set(executed_);
    cancelled.set(cancelled_);
    in_place.set(advanced_in_place_);
    depth.set(static_cast<double>(pool_.live()));
    peak.set(static_cast<double>(peak_pending_));
  });
}

}  // namespace tb::sim
