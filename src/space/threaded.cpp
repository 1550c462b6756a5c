#include "src/space/threaded.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/sim/bridge.hpp"
#include "src/util/assert.hpp"

namespace tb::space {

namespace {

using Kind = OpRecord::Kind;

/// try_lock probes before lock_shard() blocks. Each failed probe yields, so
/// a shard held for one short apply is usually free again within the
/// budget and the caller never sleeps in the kernel; without the spin the
/// contended p99 more than doubles (DESIGN.md §15).
constexpr int kSpinIters = 64;

/// Absolute expiry for a blocking-op timeout, saturating instead of
/// overflowing on huge values (kBlockForever maps to time_point::max()).
std::chrono::steady_clock::time_point deadline_after(
    std::chrono::nanoseconds timeout) {
  const auto now = std::chrono::steady_clock::now();
  if (timeout >= std::chrono::steady_clock::time_point::max() - now) {
    return std::chrono::steady_clock::time_point::max();
  }
  return now + timeout;
}

void accumulate(SpaceEngine::Stats& into, const SpaceEngine::Stats& from) {
  into.writes += from.writes;
  into.reads += from.reads;
  into.takes += from.takes;
  into.misses += from.misses;
  into.notifications += from.notifications;
  into.expirations += from.expirations;
  into.renewals += from.renewals;
  into.cancellations += from.cancellations;
  into.scan_steps += from.scan_steps;
  into.commits += from.commits;
  into.aborts += from.aborts;
}

}  // namespace

void ThreadedSpaceEngine::Slot::fill(std::optional<Tuple> value) {
  std::lock_guard<std::mutex> lk(mu);
  result = std::move(value);
  done = true;
  // Under mu: the caller may destroy the slot as soon as it sees `done`,
  // so the notify must not come after our unlock.
  cv.notify_one();
}

bool ThreadedSpaceEngine::Slot::wait_until(
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lk(mu);
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    cv.wait(lk, [this] { return done; });
    return true;
  }
  return cv.wait_until(lk, deadline, [this] { return done; });
}

ThreadedSpaceEngine::ThreadedSpaceEngine(SpaceConfig config, OpLog* log)
    : config_(config), log_(log) {
  TB_REQUIRE_MSG(config_.execution_mode == ExecutionMode::kThreaded,
                 "deterministic configs belong to SpaceEngine (engine.hpp)");
  if (config_.shard_count < 1) config_.shard_count = 1;
  shards_.reserve(static_cast<std::size_t>(config_.shard_count));
  for (int s = 0; s < config_.shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_));
    stores_.push_back(&shards_.back()->store);
  }
  for (int s = 0; s < config_.shard_count; ++s) {
    shard(s).reaper = std::thread([this, s] { reaper_loop(s); });
  }
}

ThreadedSpaceEngine::~ThreadedSpaceEngine() { shutdown(); }

// --- locking ----------------------------------------------------------------

std::unique_lock<std::mutex> ThreadedSpaceEngine::lock_shard(Shard& sh) {
  for (int spin = 0; spin < kSpinIters; ++spin) {
    if (sh.mu.try_lock()) {
      return std::unique_lock<std::mutex>(sh.mu, std::adopt_lock);
    }
    std::this_thread::yield();
  }
  return std::unique_lock<std::mutex>(sh.mu);
}

std::unique_lock<std::mutex> ThreadedSpaceEngine::enter_shard(int shard_idx) {
  Shard& sh = shard(shard_idx);
  std::unique_lock<std::mutex> lk = lock_shard(sh);
  sh.ops_applied.fetch_add(1, std::memory_order_relaxed);
  // Due lease timers are reclaimed before the op applies: the expiry draws
  // its ticket first, as a hardware timer interrupt would.
  if (sh.wheel.armed() > 0) service_shard_wheel(shard_idx);
  return lk;
}

void ThreadedSpaceEngine::barrier_acquire() {
  barrier_mu_.lock();
  for (auto& sh : shards_) lock_shard(*sh).release();
  barriers_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedSpaceEngine::barrier_release() {
  for (auto& sh : shards_) sh->mu.unlock();
  barrier_mu_.unlock();
}

template <typename Op>
auto ThreadedSpaceEngine::exclusive(const Template& tmpl, Op&& op) {
  if (tmpl.name.has_value()) {
    const int shard_idx = named_shard(tmpl);
    const std::unique_lock<std::mutex> lk = enter_shard(shard_idx);
    return op(shard(shard_idx).stats);
  }
  barrier_acquire();
  struct Release {
    ThreadedSpaceEngine* engine;
    ~Release() { engine->barrier_release(); }
  } release{this};
  return op(barrier_stats_);
}

// --- leases -----------------------------------------------------------------

void ThreadedSpaceEngine::reaper_loop(int shard_idx) {
  Shard& sh = shard(shard_idx);
  std::unique_lock<std::mutex> lk = lock_shard(sh);
  while (!sh.stop) {
    if (sh.wheel.armed() > 0) service_shard_wheel(shard_idx);
    // next_deadline() is a lower bound: waking early only cascades the
    // wheel one level and sleeps again.
    const std::optional<std::int64_t> next = sh.wheel.next_deadline();
    sh.reaper_deadline = next.value_or(INT64_MAX);
    if (next.has_value()) {
      sh.reaper_cv.wait_until(lk, epoch_ + std::chrono::nanoseconds(*next));
    } else {
      sh.reaper_cv.wait(lk);
    }
  }
}

sim::TimerWheel::TimerId ThreadedSpaceEngine::arm_lease(Shard& sh,
                                                        sim::Time expires_at,
                                                        std::uint64_t id) {
  if (expires_at == sim::Time::max()) return 0;
  const std::int64_t at = expires_at.count_ns();
  if (at < sh.reaper_deadline) {
    sh.reaper_deadline = at;  // the reaper re-plans from the wheel on wake
    sh.reaper_cv.notify_one();
  }
  return sh.wheel.arm(at, id);
}

std::int64_t ThreadedSpaceEngine::steady_now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ThreadedSpaceEngine::service_shard_wheel(int shard_idx) {
  Shard& sh = shard(shard_idx);
  // Collect first: erase_entry cancels the (already freed) wheel node,
  // which is a stale-id no-op, and must not run inside advance().
  std::vector<std::uint64_t> due;
  sh.wheel.advance(steady_now_ns(),
                   [&due](std::uint64_t payload, std::int64_t /*deadline*/) {
                     due.push_back(payload);
                   });
  for (const std::uint64_t id : due) {
    const auto it = sh.store.find_id(id);
    if (it == sh.store.end()) continue;  // defensive: cancels are exact
    // The reclamation *is* the expiry's linearization point: visibility in
    // threaded mode is presence, and the replay pre-pass arms the oracle
    // with exactly this ticket-space duration (oplog.hpp).
    const std::uint64_t ticket = next_ticket();
    if (log_ != nullptr) {
      OpRecord rec;
      rec.ticket = ticket;
      rec.kind = Kind::kLeaseExpire;
      rec.target = id;
      log_->append(rec);
    }
    ++sh.stats.expirations;
    erase_entry({shard_idx, it});
  }
}

// --- write ------------------------------------------------------------------

Lease ThreadedSpaceEngine::apply_write(int shard_idx, Tuple tuple,
                                       sim::Time lease, FireBatch* fire) {
  // The deadline counts from the linearization point, not from call entry:
  // the lease starts when the write becomes visible.
  const sim::Time expires_at =
      lease == kLeaseForever ? sim::Time::max()
                             : sim::Time::ns(steady_now_ns()) + lease;
  // Slow path: wildcard waiters or notify registrations may exist, so the
  // whole linearization (ticket, notify collection, waiter merge) runs
  // under cross_mu_ — interacting publishes serialize in ticket order.
  // Fast path: no cross-shard state can appear mid-apply (registrations
  // run under the all-shard acquisition), so this write commutes with
  // everything it races and a racy ticket is a valid linearization point.
  const bool cross_locked = cross_possible();
  std::unique_lock<std::mutex> cl(cross_mu_, std::defer_lock);
  if (cross_locked) cl.lock();
  const std::uint64_t id = next_ticket();
  if (cross_locked) collect_notifications(tuple, fire);
  if (log_ != nullptr) {
    OpRecord rec;
    rec.ticket = id;
    rec.kind = Kind::kWrite;
    rec.tuple = tuple;
    log_->append(rec);
  }
  serve_and_store(shard_idx, id, std::move(tuple), cross_locked, expires_at);
  ++shard(shard_idx).stats.writes;
  return Lease{id, expires_at};
}

void ThreadedSpaceEngine::serve_and_store(int shard_idx, std::uint64_t id,
                                          Tuple tuple, bool cross_locked,
                                          sim::Time expires_at) {
  Shard& sh = shard(shard_idx);
  // Same registration-order rule as the deterministic publish(); the
  // wildcard queue is only visible under cross_mu_.
  const bool consumed = serve_waiters(
      sh.waiters, wildcard_waiters_, cross_locked, tuple,
      [&](Waiter& waiter, bool named) {
        if (!named) {
          cross_count_.fetch_sub(1);
          cross_serves_.fetch_add(1, std::memory_order_relaxed);
        }
        blocked_count_.fetch_sub(1, std::memory_order_relaxed);
        Stats& stats = named ? sh.stats : cross_stats_;
        ++(waiter.take ? stats.takes : stats.reads);
        if (waiter.take) {
          complete_waiter(waiter, std::move(tuple));
        } else {
          complete_waiter(waiter, tuple);  // copy to each blocked reader
        }
      });
  if (consumed) return;
  const sim::TimerWheel::TimerId timer = arm_lease(sh, expires_at, id);
  const std::uint64_t key = type_key(tuple.name, tuple.arity());
  sh.store.insert(id, key, std::move(tuple), expires_at, timer);
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  note_peak_size();
}

void ThreadedSpaceEngine::erase_entry(EntryRef ref) {
  Shard& sh = shard(ref.shard);
  sh.wheel.cancel(sh.store.erase(ref.it));  // stale-safe after an expiry
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
}

Lease ThreadedSpaceEngine::write(Tuple tuple, std::uint64_t txn) {
  return write(std::move(tuple), kLeaseForever, txn);
}

Lease ThreadedSpaceEngine::write(Tuple tuple, sim::Time lease_duration,
                                 std::uint64_t txn) {
  TB_REQUIRE(lease_duration > sim::Time::zero());
  if (txn != kNoTxn) {
    TB_REQUIRE_MSG(lease_duration == kLeaseForever,
                   "transactional writes keep forever leases in threaded "
                   "mode (commit publication does not re-arm)");
    // Transaction-private: invisible to every other client until commit, so
    // the ticket may race freely — the op commutes with everything outside
    // its (single-owner) transaction.
    TxnView* state = find_txn(txn);
    const std::uint64_t ticket = next_ticket();
    if (log_ != nullptr) {
      OpRecord rec;
      rec.ticket = ticket;
      rec.kind = Kind::kWrite;
      rec.txn = txn;
      rec.tuple = tuple;
      log_->append(rec);
    }
    state->writes.push_back(TxnEntry{ticket, std::move(tuple)});
    return Lease{ticket, sim::Time::max()};
  }
  const int shard_idx = shard_of(type_key(tuple.name, tuple.arity()));
  FireBatch fire;
  Lease out;
  {
    const std::unique_lock<std::mutex> lk = enter_shard(shard_idx);
    out = apply_write(shard_idx, std::move(tuple), lease_duration, &fire);
  }
  fire_collected(std::move(fire));
  return out;
}

// --- matching ---------------------------------------------------------------

std::optional<Tuple> ThreadedSpaceEngine::match_if_exists(EntryRef found,
                                                          const Template& tmpl,
                                                          TxnView* txn,
                                                          bool take,
                                                          Stats& stats) {
  std::optional<Tuple> result;
  if (found && take) {
    if (txn != nullptr) txn->hold(found.it);
    result = std::move(found.it->second.tuple);
    erase_entry(found);
  } else if (found) {
    result = found.it->second.tuple;
  } else if (txn != nullptr) {
    result = txn->match_own(tmpl, kAllVisible, take);
  }
  if (!result.has_value()) {
    ++stats.misses;
  } else {
    ++(take ? stats.takes : stats.reads);
  }
  return result;
}

std::vector<Tuple> ThreadedSpaceEngine::match_all(const Template& tmpl,
                                                  std::size_t max, bool take,
                                                  std::uint64_t ticket,
                                                  Stats& stats) {
  const std::vector<EntryRef> hits =
      find_all(stores_, tmpl, kAllVisible, max, stats.scan_steps);
  std::vector<Tuple> out;
  out.reserve(hits.size());
  for (const EntryRef& hit : hits) {
    if (take) {
      ++stats.takes;
      out.push_back(std::move(hit.it->second.tuple));
      erase_entry(hit);
    } else {
      ++stats.reads;
      out.push_back(hit.it->second.tuple);
    }
  }
  if (log_ != nullptr) {
    OpRecord rec;
    rec.ticket = ticket;
    rec.kind = take ? Kind::kTakeAll : Kind::kReadAll;
    rec.tmpl = tmpl;
    rec.max = max;
    rec.results = out;
    log_->append(rec);
  }
  return out;
}

std::optional<Tuple> ThreadedSpaceEngine::read_if_exists(const Template& tmpl,
                                                         std::uint64_t txn) {
  return if_exists(tmpl, txn, /*take=*/false);
}

std::optional<Tuple> ThreadedSpaceEngine::take_if_exists(const Template& tmpl,
                                                         std::uint64_t txn) {
  return if_exists(tmpl, txn, /*take=*/true);
}

std::optional<Tuple> ThreadedSpaceEngine::if_exists(const Template& tmpl,
                                                    std::uint64_t txn,
                                                    bool take) {
  TxnView* state = find_txn(txn);
  return exclusive(tmpl, [&](Stats& stats) {
    const EntryRef found = find_match(tmpl, stats);
    const std::uint64_t ticket = next_ticket();
    std::optional<Tuple> result =
        match_if_exists(found, tmpl, state, take, stats);
    if (log_ != nullptr) {
      OpRecord rec;
      rec.ticket = ticket;
      rec.kind = take ? Kind::kTakeIfExists : Kind::kReadIfExists;
      rec.txn = txn;
      rec.tmpl = tmpl;
      rec.result = result;
      log_->append(rec);
    }
    return result;
  });
}

std::vector<Tuple> ThreadedSpaceEngine::read_all(const Template& tmpl,
                                                 std::size_t max) {
  return bulk(tmpl, max, /*take=*/false);
}

std::vector<Tuple> ThreadedSpaceEngine::take_all(const Template& tmpl,
                                                 std::size_t max) {
  return bulk(tmpl, max, /*take=*/true);
}

std::vector<Tuple> ThreadedSpaceEngine::bulk(const Template& tmpl,
                                             std::size_t max, bool take) {
  return exclusive(tmpl, [&](Stats& stats) {
    return match_all(tmpl, max, take, next_ticket(), stats);
  });
}

// --- blocking ops -----------------------------------------------------------

void ThreadedSpaceEngine::log_blocked(std::uint64_t ticket, bool take,
                                      const Template& tmpl,
                                      const std::optional<Tuple>& result) {
  if (log_ == nullptr) return;
  OpRecord rec;
  rec.ticket = ticket;
  rec.kind = take ? Kind::kBlockingTake : Kind::kBlockingRead;
  rec.tmpl = tmpl;
  rec.result = result;
  log_->append(rec);
}

void ThreadedSpaceEngine::complete_waiter(const Waiter& waiter, Tuple tuple) {
  log_blocked(waiter.id, waiter.take, waiter.tmpl, tuple);
  waiter.slot->fill(std::move(tuple));
}

void ThreadedSpaceEngine::cancel_waiter_record(const Waiter& waiter,
                                               std::uint64_t cancel_ticket) {
  if (log_ == nullptr) return;
  OpRecord rec;
  rec.ticket = waiter.id;
  rec.kind = waiter.take ? Kind::kBlockingTake : Kind::kBlockingRead;
  rec.tmpl = waiter.tmpl;
  rec.timed_out = true;
  rec.cancel_ticket = cancel_ticket;
  log_->append(rec);
}

bool ThreadedSpaceEngine::remove_waiter(std::list<Waiter>& queue,
                                        std::uint64_t ticket, Stats& stats) {
  const auto pos =
      std::find_if(queue.begin(), queue.end(),
                   [&](const Waiter& w) { return w.id == ticket; });
  if (pos == queue.end()) return false;
  cancel_waiter_record(*pos, next_ticket());
  queue.erase(pos);
  blocked_count_.fetch_sub(1, std::memory_order_relaxed);
  ++stats.misses;
  return true;
}

std::optional<Tuple> ThreadedSpaceEngine::blocking_op(
    const Template& tmpl, std::chrono::nanoseconds timeout, bool take) {
  // The timeout clock starts here: waiting for the shard lock (or, for
  // wildcards, every shard lock) spends the caller's budget.
  const auto deadline = deadline_after(timeout);
  Slot slot;
  std::uint64_t ticket = 0;
  std::optional<Tuple> found_now;
  const bool parked = exclusive(tmpl, [&](Stats& stats) {
    ticket = next_ticket();
    if (const EntryRef found = find_match(tmpl, stats)) {
      found_now = match_if_exists(found, tmpl, nullptr, take, stats);
      log_blocked(ticket, take, tmpl, found_now);
      return false;
    }
    // Park. The record is written by whoever resolves the waiter: a
    // serving publish (complete_waiter) or a cancellation.
    Waiter waiter{ticket, tmpl, take, &slot};
    if (tmpl.name.has_value()) {
      shard(named_shard(tmpl)).waiters.push_back(std::move(waiter));
    } else {
      // The wildcard queue is cross-shard state every publish must observe:
      // registered under the all-shard acquisition, guarded by cross_mu_.
      std::lock_guard<std::mutex> cl(cross_mu_);
      wildcard_waiters_.push_back(std::move(waiter));
      cross_count_.fetch_add(1);
    }
    blocked_count_.fetch_add(1, std::memory_order_relaxed);
    note_peak_blocked();
    return true;
  });
  if (!parked) return found_now;
  if (!slot.wait_until(deadline)) {
    // Timed out: remove our own waiter under the lock its publishers hold.
    // Finding it gone means a publish or shutdown filled the slot before
    // we got the lock; that completion wins. A removed waiter's slot keeps
    // its nullopt.
    if (tmpl.name.has_value()) {
      Shard& sh = shard(named_shard(tmpl));
      const std::unique_lock<std::mutex> lk = lock_shard(sh);
      remove_waiter(sh.waiters, ticket, sh.stats);
    } else {
      std::lock_guard<std::mutex> cl(cross_mu_);
      // Cancel ticket before the count decrement: a publisher that
      // fast-paths on the decremented count is ordered after this
      // cancellation.
      if (remove_waiter(wildcard_waiters_, ticket, cross_stats_)) {
        cross_count_.fetch_sub(1);
      }
    }
  }
  return std::move(slot.result);
}

std::optional<Tuple> ThreadedSpaceEngine::read(
    const Template& tmpl, std::chrono::nanoseconds timeout) {
  return blocking_op(tmpl, timeout, /*take=*/false);
}

std::optional<Tuple> ThreadedSpaceEngine::take(
    const Template& tmpl, std::chrono::nanoseconds timeout) {
  return blocking_op(tmpl, timeout, /*take=*/true);
}

// --- transactions -----------------------------------------------------------

TxnView* ThreadedSpaceEngine::find_txn(std::uint64_t txn) {
  if (txn == kNoTxn) return nullptr;
  std::lock_guard<std::mutex> lk(txn_mu_);
  const auto it = txns_.find(txn);
  TB_REQUIRE_MSG(it != txns_.end(), "unknown transaction");
  return it->second.get();
}

std::uint64_t ThreadedSpaceEngine::begin_transaction() {
  const std::uint64_t ticket = next_ticket();
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    txns_.emplace(ticket, std::make_unique<TxnView>());
  }
  if (log_ != nullptr) {
    OpRecord rec;
    rec.ticket = ticket;
    rec.kind = Kind::kBeginTxn;
    log_->append(rec);
  }
  return ticket;
}

bool ThreadedSpaceEngine::commit(std::uint64_t txn) {
  barrier_acquire();
  std::unique_ptr<TxnView> state;
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    const auto it = txns_.find(txn);
    if (it != txns_.end()) {
      state = std::move(it->second);
      txns_.erase(it);
    }
  }
  const bool ok = state != nullptr;
  FireBatch fire;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    const std::uint64_t ticket = next_ticket();
    if (ok) {
      ++barrier_stats_.commits;
      // Publication order = write order = ascending tickets; each entry
      // keeps its write ticket as id, so it sorts into the total order at
      // the instant the write was issued — exactly the oracle's rule.
      for (TxnEntry& pending : state->writes) {
        ++barrier_stats_.writes;
        collect_notifications(pending.tuple, &fire);
        const int shard_idx =
            shard_of(type_key(pending.tuple.name, pending.tuple.arity()));
        serve_and_store(shard_idx, pending.id, std::move(pending.tuple),
                        /*cross_locked=*/true, sim::Time::max());
      }
      // Held takes become permanent: nothing to restore.
    }
    if (log_ != nullptr) {
      OpRecord rec;
      rec.ticket = ticket;
      rec.kind = Kind::kCommit;
      rec.txn = txn;
      rec.ok = ok;
      log_->append(rec);
    }
  }
  barrier_release();
  fire_collected(std::move(fire));
  return ok;
}

bool ThreadedSpaceEngine::abort(std::uint64_t txn) {
  barrier_acquire();
  std::unique_ptr<TxnView> state;
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    const auto it = txns_.find(txn);
    if (it != txns_.end()) {
      state = std::move(it->second);
      txns_.erase(it);
    }
  }
  const bool ok = state != nullptr;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    const std::uint64_t ticket = next_ticket();
    if (ok) {
      ++barrier_stats_.aborts;
      // Restore held entries under their original ids — back into the total
      // order where they were taken from. No notifications: their writes
      // were announced when first published. Blocked ops do get served.
      // A held finite-lease entry's timer was cancelled at take time, so
      // the restore is forever — mirrored exactly by the replay pre-pass:
      // no kLeaseExpire record ever terminates that write's arming.
      for (TxnEntry& held : state->held) {
        const int shard_idx =
            shard_of(type_key(held.tuple.name, held.tuple.arity()));
        serve_and_store(shard_idx, held.id, std::move(held.tuple),
                        /*cross_locked=*/true, sim::Time::max());
      }
    }
    if (log_ != nullptr) {
      OpRecord rec;
      rec.ticket = ticket;
      rec.kind = Kind::kAbort;
      rec.txn = txn;
      rec.ok = ok;
      log_->append(rec);
    }
  }
  barrier_release();
  return ok;
}

// --- notify -----------------------------------------------------------------

void ThreadedSpaceEngine::collect_notifications(const Tuple& tuple,
                                                FireBatch* fire) {
  for (auto& [id, reg] : notifies_) {
    if (reg.tmpl.matches(tuple)) {
      ++cross_stats_.notifications;
      fire->emplace_back(reg.callback, tuple);
    }
  }
}

void ThreadedSpaceEngine::fire_collected(FireBatch fire) {
  if (fire.empty()) return;
  if (bridge_ != nullptr) {
    // One bridge post per op: the whole delivery batch crosses the
    // producer/kernel boundary under a single lock + wakeup.
    std::vector<sim::detail::EventFn> fns;
    fns.reserve(fire.size());
    for (auto& [callback, tuple] : fire) {
      fns.push_back([cb = std::move(callback), t = std::move(tuple)] { cb(t); });
    }
    bridge_->post_batch(std::move(fns));
    return;
  }
  for (auto& [callback, tuple] : fire) {
    callback(tuple);
  }
}

std::uint64_t ThreadedSpaceEngine::notify(Template tmpl,
                                          NotifyCallback callback) {
  TB_REQUIRE(callback != nullptr);
  // All-shard acquisition, not just cross_mu_: creating cross-shard state
  // must not race an in-flight fast-path publish that already read
  // cross_count_ == 0.
  barrier_acquire();
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    ticket = next_ticket();
    notifies_.emplace(ticket, NotifyReg{tmpl, std::move(callback)});
    cross_count_.fetch_add(1);
    if (log_ != nullptr) {
      OpRecord rec;
      rec.ticket = ticket;
      rec.kind = Kind::kNotifyReg;
      rec.tmpl = std::move(tmpl);
      log_->append(rec);
    }
  }
  barrier_release();
  return ticket;
}

bool ThreadedSpaceEngine::cancel_notify(std::uint64_t registration) {
  // Removal needs no shard acquisition: the ticket is drawn before the
  // count decrement, so a publisher fast-pathing on the lowered count is
  // ordered after the cancellation — it correctly skips the dead
  // registration.
  std::lock_guard<std::mutex> cl(cross_mu_);
  const std::uint64_t ticket = next_ticket();
  const auto it = notifies_.find(registration);
  const bool ok = it != notifies_.end();
  if (ok) {
    notifies_.erase(it);
    cross_count_.fetch_sub(1);
  }
  if (log_ != nullptr) {
    OpRecord rec;
    rec.ticket = ticket;
    rec.kind = Kind::kNotifyCancel;
    rec.target = registration;
    rec.ok = ok;
    log_->append(rec);
  }
  return ok;
}

void ThreadedSpaceEngine::set_completion_bridge(sim::RealtimeBridge* bridge) {
  bridge_ = bridge;
}

// --- leases -----------------------------------------------------------------

std::optional<Lease> ThreadedSpaceEngine::renew(std::uint64_t tuple_id,
                                                sim::Time extension) {
  TB_REQUIRE(extension > sim::Time::zero());
  // All shards: ids do not encode their shard, and only an atomic search
  // across all of them gives the recorded hit/miss one exact linearization
  // ticket (see the header comment for the probe-protocol pitfall).
  barrier_acquire();
  const std::uint64_t ticket = next_ticket();
  std::optional<Lease> out;
  if (const EntryRef found = find_by_id(stores_, tuple_id)) {
    Shard& sh = shard(found.shard);
    ShardStore::Entry& entry = found.it->second;
    sh.wheel.cancel(entry.expiry_timer);
    entry.expires_at = extension == kLeaseForever
                           ? sim::Time::max()
                           : sim::Time::ns(steady_now_ns()) + extension;
    entry.expiry_timer = arm_lease(sh, entry.expires_at, tuple_id);
    ++barrier_stats_.renewals;
    out = Lease{tuple_id, entry.expires_at};
  }
  if (log_ != nullptr) {
    OpRecord rec;
    rec.ticket = ticket;
    rec.kind = Kind::kRenew;
    rec.target = tuple_id;
    rec.ok = out.has_value();
    log_->append(rec);
  }
  barrier_release();
  return out;
}

bool ThreadedSpaceEngine::cancel(std::uint64_t tuple_id) {
  barrier_acquire();
  const std::uint64_t ticket = next_ticket();
  const EntryRef found = find_by_id(stores_, tuple_id);
  const bool ok = static_cast<bool>(found);
  if (ok) {
    erase_entry(found);
    ++barrier_stats_.cancellations;
  }
  if (log_ != nullptr) {
    OpRecord rec;
    rec.ticket = ticket;
    rec.kind = Kind::kCancelLease;
    rec.target = tuple_id;
    rec.ok = ok;
    log_->append(rec);
  }
  barrier_release();
  return ok;
}

// --- introspection ----------------------------------------------------------

std::vector<Tuple> ThreadedSpaceEngine::snapshot() {
  barrier_acquire();
  const std::uint64_t ticket = next_ticket();
  std::vector<Tuple> out;
  out.reserve(entry_count_.load(std::memory_order_relaxed));
  merge_by_id(stores_, [&out](int, ShardStore::iterator it) {
    out.push_back(it->second.tuple);
    return true;
  });
  if (log_ != nullptr) {
    // The cut is itself a linearized op: the replay rebuilds the oracle's
    // space at this ticket and compares cuts, so mid-run consistency is
    // checked, not just the final state.
    OpRecord rec;
    rec.ticket = ticket;
    rec.kind = Kind::kSnapshot;
    rec.results = out;
    log_->append(rec);
  }
  barrier_release();
  return out;
}

ThreadedSpaceEngine::Stats ThreadedSpaceEngine::stats() {
  barrier_acquire();
  Stats total = barrier_stats_;
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    accumulate(total, cross_stats_);
  }
  for (auto& sh : shards_) accumulate(total, sh->stats);
  total.peak_size = peak_size_.load(std::memory_order_relaxed);
  total.peak_blocked = peak_blocked_.load(std::memory_order_relaxed);
  barrier_release();
  return total;
}

void ThreadedSpaceEngine::note_peak_size() {
  const std::size_t cur = entry_count_.load(std::memory_order_relaxed);
  std::size_t prev = peak_size_.load(std::memory_order_relaxed);
  while (cur > prev &&
         !peak_size_.compare_exchange_weak(prev, cur,
                                           std::memory_order_relaxed)) {
  }
}

void ThreadedSpaceEngine::note_peak_blocked() {
  const std::size_t cur = blocked_count_.load(std::memory_order_relaxed);
  std::size_t prev = peak_blocked_.load(std::memory_order_relaxed);
  while (cur > prev &&
         !peak_blocked_.compare_exchange_weak(prev, cur,
                                              std::memory_order_relaxed)) {
  }
}

void ThreadedSpaceEngine::bind_metrics(obs::Registry& registry,
                                       const std::string& prefix) {
  std::vector<obs::Counter*> applied(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    applied[s] = &registry.counter(prefix + ".shard" + std::to_string(s) +
                                   ".ops_applied");
  }
  obs::Gauge& size = registry.gauge(prefix + ".size");
  obs::Gauge& blocked = registry.gauge(prefix + ".blocked");
  obs::Counter& barriers = registry.counter(prefix + ".barriers");
  obs::Counter& cross_serves =
      registry.counter(prefix + ".cross_queue_serves");

  // Everything the collector touches is an atomic, so a metrics snapshot
  // never contends with an op — no shard lock, no cross_mu_.
  registry.add_collector([this, &size, &blocked, &barriers, &cross_serves,
                          applied = std::move(applied)] {
    size.set(static_cast<double>(entry_count_.load(std::memory_order_relaxed)));
    blocked.set(
        static_cast<double>(blocked_count_.load(std::memory_order_relaxed)));
    barriers.set(barriers_.load(std::memory_order_relaxed));
    cross_serves.set(cross_serves_.load(std::memory_order_relaxed));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      applied[s]->set(shards_[s]->ops_applied.load(std::memory_order_relaxed));
    }
  });
}

// --- shutdown ---------------------------------------------------------------

void ThreadedSpaceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (auto& sh : shards_) {
    {
      std::lock_guard<std::mutex> lk(sh->mu);
      sh->stop = true;
    }
    sh->reaper_cv.notify_all();
  }
  for (auto& sh : shards_) {
    if (sh->reaper.joinable()) sh->reaper.join();
  }
  // Complete every parked blocking op with nullopt, logged exactly like a
  // timeout so the oracle replay cancels them at the same instant. Every
  // shard lock and cross_mu_ are held, the locks a timeout leg removes its
  // waiter under: a take timing out while shutdown runs either removes its
  // waiter first or finds it already completed here, never both.
  auto cancel_all = [this](std::list<Waiter>& queue, Stats& stats) {
    for (Waiter& waiter : queue) {
      ++stats.misses;
      cancel_waiter_record(waiter, next_ticket());
      blocked_count_.fetch_sub(1, std::memory_order_relaxed);
      waiter.slot->fill(std::nullopt);
    }
    queue.clear();
  };
  barrier_acquire();
  {
    std::lock_guard<std::mutex> cl(cross_mu_);
    for (auto& sh : shards_) cancel_all(sh->waiters, sh->stats);
    cross_count_.fetch_sub(wildcard_waiters_.size());
    cancel_all(wildcard_waiters_, cross_stats_);
  }
  barrier_release();
}

}  // namespace tb::space
