// Real-thread concurrent tuplespace runtime (DESIGN.md §11, hot path §15).
//
// Shard state (its ShardStore — the same store the deterministic engine
// drives, shard_store.hpp — plus the named-waiter queue, stats and timer
// wheel) is guarded by one std::mutex per shard, and every operation runs
// on the calling thread. A named operation takes its shard's mutex through
// lock_shard() — a short try_lock + yield spin, then a blocking lock — and
// applies in full under it: due lease timers, ticket, match or store, op-log
// record. Each shard keeps one thread, its lease reaper, which sleeps on the
// shard's condition variable until the wheel's next deadline.
//
// Wildcard operations, transaction resolution, snapshots and notify
// registration take barrier_mu_ and then every shard mutex in index order
// (the sequence point), and the coordinator merges across the shards in id
// order, the same oldest-first total order the deterministic engine
// guarantees. Blocking read/take park the calling thread on a per-call slot
// until a publish fills it or the timeout removes the waiter.
//
// Linearization contract (the differential-oracle hook, oplog.hpp): every
// operation consumes one ticket from a global atomic counter *inside* its
// critical section — while holding the shard mutex (named ops), every shard
// mutex (wildcard/registration ops), or cross_mu_ (interacting publishes) —
// and tuple / waiter / registration ids are the tickets themselves, so
// ticket order is exactly the oldest-first total order and replaying the op
// log in ticket order through the deterministic SpaceEngine must reproduce
// every result. Operations that skip cross_mu_ (the common named fast path)
// provably commute with everything they raced; registrations that *create*
// cross-shard state run under the all-shard acquisition so no in-flight
// publish can miss them. snapshot() draws its own ticket and logs the merged
// cut (kSnapshot), so the replay verifies mid-run consistency, not just the
// final state.
//
// Finite leases (DESIGN.md §12): each shard owns a hierarchical timer
// wheel keyed in engine-relative steady-clock nanoseconds, serviced at the
// start of every named op on the shard and by the shard's reaper when no op
// comes. The reclamation draws its own linearization ticket, logged as
// kLeaseExpire. Visibility is presence: lookups pass the store the
// kAllVisible cutoff, because an entry is exactly as visible as its
// not-yet-reclaimed state — which is what the replay pre-pass reproduces in
// the oracle (expiry-at-ticket, oplog.hpp). Renew/cancel-by-id are
// all-shard ops: ids do not encode their shard, and a probe-per-shard
// protocol could falsely linearize a miss (an abort can restore a held
// entry on an already-probed shard before the final probe's ticket).
//
// Remaining intentional restrictions (TB_REQUIRE-guarded): transactional
// writes keep forever leases (commit publication would need to re-arm
// mid-coordination), transactions have no deadline, and notify
// registrations do not expire. The deterministic engine remains the
// full-semantics oracle.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/space/engine.hpp"
#include "src/space/oplog.hpp"
#include "src/space/shard_store.hpp"
#include "src/space/tuple.hpp"

namespace tb::sim {
class RealtimeBridge;
}
namespace tb::obs {
class Registry;
}

namespace tb::space {

class ThreadedSpaceEngine {
 public:
  using NotifyCallback = std::function<void(const Tuple&)>;
  using Stats = SpaceEngine::Stats;

  /// Blocking read/take timeout meaning "wait indefinitely".
  static constexpr std::chrono::nanoseconds kBlockForever =
      std::chrono::nanoseconds::max();

  /// `config.execution_mode` must be kThreaded. When `log` is non-null,
  /// every operation is recorded at its linearization point for the
  /// differential replay (oplog.hpp). The log must outlive the engine.
  explicit ThreadedSpaceEngine(SpaceConfig config, OpLog* log = nullptr);
  ~ThreadedSpaceEngine();

  ThreadedSpaceEngine(const ThreadedSpaceEngine&) = delete;
  ThreadedSpaceEngine& operator=(const ThreadedSpaceEngine&) = delete;

  // --- write ---------------------------------------------------------------

  /// Stores a tuple (forever lease). Under a transaction the write stays
  /// provisional until commit. Callable from any thread.
  Lease write(Tuple tuple, std::uint64_t txn = kNoTxn);

  /// Stores a tuple for `lease_duration` (kLeaseForever = no expiry); the
  /// deadline counts from the write's linearization point. Transactional
  /// writes must use kLeaseForever. The returned Lease's expires_at is in
  /// engine-relative steady-clock ns (sim::Time::max() = forever).
  Lease write(Tuple tuple, sim::Time lease_duration, std::uint64_t txn);

  // --- non-blocking match --------------------------------------------------

  std::optional<Tuple> read_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn);
  std::optional<Tuple> take_if_exists(const Template& tmpl,
                                      std::uint64_t txn = kNoTxn);

  // --- bulk ----------------------------------------------------------------

  std::vector<Tuple> read_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX);
  std::vector<Tuple> take_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX);

  // --- blocking match (parks the calling thread) ---------------------------

  /// Completes with a match now or when one is written before `timeout`
  /// (wall clock, counted from call entry — waiting for the shard locks
  /// spends the budget) elapses; nullopt on timeout or engine shutdown.
  std::optional<Tuple> read(const Template& tmpl,
                            std::chrono::nanoseconds timeout = kBlockForever);
  std::optional<Tuple> take(const Template& tmpl,
                            std::chrono::nanoseconds timeout = kBlockForever);

  // --- transactions --------------------------------------------------------

  /// Opens a transaction (no deadline in threaded mode). A transaction is
  /// owned by one client thread: its operations must not race each other.
  std::uint64_t begin_transaction();
  bool commit(std::uint64_t txn);
  bool abort(std::uint64_t txn);

  // --- notify --------------------------------------------------------------

  /// Registers a listener for every matching write (forever lease).
  /// Callbacks run on the thread of the write or commit that matched —
  /// or on the simulation kernel thread when a completion bridge is
  /// installed — and must not call back into this engine.
  std::uint64_t notify(Template tmpl, NotifyCallback callback);
  bool cancel_notify(std::uint64_t registration);

  // --- leases --------------------------------------------------------------

  /// Extends a live tuple's lease to now + extension (kLeaseForever =
  /// never expires). All-shard op — see the header comment. Returns the
  /// updated lease, or nullopt when the tuple is gone (taken, cancelled or
  /// already reclaimed).
  std::optional<Lease> renew(std::uint64_t tuple_id, sim::Time extension);

  /// Cancels the lease, removing the tuple. All-shard op. False when gone.
  bool cancel(std::uint64_t tuple_id);

  /// Routes notify deliveries through a sim::RealtimeBridge so a
  /// RealTimeRunner loop receives them on its kernel thread. Each write or
  /// commit posts its whole delivery batch in one bridge call. Install
  /// before registering listeners; the bridge must outlive the engine.
  void set_completion_bridge(sim::RealtimeBridge* bridge);

  // --- introspection -------------------------------------------------------

  /// Every live committed tuple in ticket (= oldest-first) order. Locks
  /// every shard for a consistent cut; draws a ticket and logs the cut
  /// (kSnapshot) so the replay can verify it.
  std::vector<Tuple> snapshot();

  /// Aggregated per-shard + cross-shard stats. All-shard op.
  Stats stats();

  std::size_t size() const {
    return entry_count_.load(std::memory_order_relaxed);
  }
  std::size_t blocked_operations() const {
    return blocked_count_.load(std::memory_order_relaxed);
  }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  int shard_of(std::uint64_t key) const {
    return shard_index(key, shards_.size());
  }

  /// Stops the reapers, completes every parked blocking op with nullopt
  /// (recorded as shutdown cancellations in the op log) and joins.
  /// Idempotent; called by the destructor. No operation may be issued
  /// concurrently with or after shutdown.
  void shutdown();

  /// Observability (DESIGN.md §7/§11): per-shard applied-op counters plus
  /// engine-level size, blocked, coordination and cross-queue-serve
  /// metrics, all read from atomics so a snapshot never takes a lock.
  void bind_metrics(obs::Registry& registry,
                    const std::string& prefix = "space");

 private:
  /// Where a parked blocking op waits for its result; lives on the
  /// caller's stack. A publisher fills it under the shard lock (or
  /// cross_mu_) and the slot's own mutex, notifying before it unlocks, so
  /// the caller cannot see `done`, return and destroy the slot mid-touch.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::optional<Tuple> result;

    void fill(std::optional<Tuple> value);
    /// True once filled; false when `deadline` passed first.
    bool wait_until(std::chrono::steady_clock::time_point deadline);
  };

  struct Waiter {
    std::uint64_t id = 0;  ///< registration ticket
    Template tmpl;
    bool take = false;
    Slot* slot = nullptr;  ///< the parked caller's slot
  };

  /// Notification deliveries collected under the shard lock; delivered
  /// after the unlock (one bridge post per write or commit).
  using FireBatch = std::vector<std::pair<NotifyCallback, Tuple>>;

  struct Shard {
    explicit Shard(const SpaceConfig& config) : store(config) {}

    /// Guards the fields from store to stop; taken through lock_shard().
    std::mutex mu;
    ShardStore store;
    std::list<Waiter> waiters;
    Stats stats;
    /// Finite-lease timers, payload = entry id, deadlines in
    /// engine-relative steady ns.
    sim::TimerWheel wheel;
    /// The reaper sleeps on reaper_cv until reaper_deadline (steady ns,
    /// INT64_MAX = no timer) or stop; an earlier arm notifies it.
    std::condition_variable reaper_cv;
    std::int64_t reaper_deadline = INT64_MAX;
    bool stop = false;

    /// Exported metric, read from any thread.
    std::atomic<std::uint64_t> ops_applied{0};

    std::thread reaper;
  };

  struct NotifyReg {
    Template tmpl;
    NotifyCallback callback;
  };

  Shard& shard(int shard_idx) {
    return *shards_[static_cast<std::size_t>(shard_idx)];
  }
  int named_shard(const Template& tmpl) const {
    return shard_of(type_key(*tmpl.name, tmpl.arity()));
  }

  /// Reclaims the shard's expired leases whenever no op comes to do it.
  void reaper_loop(int shard_idx);

  // --- locking ------------------------------------------------------------

  /// Locks a shard: kSpinIters try_lock + yield probes, then a blocking
  /// lock.
  static std::unique_lock<std::mutex> lock_shard(Shard& sh);
  /// Locks a shard for a named op: counts the op and reclaims due leases
  /// first, so an overdue expiry draws its ticket ahead of the op.
  std::unique_lock<std::mutex> enter_shard(int shard_idx);
  /// Takes barrier_mu_, then every shard mutex in index order; returns
  /// with exclusive access to all shard state.
  void barrier_acquire();
  void barrier_release();
  /// Runs `op(stats)` with exclusive access to every shard `tmpl` can
  /// match: its own shard for a named template, else all of them.
  template <typename Op>
  auto exclusive(const Template& tmpl, Op&& op);

  // --- shard state (caller holds the lock) ----------------------------------

  Lease apply_write(int shard_idx, Tuple tuple, sim::Time lease,
                    FireBatch* fire);
  /// Serves waiters, then stores the tuple unless a blocked take consumed
  /// it. `cross_locked` = cross_mu_ is held, so the wildcard queue
  /// participates in the registration-order merge. `expires_at` is the
  /// entry's steady-ns expiry (sim::Time::max() = forever).
  void serve_and_store(int shard_idx, std::uint64_t id, Tuple tuple,
                       bool cross_locked, sim::Time expires_at);
  /// Arms the lease timer of entry `id` (none for a forever lease) and
  /// wakes the reaper when it sleeps past the new deadline.
  sim::TimerWheel::TimerId arm_lease(Shard& sh, sim::Time expires_at,
                                     std::uint64_t id);
  /// Reclaims every entry whose wheel deadline has passed, drawing one
  /// ticket per expiry (logged as kLeaseExpire).
  void service_shard_wheel(int shard_idx);
  /// Nanoseconds since the engine's steady-clock epoch.
  std::int64_t steady_now_ns() const;
  /// Oldest stored match; the caller holds the shard(s) it may live on.
  EntryRef find_match(const Template& tmpl, Stats& stats) {
    return find_oldest(stores_, tmpl, kAllVisible, stats.scan_steps);
  }
  /// The if-exists rule once `found` (the oldest committed match) is
  /// known: a take under a transaction holds the entry; a miss falls back
  /// to the transaction's own provisional writes.
  std::optional<Tuple> match_if_exists(EntryRef found, const Template& tmpl,
                                       TxnView* txn, bool take, Stats& stats);
  /// read_all / take_all over the held shard(s), logged at `ticket`.
  std::vector<Tuple> match_all(const Template& tmpl, std::size_t max,
                               bool take, std::uint64_t ticket, Stats& stats);
  void erase_entry(EntryRef ref);
  /// Collects matching notify callbacks (cross_mu_ held); deliver after
  /// the unlock via fire_collected().
  void collect_notifications(const Tuple& tuple, FireBatch* fire);
  /// Delivers an op's collected notifications: one post_batch through
  /// the bridge, or direct invocation. Call with no lock held.
  void fire_collected(FireBatch fire);

  // --- waiters ---------------------------------------------------------------

  /// Logs a blocked-op record completed with `result` (no-op unlogged).
  void log_blocked(std::uint64_t ticket, bool take, const Template& tmpl,
                   const std::optional<Tuple>& result);
  /// Completes a served waiter: logs the blocked-op record and fills the
  /// parked caller's slot.
  void complete_waiter(const Waiter& waiter, Tuple tuple);
  void cancel_waiter_record(const Waiter& waiter, std::uint64_t cancel_ticket);
  /// Timeout leg: removes waiter `ticket` from `queue` (caller holds the
  /// queue's lock) and logs its cancellation under a fresh ticket. False
  /// when a publish or shutdown already completed it.
  bool remove_waiter(std::list<Waiter>& queue, std::uint64_t ticket,
                     Stats& stats);

  std::uint64_t next_ticket() {
    return lin_ticket_.fetch_add(1, std::memory_order_relaxed);
  }
  bool cross_possible() const {
    return cross_count_.load(std::memory_order_acquire) > 0;
  }

  TxnView* find_txn(std::uint64_t txn);

  std::optional<Tuple> blocking_op(const Template& tmpl,
                                   std::chrono::nanoseconds timeout,
                                   bool take);
  std::optional<Tuple> if_exists(const Template& tmpl, std::uint64_t txn,
                                 bool take);
  std::vector<Tuple> bulk(const Template& tmpl, std::size_t max, bool take);
  void note_peak_size();
  void note_peak_blocked();

  SpaceConfig config_;
  OpLog* log_ = nullptr;
  sim::RealtimeBridge* bridge_ = nullptr;
  /// Epoch for lease deadlines: every shard wheel is keyed in ns since
  /// this instant, so deadlines are small positive int64s.
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardStore*> stores_;  ///< &shards_[s]->store, by shard

  /// Global linearization tickets; doubles as the id space for tuples,
  /// waiters, transactions and notify registrations. Starts at 1: 0 marks
  /// "no ticket" (and Lease{0} is invalid).
  std::atomic<std::uint64_t> lin_ticket_{1};

  /// Cross-shard state: wildcard waiters + notify registrations. Guarded
  /// by cross_mu_; cross_count_ is the lock-avoidance hint for publishes
  /// (sound because registrations run under the all-shard acquisition —
  /// see header).
  std::mutex cross_mu_;
  std::list<Waiter> wildcard_waiters_;
  std::map<std::uint64_t, NotifyReg> notifies_;
  std::atomic<std::size_t> cross_count_{0};
  Stats cross_stats_;  ///< cross_mu_-guarded (notifications, wildcard serves)

  /// Serializes all-shard coordinators. Lock order: barrier_mu_ → shard
  /// mutexes (index order) → cross_mu_ / txn_mu_ → a waiter's Slot::mu.
  std::mutex barrier_mu_;
  Stats barrier_stats_;  ///< only touched while all shards are held

  std::mutex txn_mu_;
  std::map<std::uint64_t, std::unique_ptr<TxnView>> txns_;

  std::atomic<std::size_t> entry_count_{0};
  std::atomic<std::size_t> blocked_count_{0};
  std::atomic<std::size_t> peak_size_{0};
  std::atomic<std::size_t> peak_blocked_{0};
  std::atomic<std::uint64_t> barriers_{0};
  std::atomic<std::uint64_t> cross_serves_{0};

  std::mutex shutdown_mu_;
  bool shut_down_ = false;
};

}  // namespace tb::space
