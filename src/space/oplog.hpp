// Operation-log record/replay — the differential oracle harness
// (DESIGN.md §11).
//
// The threaded runtime (threaded.hpp) records every engine operation into an
// OpLog at its linearization point: the instant the op's effect becomes
// visible, stamped with a globally unique, monotonically allocated ticket.
// Replaying the records in ticket order through the single-threaded
// deterministic SpaceEngine must reproduce every per-op result and the same
// final space state — any divergence is a concurrency bug in the threaded
// engine (lost wakeup, mis-ordered wildcard merge, racy waiter claim, ...).
//
// The replay clock is the ticket itself: record k executes at sim time
// Time::ns(k). Blocked operations that timed out carry the ticket their
// cancellation consumed, so the replay registers them with exactly the
// timeout that fires at that instant — a write that *should* have served the
// waiter before it timed out then shows up as a result mismatch.
//
// Finite leases replay the same way (expiry-at-ticket): the threaded
// runtime logs a kLeaseExpire record at the ticket drawn under the shard
// lock when the entry was reclaimed — visibility in threaded mode is
// presence, no deadline checks. A replay pre-pass walks the records in
// ticket order and rewrites every arming (write or successful renew) to
// the duration ns(expiry_ticket - arming_ticket), so the oracle's wheel
// reclaims the entry at exactly the recorded linearization point; armings
// with no matching expiry (taken, cancelled, renewed away, or still live
// at the end) replay as forever.
//
// Every later scaling PR (federation, leases, notify fan-out) regresses
// against this harness: record in the new runtime, replay through the
// oracle, assert equivalence.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/space/engine.hpp"
#include "src/space/tuple.hpp"

namespace tb::space {

struct OpRecord {
  enum class Kind : std::uint8_t {
    kWrite,         ///< tuple (+txn when provisional)
    kReadIfExists,  ///< tmpl (+txn); result
    kTakeIfExists,  ///< tmpl (+txn); result
    kReadAll,       ///< tmpl, max; results
    kTakeAll,       ///< tmpl, max; results
    kBlockingRead,  ///< tmpl; ticket = registration point
    kBlockingTake,  ///< tmpl; ticket = registration point
    kBeginTxn,      ///< ticket doubles as the transaction id
    kCommit,        ///< txn; ok
    kAbort,         ///< txn; ok
    kNotifyReg,     ///< tmpl; ticket doubles as the registration id
    kNotifyCancel,  ///< target = registration ticket; ok
    kRenew,         ///< target = entry write ticket; ok = entry was live
    kCancelLease,   ///< target = entry write ticket; ok = entry was live
    kLeaseExpire,   ///< target = entry write ticket; drawn when the shard
                    ///< worker reclaims the entry (expiry-at-ticket)
    kSnapshot,      ///< results = the consistent cut snapshot() returned;
                    ///< replay checks the oracle's cut at the same ticket
  };

  std::uint64_t ticket = 0;  ///< linearization point; unique, total order
  Kind kind = Kind::kWrite;
  std::uint64_t txn = 0;     ///< owning transaction ticket; kNoTxn = none
  std::uint64_t target = 0;  ///< kNotifyCancel: registration being cancelled
  /// Blocked ops only: the ticket consumed when the waiter was cancelled
  /// (timeout or shutdown). 0 = completed at its own ticket (immediate
  /// result) or served by a later publish.
  std::uint64_t cancel_ticket = 0;
  bool timed_out = false;  ///< blocked op completed with no match
  bool ok = false;         ///< kCommit / kAbort / kNotifyCancel result
  std::size_t max = 0;     ///< kReadAll / kTakeAll bound
  Tuple tuple;             ///< kWrite argument
  Template tmpl;           ///< match-op argument
  std::optional<Tuple> result;  ///< single-match result
  std::vector<Tuple> results;   ///< bulk results, oldest first
};

/// Thread-safe append-only record of engine operations. Appends may arrive
/// in any wall-clock order; sorted() restores the linearization order.
class OpLog {
 public:
  void append(OpRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  /// All records, ascending by ticket.
  std::vector<OpRecord> sorted() const;

 private:
  mutable std::mutex mu_;
  std::vector<OpRecord> records_;
};

struct ReplayReport {
  bool equivalent = true;
  /// First divergence, human-readable; empty when equivalent.
  std::string divergence;
  std::size_t ops_replayed = 0;
  /// Oracle-side notification deliveries per registration ticket.
  std::map<std::uint64_t, std::uint64_t> notify_deliveries;
  /// Oracle stats after the replay (notification totals, op counts).
  SpaceEngine::Stats oracle_stats;
};

/// Replays `log` in ticket order through a fresh deterministic SpaceEngine
/// and checks every recorded per-op result plus the final space state
/// against `final_state` (the threaded engine's post-run snapshot()).
/// `config` should match the recorded run's shard_count / use_type_index;
/// execution_mode is forced to kDeterministic.
ReplayReport replay_against_oracle(const OpLog& log, SpaceConfig config,
                                   const std::vector<Tuple>& final_state);

}  // namespace tb::space
