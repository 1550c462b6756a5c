// One shard of the tuple store, shared by both space runtimes
// (DESIGN.md §10, §11): SpaceEngine and ThreadedSpaceEngine are drivers
// over a vector of ShardStores.
//
// The store owns the matching rule the paper fixes — "the timestamp on
// each tuple determines a total order relation". Entry ids are monotonic
// write timestamps, entries sit in an id-ordered map, and every lookup
// returns the oldest visible match. A name-constrained template touches
// one shard (its (name, arity) index bucket, or a type_key-filtered scan
// when SpaceConfig::use_type_index is off); a wildcard template walks all
// shards merged by id (merge_by_id), so the total order survives sharding.
//
// Visibility: each entry keeps its lease deadline, and every lookup takes
// a `now` cutoff — an entry with expires_at <= now is skipped (but still
// counted as a scan step). The deterministic driver passes the simulated
// clock, because its expiry event may lag the deadline; the threaded
// driver passes kAllVisible, because in threaded mode presence is
// visibility (DESIGN.md §12).
//
// What the store does not own: tickets and ids, timer wheels, waiters,
// transactions, notify registrations and Stats. It keeps each entry's
// wheel timer id but never touches a wheel — erase() hands the id back so
// the driver cancels it on whichever wheel armed it.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/time.hpp"
#include "src/sim/timer_wheel.hpp"
#include "src/space/tuple.hpp"

namespace tb::space {

struct SpaceConfig;

/// Lookup cutoff under which every stored entry is visible.
inline constexpr sim::Time kAllVisible = sim::Time::ns(INT64_MIN);

/// Which of `shards` shards a (name, arity) type key routes to.
inline int shard_index(std::uint64_t key, std::size_t shards) {
  return shards == 1 ? 0 : static_cast<int>(key % shards);
}

class ShardStore {
 public:
  struct Entry {
    Tuple tuple;
    sim::Time expires_at = sim::Time::max();  ///< max() = forever
    sim::TimerWheel::TimerId expiry_timer = 0;  ///< 0 = no timer armed
    /// (name, arity) hash, computed once at insert: scans short-circuit on
    /// it and index maintenance never re-hashes the name — which also lets
    /// a take move the tuple out before the entry is erased.
    std::uint64_t type_key = 0;
    std::size_t byte_size = 0;  ///< cached wire-footprint estimate

    bool visible(sim::Time now) const { return expires_at > now; }
  };
  using Map = std::map<std::uint64_t, Entry>;  ///< id = timestamp order
  using iterator = Map::iterator;

  explicit ShardStore(const SpaceConfig& config);

  /// Oldest entry visible at `now`, with id > `after`, matching the
  /// name-constrained `tmpl` whose type key is `key`; end() when none.
  /// Counts one scan step per inspected entry, so resuming after each hit
  /// walks the candidates exactly once.
  iterator find(const Template& tmpl, std::uint64_t key, sim::Time now,
                std::uint64_t& scan_steps, std::uint64_t after = 0);

  /// Stores `tuple` under `id`. Ids normally exceed every stored id (the
  /// end() hint makes that O(1)); an abort or commit restoring an older
  /// id is still correct, just logarithmic.
  iterator insert(std::uint64_t id, std::uint64_t key, Tuple tuple,
                  sim::Time expires_at, sim::TimerWheel::TimerId timer);

  /// Removes the entry (its tuple may already be moved out) and returns
  /// its wheel timer id for the driver to cancel.
  sim::TimerWheel::TimerId erase(iterator it);

  iterator find_id(std::uint64_t id) { return entries_.find(id); }
  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  /// Sum of the stored tuples' byte_size(), maintained incrementally.
  std::size_t stored_bytes() const { return stored_bytes_; }

 private:
  bool use_type_index_;
  Map entries_;
  /// (name, arity) -> ordered ids, maintained when use_type_index_.
  /// Emptied buckets are retained: a hot (write, take, write, ...) shape
  /// would otherwise churn two nodes per cycle, and an empty bucket is
  /// indistinguishable from an absent one to every lookup.
  std::unordered_map<std::uint64_t, std::set<std::uint64_t>> index_;
  std::size_t stored_bytes_ = 0;
};

/// An entry located across shards; shard -1 = not found.
struct EntryRef {
  int shard = -1;
  ShardStore::iterator it{};

  explicit operator bool() const { return shard >= 0; }
};

/// The shards of one engine, indexed by shard number.
using Stores = std::span<ShardStore* const>;

/// Walks every entry of `stores` in ascending id order — one sequence in
/// the total order. `visit(shard, it)` returns false to stop; the shard's
/// cursor has already moved past `it`, so `visit` may erase it.
template <typename Visit>
void merge_by_id(Stores stores, Visit&& visit) {
  std::vector<ShardStore::iterator> cursor;
  cursor.reserve(stores.size());
  for (ShardStore* store : stores) cursor.push_back(store->begin());
  for (;;) {
    int best = -1;
    for (std::size_t s = 0; s < stores.size(); ++s) {
      if (cursor[s] == stores[s]->end()) continue;
      if (best < 0 ||
          cursor[s]->first < cursor[static_cast<std::size_t>(best)]->first) {
        best = static_cast<int>(s);
      }
    }
    if (best < 0) return;
    const auto it = cursor[static_cast<std::size_t>(best)]++;
    if (!visit(best, it)) return;
  }
}

/// Oldest entry visible at `now` matching `tmpl`: a named template routes
/// to its one shard, a wildcard merges all of them. Counts scan steps.
EntryRef find_oldest(Stores stores, const Template& tmpl, sim::Time now,
                     std::uint64_t& scan_steps);

/// Up to `max` visible matches, oldest first, routed like find_oldest.
/// Erasing any of them leaves the others valid.
std::vector<EntryRef> find_all(Stores stores, const Template& tmpl,
                               sim::Time now, std::size_t max,
                               std::uint64_t& scan_steps);

/// The entry stored under `id`, visible or not. Ids do not encode their
/// shard, so this probes each one.
EntryRef find_by_id(Stores stores, std::uint64_t id);

/// Serves blocked operations for a newly published `tuple`. `named` and
/// `wild` are registration-ordered queues (waiter ids are monotonic and
/// waiters append), so a two-pointer merge visits their union oldest
/// registration first — the wakeup order is independent of shard layout.
/// `wild` takes part only when `with_wild`. Each matching waiter is
/// unlinked and handed to `serve(waiter, from_named)`; a take consumes the
/// tuple (`serve` may move it out), so the walk stops there and returns
/// true. Waiter needs `id`, `tmpl` and `take`.
template <typename Waiter, typename Serve>
bool serve_waiters(std::list<Waiter>& named, std::list<Waiter>& wild,
                   bool with_wild, const Tuple& tuple, Serve&& serve) {
  auto n = named.begin();
  auto w = with_wild ? wild.begin() : wild.end();
  while (n != named.end() || w != wild.end()) {
    const bool pick_named =
        w == wild.end() || (n != named.end() && n->id < w->id);
    auto& pos = pick_named ? n : w;
    if (!pos->tmpl.matches(tuple)) {
      ++pos;
      continue;
    }
    Waiter waiter = std::move(*pos);
    pos = (pick_named ? named : wild).erase(pos);
    serve(waiter, pick_named);
    if (waiter.take) return true;
  }
  return false;
}

/// A transaction-private copy of an entry.
struct TxnEntry {
  std::uint64_t id = 0;
  Tuple tuple;
  sim::Time expires_at = sim::Time::max();
};

/// What a transaction keeps apart from the shared store: provisional
/// writes, invisible to everyone else until commit, and the committed
/// entries its takes hold until abort restores them.
struct TxnView {
  std::vector<TxnEntry> writes;
  std::vector<TxnEntry> held;

  /// Keeps a copy of a committed entry a take under this transaction is
  /// about to remove.
  void hold(ShardStore::iterator it) {
    held.push_back(TxnEntry{it->first, it->second.tuple,
                            it->second.expires_at});
  }

  /// The transaction's own view: its oldest provisional write visible at
  /// `now` matching `tmpl`; a take un-writes it. nullopt when none.
  std::optional<Tuple> match_own(const Template& tmpl, sim::Time now,
                                 bool take);
};

}  // namespace tb::space
