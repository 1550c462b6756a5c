#include "src/space/shard_store.hpp"

#include "src/space/engine.hpp"
#include "src/util/assert.hpp"

namespace tb::space {

ShardStore::ShardStore(const SpaceConfig& config)
    : use_type_index_(config.use_type_index) {}

ShardStore::iterator ShardStore::find(const Template& tmpl, std::uint64_t key,
                                      sim::Time now, std::uint64_t& scan_steps,
                                      std::uint64_t after) {
  if (use_type_index_) {
    const auto bucket = index_.find(key);
    if (bucket == index_.end()) return entries_.end();
    const std::set<std::uint64_t>& ids = bucket->second;
    for (auto id = after == 0 ? ids.begin() : ids.upper_bound(after);
         id != ids.end(); ++id) {
      const auto it = entries_.find(*id);
      TB_ASSERT(it != entries_.end());
      ++scan_steps;
      if (!it->second.visible(now)) continue;
      if (tmpl.matches(it->second.tuple)) return it;
    }
    return entries_.end();
  }
  // Linear scan: still short-circuits on the cached (name, arity) key
  // before the field-by-field match.
  for (auto it = after == 0 ? entries_.begin() : entries_.upper_bound(after);
       it != entries_.end(); ++it) {
    ++scan_steps;
    if (!it->second.visible(now)) continue;
    if (it->second.type_key != key) continue;
    if (tmpl.matches(it->second.tuple)) return it;
  }
  return entries_.end();
}

ShardStore::iterator ShardStore::insert(std::uint64_t id, std::uint64_t key,
                                        Tuple tuple, sim::Time expires_at,
                                        sim::TimerWheel::TimerId timer) {
  Entry entry;
  entry.expires_at = expires_at;
  entry.expiry_timer = timer;
  entry.type_key = key;
  entry.byte_size = tuple.byte_size();
  entry.tuple = std::move(tuple);
  if (use_type_index_) index_[key].insert(id);
  stored_bytes_ += entry.byte_size;
  return entries_.emplace_hint(entries_.end(), id, std::move(entry));
}

sim::TimerWheel::TimerId ShardStore::erase(iterator it) {
  if (use_type_index_) {
    // The cached key keeps this valid after a take moved the tuple out.
    const auto bucket = index_.find(it->second.type_key);
    TB_ASSERT(bucket != index_.end());
    bucket->second.erase(it->first);
  }
  stored_bytes_ -= it->second.byte_size;
  const sim::TimerWheel::TimerId timer = it->second.expiry_timer;
  entries_.erase(it);
  return timer;
}

EntryRef find_oldest(Stores stores, const Template& tmpl, sim::Time now,
                     std::uint64_t& scan_steps) {
  if (tmpl.name.has_value()) {
    // Every tuple of this (name, arity) shape lives on one shard.
    const std::uint64_t key = type_key(*tmpl.name, tmpl.arity());
    const int shard = shard_index(key, stores.size());
    ShardStore& store = *stores[static_cast<std::size_t>(shard)];
    const auto it = store.find(tmpl, key, now, scan_steps);
    if (it == store.end()) return {};
    return {shard, it};
  }
  EntryRef found;
  merge_by_id(stores, [&](int shard, ShardStore::iterator it) {
    ++scan_steps;
    if (!it->second.visible(now) || !tmpl.matches(it->second.tuple)) {
      return true;
    }
    found = {shard, it};
    return false;
  });
  return found;
}

std::vector<EntryRef> find_all(Stores stores, const Template& tmpl,
                               sim::Time now, std::size_t max,
                               std::uint64_t& scan_steps) {
  std::vector<EntryRef> out;
  if (max == 0) return out;
  if (tmpl.name.has_value()) {
    const std::uint64_t key = type_key(*tmpl.name, tmpl.arity());
    const int shard = shard_index(key, stores.size());
    ShardStore& store = *stores[static_cast<std::size_t>(shard)];
    for (std::uint64_t after = 0; out.size() < max;) {
      const auto it = store.find(tmpl, key, now, scan_steps, after);
      if (it == store.end()) break;
      out.push_back({shard, it});
      after = it->first;
    }
    return out;
  }
  merge_by_id(stores, [&](int shard, ShardStore::iterator it) {
    ++scan_steps;
    if (it->second.visible(now) && tmpl.matches(it->second.tuple)) {
      out.push_back({shard, it});
    }
    return out.size() < max;
  });
  return out;
}

EntryRef find_by_id(Stores stores, std::uint64_t id) {
  for (std::size_t s = 0; s < stores.size(); ++s) {
    const auto it = stores[s]->find_id(id);
    if (it != stores[s]->end()) return {static_cast<int>(s), it};
  }
  return {};
}

std::optional<Tuple> TxnView::match_own(const Template& tmpl, sim::Time now,
                                        bool take) {
  for (auto pending = writes.begin(); pending != writes.end(); ++pending) {
    if (pending->expires_at <= now || !tmpl.matches(pending->tuple)) continue;
    if (!take) return pending->tuple;
    Tuple result = std::move(pending->tuple);
    writes.erase(pending);
    return result;
  }
  return std::nullopt;
}

}  // namespace tb::space
