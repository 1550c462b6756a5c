// A deliberately naive reference tuplespace — the semantic oracle that
// shares no code with the store it checks.
//
// The engines' ShardStore keeps id-ordered maps, a (name, arity) index and
// a cross-shard merge; this keeps one vector of (id, tuple) in write order
// and scans it from the front, which is the paper's matching rule stated
// directly: "the timestamp on each tuple determines a total order
// relation", so the oldest matching tuple wins. It uses only Tuple,
// Template and Template::matches — no ShardStore, index, type_key or merge
// code — so a bug in the shared store cannot hide by agreeing with itself.
//
// Supported: write, read/take if-exists, read_all/take_all, and removal by
// id (lease cancellation and expiry). No blocking ops, transactions,
// notify or lease clocks: a caller that needs expiry removes the entry by
// id at the moment it expires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/space/tuple.hpp"

namespace tb::space {

class NaiveSpace {
 public:
  /// Stores `tuple` under `id`. Ids must increase from write to write: the
  /// vector's order is then the total order.
  void write(std::uint64_t id, Tuple tuple) {
    if (!entries_.empty() && id <= entries_.back().first) {
      throw std::invalid_argument("NaiveSpace: ids must increase");
    }
    entries_.emplace_back(id, std::move(tuple));
  }

  std::optional<Tuple> read_if_exists(const Template& tmpl) const {
    const std::size_t i = oldest(tmpl);
    if (i == entries_.size()) return std::nullopt;
    return entries_[i].second;
  }

  std::optional<Tuple> take_if_exists(const Template& tmpl) {
    const std::size_t i = oldest(tmpl);
    if (i == entries_.size()) return std::nullopt;
    Tuple tuple = std::move(entries_[i].second);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return tuple;
  }

  std::vector<Tuple> read_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX) const {
    std::vector<Tuple> out;
    for (const auto& [id, tuple] : entries_) {
      if (out.size() >= max) break;
      if (tmpl.matches(tuple)) out.push_back(tuple);
    }
    return out;
  }

  std::vector<Tuple> take_all(const Template& tmpl,
                              std::size_t max = SIZE_MAX) {
    std::vector<Tuple> out;
    std::vector<std::pair<std::uint64_t, Tuple>> kept;
    for (auto& entry : entries_) {
      if (out.size() < max && tmpl.matches(entry.second)) {
        out.push_back(std::move(entry.second));
      } else {
        kept.push_back(std::move(entry));
      }
    }
    entries_ = std::move(kept);
    return out;
  }

  /// Removes the tuple stored under `id` — a lease cancellation or
  /// expiry. False when it is already gone.
  bool cancel(std::uint64_t id) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first != id) continue;
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
    return false;
  }

  bool contains(std::uint64_t id) const {
    for (const auto& entry : entries_) {
      if (entry.first == id) return true;
    }
    return false;
  }

  /// Every stored tuple, oldest first.
  std::vector<Tuple> snapshot() const {
    std::vector<Tuple> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.push_back(entry.second);
    return out;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  /// Index of the oldest tuple matching `tmpl`; size() when none.
  std::size_t oldest(const Template& tmpl) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (tmpl.matches(entries_[i].second)) return i;
    }
    return entries_.size();
  }

  std::vector<std::pair<std::uint64_t, Tuple>> entries_;  ///< write order
};

}  // namespace tb::space
