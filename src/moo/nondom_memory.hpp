#pragma once

// The paper's medium-term memory M_nondom (§III.B): non-dominated solutions
// collected from past neighborhoods.  When the search stagnates it restarts
// from one of these ("it will attempt to try one of the solutions from this
// memory instead of generating a new neighborhood").
//
// Unlike M_archive this memory is consumable: taking a restart solution
// removes it, so repeated restarts explore different remembered points.

#include <cstddef>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "vrptw/objectives.hpp"

namespace tsmo {

template <typename T>
class NondomMemory {
 public:
  struct Entry {
    Objectives obj;
    T value;
  };

  explicit NondomMemory(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Inserts unless dominated by or identical to a member; evicts members
  /// the candidate dominates; drops the oldest entry when over capacity.
  /// Returns true when the candidate was stored.
  bool try_add(const Objectives& obj, T value) {
    for (const Entry& e : entries_) {
      if (e.obj == obj || dominates(e.obj, obj)) return false;
    }
    std::erase_if(entries_,
                  [&](const Entry& e) { return dominates(obj, e.obj); });
    entries_.push_back(Entry{obj, std::move(value)});
    if (entries_.size() > capacity_) {
      entries_.erase(entries_.begin());  // FIFO aging of the medium memory
    }
    return true;
  }

  /// Removes and returns a uniformly random entry; memory must be
  /// non-empty.
  Entry take_random(Rng& rng) {
    const std::size_t i = rng.below(entries_.size());
    Entry e = std::move(entries_[i]);
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    return e;
  }

  void clear() noexcept { entries_.clear(); }

 private:
  std::size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace tsmo
