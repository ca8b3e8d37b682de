#include "hmis/hypergraph/degree_stats.hpp"

#include <algorithm>
#include <cmath>

#include "hmis/hypergraph/mutable_hypergraph.hpp"
#include "hmis/par/sort.hpp"
#include "hmis/util/check.hpp"
#include "hmis/util/math.hpp"
#include "hmis/util/rng.hpp"

namespace hmis {

namespace {

/// Order-independent-free hash of a sorted vertex subset (order is fixed by
/// sortedness, so a sequential mix is fine).
std::uint64_t hash_subset(const VertexId* verts, const std::uint32_t* idx,
                          std::size_t k) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ k;
  for (std::size_t i = 0; i < k; ++i) {
    h = util::mix64(h ^ util::splitmix64(verts[idx[i]] + 0x9e3779b9ULL));
  }
  return h;
}

std::uint64_t hash_subset_direct(std::span<const VertexId> verts) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ verts.size();
  for (const VertexId v : verts) {
    h = util::mix64(h ^ util::splitmix64(v + 0x9e3779b9ULL));
  }
  return h;
}

// Packed emission: [hash-high-48 | |x| (8 bits) | edge size s (8 bits)].
// Equal keys are the same (x, s) pair; their multiplicity is |N_{s-|x|}(x)|.
std::uint64_t pack(std::uint64_t h, std::size_t xs, std::size_t s) {
  return (h & ~0xFFFFULL) | (static_cast<std::uint64_t>(xs & 0xFF) << 8) |
         static_cast<std::uint64_t>(s & 0xFF);
}

/// Call f(key) for every key the sorted edge {verts, s} emits: each
/// non-empty proper subset when `subsets`, else each singleton.  Edges of
/// size < 2 contribute no (x, j >= 1) pair.
template <typename F>
void for_each_key(const VertexId* verts, std::size_t s, bool subsets, F&& f) {
  if (s < 2) return;
  if (!subsets) {
    for (std::size_t i = 0; i < s; ++i) {
      f(pack(hash_subset_direct(std::span<const VertexId>(verts + i, 1)), 1,
             s));
    }
    return;
  }
  std::uint32_t idx[32];
  const std::uint32_t full = (1u << s) - 1;
  for (std::uint32_t mask = 1; mask < full; ++mask) {
    std::size_t k = 0;
    std::uint32_t mm = mask;
    while (mm != 0) {
      idx[k++] = static_cast<std::uint32_t>(__builtin_ctz(mm));
      mm &= mm - 1;
    }
    f(pack(hash_subset(verts, idx, k), k, s));
  }
}

/// The (|e|, j = |e| − |x|) level a key counts toward, as packed.
std::size_t key_size(std::uint64_t key) { return key & 0xFF; }
std::size_t key_subset_size(std::uint64_t key) { return (key >> 8) & 0xFF; }

/// Fold one (x, s) count into the stats, as both entry points do.
void note_count(DegreeStats& stats, std::uint64_t key, std::uint64_t count) {
  const std::size_t s = key_size(key);
  const std::size_t j = s - key_subset_size(key);
  HMIS_CHECK(j >= 1 && s <= stats.dimension, "corrupt degree-stats key");
  stats.delta_i[s] = std::max(stats.delta_i[s], normalized_degree(count, j));
  stats.max_count = std::max(stats.max_count, count);
}

void finish_delta(DegreeStats& stats) {
  for (std::size_t s = 2; s <= stats.dimension; ++s) {
    stats.delta = std::max(stats.delta, stats.delta_i[s]);
  }
}

}  // namespace

double normalized_degree(std::uint64_t count, std::size_t j) {
  if (count == 0) return 0.0;
  if (j == 0) return static_cast<double>(count);
  return std::pow(static_cast<double>(count), 1.0 / static_cast<double>(j));
}

DegreeStats compute_degree_stats(std::span<const VertexList> edges,
                                 const DegreeStatsOptions& opt) {
  DegreeStats stats;
  for (const auto& e : edges) {
    stats.dimension = std::max(stats.dimension, e.size());
  }
  stats.delta_i.assign(stats.dimension + 1, 0.0);
  if (edges.empty()) return stats;

  // Decide enumeration mode.
  std::uint64_t emissions = 0;
  bool exact = true;
  for (const auto& e : edges) {
    if (e.size() > opt.max_enum_edge_size) {
      exact = false;
      emissions += e.size();
    } else {
      emissions += (1ULL << e.size()) - 2;
    }
    if (emissions > opt.enum_budget) {
      exact = false;
      break;
    }
  }
  if (!exact) {
    emissions = 0;
    for (const auto& e : edges) emissions += e.size();
  }
  stats.exact = exact;

  std::vector<std::uint64_t> keys;
  keys.reserve(emissions);
  for (const auto& e : edges) {
    for_each_key(e.data(), e.size(), exact,
                 [&](std::uint64_t key) { keys.push_back(key); });
  }

  par::parallel_sort(keys);

  // Run-length pass: identical keys = same (x, |e|) pair.
  std::size_t i = 0;
  while (i < keys.size()) {
    std::size_t run = i + 1;
    while (run < keys.size() && keys[run] == keys[i]) ++run;
    note_count(stats, keys[i], run - i);
    i = run;
  }
  finish_delta(stats);
  return stats;
}

// ---- DegreeTracker -------------------------------------------------------

void DegreeTracker::reset(const DegreeStatsOptions& opt) {
  opt_ = opt;
  graph_ = nullptr;
}

const DegreeStats& DegreeTracker::sync(const MutableHypergraph& mh) {
  const Hypergraph& g = mh.original();
  const std::size_t m = g.num_edges();
  const auto live_size = [&](EdgeId e) -> std::uint32_t {
    return mh.edge_live(e) ? static_cast<std::uint32_t>(mh.edge_size(e)) : 0;
  };
  const auto copy_members = [&](EdgeId e) {
    const auto verts = mh.edge(e);
    std::copy(verts.begin(), verts.end(),
              acc_members_.begin() +
                  static_cast<std::ptrdiff_t>(g.edge_offsets()[e]));
  };

  if (graph_ != &g) {
    // First sync since reset(): account every live edge.
    graph_ = &g;
    acc_size_.assign(m, 0);
    acc_members_.resize(g.total_edge_size());
    size_hist_.assign(g.dimension() + 1, 0);
    max_size_ = 0;
    enum_total_ = 0;
    oversize_ = 0;
    for (EdgeId e = 0; e < m; ++e) {
      acc_size_[e] = live_size(e);
      if (acc_size_[e] == 0) continue;
      note_size(acc_size_[e], +1);
      copy_members(e);
    }
    exact_ = oversize_ == 0 && enum_total_ <= opt_.enum_budget;
    rebuild();
  } else {
    // Edges only shrink or die, so a size mismatch is the whole diff.
    changed_.clear();
    for (EdgeId e = 0; e < m; ++e) {
      if (acc_size_[e] != live_size(e)) changed_.push_back(e);
    }
    for (const EdgeId e : changed_) {
      note_size(acc_size_[e], -1);
      note_size(live_size(e), +1);
    }
    const bool exact = oversize_ == 0 && enum_total_ <= opt_.enum_budget;
    if (exact != exact_) {
      // The singleton -> exact switch (at most once per graph): every key
      // changes, so re-account the whole residual.
      for (const EdgeId e : changed_) {
        acc_size_[e] = live_size(e);
        copy_members(e);
      }
      exact_ = exact;
      rebuild();
    } else {
      for (const EdgeId e : changed_) {
        const std::size_t off = g.edge_offsets()[e];
        account(acc_members_.data() + off, acc_size_[e], -1);
        acc_size_[e] = live_size(e);
        if (acc_size_[e] == 0) continue;
        copy_members(e);
        account(acc_members_.data() + off, acc_size_[e], +1);
      }
    }
  }
  assemble_stats();
  return stats_;
}

void DegreeTracker::note_size(std::size_t s, int delta) {
  if (s == 0) return;
  const std::uint64_t emissions =
      s <= opt_.max_enum_edge_size ? (1ULL << s) - 2 : 0;
  if (delta > 0) {
    ++size_hist_[s];
    enum_total_ += emissions;
    if (s > opt_.max_enum_edge_size) ++oversize_;
    max_size_ = std::max(max_size_, s);
    return;
  }
  --size_hist_[s];
  enum_total_ -= emissions;
  if (s > opt_.max_enum_edge_size) --oversize_;
  while (max_size_ > 0 && size_hist_[max_size_] == 0) --max_size_;
}

void DegreeTracker::rebuild() {
  std::fill(keys_.begin(), keys_.end(), 0);
  used_ = 0;
  if (keys_.empty()) {
    keys_.assign(1024, 0);
    counts_.assign(1024, 0);
    shift_ = 64 - 10;
  }
  for (const std::uint32_t l : used_levels_) {
    levels_[l].hist.clear();
    levels_[l].max = 0;
    levels_[l].listed = false;
  }
  used_levels_.clear();
  // Packed sizes are taken mod 256, and sizes only shrink from here on.
  level_dim_ = std::min<std::size_t>(256, max_size_ + 1);
  if (levels_.size() < level_dim_ * level_dim_) {
    levels_.resize(level_dim_ * level_dim_);
  }
  const auto offsets = graph_->edge_offsets();
  for (std::size_t e = 0; e < acc_size_.size(); ++e) {
    if (acc_size_[e] != 0) {
      account(acc_members_.data() + offsets[e], acc_size_[e], +1);
    }
  }
}

void DegreeTracker::account(const VertexId* verts, std::size_t s, int delta) {
  for_each_key(verts, s, exact_,
               [&](std::uint64_t key) { bump(key, delta); });
}

void DegreeTracker::bump(std::uint64_t key, int delta) {
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
  while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & mask;
  const std::size_t l = key_size(key) * level_dim_ + key_subset_size(key);
  Level& level = levels_[l];
  if (delta > 0) {
    if (keys_[i] == 0) {
      keys_[i] = key;
      counts_[i] = 0;
      ++used_;
      if (!level.listed) {
        level.listed = true;
        used_levels_.push_back(static_cast<std::uint32_t>(l));
      }
    }
    const std::uint32_t c = ++counts_[i];
    if (level.hist.size() <= c) level.hist.resize(c + 1, 0);
    if (c > 1) --level.hist[c - 1];
    ++level.hist[c];
    level.max = std::max(level.max, c);
    if (used_ * 10 > keys_.size() * 7) grow();
    return;
  }
  HMIS_CHECK(keys_[i] == key, "degree tracker: removing an unaccounted key");
  const std::uint32_t c = counts_[i]--;
  --level.hist[c];
  if (c > 1) {
    ++level.hist[c - 1];
  } else {
    // Backward-shift deletion keeps every probe run gap-free.
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; keys_[j] != 0; j = (j + 1) & mask) {
      const std::size_t home = (keys_[j] * 0x9e3779b97f4a7c15ULL) >> shift_;
      // Entry j may move into the hole unless its home lies cyclically in
      // (hole, j].
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        keys_[hole] = keys_[j];
        counts_[hole] = counts_[j];
        hole = j;
      }
    }
    keys_[hole] = 0;
    --used_;
  }
  if (c == level.max && level.hist[c] == 0) level.max = c - 1;
}

void DegreeTracker::grow() {
  std::vector<std::uint64_t> old_keys(keys_.size() * 2, 0);
  std::vector<std::uint32_t> old_counts(keys_.size() * 2, 0);
  old_keys.swap(keys_);
  old_counts.swap(counts_);
  --shift_;
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    if (old_keys[j] == 0) continue;
    std::size_t i = (old_keys[j] * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (keys_[i] != 0) i = (i + 1) & mask;
    keys_[i] = old_keys[j];
    counts_[i] = old_counts[j];
  }
}

void DegreeTracker::assemble_stats() {
  stats_.dimension = max_size_;
  stats_.exact = exact_;
  stats_.delta = 0.0;
  stats_.max_count = 0;
  stats_.delta_i.assign(max_size_ + 1, 0.0);
  // Level order differs from the sorted key order, but each Δ_i is a max
  // over the same (count, j) pairs, and pow is monotone in count.
  for (const std::uint32_t l : used_levels_) {
    const Level& level = levels_[l];
    if (level.max == 0) continue;
    const std::uint64_t key = (l / level_dim_) | ((l % level_dim_) << 8);
    note_count(stats_, key, level.max);
  }
  finish_delta(stats_);
}

DegreeStats compute_degree_stats(const Hypergraph& h,
                                 const DegreeStatsOptions& opt) {
  const auto lists = h.edges_as_lists();
  return compute_degree_stats(
      std::span<const VertexList>(lists.data(), lists.size()), opt);
}

std::vector<std::uint64_t> neighborhood_counts(
    std::span<const VertexList> edges, const VertexList& x) {
  HMIS_CHECK(!x.empty(), "neighborhood_counts needs non-empty x");
  HMIS_CHECK(std::is_sorted(x.begin(), x.end()), "x must be sorted");
  std::size_t dim = 0;
  for (const auto& e : edges) dim = std::max(dim, e.size());
  std::vector<std::uint64_t> counts(
      dim >= x.size() ? dim - x.size() + 1 : 1, 0);
  for (const auto& e : edges) {
    if (e.size() < x.size()) continue;
    if (std::includes(e.begin(), e.end(), x.begin(), x.end())) {
      ++counts[e.size() - x.size()];
    }
  }
  return counts;
}

std::vector<double> kelsen_potentials_log2(const DegreeStats& stats, double n,
                                           std::vector<double>* log2_thresholds) {
  const std::size_t d = stats.dimension;
  std::vector<double> v(d + 1, 0.0);
  if (d < 2) {
    if (log2_thresholds) log2_thresholds->assign(d + 1, 0.0);
    return v;
  }
  const double log2_logn = std::log2(util::clog2(n));
  const auto f = util::kelsen_f(static_cast<int>(d), static_cast<double>(d));
  v[d] = std::log2(stats.delta_i[d]);  // -inf when the level is empty
  for (std::size_t i = d - 1; i >= 2; --i) {
    // log2 of: max(Δ_i, (log n)^{f(i)} · v_{i+1})
    v[i] = std::max(std::log2(stats.delta_i[i]),
                    f[i] * log2_logn + v[i + 1]);
    if (i == 2) break;
  }
  if (log2_thresholds) {
    const auto F = util::kelsen_F(static_cast<int>(d), static_cast<double>(d));
    log2_thresholds->assign(d + 1, 0.0);
    for (std::size_t j = 2; j <= d; ++j) {
      (*log2_thresholds)[j] = v[2] - F[j - 1] * log2_logn;
    }
  }
  return v;
}

}  // namespace hmis
