// Kelsen's normalized-degree machinery (paper §3).
//
// For a hypergraph H of dimension d, a non-empty vertex set x and
// 1 <= j <= d - |x|:
//   N_j(x,H)  = { y : x ∪ y ∈ E, x ∩ y = ∅, |y| = j }   (edges of size |x|+j
//               around x)
//   d_j(x,H)  = |N_j(x,H)|^{1/j}                        (normalized degree)
//   Δ_i(H)    = max{ d_{i-|x|}(x,H) : 0 < |x| < i }     (per edge size i)
//   Δ(H)      = max{ Δ_i(H) : 2 <= i <= d }
//
// BL uses Δ(H) to set its marking probability p = 1/(2^{d+1} Δ); the
// potential analysis (Lemma 5) tracks the v_i(H) / T_j thresholds built from
// the Δ_i.
//
// Exact computation enumerates, for every edge e, all non-empty proper
// subsets x ⊂ e and counts (x, |e|) pairs: O(m · 2^d) subset emissions.
// Edges larger than `max_enum_edge_size` — or instances whose total emission
// count exceeds `enum_budget` — fall back to singleton subsets only
// (|x| = 1), which lower-bounds Δ; `exact` reports which mode ran.
// Subsets are identified by a 64-bit hash packed with (|x|, |e|) (collisions
// only *merge* counts; at the default budget the collision probability is
// < 1e-6).
//
// Two entry points share that emission scheme:
//  * compute_degree_stats — from scratch over an edge list (the planner's
//    entry point, and the oracle the tracker is tested against);
//  * DegreeTracker — a live (packed key → count) table over a residual
//    MutableHypergraph.  Each sync() re-emits only the edges that shrank or
//    died since the previous one (DESIGN.md §7, "Incremental rounds"), and
//    returns stats equal, field for field, to compute_degree_stats over the
//    live edge lists — so BL's marking probability keeps every bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hmis/hypergraph/hypergraph.hpp"

namespace hmis {

class MutableHypergraph;

struct DegreeStatsOptions {
  /// Edges longer than this use singleton subsets only.
  std::size_t max_enum_edge_size = 16;
  /// Cap on total subset emissions before falling back to singletons.
  std::uint64_t enum_budget = 8'000'000;
};

struct DegreeStats {
  std::size_t dimension = 0;   ///< max live edge size d
  double delta = 0.0;          ///< Δ(H)
  bool exact = true;           ///< full subset enumeration completed
  /// Δ_i(H) for i = 0..dimension (entries < 2 unused, kept for indexing).
  std::vector<double> delta_i;
  /// Largest |N_j(x)| seen for any (x, j) — raw, un-normalized.
  std::uint64_t max_count = 0;
};

/// Compute stats over an explicit edge list (each edge sorted).
[[nodiscard]] DegreeStats compute_degree_stats(
    std::span<const VertexList> edges,
    const DegreeStatsOptions& opt = DegreeStatsOptions{});

/// Compute stats for an immutable hypergraph.
[[nodiscard]] DegreeStats compute_degree_stats(
    const Hypergraph& h, const DegreeStatsOptions& opt = DegreeStatsOptions{});

/// Live Δ(H) over the residual of a MutableHypergraph (BL's per-round
/// probability input).  The tracker keeps, per edge, the size and members it
/// last accounted; sync() diffs that against the residual, subtracts each
/// changed edge's old emissions and adds its new ones.  Per (|e|, |x|) level
/// it keeps a histogram of count values, so the level maximum — and with it
/// Δ_i, Δ, max_count — stays exact under the ±1 updates.
///
/// Enumeration mode follows compute_degree_stats: exact iff every live edge
/// has size <= max_enum_edge_size and Σ(2^|e| − 2) <= enum_budget.  Edges
/// only shrink or die, so both quantities only fall: a tracker moves from
/// singleton mode to exact mode at most once (rebuilding its table then),
/// never back.
///
/// Single-session state like the RoundContext that owns it: not
/// thread-safe.  Capacity survives reset(), so SBL's inner BL runs reuse it.
class DegreeTracker {
 public:
  /// Forget the accounted graph; the next sync() rebuilds from scratch
  /// under `opt`.  Keeps capacity.
  void reset(const DegreeStatsOptions& opt = DegreeStatsOptions{});

  /// Account every edge of `mh` that changed since the previous sync() and
  /// return the current stats (valid until the next sync or reset).
  const DegreeStats& sync(const MutableHypergraph& mh);

 private:
  /// Re-emit every accounted edge into an emptied table.
  void rebuild();
  /// Add `delta` (±1) to every key edge {verts, s} emits in the current mode.
  void account(const VertexId* verts, std::size_t s, int delta);
  void bump(std::uint64_t key, int delta);
  void grow();
  void note_size(std::size_t s, int delta);
  void assemble_stats();

  struct Level {
    std::vector<std::uint32_t> hist;  ///< hist[c] = keys with count c
    std::uint32_t max = 0;            ///< largest c with hist[c] > 0
    bool listed = false;              ///< in used_levels_
  };

  DegreeStatsOptions opt_;
  const Hypergraph* graph_ = nullptr;  ///< the accounted graph
  bool exact_ = true;

  // Per-edge accounted state: size (0 = dead) and a copy of the members at
  // the original CSR offsets (edges only shrink in place, so it fits).
  std::vector<std::uint32_t> acc_size_;
  std::vector<VertexId> acc_members_;
  std::vector<EdgeId> changed_;

  // Mode inputs over the accounted live edges.
  std::vector<std::uint64_t> size_hist_;  ///< live edges per size
  std::size_t max_size_ = 0;
  std::uint64_t enum_total_ = 0;  ///< Σ(2^s − 2) over s <= max_enum
  std::uint64_t oversize_ = 0;    ///< live edges with s > max_enum

  // Open-addressing (linear probing) key → count table; key 0 is empty
  // (a packed key always has |x| >= 1 in bits 8..15).
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> counts_;
  std::size_t used_ = 0;
  int shift_ = 64;

  // Levels indexed by (|e| & 0xFF) * level_dim_ + (|x| & 0xFF).
  std::vector<Level> levels_;
  std::size_t level_dim_ = 0;
  std::vector<std::uint32_t> used_levels_;

  DegreeStats stats_;
};

/// |N_j(x,H)| for one specific x over an edge list: result[j] = count of
/// edges e ⊇ x with |e| = |x| + j.  result.size() == max_j + 1; entry 0
/// counts edges equal to x itself.
[[nodiscard]] std::vector<std::uint64_t> neighborhood_counts(
    std::span<const VertexList> edges, const VertexList& x);

/// d_j(x,H) = count^{1/j} helper.
[[nodiscard]] double normalized_degree(std::uint64_t count, std::size_t j);

/// Kelsen potentials v_i(H) (paper §3, with the corrected recurrence
/// F(i) = i·F(i-1) + d², DESIGN.md fidelity note 5):
///   v_d = Δ_d,   v_i = max(Δ_i, (log2 n)^{f(i)} · v_{i+1})  for 2 <= i < d.
///
/// The scale factors (log n)^{f(i)} overflow doubles already at f(4) for
/// moderate d, so this returns the potentials in LOG2 SPACE:
/// result[i] = log2(v_i(H)).  Entries for i < 2 are 0; an all-zero Δ level
/// propagates -inf, which max() handles naturally.  When `log2_thresholds`
/// is non-null it receives log2(T_j) = log2(v_2) − F(j−1)·log2(log2 n).
[[nodiscard]] std::vector<double> kelsen_potentials_log2(
    const DegreeStats& stats, double n, std::vector<double>* log2_thresholds);

}  // namespace hmis
