// RoundContext: the reusable per-round residual lifecycle shared by the
// round-structured solvers (core/sbl, algo/bl, algo/kuw).
//
// Each round of those algorithms used to allocate fresh storage for the
// same transient structures: the sample keep-mask, the induced residual
// frame (a full CSR build), per-vertex mark bytes, the fold-back coloring
// split.  A RoundContext owns all of that scratch once per solve session
// and re-initializes it per round, so the steady-state round loop performs
// no heap allocation (bench_engine_throughput measures the difference).
// Frames come from a double-buffered FrameArena: the frame built for round
// r stays valid while round r+1 builds into the other buffer.
//
// Reuse never changes results: every accessor returns storage re-
// initialized to exactly the state a fresh allocation would have (cleared
// bitset, zeroed bytes, rebuilt frame), so algorithms using a shared
// context remain bit-identical to their historical per-round-allocation
// selves — the determinism suites cover both entry paths.
//
// The other half of the round's transient state — the batch-incidence
// gathers and compaction sweeps of the slab data plane (DESIGN.md §7) —
// is scratch owned by the MutableHypergraph those rounds mutate, reused
// across batches under the same capacity-only rule, so a steady-state
// round allocates nothing on either side.
//
// A RoundContext is single-session state: not thread-safe, one solver at a
// time.  The engine gives every concurrent session its own context.
#pragma once

#include <cstdint>
#include <vector>

#include "hmis/engine/frame_arena.hpp"
#include "hmis/hypergraph/degree_stats.hpp"
#include "hmis/hypergraph/mutable_hypergraph.hpp"
#include "hmis/util/bitset.hpp"
#include "hmis/util/cancel.hpp"

namespace hmis::engine {

class RoundContext {
 public:
  /// The session's residual shard plan: every MutableHypergraph rebuilt
  /// from this context's frames (SBL's per-round inner residual) uses this
  /// config, so one session keeps one geometry — and the engine's
  /// per-session affinity rotation reaches the round loop.  Results never
  /// depend on it (determinism contract).
  ShardConfig shards{};

  /// The session's cancellation source (null = never cancelled).  The
  /// round-structured solvers call poll_cancel() at the top of every outer
  /// round — the library-wide cancellation points (DESIGN.md §12).
  const util::CancelToken* cancel = nullptr;

  /// Throws CancelledError when the session has been cancelled.  One or
  /// two relaxed atomic loads when armed; a null token is a single branch,
  /// preserving the zero-alloc steady-state round contract.
  void poll_cancel() const {
    if (cancel != nullptr) cancel->throw_if_cancelled();
  }

  // ---- Residual frames (arena-backed, double-buffered) --------------------

  /// Build the subgraph of `mh` induced by `keep` into the next arena frame
  /// and return it.  Valid until the second frame build after this one.
  const MutableHypergraph::Induced& induced_frame(
      const MutableHypergraph& mh, const util::DynamicBitset& keep);

  /// Build a live snapshot of `mh` into the next arena frame.
  const MutableHypergraph::Induced& snapshot_frame(
      const MutableHypergraph& mh);

  // ---- Per-round scratch --------------------------------------------------

  /// Sample keep-mask: resized to n, all bits cleared.
  util::DynamicBitset& keep_mask(std::size_t n);

  /// Zeroed byte masks (BL's marked/unmarked, SBL's fold-back blue mask).
  std::vector<std::uint8_t>& marked(std::size_t n);
  std::vector<std::uint8_t>& unmarked(std::size_t n);
  std::vector<std::uint8_t>& blue_mask(std::size_t n);

  /// Zeroed per-vertex positions (KUW's permutation ranks).
  std::vector<std::uint32_t>& positions(std::size_t n);

  /// (counter-RNG priority, vertex) sort keys (KUW's per-round order).
  /// Fully overwritten by the caller.
  struct PriorityKey {
    std::uint64_t priority;
    VertexId vertex;
  };
  std::vector<PriorityKey>& priority_keys(std::size_t n) {
    priority_keys_.resize(n);
    return priority_keys_;
  }

  /// BL's live Δ(H) table.  Callers reset() it per residual graph; its
  /// capacity carries over to the next one (SBL's inner BL runs).
  DegreeTracker& degree_tracker() noexcept { return degree_tracker_; }

  /// Fold-back split outputs (SBL's blue/red partition of a sample).
  std::vector<VertexId>& blue_out() noexcept { return blue_out_; }
  std::vector<VertexId>& red_out() noexcept { return red_out_; }

  /// Scan-offset scratch for the fold-back split (fully overwritten).
  std::vector<std::uint32_t>& split_offsets(std::size_t n) {
    split_offsets_.resize(n);
    return split_offsets_;
  }

  // ---- Instrumentation ----------------------------------------------------

  [[nodiscard]] FrameArena& arena() noexcept { return arena_; }
  [[nodiscard]] std::uint64_t frames_built() const noexcept {
    return arena_.acquires();
  }

 private:
  FrameArena arena_;
  util::DynamicBitset keep_;
  std::vector<std::uint8_t> marked_;
  std::vector<std::uint8_t> unmarked_;
  std::vector<std::uint8_t> blue_mask_;
  std::vector<std::uint32_t> positions_;
  std::vector<PriorityKey> priority_keys_;
  DegreeTracker degree_tracker_;
  std::vector<VertexId> blue_out_;
  std::vector<VertexId> red_out_;
  std::vector<std::uint32_t> split_offsets_;
};

}  // namespace hmis::engine
