// MutableHypergraph: the evolving residual hypergraph the MIS algorithms
// operate on.
//
// The algorithms in this library (BL, SBL, KUW, ...) permanently color
// vertices BLUE (in the independent set) or RED (excluded) and maintain the
// residual constraint system:
//   * coloring v BLUE shrinks every live edge containing v by removing v
//     ("the edge needs one fewer blue vertex to be violated");
//   * coloring v RED deletes every live edge containing v ("an edge with a
//     red vertex can never become fully blue" — Algorithm 1, line 14);
//   * an edge shrinking to a single vertex {v} forces v RED (singleton rule,
//     Algorithm 2 lines 21–24), which cascades deletions;
//   * an edge shrinking to EMPTY means some edge became fully blue — an
//     independence violation, reported via HMIS_CHECK (this must be
//     unreachable for correct algorithms; the tests inject it deliberately).
//
// Vertex ids are stable: they always refer to the original hypergraph, so
// the final blue set can be validated directly against the input.
//
// ---- The sharded residual data plane (DESIGN.md §7, §10) -------------------
//
// The edge slab and the vertex → live-edge incidence index are SHARDED by
// contiguous edge range (shard_plan.hpp; count defaults to the pool width,
// stride a multiple of 64 so each shard owns whole words of every
// edge-indexed bitset):
//
//  * SLAB — per-shard contiguous vertex pools with a constant per-edge
//    {offset, live_size} span (offsets are the original CSR's; edges only
//    ever shrink in place, order-preserving, so a span never moves and the
//    pools never reallocate).
//  * INCIDENCE INDEX — per-shard edge-id pools holding, for every vertex v,
//    one SEGMENT per shard: the (v, s) segment's live entries are exactly
//    v's live edges within shard s, ascending.  Walking v's segments in
//    shard order yields v's live incident edges ascending overall — the
//    same sequence the unsharded index produced, which is why observable
//    results are invariant in the shard count.
//  * DEBT — per-shard {live, stale} entry counters plus a per-shard dirty
//    vertex mask.  An edge deletion banks its size in ITS shard's stale
//    counter and marks its members dirty there; once a shard's debt passes
//    half its live entries (with the same absolute/word floors as before,
//    per shard) that shard alone sweeps its dirty segments — a hot shard
//    compacts without touching cold ones.
//
// Batch mutations (color_blue / color_red / singleton_cascade) remain
// OUTPUT-SENSITIVE: they visit only the edges incident to the colored batch
// — never all m edges — so a round's cost tracks the edges it touches,
// which is what the paper's work bounds assume.
//
// ---- Parallel execution & the determinism contract -------------------------
//
// Every query and mutation runs as a deterministic parallel kernel when a
// `par::ThreadPool` is attached (set_pool / constructor), and as the plain
// serial loop when none is (pool == nullptr).  The two paths are REQUIRED
// to produce bit-identical state — same colors, counts, degrees, edge
// contents, snapshots, and removal counts — for any thread count AND any
// shard count; the kernels achieve this with fixed chunk decompositions,
// index-order combination (scan / reduce / pack / sort+unique), idempotent
// or commutative atomics, and the cross-shard merge layer
// (par/shard_merge.hpp): per-shard gathers produce disjoint ascending runs
// whose deterministic concatenation equals the unsharded gather, and dense
// gathers mark word-owned regions of one touch mask.  For a FIXED shard
// count the index internals (segment contents, debt counters, sweep times)
// are additionally bit-identical across thread counts; across shard counts
// only the observable state is — sweeps fire per shard, but walks filter
// on edge liveness, so sweep timing is unobservable by construction.
// tests/test_mutable_hypergraph_parallel.cpp enforces both contracts, and
// the reference-model suites check the slab against vector-of-vectors
// semantics element for element at shard counts {1, 2, 7}.
//
// Thread-safety rules: a MutableHypergraph is NOT itself thread-safe — all
// public methods must be called from one thread; the parallelism is internal
// (fork-join on the attached pool, fully joined before each method returns).
// Concurrent const queries without an intervening mutation are safe (const
// paths never compact the incidence index), and — because the pool is a
// work-stealing scheduler with nested fork-join (DESIGN.md §4) — every
// kernel here is callable from *inside* a task already running on the same
// pool (e.g. a par::TaskGroup closure that scans one MutableHypergraph
// while the spawning thread queries another).
#pragma once

#include <span>
#include <vector>

#include "hmis/hypergraph/hypergraph.hpp"
#include "hmis/hypergraph/shard_plan.hpp"
#include "hmis/util/bitset.hpp"

namespace hmis::par {
class ThreadPool;
}

namespace hmis {

enum class Color : std::uint8_t { None = 0, Blue = 1, Red = 2 };

class MutableHypergraph {
 public:
  /// `pool` powers the internal parallel kernels; nullptr means every
  /// operation runs its serial fallback (bit-identical results either way).
  /// `config` picks the shard plan (shard_plan.hpp); the default derives
  /// the count from HMIS_SHARDS or the pool width — results are identical
  /// for every choice, only locality/parallelism of the maintenance moves.
  explicit MutableHypergraph(const Hypergraph& h,
                             par::ThreadPool* pool = nullptr,
                             const ShardConfig& config = {});

  /// Attach/detach the pool after construction (algorithms thread their
  /// CommonOptions::pool through here so every maintenance step inherits
  /// it).  The shard plan is fixed at construction — swapping pools never
  /// re-shards.
  void set_pool(par::ThreadPool* pool) noexcept { pool_ = pool; }
  [[nodiscard]] par::ThreadPool* pool() const noexcept { return pool_; }

  // ---- Inspection ---------------------------------------------------------

  [[nodiscard]] std::size_t num_original_vertices() const noexcept {
    return n_;
  }
  [[nodiscard]] std::size_t num_live_vertices() const noexcept {
    return live_vertex_count_;
  }
  [[nodiscard]] std::size_t num_live_edges() const noexcept {
    return live_edge_count_;
  }
  [[nodiscard]] bool vertex_live(VertexId v) const noexcept {
    return color_[v] == Color::None;
  }
  [[nodiscard]] Color color(VertexId v) const noexcept { return color_[v]; }
  [[nodiscard]] bool edge_live(EdgeId e) const noexcept {
    return edge_live_[e];
  }
  /// Current (shrunken) vertex list of a live edge; sorted.  A view into
  /// the edge's shard pool — stable across mutations of OTHER edges,
  /// invalidated for this edge only in the sense that its contents shrink
  /// in place.
  [[nodiscard]] std::span<const VertexId> edge(EdgeId e) const noexcept {
    const std::size_t s = plan_.shard_of(e);
    return {edge_pools_[s].data() + (edge_offset(e) - shard_payload_base_[s]),
            edge_size_[e]};
  }
  /// Current size of edge e (cheaper than edge(e).size() on hot paths).
  [[nodiscard]] std::size_t edge_size(EdgeId e) const noexcept {
    return edge_size_[e];
  }
  /// Original incident edge ids of v (superset of live incident edges).
  [[nodiscard]] std::span<const EdgeId> original_edges_of(
      VertexId v) const noexcept {
    return original_->edges_of(v);
  }
  /// Number of live edges currently containing live vertex v.
  [[nodiscard]] std::size_t live_degree(VertexId v) const noexcept {
    return live_degree_[v];
  }
  /// Live vertices as a bitset (bit v set iff color(v) == None).
  [[nodiscard]] const util::DynamicBitset& live_vertex_mask() const noexcept {
    return live_mask_;
  }

  [[nodiscard]] std::vector<VertexId> live_vertices() const;
  [[nodiscard]] std::vector<EdgeId> live_edges() const;
  /// Max size over live edges (0 if none).  O(live edges).
  [[nodiscard]] std::size_t max_live_edge_size() const;
  /// Sum of sizes over live edges.
  [[nodiscard]] std::size_t total_live_edge_size() const;
  /// Blue vertices so far, ascending.
  [[nodiscard]] std::vector<VertexId> blue_vertices() const;

  [[nodiscard]] const Hypergraph& original() const noexcept {
    return *original_;
  }

  // ---- Shard introspection (benches / tests / stats) ----------------------

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return plan_.count;
  }
  /// One shard's debt ledger.  live/stale are the current counters; sweeps
  /// and swept_entries accumulate over the object's lifetime — the bench
  /// asserts cold shards keep sweeps == 0 while hot shards pay.
  struct ShardDebt {
    std::size_t live_entries = 0;
    std::size_t stale_entries = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t swept_entries = 0;
  };
  [[nodiscard]] ShardDebt shard_debt(std::size_t s) const noexcept;

  // ---- Coloring operations ------------------------------------------------

  /// Color every vertex in `vs` blue; shrinks live incident edges.
  /// `vs` must be duplicate-free live vertices.
  /// HMIS_CHECK-fails if any edge would become empty (independence broken).
  /// Output-sensitive: O(batch incident edges), never O(m).
  void color_blue(std::span<const VertexId> vs);

  /// Color every vertex in `vs` red; deletes live incident edges.
  /// `vs` must be duplicate-free live vertices.
  /// Output-sensitive: O(batch incident edges + deleted edge sizes).
  void color_red(std::span<const VertexId> vs);

  /// Apply the singleton rule until exhaustion: every live edge of size 1
  /// forces its vertex red (deleting that edge and all other edges containing
  /// the vertex).  Returns the vertices turned red, ascending.
  /// Output-sensitive: consumes the pending-singleton queue fed by
  /// color_blue (edges are only ever shrunk there), so a cascade costs
  /// O(new singletons + their incident work), never an O(m) rescan.
  std::vector<VertexId> singleton_cascade();

  /// Live vertices with no live incident edge — they are unconstrained and
  /// may always join the independent set.  (Used by the practical
  /// isolated-vertex shortcut; see DESIGN.md fidelity note 3.)
  [[nodiscard]] std::vector<VertexId> isolated_live_vertices() const;

  /// Remove duplicate live edges (every copy but the smallest id) and live
  /// edges that strictly contain another live edge (minimal-edge retention;
  /// fidelity note 1).  Returns the number of edges removed.
  /// Output-sensitive: checks only the edges on the dirty-edge queue — those
  /// color_blue shrank since the previous call (every edge before the
  /// first) — each against the incidence of its lowest-live-degree member.
  /// Shrinking is the only way an edge can newly become a subset of or equal
  /// to another, so the removal set equals a from-scratch pass
  /// (DESIGN.md §7).
  std::size_t dedupe_and_minimalize();

  // ---- Subhypergraph extraction -------------------------------------------

  struct Induced {
    Hypergraph graph;                  ///< local ids 0..k-1
    std::vector<VertexId> to_original; ///< local id -> original id
  };

  /// Reusable scratch for the induced-CSR builds.  Every buffer is fully
  /// re-initialized by each build (values never leak between calls — only
  /// capacity is reused), so one scratch can serve any sequence of
  /// induced_subgraph_into / live_snapshot_into calls, even against
  /// different MutableHypergraphs.  engine::FrameArena pairs one of these
  /// with an Induced to form an arena-backed residual frame.
  struct InducedScratch {
    std::vector<VertexId> to_local;
    // Parallel flavour: word-level relabel offsets (one per 64-vertex
    // word); serial flavour: per-vertex incidence fill cursors.
    std::vector<std::uint32_t> voffset;
    std::vector<std::uint8_t> inside;
    std::vector<std::uint8_t> emit;
    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> local_edge;
    std::vector<std::size_t> estart;
    std::vector<std::uint32_t> deg;
  };

  /// The subhypergraph induced by the live vertices in `keep`: its vertices
  /// are all kept live vertices, its edges are the live edges entirely
  /// contained in `keep` (Algorithm 1, line 7: E' = {e in E : e ⊆ V'}),
  /// duplicates collapsed (first original id wins), in original edge order.
  [[nodiscard]] Induced induced_subgraph(
      const util::DynamicBitset& keep) const;

  /// Compact snapshot of the current live structure (for stats modules).
  [[nodiscard]] Induced live_snapshot() const;

  /// Allocation-lean flavours: build into `out`, reusing its CSR capacity
  /// and `scratch`'s buffers.  Identical output to the value-returning
  /// flavours (which are now thin wrappers); after a warm-up build at peak
  /// size, subsequent builds perform no heap allocation.
  void induced_subgraph_into(const util::DynamicBitset& keep, Induced& out,
                             InducedScratch& scratch) const;
  void live_snapshot_into(Induced& out, InducedScratch& scratch) const;

 private:
  /// Constant span offsets come straight from the original CSR: edges only
  /// shrink in place, and an incidence segment only loses entries, so no
  /// pool ever relocates.  edge_offset is global; a shard pool's local
  /// offset is edge_offset(e) - shard_payload_base_[shard].
  [[nodiscard]] std::size_t edge_offset(EdgeId e) const noexcept {
    return original_->edge_offsets_[e];
  }
  [[nodiscard]] VertexId* edge_begin(EdgeId e) noexcept {
    const std::size_t s = plan_.shard_of(e);
    return edge_pools_[s].data() + (edge_offset(e) - shard_payload_base_[s]);
  }
  /// Index of vertex v's segment metadata for shard s (vertex-major: the
  /// hot walks iterate one vertex's S segments contiguously).
  [[nodiscard]] std::size_t seg(VertexId v, std::size_t s) const noexcept {
    return static_cast<std::size_t>(v) * plan_.count + s;
  }
  /// Walk the live incidence entries of v — all shards in order, so edge
  /// ids ascend overall — calling f(EdgeId) per live entry.
  template <typename F>
  void for_each_live_incident(VertexId v, F&& f) const {
    for (std::size_t s = 0; s < plan_.count; ++s) {
      const EdgeId* p = inc_pools_[s].data() + inc_seg_off_[seg(v, s)];
      const std::uint32_t len = inc_seg_len_[seg(v, s)];
      for (std::uint32_t j = 0; j < len; ++j) {
        if (edge_live_[p[j]]) f(p[j]);
      }
    }
  }
  /// Queue a shrunk edge for the next dedupe_and_minimalize (idempotent;
  /// a no-op while every edge is still dirty).
  void mark_shrunk(EdgeId e) {
    if (dirty_edge_mask_.test(e)) return;
    dirty_edge_mask_.set(e);
    dirty_edges_.push_back(e);
  }
  /// f(i) for i in [0, n) on the attached pool; a plain loop without one
  /// (the par primitives would fall back to the global pool).
  template <typename F>
  void for_range(std::size_t n, F&& f) const;
  /// Edge-content equality for canonical-survivor dedupe.
  [[nodiscard]] bool edge_equal(EdgeId a, EdgeId b) const noexcept;
  /// The (size, lex, id) total order of the induced-build dedupe.
  [[nodiscard]] bool edge_size_lex_id_less(EdgeId a, EdgeId b) const noexcept;

  void delete_edge(EdgeId e);
  /// Per-shard {live -= , stale += } accounting for a sorted ascending list
  /// of deleted edges (the parallel red/dedupe flavours — sorted means each
  /// shard's edges form one contiguous run).  Serial; also feeds the
  /// process-wide data-plane counters.
  void account_deleted_sorted(std::span<const EdgeId> deleted);
  /// Parallel kernels behind the public mutations (pool_ != nullptr path).
  /// `work` is the batch's incident work (the use_parallel argument),
  /// reused to pick the gather flavour.
  void parallel_shrink_blue(std::span<const VertexId> vs, std::size_t work);
  void parallel_delete_red(std::span<const VertexId> vs, std::size_t work);
  /// Gather the distinct LIVE edges incident to the batch `vs` into
  /// touched_edges_ (ascending).  Returns the distinct count.  Fans out
  /// per shard and combines through the deterministic merge layer
  /// (par/shard_merge.hpp): sparse batches sort+unique one run per shard
  /// and concat the disjoint runs; batches touching a constant fraction of
  /// the edge set mark each shard's word-owned region of a full-width
  /// bitset (per-shard bitset-OR) and pack it.  The flavour choice is a
  /// pure function of (work, m), so every thread AND shard count takes the
  /// same one, and both produce the shard-count-independent ascending list.
  [[nodiscard]] std::size_t gather_batch_incidence(std::span<const VertexId> vs,
                                                   std::size_t work);
  /// Drop stale entries from v's shard-s segment (keeps live entries in
  /// ascending edge-id order).
  void compact_segment(VertexId v, std::size_t s);
  /// Sweep one shard: compact every dirty live vertex's segment, clear the
  /// dirty mask, forgive the shard's stale debt.
  void sweep_shard(std::size_t s);
  /// Debt-triggered per-shard index maintenance: each shard sweeps when ITS
  /// stale counter reaches half of ITS live entries (with the same 64-entry
  /// and word-count floors as the old global sweep, per shard) — a pure
  /// function of per-shard counters every flavour maintains identically, so
  /// for a fixed shard plan the sweeps fire at the same operations on every
  /// thread count.  Across shard plans sweep timing differs, but walks
  /// filter on edge liveness, so it is unobservable.  A sweep costs
  /// O(n/64 + shard live entries + shard debt) — amortized O(1) per deleted
  /// entry — and shards without debt cost one counter compare.
  void maybe_compact_shards();
  /// One implementation behind both extraction flavours; `keep == nullptr`
  /// means "every live vertex" (the live_snapshot case, which then needs no
  /// all-ones bitset).
  void build_induced(const util::DynamicBitset* keep, Induced& out,
                     InducedScratch& scratch) const;
  void build_induced_serial(const util::DynamicBitset* keep, Induced& out,
                            InducedScratch& scratch) const;
  void build_induced_parallel(const util::DynamicBitset* keep, Induced& out,
                              InducedScratch& scratch) const;
  /// Sum of live degrees over `vs` — the work a batch mutation touches,
  /// used to decide whether the parallel flavour pays.  A pure function of
  /// observable state, so every variant gates identically.
  [[nodiscard]] std::size_t incident_work(std::span<const VertexId> vs) const;
  /// True when the parallel flavour should run: a pool with real workers is
  /// attached and the operation is above the grain.  A 1-thread pool runs
  /// the serial flavour — the parallel kernels trade extra passes for
  /// parallelism, which only pays with >= 2 threads.  (Never a determinism
  /// concern: both flavours are bit-identical by contract.)
  [[nodiscard]] bool use_parallel(std::size_t work) const;

  const Hypergraph* original_;
  std::size_t n_;
  par::ThreadPool* pool_ = nullptr;
  ShardPlan plan_;
  std::vector<Color> color_;

  // ---- Sharded slab data plane --------------------------------------------
  std::vector<std::vector<VertexId>> edge_pools_;  // one vertex pool per shard
  std::vector<std::size_t> shard_payload_base_;    // CSR offset of pool start
  std::vector<std::uint32_t> edge_size_;           // live size per edge span
  util::DynamicBitset edge_live_;
  util::DynamicBitset live_mask_;                  // bit v set iff v live

  // ---- Sharded live-incidence index ---------------------------------------
  std::vector<std::vector<EdgeId>> inc_pools_;  // one edge-id pool per shard
  std::vector<std::size_t> inc_seg_off_;   // (v, s) -> offset into pool s
  std::vector<std::uint32_t> inc_seg_len_; // (v, s) -> current segment length
  std::vector<std::uint32_t> live_degree_; // live incident edges per vertex
  std::vector<EdgeId> singleton_pending_;  // edges shrunk to size 1
  // Dirty-edge queue: edges shrunk since the last dedupe_and_minimalize.
  // Before the first call every edge is dirty and only the mask records it.
  util::DynamicBitset dirty_edge_mask_;
  std::vector<EdgeId> dirty_edges_;
  bool all_dirty_ = true;

  // ---- Per-shard debt accounting ------------------------------------------
  struct ShardState {
    std::size_t live_entries = 0;   // Σ over v of v's live entries in shard
    std::size_t stale_entries = 0;  // entries orphaned since the last sweep
    std::uint64_t sweeps = 0;
    std::uint64_t swept_entries = 0;
  };
  std::vector<ShardState> shard_state_;
  std::vector<util::DynamicBitset> dirty_;  // per shard: vertices with stale
                                            // entries in that shard's pool

  // ---- Mutation scratch (capacity reused; values never leak) --------------
  // Entry counts are size_t end to end (like the hypergraph CSR offsets):
  // a batch's summed live degrees may exceed 2^32 even though vertex/edge
  // IDS stay 32-bit.
  std::vector<std::vector<EdgeId>> shard_runs_;  // sparse: per-shard gathers
  std::vector<std::size_t> run_offsets_;         // sparse: concat offsets
  std::vector<EdgeId> touched_edges_;
  std::vector<std::uint32_t> shrink_removed_;    // blue: per-edge removals
  std::vector<std::uint32_t> pack_offsets_;   // dense: pack over m (< 2^32)
  util::DynamicBitset touched_mask_;  // m bits; dense-gather marking
  util::DynamicBitset doomed_mask_;   // dedupe: m bits, set atomically

  std::size_t live_vertex_count_ = 0;
  std::size_t live_edge_count_ = 0;
};

}  // namespace hmis
