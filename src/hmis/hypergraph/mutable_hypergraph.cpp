// Residual hypergraph maintenance on the sharded slab data plane
// (DESIGN.md §7, §10).  Most operations come in two interchangeable
// flavours: a plain serial loop (pool == nullptr, or sub-grain input) and a
// deterministic parallel kernel on the attached ThreadPool;
// dedupe_and_minimalize has one body that runs on either.  Results must
// agree bit-for-bit — the kernels therefore use only order-independent
// ingredients:
//   * exclusive-scan compaction for every packed output (ascending ids),
//   * per-shard sort + unique runs combined by the deterministic merge
//     layer (par/shard_merge.hpp) for batch-incidence gathers — disjoint
//     ascending runs, so the concat equals the unsharded sort + unique,
//   * index-order reduction for max/total sizes,
//   * idempotent atomic bit sets/resets for edge liveness and dirty marking,
//   * commutative atomic counters for degree bookkeeping (each (edge,
//     vertex) pair contributes exactly once, so the final sums are exact),
//   * the smallest id as the canonical survivor wherever duplicates
//     collapse (a (size, lex, id) sort in the induced builds; an atomically
//     marked doomed bitset, deleted in id order, in dedupe).
//
// Output sensitivity: the batch mutations never scan all m edges.  They
// walk the live-incidence segments of the batch vertices (cost: the touched
// incidence), and the singleton cascade and dedupe consume queues fed by
// the only operation that shrinks edges (color_blue).  Stale incidence entries
// (edges that died) are compacted out PER SHARD under a per-shard
// half-occupancy rule: a deletion banks its debt in its own shard and marks
// its members dirty there, so a hot shard sweeps its dirty segments while
// cold shards pay one counter compare.  The triggers and results depend
// only on per-shard counters every flavour maintains identically, keeping
// the index evolution bit-identical across thread counts for a fixed plan;
// across plans sweep timing differs but is unobservable (walks filter on
// edge liveness).
#include "hmis/hypergraph/mutable_hypergraph.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "hmis/hypergraph/data_plane_stats.hpp"
#include "hmis/par/parallel_for.hpp"
#include "hmis/par/reduce.hpp"
#include "hmis/par/scan.hpp"
#include "hmis/par/shard_merge.hpp"
#include "hmis/par/sort.hpp"
#include "hmis/util/check.hpp"

namespace hmis {

namespace {

inline void atomic_decrement(std::uint32_t& counter) noexcept {
  std::atomic_ref<std::uint32_t> ref(counter);
  ref.fetch_sub(1, std::memory_order_relaxed);
}

inline void atomic_increment(std::uint32_t& counter) noexcept {
  std::atomic_ref<std::uint32_t> ref(counter);
  ref.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MutableHypergraph::MutableHypergraph(const Hypergraph& h, par::ThreadPool* pool,
                                     const ShardConfig& config)
    : original_(&h),
      n_(h.num_vertices()),
      pool_(pool),
      plan_(plan_shards(h.num_edges(), config,
                        pool != nullptr ? pool->num_threads() : 1)) {
  color_.assign(n_, Color::None);
  live_vertex_count_ = n_;
  live_mask_.resize(n_, true);
  const std::size_t m = h.num_edges();
  const std::size_t S = plan_.count;
  edge_size_.resize(m);
  live_degree_.resize(n_);
  edge_live_.resize(m, true);
  live_edge_count_ = m;
  // Per-shard slab: each shard copies its contiguous slice of the original
  // CSR payload.  Spans never move (edges shrink in place, incidence
  // segments only lose entries), so these are the last content allocations
  // for the object's lifetime.
  edge_pools_.resize(S);
  shard_payload_base_.resize(S);
  shard_state_.resize(S);
  dirty_.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    const std::size_t elo = plan_.shard_begin(s);
    const std::size_t ehi = std::min(m, elo + plan_.stride);
    const std::size_t plo = h.edge_offsets_[elo];
    const std::size_t phi = h.edge_offsets_[ehi];
    shard_payload_base_[s] = plo;
    edge_pools_[s].assign(h.edge_vertices_.begin() + plo,
                          h.edge_vertices_.begin() + phi);
    dirty_[s].resize(n_);
  }
  const auto fill_edge = [&](std::size_t e) {
    edge_size_[e] =
        static_cast<std::uint32_t>(h.edge_size(static_cast<EdgeId>(e)));
  };
  const auto fill_vertex = [&](std::size_t v) {
    live_degree_[v] =
        static_cast<std::uint32_t>(h.degree(static_cast<VertexId>(v)));
  };
  // Per-shard incidence index: count each vertex's entries per shard (its
  // CSR row is ascending, so the shard cursor only moves forward), lay the
  // segments out vertex-ascending within each shard pool, then fill.
  inc_pools_.resize(S);
  inc_seg_len_.assign(n_ * S, 0);
  inc_seg_off_.resize(n_ * S);
  const auto count_row = [&](std::size_t v) {
    std::size_t s = 0;
    std::size_t end = plan_.stride;
    const std::size_t row = v * S;
    for (const EdgeId e : h.edges_of(static_cast<VertexId>(v))) {
      while (e >= end) {
        ++s;
        end += plan_.stride;
      }
      ++inc_seg_len_[row + s];
    }
  };
  const auto fill_row = [&](std::size_t v) {
    std::size_t s = 0;
    std::size_t end = plan_.stride;
    std::size_t prev = SIZE_MAX;
    std::size_t w = 0;
    const std::size_t row = v * S;
    for (const EdgeId e : h.edges_of(static_cast<VertexId>(v))) {
      while (e >= end) {
        ++s;
        end += plan_.stride;
      }
      if (s != prev) {
        w = inc_seg_off_[row + s];
        prev = s;
      }
      inc_pools_[s][w++] = e;
    }
  };
  if (pool_ == nullptr) {
    for (std::size_t e = 0; e < m; ++e) fill_edge(e);
    for (std::size_t v = 0; v < n_; ++v) fill_vertex(v);
    for (std::size_t v = 0; v < n_; ++v) count_row(v);
  } else {
    par::parallel_for(0, m, fill_edge, nullptr, pool_);
    par::parallel_for(0, n_, fill_vertex, nullptr, pool_);
    par::parallel_for(0, n_, count_row, nullptr, pool_);
  }
  {
    // Serial pass: per-shard running totals become the segment offsets
    // (one cache-friendly sweep over the (v, s) grid).
    std::vector<std::size_t> totals(S, 0);
    for (std::size_t v = 0; v < n_; ++v) {
      const std::size_t row = v * S;
      for (std::size_t s = 0; s < S; ++s) {
        inc_seg_off_[row + s] = totals[s];
        totals[s] += inc_seg_len_[row + s];
      }
    }
    for (std::size_t s = 0; s < S; ++s) {
      inc_pools_[s].resize(totals[s]);
      shard_state_[s].live_entries = totals[s];
    }
  }
  if (pool_ == nullptr) {
    for (std::size_t v = 0; v < n_; ++v) fill_row(v);
  } else {
    par::parallel_for(0, n_, fill_row, nullptr, pool_);
  }
  // Every edge starts dirty (all_dirty_; the mask alone records it until
  // the first dedupe_and_minimalize, which checks them all — later calls
  // check only what shrank since).
  dirty_edge_mask_.resize(m, true);
  // Seed the singleton queue: edges born at size 1 are pending from the
  // start; afterwards only color_blue can create new singletons.  Both
  // flavours emit the same ascending list.
  if (use_parallel(m)) {
    singleton_pending_ = par::pack_indices(
        m, [&](std::size_t e) { return edge_size_[e] == 1; }, nullptr, pool_);
  } else {
    for (EdgeId e = 0; e < m; ++e) {
      if (edge_size_[e] == 1) singleton_pending_.push_back(e);
    }
  }
}

MutableHypergraph::ShardDebt MutableHypergraph::shard_debt(
    std::size_t s) const noexcept {
  const ShardState& st = shard_state_[s];
  return {st.live_entries, st.stale_entries, st.sweeps, st.swept_entries};
}

bool MutableHypergraph::edge_equal(EdgeId a, EdgeId b) const noexcept {
  if (edge_size_[a] != edge_size_[b]) return false;
  const auto sa = edge(a);
  const auto sb = edge(b);
  return std::equal(sa.begin(), sa.end(), sb.begin());
}

bool MutableHypergraph::edge_size_lex_id_less(EdgeId a,
                                              EdgeId b) const noexcept {
  if (edge_size_[a] != edge_size_[b]) return edge_size_[a] < edge_size_[b];
  // Equal sizes: one three-way pass decides lex order and equality at once
  // (this comparator runs O(E log E) times per dedupe/build sort).
  const auto sa = edge(a);
  const auto sb = edge(b);
  const auto cmp = std::lexicographical_compare_three_way(
      sa.begin(), sa.end(), sb.begin(), sb.end());
  if (cmp != 0) return cmp < 0;
  return a < b;
}

std::vector<VertexId> MutableHypergraph::live_vertices() const {
  if (!use_parallel(n_)) {
    std::vector<VertexId> out;
    out.reserve(live_vertex_count_);
    live_mask_.for_each_set_bit(
        [&](std::size_t v) { out.push_back(static_cast<VertexId>(v)); });
    return out;
  }
  return par::pack_indices(
      n_, [&](std::size_t v) { return live_mask_.test(v); }, nullptr, pool_);
}

std::vector<EdgeId> MutableHypergraph::live_edges() const {
  if (!use_parallel(edge_size_.size())) {
    std::vector<EdgeId> out;
    out.reserve(live_edge_count_);
    edge_live_.for_each_set_bit(
        [&](std::size_t e) { out.push_back(static_cast<EdgeId>(e)); });
    return out;
  }
  return par::pack_indices(
      edge_size_.size(), [&](std::size_t e) { return bool{edge_live_[e]}; },
      nullptr, pool_);
}

std::size_t MutableHypergraph::max_live_edge_size() const {
  if (!use_parallel(edge_size_.size())) {
    std::size_t d = 0;
    edge_live_.for_each_set_bit(
        [&](std::size_t e) { d = std::max<std::size_t>(d, edge_size_[e]); });
    return d;
  }
  return par::reduce_max<std::size_t>(
      0, edge_size_.size(), 0,
      [&](std::size_t e) {
        return edge_live_[e] ? std::size_t{edge_size_[e]} : std::size_t{0};
      },
      nullptr, pool_);
}

std::size_t MutableHypergraph::total_live_edge_size() const {
  if (!use_parallel(edge_size_.size())) {
    std::size_t total = 0;
    edge_live_.for_each_set_bit([&](std::size_t e) { total += edge_size_[e]; });
    return total;
  }
  return par::reduce_sum<std::size_t>(
      0, edge_size_.size(),
      [&](std::size_t e) {
        return edge_live_[e] ? std::size_t{edge_size_[e]} : std::size_t{0};
      },
      nullptr, pool_);
}

std::vector<VertexId> MutableHypergraph::blue_vertices() const {
  if (!use_parallel(n_)) {
    std::vector<VertexId> out;
    for (VertexId v = 0; v < n_; ++v) {
      if (color_[v] == Color::Blue) out.push_back(v);
    }
    return out;
  }
  return par::pack_indices(
      n_, [&](std::size_t v) { return color_[v] == Color::Blue; }, nullptr,
      pool_);
}

void MutableHypergraph::delete_edge(EdgeId e) {
  if (!edge_live_[e]) return;
  edge_live_.reset(e);
  --live_edge_count_;
  const std::size_t s = plan_.shard_of(e);
  const VertexId* verts =
      edge_pools_[s].data() + (edge_offset(e) - shard_payload_base_[s]);
  const std::uint32_t sz = edge_size_[e];
  util::DynamicBitset& dirty = dirty_[s];
  for (std::uint32_t r = 0; r < sz; ++r) {
    // Members of a live edge are always live vertices (invariant), so the
    // degree bookkeeping only ever touches live vertices.  Each member's
    // (vertex, shard) segment just gained a stale entry.
    --live_degree_[verts[r]];
    dirty.set(verts[r]);
  }
  shard_state_[s].live_entries -= sz;
  shard_state_[s].stale_entries += sz;
  detail::note_stale(sz);
}

void MutableHypergraph::account_deleted_sorted(
    std::span<const EdgeId> deleted) {
  // edge_size_ is untouched by deletion, so the doomed sizes are still
  // readable.  `deleted` ascends, so each shard's edges form one contiguous
  // run and the shard cursor only moves forward.
  std::size_t orphaned_total = 0;
  std::size_t s = 0;
  std::size_t end = plan_.stride;
  std::size_t orphaned = 0;
  for (const EdgeId e : deleted) {
    while (e >= end) {
      if (orphaned != 0) {
        shard_state_[s].live_entries -= orphaned;
        shard_state_[s].stale_entries += orphaned;
        orphaned_total += orphaned;
        orphaned = 0;
      }
      ++s;
      end += plan_.stride;
    }
    orphaned += edge_size_[e];
  }
  if (orphaned != 0) {
    shard_state_[s].live_entries -= orphaned;
    shard_state_[s].stale_entries += orphaned;
    orphaned_total += orphaned;
  }
  detail::note_stale(orphaned_total);
}

std::size_t MutableHypergraph::incident_work(
    std::span<const VertexId> vs) const {
  std::size_t work = vs.size();
  for (const VertexId v : vs) work += live_degree_[v];
  return work;
}

bool MutableHypergraph::use_parallel(std::size_t work) const {
  // default_grain() honours the HMIS_GRAIN override, so the same knob tunes
  // both the loop primitives and this serial/parallel gate.
  return pool_ != nullptr && pool_->num_threads() > 1 &&
         work >= par::default_grain();
}

template <typename F>
void MutableHypergraph::for_range(std::size_t n, F&& f) const {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  par::parallel_for(0, n, f, nullptr, pool_);
}

void MutableHypergraph::compact_segment(VertexId v, std::size_t s) {
  EdgeId* p = inc_pools_[s].data() + inc_seg_off_[seg(v, s)];
  const std::uint32_t len = inc_seg_len_[seg(v, s)];
  std::uint32_t w = 0;
  for (std::uint32_t j = 0; j < len; ++j) {
    const EdgeId e = p[j];
    if (edge_live_[e]) p[w++] = e;
  }
  inc_seg_len_[seg(v, s)] = w;
}

void MutableHypergraph::sweep_shard(std::size_t s) {
  // Compact every dirty LIVE vertex's segment (dead vertices' segments are
  // never walked again, so their debt is forgiven unswept — exactly like
  // the old global sweep skipped non-live mask bits).  Dirty bits are only
  // ever set by deletions and only cleared here, so dirty ∧ live is exactly
  // the set of segments with stale entries.
  ShardState& st = shard_state_[s];
  util::DynamicBitset& dirty = dirty_[s];
  const auto sweep_word = [&](std::size_t base, std::uint64_t w) {
    while (w != 0) {
      const auto v = static_cast<VertexId>(
          base + static_cast<std::size_t>(std::countr_zero(w)));
      w &= w - 1;
      compact_segment(v, s);
    }
  };
  if (use_parallel(st.live_entries + st.stale_entries)) {
    par::parallel_for(
        0, dirty.num_words(),
        [&](std::size_t wi) {
          const std::uint64_t w = dirty.word(wi) & live_mask_.word(wi);
          if (w != 0) sweep_word(wi * 64, w);
        },
        nullptr, pool_);
  } else {
    dirty.for_each_set_word([&](std::size_t base, std::uint64_t w) {
      w &= live_mask_.word(base / 64);
      if (w != 0) sweep_word(base, w);
    });
  }
  dirty.clear_all();
  st.swept_entries += st.stale_entries;
  st.stale_entries = 0;
  ++st.sweeps;
}

void MutableHypergraph::maybe_compact_shards() {
  // Per-shard debt-triggered sweep: deletions bank their orphaned entries
  // in their OWN shard's stale counter; once a shard's debt reaches both
  // half of ITS live entries and the dirty mask's word count, that shard
  // alone compacts its dirty segments and forgives its debt.  The word
  // floor keeps the endgame honest (without it, tiny late batches would
  // pay the O(n/64) mask scan for a handful of deletions), and the 64
  // floor keeps micro-instances from sweeping per deletion.  The trigger
  // is a pure function of per-shard counters every flavour maintains
  // identically, so for a fixed plan the sweeps fire at the same
  // operations on every thread count; cold shards cost one compare.
  // Cost per sweep: O(n/64 + shard live entries + shard debt), and both
  // non-debt terms are bounded by the debt at the trigger — O(1) amortized
  // per deleted entry.
  std::uint64_t sweeps = 0;
  std::uint64_t swept = 0;
  for (std::size_t s = 0; s < plan_.count; ++s) {
    ShardState& st = shard_state_[s];
    if (st.stale_entries < 64 || st.stale_entries * 2 < st.live_entries ||
        st.stale_entries < live_mask_.num_words()) {
      continue;
    }
    const std::size_t debt = st.stale_entries;
    sweep_shard(s);
    ++sweeps;
    swept += debt;
  }
  if (sweeps != 0) detail::note_sweeps(sweeps, swept);
}

std::size_t MutableHypergraph::gather_batch_incidence(
    std::span<const VertexId> vs, std::size_t work) {
  const std::size_t m = edge_size_.size();
  const std::size_t S = plan_.count;
  // Dense regime: a batch touching a constant fraction of the edge set is
  // gathered faster by marking a full-width bitset and packing it (the
  // marking still walks only the batch incidence; only the pack is O(m),
  // which the touch size already is, up to the constant below).  Each shard
  // zero-fills and marks its OWN word range (the stride is a multiple of
  // 64), so the per-shard bitset-OR needs no atomics and no global clear.
  if (work >= m / 8) {
    detail::note_gather(/*dense=*/true);
    if (touched_mask_.size() != m) touched_mask_.resize(m);
    std::uint64_t* words = touched_mask_.word_data();
    par::parallel_for_shards(
        S,
        [&](std::size_t s) {
          const std::size_t wlo = plan_.shard_begin(s) / 64;
          const std::size_t whi = std::min(
              touched_mask_.num_words(),
              (plan_.shard_begin(s) + plan_.stride) / 64);
          std::fill(words + wlo, words + whi, 0);
          for (const VertexId v : vs) {
            const EdgeId* p = inc_pools_[s].data() + inc_seg_off_[seg(v, s)];
            const std::uint32_t len = inc_seg_len_[seg(v, s)];
            for (std::uint32_t j = 0; j < len; ++j) {
              const EdgeId e = p[j];
              if (edge_live_[e]) words[e >> 6] |= 1ULL << (e & 63);
            }
          }
        },
        plan_.affinity_offset, pool_);
    return par::pack_indices_into(
        m, [&](std::size_t e) { return touched_mask_.test(e); },
        pack_offsets_, touched_edges_, nullptr, pool_);
  }
  // Sparse regime: fan out per shard — each shard collects the batch's live
  // entries from its own segments, sorts, and uniques, producing one
  // duplicate-free ascending run per shard.  The runs cover disjoint
  // ascending edge ranges by construction, so the deterministic merge is a
  // concat (par/shard_merge.hpp) and the result equals the unsharded
  // sort + adjacent-unique for every shard count.  Cost: O(touch log touch)
  // total, never O(m).
  detail::note_gather(/*dense=*/false);
  shard_runs_.resize(S);
  par::parallel_for_shards(
      S,
      [&](std::size_t s) {
        std::vector<EdgeId>& run = shard_runs_[s];
        run.clear();
        for (const VertexId v : vs) {
          const EdgeId* p = inc_pools_[s].data() + inc_seg_off_[seg(v, s)];
          const std::uint32_t len = inc_seg_len_[seg(v, s)];
          for (std::uint32_t j = 0; j < len; ++j) {
            const EdgeId e = p[j];
            if (edge_live_[e]) run.push_back(e);
          }
        }
        std::sort(run.begin(), run.end());
        run.erase(std::unique(run.begin(), run.end()), run.end());
      },
      plan_.affinity_offset, pool_);
  return par::shard::concat_sorted_runs_into(shard_runs_, run_offsets_,
                                             touched_edges_, pool_);
}

void MutableHypergraph::color_blue(std::span<const VertexId> vs) {
  // Coloring itself stays serial: it is O(|vs|) and keeps the duplicate /
  // non-live checks exact (a racing parallel version could let a duplicate
  // slip between check and write).
  for (const VertexId v : vs) {
    HMIS_CHECK(color_[v] == Color::None, "coloring a non-live vertex blue");
    color_[v] = Color::Blue;
    live_mask_.reset(v);
    --live_vertex_count_;
  }
  const std::size_t work = incident_work(vs);
  if (use_parallel(work)) {
    parallel_shrink_blue(vs, work);
    return;
  }
  // Shrink live incident edges, walking the live-incidence segments: only
  // the edges touching the batch are visited, never all m.  A vertex leaves
  // an edge only here, when it turns blue.  Each batch vertex leaves each
  // of its live edges exactly once, so every shard's live entry count drops
  // by the live entries walked in its segments.  (The orphaned index
  // entries sit in the now-dead batch vertices' own segments, which are
  // never walked again — blue creates no debt in live segments.)
  const std::size_t S = plan_.count;
  for (const VertexId v : vs) {
    for (std::size_t s = 0; s < S; ++s) {
      const EdgeId* p = inc_pools_[s].data() + inc_seg_off_[seg(v, s)];
      const std::uint32_t len = inc_seg_len_[seg(v, s)];
      std::size_t removed = 0;
      for (std::uint32_t j = 0; j < len; ++j) {
        const EdgeId e = p[j];
        if (!edge_live_[e]) continue;
        ++removed;
        // A live entry's edge still contains v: the only removal site is
        // this loop, and v was live until this batch.
        VertexId* verts = edge_begin(e);
        std::uint32_t sz = edge_size_[e];
        VertexId* it = std::lower_bound(verts, verts + sz, v);
        std::move(it + 1, verts + sz, it);  // order-preserving in-place erase
        edge_size_[e] = --sz;
        --live_degree_[v];  // v no longer counted in this edge
        HMIS_CHECK(sz != 0, "edge became fully blue: independence violated");
        if (sz == 1) singleton_pending_.push_back(e);
        mark_shrunk(e);
      }
      shard_state_[s].live_entries -= removed;
    }
  }
}

void MutableHypergraph::parallel_shrink_blue(std::span<const VertexId> vs,
                                             std::size_t work) {
  // Pass 1: gather the distinct live edges incident to the batch (the only
  // edges whose contents can change).
  const std::size_t touched = gather_batch_incidence(vs, work);
  // Pass 2: each touched edge drops its just-blued members in one sweep.
  // Edges are disjoint work items; only the degree counters are shared, and
  // each removed (edge, vertex) pair decrements exactly once.  Each edge
  // records how many members it lost so the serial accounting pass below
  // can charge the right shard.
  shrink_removed_.resize(touched);
  par::parallel_for(
      0, touched,
      [&](std::size_t j) {
        const EdgeId e = touched_edges_[j];
        VertexId* verts = edge_begin(e);
        const std::uint32_t sz = edge_size_[e];
        std::uint32_t w = 0;
        for (std::uint32_t r = 0; r < sz; ++r) {
          const VertexId u = verts[r];
          if (color_[u] == Color::Blue) {
            atomic_decrement(live_degree_[u]);
          } else {
            verts[w++] = u;
          }
        }
        HMIS_CHECK(w != 0, "edge became fully blue: independence violated");
        edge_size_[e] = w;
        shrink_removed_[j] = sz - w;
      },
      nullptr, pool_);
  // Serial epilogue: per-shard live-entry accounting (every removed
  // (edge, vertex) pair was one live entry in the edge's shard — the same
  // count the serial flavour accumulates segment by segment) and the
  // singleton feed, ascending (touched is sorted, so shard runs are
  // contiguous and the cursor only moves forward).
  std::size_t s = 0;
  std::size_t end = plan_.stride;
  std::size_t removed = 0;
  for (std::size_t j = 0; j < touched; ++j) {
    const EdgeId e = touched_edges_[j];
    while (e >= end) {
      shard_state_[s].live_entries -= removed;
      removed = 0;
      ++s;
      end += plan_.stride;
    }
    removed += shrink_removed_[j];
    if (edge_size_[e] == 1) singleton_pending_.push_back(e);
    mark_shrunk(e);
  }
  shard_state_[s].live_entries -= removed;
}

void MutableHypergraph::color_red(std::span<const VertexId> vs) {
  for (const VertexId v : vs) {
    HMIS_CHECK(color_[v] == Color::None, "coloring a non-live vertex red");
    color_[v] = Color::Red;
    live_mask_.reset(v);
    --live_vertex_count_;
  }
  const std::size_t work = incident_work(vs);
  if (use_parallel(work)) {
    parallel_delete_red(vs, work);
    return;
  }
  // Delete every live edge incident to the batch.  A live incidence entry's
  // edge still contains its vertex, so no membership test is needed.
  for (const VertexId v : vs) {
    for_each_live_incident(v, [&](EdgeId e) { delete_edge(e); });
  }
  maybe_compact_shards();
}

void MutableHypergraph::parallel_delete_red(std::span<const VertexId> vs,
                                            std::size_t work) {
  // Pass 1: gather the distinct doomed edges — live edges containing a
  // batch vertex.  Nothing is mutated, so the walks race with nothing.
  const std::size_t doomed = gather_batch_incidence(vs, work);
  // Pass 2: delete each doomed edge exactly once.  Dirty marking is an
  // idempotent atomic bit set — racing markers of the same vertex agree.
  par::parallel_for(
      0, doomed,
      [&](std::size_t j) {
        const EdgeId e = touched_edges_[j];
        edge_live_.reset_atomic(e);
        const std::size_t s = plan_.shard_of(e);
        const VertexId* verts =
            edge_pools_[s].data() + (edge_offset(e) - shard_payload_base_[s]);
        const std::uint32_t sz = edge_size_[e];
        for (std::uint32_t r = 0; r < sz; ++r) {
          atomic_decrement(live_degree_[verts[r]]);
          dirty_[s].set_atomic(verts[r]);
        }
      },
      nullptr, pool_);
  live_edge_count_ -= doomed;
  account_deleted_sorted({touched_edges_.data(), doomed});
  maybe_compact_shards();
}

std::vector<VertexId> MutableHypergraph::singleton_cascade() {
  // Consume the pending queue instead of rescanning all m edges: the only
  // operation that shrinks edges (color_blue) appends every edge that hits
  // size 1, and the constructor seeds the edges born at size 1 — so live
  // singletons are always a subset of the queue.  Deleting edges never
  // shrinks others, so one sweep plus one batched exclusion suffices.
  // Distinct vertices only — duplicate singleton edges {v},{v} force v red
  // once.  The queue's order may differ between flavours (serial discovery
  // vs ascending batch order), but the sort below makes the output — and
  // everything observable — identical.
  std::vector<VertexId> reds;
  const std::size_t pending = singleton_pending_.size();
  if (use_parallel(pending)) {
    // Pack the live singletons' queue slots, gather their vertices, sort —
    // the same collection the serial walk does, scaled to the pool.
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> slots;
    const std::size_t cnt = par::pack_indices_into(
        pending,
        [&](std::size_t j) {
          const EdgeId e = singleton_pending_[j];
          return edge_live_[e] && edge_size_[e] == 1;
        },
        offsets, slots, nullptr, pool_);
    reds.resize(cnt);
    par::parallel_for(
        0, cnt,
        [&](std::size_t j) {
          reds[j] = edge(singleton_pending_[slots[j]]).front();
        },
        nullptr, pool_);
    par::parallel_sort(reds, std::less<VertexId>{}, nullptr, pool_);
  } else {
    for (const EdgeId e : singleton_pending_) {
      if (edge_live_[e] && edge_size_[e] == 1) {
        reds.push_back(edge(e).front());
      }
    }
    std::sort(reds.begin(), reds.end());
  }
  singleton_pending_.clear();
  reds.erase(std::unique(reds.begin(), reds.end()), reds.end());
  if (!reds.empty()) {
    // Red exclusions commute (they only delete edges), so the whole batch is
    // equivalent to excluding the queue one vertex at a time.
    color_red(reds);
  }
  return reds;
}

std::vector<VertexId> MutableHypergraph::isolated_live_vertices() const {
  if (!use_parallel(n_)) {
    std::vector<VertexId> out;
    live_mask_.for_each_set_bit([&](std::size_t v) {
      if (live_degree_[v] == 0) out.push_back(static_cast<VertexId>(v));
    });
    return out;
  }
  return par::pack_indices(
      n_,
      [&](std::size_t v) { return live_mask_.test(v) && live_degree_[v] == 0; },
      nullptr, pool_);
}

std::size_t MutableHypergraph::dedupe_and_minimalize() {
  // Removes exactly what a from-scratch pass would: every live edge that
  // strictly contains another live edge, and every live edge equal to one
  // with a smaller id.  Only a dirty edge (one that shrank since the last
  // call; all edges before the first) can witness such a removal — the
  // residual was minimal after the previous call, deletions create no
  // containment, and a clean witness w ⊆ e would have satisfied w ⊆ e
  // already then (DESIGN.md §7, "Incremental rounds").
  //
  // Pass 1 (read-only): each live dirty edge f walks the segments of its
  // lowest-live-degree member — every live g ⊇ f sits there — and dooms
  // each strict superset, and the larger id of each equal pair.  A doomed
  // witness still counts (the from-scratch pass tests against every live
  // edge).  Dooming is an idempotent atomic bit set.
  if (doomed_mask_.size() != edge_size_.size()) {
    doomed_mask_.resize(edge_size_.size());
  }
  const std::size_t checks =
      all_dirty_ ? edge_size_.size() : dirty_edges_.size();
  for_range(checks, [&](std::size_t i) {
    const EdgeId f = all_dirty_ ? static_cast<EdgeId>(i) : dirty_edges_[i];
    if (!edge_live_[f]) return;
    const auto fv = edge(f);
    VertexId pivot = fv.front();
    for (const VertexId v : fv) {
      if (live_degree_[v] < live_degree_[pivot]) pivot = v;
    }
    for_each_live_incident(pivot, [&](EdgeId g) {
      if (g == f || edge_size_[g] < fv.size()) return;
      if (edge_size_[g] == fv.size()) {
        if (edge_equal(f, g)) doomed_mask_.set_atomic(std::max(f, g));
        return;
      }
      const auto gv = edge(g);
      if (std::includes(gv.begin(), gv.end(), fv.begin(), fv.end())) {
        doomed_mask_.set_atomic(g);
      }
    });
  });
  if (all_dirty_) {
    dirty_edge_mask_.clear_all();
    all_dirty_ = false;
  } else {
    for (const EdgeId f : dirty_edges_) dirty_edge_mask_.reset(f);
  }
  dirty_edges_.clear();

  // Pass 2: delete the doomed edges in ascending id order.
  std::size_t removed = 0;
  doomed_mask_.for_each_set_bit([&](std::size_t g) {
    delete_edge(static_cast<EdgeId>(g));
    ++removed;
  });
  if (removed != 0) doomed_mask_.clear_all();
  maybe_compact_shards();
  return removed;
}

MutableHypergraph::Induced MutableHypergraph::induced_subgraph(
    const util::DynamicBitset& keep) const {
  Induced out;
  InducedScratch scratch;
  build_induced(&keep, out, scratch);
  return out;
}

MutableHypergraph::Induced MutableHypergraph::live_snapshot() const {
  Induced out;
  InducedScratch scratch;
  build_induced(nullptr, out, scratch);
  return out;
}

void MutableHypergraph::induced_subgraph_into(const util::DynamicBitset& keep,
                                              Induced& out,
                                              InducedScratch& scratch) const {
  build_induced(&keep, out, scratch);
}

void MutableHypergraph::live_snapshot_into(Induced& out,
                                           InducedScratch& scratch) const {
  build_induced(nullptr, out, scratch);
}

void MutableHypergraph::build_induced(const util::DynamicBitset* keep,
                                      Induced& out,
                                      InducedScratch& scratch) const {
  if (!use_parallel(n_ + edge_size_.size())) {
    build_induced_serial(keep, out, scratch);
  } else {
    build_induced_parallel(keep, out, scratch);
  }
}

// Serial flavour: direct CSR assembly with the same passes as the parallel
// kernel (relabel, classify, canonical-survivor dedupe, emit in original
// edge order), word-level over the liveness bitsets so the kept set is
// found at memory speed.  Produces the graph the HypergraphBuilder would:
// first-insertion-wins dedupe keeps the smallest original edge id at its
// position in edge order, which is what the (size, lex, id) canonical
// survivor emits here.
void MutableHypergraph::build_induced_serial(const util::DynamicBitset* keep,
                                             Induced& out,
                                             InducedScratch& scratch) const {
  const std::size_t m = edge_size_.size();

  // Relabel kept live vertices: walk live & keep one word at a time.
  scratch.to_local.assign(n_, kInvalidVertex);
  out.to_original.clear();
  const std::uint64_t* kw = keep != nullptr ? keep->words().data() : nullptr;
  const std::size_t W = live_mask_.num_words();
  for (std::size_t wi = 0; wi < W; ++wi) {
    std::uint64_t w = live_mask_.word(wi);
    if (kw != nullptr) w &= kw[wi];
    const std::size_t base = wi * 64;
    while (w != 0) {
      const std::size_t v =
          base + static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      scratch.to_local[v] = static_cast<VertexId>(out.to_original.size());
      out.to_original.push_back(static_cast<VertexId>(v));
    }
  }
  const std::size_t k = out.to_original.size();

  // Candidate edges: live and entirely inside the kept set.
  scratch.cand.clear();
  edge_live_.for_each_set_bit([&](std::size_t e) {
    for (const VertexId v : edge(static_cast<EdgeId>(e))) {
      if (scratch.to_local[v] == kInvalidVertex) return;
    }
    scratch.cand.push_back(static_cast<std::uint32_t>(e));
  });

  // Canonical-survivor dedupe: order by (size, lex, id), emit group heads.
  std::sort(scratch.cand.begin(), scratch.cand.end(),
            [this](EdgeId a, EdgeId b) { return edge_size_lex_id_less(a, b); });
  scratch.emit.assign(m, 0);
  for (std::size_t i = 0; i < scratch.cand.size(); ++i) {
    if (i > 0 && edge_equal(scratch.cand[i - 1], scratch.cand[i])) {
      continue;
    }
    scratch.emit[scratch.cand[i]] = 1;
  }

  // Edge CSR in original edge-id order; local_edge doubles as the
  // original->local edge id map for the incidence fill below.
  Hypergraph& g = out.graph;
  g.n_ = k;
  g.own_edge_offsets_.clear();
  g.own_edge_offsets_.push_back(0);
  g.own_edge_vertices_.clear();
  scratch.local_edge.resize(m);
  scratch.deg.assign(k, 0);
  std::size_t dim = 0;
  std::size_t min_size = SIZE_MAX;
  for (EdgeId e = 0; e < m; ++e) {
    if (!scratch.emit[e]) continue;
    scratch.local_edge[e] =
        static_cast<std::uint32_t>(g.own_edge_offsets_.size() - 1);
    for (const VertexId v : edge(e)) {
      g.own_edge_vertices_.push_back(scratch.to_local[v]);
      ++scratch.deg[scratch.to_local[v]];
    }
    g.own_edge_offsets_.push_back(g.own_edge_vertices_.size());
    dim = std::max<std::size_t>(dim, edge_size_[e]);
    min_size = std::min<std::size_t>(min_size, edge_size_[e]);
  }
  const std::size_t num_out_edges = g.own_edge_offsets_.size() - 1;
  g.dimension_ = dim;
  g.min_edge_size_ = num_out_edges == 0 ? 0 : min_size;

  // Vertex -> incident edge CSR (voffset doubles as the fill cursor).
  g.own_vertex_offsets_.resize(k + 1);
  scratch.voffset.resize(k);
  std::size_t total_incidence = 0;
  for (std::size_t lv = 0; lv < k; ++lv) {
    g.own_vertex_offsets_[lv] = total_incidence;
    scratch.voffset[lv] = static_cast<std::uint32_t>(total_incidence);
    total_incidence += scratch.deg[lv];
  }
  g.own_vertex_offsets_[k] = total_incidence;
  g.own_vertex_edges_.resize(total_incidence);
  for (EdgeId e = 0; e < m; ++e) {
    if (!scratch.emit[e]) continue;
    for (const VertexId v : edge(e)) {
      g.own_vertex_edges_[scratch.voffset[scratch.to_local[v]]++] =
          scratch.local_edge[e];
    }
  }
  g.rebind_owned_();
}

void MutableHypergraph::build_induced_parallel(const util::DynamicBitset* keep,
                                               Induced& out,
                                               InducedScratch& scratch) const {
  const std::size_t m = edge_size_.size();

  // ---- Pass 1: relabel kept live vertices (word-level scan compaction). ---
  // The scan runs over 64-vertex words (popcount of live & keep), then each
  // word expands its own slice — O(n/64 + kept) work instead of n
  // per-vertex predicate evaluations.
  const std::uint64_t* kw = keep != nullptr ? keep->words().data() : nullptr;
  const std::size_t W = live_mask_.num_words();
  scratch.voffset.resize(W);
  const std::uint32_t k = par::exclusive_scan<std::uint32_t>(
      W,
      [&](std::size_t wi) {
        std::uint64_t w = live_mask_.word(wi);
        if (kw != nullptr) w &= kw[wi];
        return static_cast<std::uint32_t>(std::popcount(w));
      },
      scratch.voffset.data(), nullptr, pool_);
  scratch.to_local.resize(n_);
  out.to_original.resize(k);
  par::parallel_for(
      0, W,
      [&](std::size_t wi) {
        std::uint64_t w = live_mask_.word(wi);
        if (kw != nullptr) w &= kw[wi];
        const std::size_t base = wi * 64;
        const std::size_t hi = std::min<std::size_t>(64, n_ - base);
        std::uint32_t next = scratch.voffset[wi];
        for (std::size_t b = 0; b < hi; ++b) {
          const std::size_t v = base + b;
          if ((w >> b) & 1u) {
            scratch.to_local[v] = next;
            out.to_original[next] = static_cast<VertexId>(v);
            ++next;
          } else {
            scratch.to_local[v] = kInvalidVertex;
          }
        }
      },
      nullptr, pool_);

  // ---- Pass 2: classify edges — live and entirely inside the sample. ------
  scratch.inside.resize(m);
  par::parallel_for(
      0, m,
      [&](std::size_t e) {
        std::uint8_t in = edge_live_[e] ? 1 : 0;
        if (in) {
          for (const VertexId v : edge(static_cast<EdgeId>(e))) {
            if (scratch.to_local[v] == kInvalidVertex) {
              in = 0;
              break;
            }
          }
        }
        scratch.inside[e] = in;
      },
      nullptr, pool_);

  // ---- Dedupe: collapse equal-content inside edges, smallest id wins ------
  // (matches the serial first-insertion-wins rule).  Relabeling is
  // monotonic, so comparing ORIGINAL vertex lists orders local content too.
  par::pack_indices_into(
      m, [&](std::size_t e) { return scratch.inside[e] != 0; },
      scratch.local_edge, scratch.cand, nullptr, pool_);
  par::parallel_sort(
      scratch.cand,
      [this](EdgeId a, EdgeId b) { return edge_size_lex_id_less(a, b); },
      nullptr, pool_);
  scratch.emit.resize(m);
  par::parallel_for(
      0, m, [&](std::size_t e) { scratch.emit[e] = scratch.inside[e]; },
      nullptr, pool_);
  par::parallel_for(
      0, scratch.cand.size(),
      [&](std::size_t i) {
        if (i > 0 && edge_equal(scratch.cand[i - 1], scratch.cand[i])) {
          scratch.emit[scratch.cand[i]] = 0;
        }
      },
      nullptr, pool_);

  // ---- Edge CSR, emitted in original edge-id order. -----------------------
  scratch.local_edge.resize(m);
  const std::uint32_t num_out_edges = par::exclusive_scan<std::uint32_t>(
      m, [&](std::size_t e) { return scratch.emit[e] ? 1u : 0u; },
      scratch.local_edge.data(), nullptr, pool_);
  scratch.estart.resize(m);
  const std::size_t total_size = par::exclusive_scan<std::size_t>(
      m,
      [&](std::size_t e) {
        return scratch.emit[e] ? std::size_t{edge_size_[e]} : std::size_t{0};
      },
      scratch.estart.data(), nullptr, pool_);

  Hypergraph& g = out.graph;
  g.n_ = k;
  g.own_edge_offsets_.resize(num_out_edges + 1);
  g.own_edge_offsets_[0] = 0;
  g.own_edge_vertices_.resize(total_size);
  par::parallel_for(
      0, m,
      [&](std::size_t e) {
        if (!scratch.emit[e]) return;
        std::size_t pos = scratch.estart[e];
        for (const VertexId v : edge(static_cast<EdgeId>(e))) {
          g.own_edge_vertices_[pos++] = scratch.to_local[v];
        }
        g.own_edge_offsets_[scratch.local_edge[e] + 1] = pos;
      },
      nullptr, pool_);
  g.dimension_ = par::reduce_max<std::size_t>(
      0, m, 0,
      [&](std::size_t e) {
        return scratch.emit[e] ? std::size_t{edge_size_[e]} : std::size_t{0};
      },
      nullptr, pool_);
  g.min_edge_size_ =
      num_out_edges == 0
          ? 0
          : par::reduce_min<std::size_t>(
                0, m, SIZE_MAX,
                [&](std::size_t e) {
                  return scratch.emit[e] ? std::size_t{edge_size_[e]}
                                         : std::size_t{SIZE_MAX};
                },
                nullptr, pool_);

  // ---- Vertex -> incident edge CSR. ---------------------------------------
  // Degree histogram first (commutative atomic counts), then every local
  // vertex fills its own slice by walking its LIVE incidence segments in
  // shard order — ascending edge ids overall, and every emitted edge of a
  // live vertex sits in those segments (it never left: only blue coloring
  // removes a vertex from an edge).  Emitted local ids ascend with original
  // ids, so the incidence lists come out sorted with no cross-thread writes
  // and no membership tests.
  scratch.deg.resize(k);
  par::parallel_for(
      0, k, [&](std::size_t lv) { scratch.deg[lv] = 0; }, nullptr, pool_);
  par::parallel_for(
      0, m,
      [&](std::size_t e) {
        if (!scratch.emit[e]) return;
        for (const VertexId v : edge(static_cast<EdgeId>(e))) {
          atomic_increment(scratch.deg[scratch.to_local[v]]);
        }
      },
      nullptr, pool_);
  g.own_vertex_offsets_.resize(k + 1);
  const std::size_t total_incidence = par::exclusive_scan<std::size_t>(
      k, [&](std::size_t lv) { return std::size_t{scratch.deg[lv]}; },
      g.own_vertex_offsets_.data(), nullptr, pool_);
  g.own_vertex_offsets_[k] = total_incidence;
  g.own_vertex_edges_.resize(total_incidence);
  const std::size_t S = plan_.count;
  par::parallel_for(
      0, k,
      [&](std::size_t lv) {
        const VertexId ov = out.to_original[lv];
        std::size_t pos = g.own_vertex_offsets_[lv];
        for (std::size_t s = 0; s < S; ++s) {
          const EdgeId* p = inc_pools_[s].data() + inc_seg_off_[seg(ov, s)];
          const std::uint32_t len = inc_seg_len_[seg(ov, s)];
          for (std::uint32_t j = 0; j < len; ++j) {
            const EdgeId e = p[j];
            if (scratch.emit[e]) {
              g.own_vertex_edges_[pos++] = scratch.local_edge[e];
            }
          }
        }
      },
      nullptr, pool_);
  g.rebind_owned_();
}

}  // namespace hmis
