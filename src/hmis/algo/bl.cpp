#include "hmis/algo/bl.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "hmis/engine/round_context.hpp"
#include "hmis/hypergraph/validate.hpp"
#include "hmis/par/parallel_for.hpp"
#include "hmis/par/reduce.hpp"
#include "hmis/par/task_group.hpp"
#include "hmis/util/check.hpp"
#include "hmis/util/rng.hpp"
#include "hmis/util/timer.hpp"

namespace hmis::algo {

double bl_probability(const DegreeStats& stats, double a_factor) {
  const double d = static_cast<double>(std::max<std::size_t>(stats.dimension, 1));
  const double a = (a_factor > 0.0) ? a_factor : std::exp2(d + 1.0);
  const double delta = std::max(stats.delta, 1.0);
  return std::clamp(1.0 / (a * delta), 1e-9, 0.5);
}

BlOutcome bl_run(MutableHypergraph& mh, const BlOptions& opt,
                 par::Metrics* metrics, engine::RoundContext* ctx) {
  BlOutcome out;
  const util::CounterRng rng(opt.seed);
  engine::RoundContext local_ctx;
  engine::RoundContext& rc = ctx != nullptr ? *ctx : local_ctx;
  // A caller-provided context may already carry the session token (SBL's
  // outer loop installs it); only adopt ours into a fresh context.
  if (rc.cancel == nullptr) rc.cancel = opt.cancel;

  // The residual structure runs its maintenance (shrink, delete, dedupe,
  // scans) on the same pool as the algorithm's own primitives.
  mh.set_pool(par::resolve_pool(opt.pool));

  // Initial cleanup mirrors what the main loop maintains.
  if (opt.minimalize) mh.dedupe_and_minimalize();
  mh.singleton_cascade();
  if (opt.isolated_shortcut) {
    const auto isolated = mh.isolated_live_vertices();
    if (!isolated.empty()) mh.color_blue(isolated);
  }

  // Δ(H) of the residual, kept live across rounds: each sync re-counts
  // only the edges the previous round shrank or deleted.
  DegreeTracker& degrees = rc.degree_tracker();
  degrees.reset(opt.stats);

  // Stage-invariant quantities when recompute_probability is off.
  double static_p = opt.probability_override;
  if (static_p <= 0.0 && !opt.recompute_probability) {
    static_p = bl_probability(degrees.sync(mh), opt.a_factor);
  }

  auto& marked = rc.marked(mh.num_original_vertices());
  auto& unmarked = rc.unmarked(mh.num_original_vertices());

  while (mh.num_live_vertices() > 0) {
    rc.poll_cancel();
    if (out.stages >= opt.max_rounds) {
      out.success = false;
      out.failure_reason = "BL exceeded max_rounds";
      return out;
    }
    StageStats stats;
    stats.stage = out.stages;
    stats.live_vertices = mh.num_live_vertices();
    stats.live_edges = mh.num_live_edges();
    stats.dimension = mh.max_live_edge_size();

    // A residual hypergraph with no live edges is unconstrained.
    if (mh.num_live_edges() == 0) {
      const auto rest = mh.live_vertices();
      mh.color_blue(rest);
      stats.added_blue = rest.size();
      stats.p = 1.0;
      if (metrics) metrics->add(rest.size(), par::map_depth(rest.size()));
      ++out.stages;
      if (opt.record_trace) out.trace.push_back(stats);
      if (opt.on_stage) opt.on_stage(mh, stats);
      break;
    }

    // Marking probability.
    double p = opt.probability_override;
    if (p <= 0.0) {
      if (opt.recompute_probability) {
        const DegreeStats& dstats = degrees.sync(mh);
        stats.delta = dstats.delta;
        p = bl_probability(dstats, opt.a_factor);
        if (metrics) {
          // Degree statistics: one emission per (edge, subset); modeled as a
          // sort over the emission list.
          const std::uint64_t emissions =
              std::min<std::uint64_t>(opt.stats.enum_budget,
                                      mh.total_live_edge_size() << 4);
          metrics->add(par::sort_work(emissions), par::sort_depth(emissions));
        }
      } else {
        p = static_p;
      }
    }
    stats.p = p;

    const std::size_t n = mh.num_original_vertices();
    // The live-edge compaction is independent of the live-vertex compaction
    // and of the marking pass (all read-only on mh, or writing disjoint
    // scratch), so it runs as a nested task overlapping both — each side
    // still runs its own deterministic parallel kernels on the same pool.
    std::vector<EdgeId> edges;
    par::TaskGroup edge_scan(*par::resolve_pool(opt.pool));
    edge_scan.run([&] { edges = mh.live_edges(); });
    const auto live = mh.live_vertices();

    // (2) Mark independently with probability p — counter RNG keyed by
    // (stage, vertex) makes this order- and thread-independent.
    par::parallel_for(
        0, live.size(),
        [&](std::size_t i) {
          const VertexId v = live[i];
          marked[v] = rng.bernoulli(p, stats.stage, v) ? 1 : 0;
        },
        metrics, opt.pool);
    edge_scan.wait();

    // (3) Unmark members of fully marked edges.  A vertex can sit in edges
    // of several chunks, so the idempotent set must be an *atomic* store
    // (relaxed: the join publishes, and every writer writes the same value).
    par::parallel_for(
        0, edges.size(),
        [&](std::size_t i) {
          const auto verts = mh.edge(edges[i]);
          bool all = true;
          for (const VertexId v : verts) {
            if (!marked[v]) {
              all = false;
              break;
            }
          }
          if (all) {
            for (const VertexId v : verts) {
              std::atomic_ref<std::uint8_t>(unmarked[v])
                  .store(1, std::memory_order_relaxed);
            }
          }
        },
        metrics, opt.pool);

    // (4) Survivors join the independent set.
    std::vector<VertexId> survivors;
    std::size_t n_marked = 0;
    for (const VertexId v : live) {
      if (marked[v]) {
        ++n_marked;
        if (!unmarked[v]) survivors.push_back(v);
      }
    }
    stats.marked = n_marked;
    stats.unmarked = n_marked - survivors.size();
    stats.added_blue = survivors.size();
    if (metrics) metrics->add(live.size(), par::log_depth(live.size()));

    mh.color_blue(survivors);

    // Reset mark scratch for the vertices we touched.
    for (const VertexId v : live) {
      marked[v] = 0;
      unmarked[v] = 0;
    }

    // (5) Cleanup: singleton rule, minimalization, isolated shortcut.
    const std::size_t edges_before = mh.num_live_edges();
    const auto reds = mh.singleton_cascade();
    stats.forced_red = reds.size();
    if (opt.minimalize) mh.dedupe_and_minimalize();
    if (opt.isolated_shortcut) {
      const auto isolated = mh.isolated_live_vertices();
      if (!isolated.empty()) {
        mh.color_blue(isolated);
        stats.added_blue += isolated.size();
      }
    }
    stats.edges_deleted = edges_before - mh.num_live_edges();
    if (metrics) {
      metrics->add(mh.total_live_edge_size() + n / 64 + 1,
                   par::log_depth(std::max<std::size_t>(edges_before, 1)));
    }

    if (opt.check_invariants) {
      // No live edge may be empty or contain a colored vertex.
      for (const EdgeId e : mh.live_edges()) {
        const auto verts = mh.edge(e);
        HMIS_CHECK(!verts.empty(), "live edge is empty");
        for (const VertexId v : verts) {
          HMIS_CHECK(mh.vertex_live(v), "live edge contains colored vertex");
        }
      }
    }

    ++out.stages;
    if (opt.record_trace) out.trace.push_back(stats);
    if (opt.on_stage) opt.on_stage(mh, stats);
  }
  return out;
}

Result bl(const Hypergraph& h, const BlOptions& opt) {
  util::Timer timer;
  Result result;
  MutableHypergraph mh(h, nullptr, opt.shards);
  BlOutcome outcome = bl_run(mh, opt, &result.metrics);
  result.success = outcome.success;
  result.failure_reason = std::move(outcome.failure_reason);
  result.rounds = outcome.stages;
  result.trace = std::move(outcome.trace);
  result.independent_set = mh.blue_vertices();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace hmis::algo
