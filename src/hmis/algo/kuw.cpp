#include "hmis/algo/kuw.hpp"

#include <algorithm>

#include "hmis/engine/round_context.hpp"
#include "hmis/par/parallel_for.hpp"
#include "hmis/par/reduce.hpp"
#include "hmis/par/sort.hpp"
#include "hmis/util/check.hpp"
#include "hmis/util/rng.hpp"
#include "hmis/util/timer.hpp"

namespace hmis::algo {

KuwOutcome kuw_run(MutableHypergraph& mh, const KuwOptions& opt,
                   par::Metrics* metrics, engine::RoundContext* ctx) {
  KuwOutcome out;
  const util::CounterRng rng(opt.seed);

  mh.set_pool(par::resolve_pool(opt.pool));
  mh.singleton_cascade();

  engine::RoundContext local_ctx;
  engine::RoundContext& rc = ctx != nullptr ? *ctx : local_ctx;
  if (rc.cancel == nullptr) rc.cancel = opt.cancel;
  auto& position = rc.positions(mh.num_original_vertices());
  using PriorityKey = engine::RoundContext::PriorityKey;

  while (mh.num_live_vertices() > 0) {
    rc.poll_cancel();
    if (out.rounds >= opt.max_rounds) {
      out.success = false;
      out.failure_reason = "KUW exceeded max_rounds";
      return out;
    }
    StageStats stats;
    stats.stage = out.rounds;
    stats.live_vertices = mh.num_live_vertices();
    stats.live_edges = mh.num_live_edges();

    auto order = mh.live_vertices();
    if (mh.num_live_edges() == 0) {
      stats.added_blue = order.size();
      mh.color_blue(order);
      ++out.rounds;
      if (opt.record_trace) out.trace.push_back(stats);
      break;
    }

    // Random order via counter-RNG keys (deterministic per (seed, round)):
    // one priority draw per vertex, then a sort on (priority, id).
    auto& keys = rc.priority_keys(order.size());
    par::parallel_for(
        0, order.size(),
        [&](std::size_t i) {
          keys[i] = {rng.priority(stats.stage, order[i]), order[i]};
        },
        nullptr, opt.pool);
    par::parallel_sort(
        keys,
        [](const PriorityKey& a, const PriorityKey& b) {
          return a.priority != b.priority ? a.priority < b.priority
                                          : a.vertex < b.vertex;
        },
        metrics, opt.pool);
    par::parallel_for(
        0, order.size(),
        [&](std::size_t i) {
          order[i] = keys[i].vertex;
          position[order[i]] = static_cast<std::uint32_t>(i + 1);  // 1-based
        },
        metrics, opt.pool);

    // i* = min over live edges of (max member position).
    const auto edges = mh.live_edges();
    const std::uint32_t i_star = par::reduce_min<std::uint32_t>(
        0, edges.size(), static_cast<std::uint32_t>(order.size() + 1),
        [&](std::size_t i) {
          std::uint32_t mx = 0;
          for (const VertexId v : mh.edge(edges[i])) {
            mx = std::max(mx, position[v]);
          }
          return mx;
        },
        metrics, opt.pool);
    HMIS_CHECK(i_star >= 1 && i_star <= order.size(),
               "KUW: blocking position out of range");

    // Add the largest independent prefix, exclude its blocker.
    const std::span<const VertexId> prefix(order.data(), i_star - 1);
    const VertexId blocker = order[i_star - 1];
    stats.added_blue = prefix.size();
    stats.forced_red = 1;
    if (!prefix.empty()) {
      mh.color_blue(prefix);
    }
    mh.color_red(std::span<const VertexId>(&blocker, 1));
    // Newly dominated vertices (edges shrunk to singletons) are excluded now;
    // KUW's oracle would simply never accept them.
    const auto reds = mh.singleton_cascade();
    stats.forced_red += reds.size();

    ++out.rounds;
    if (opt.record_trace) out.trace.push_back(stats);
  }
  return out;
}

Result kuw_mis(const Hypergraph& h, const KuwOptions& opt) {
  util::Timer timer;
  Result result;
  MutableHypergraph mh(h, nullptr, opt.shards);
  KuwOutcome outcome = kuw_run(mh, opt, &result.metrics);
  result.success = outcome.success;
  result.failure_reason = std::move(outcome.failure_reason);
  result.rounds = outcome.rounds;
  result.trace = std::move(outcome.trace);
  result.independent_set = mh.blue_vertices();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace hmis::algo
