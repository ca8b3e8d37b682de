// DegreeTracker against its oracle: after every step of a random
// shrink/delete script replayed through MutableHypergraph, sync() must
// equal compute_degree_stats over the live edge lists field for field —
// at shard counts {1, 2, 7} x pool widths {1, 2, max}, and across the one
// singleton -> exact mode switch a residual can make.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hmis/hypergraph/builder.hpp"
#include "hmis/hypergraph/degree_stats.hpp"
#include "hmis/hypergraph/generators.hpp"
#include "hmis/hypergraph/mutable_hypergraph.hpp"
#include "hmis/par/thread_pool.hpp"
#include "hmis/util/rng.hpp"
#include "test_reference_model.hpp"
#include "test_threads.hpp"

namespace {

using namespace hmis;

DegreeStats oracle(const MutableHypergraph& mh, const DegreeStatsOptions& opt) {
  std::vector<VertexList> lists;
  for (const EdgeId e : mh.live_edges()) {
    const auto verts = mh.edge(e);
    lists.emplace_back(verts.begin(), verts.end());
  }
  return compute_degree_stats(
      std::span<const VertexList>(lists.data(), lists.size()), opt);
}

void expect_same(const DegreeStats& want, const DegreeStats& got,
                 const std::string& what) {
  EXPECT_EQ(want.dimension, got.dimension) << what;
  EXPECT_EQ(want.exact, got.exact) << what;
  EXPECT_EQ(want.max_count, got.max_count) << what;
  // Bit equality: BL's marking probability is derived from these.
  EXPECT_EQ(want.delta, got.delta) << what;
  EXPECT_EQ(want.delta_i, got.delta_i) << what;
}

/// Replay a random BL-shaped script (blue and red batches, cascades,
/// minimalization) through one MutableHypergraph, syncing the tracker and
/// checking it against the oracle after every step.  Blue batches are kept
/// valid with the reference model, which also cross-checks the residual.
void run_tracker_script(const Hypergraph& h, MutableHypergraph& mh,
                        const DegreeStatsOptions& opt, std::uint64_t seed,
                        int steps, const std::string& label) {
  DegreeTracker tracker;
  tracker.reset(opt);
  hmis_test::ReferenceResidual model(h);
  util::Xoshiro256ss rng(seed);
  expect_same(oracle(mh, opt), tracker.sync(mh), label + " initial");
  for (int s = 0; s < steps && model.num_live_vertices() > 0; ++s) {
    const auto kind = rng.below(4);
    if (kind <= 1) {
      const auto live = model.live_vertices();
      const std::size_t batch =
          1 + rng.below(std::max<std::size_t>(live.size() / 8, 1));
      std::vector<VertexId> vs;
      std::vector<std::uint8_t> in_s(h.num_vertices(), 0);
      for (std::size_t t = 0; t < batch; ++t) {
        const VertexId v = live[rng.below(live.size())];
        if (in_s[v]) continue;
        if (kind == 0 && model.completes_edge(in_s, v)) continue;
        in_s[v] = 1;
        vs.push_back(v);
      }
      if (vs.empty()) continue;
      std::sort(vs.begin(), vs.end());
      if (kind == 0) {
        model.color_blue(vs);
        mh.color_blue(vs);
      } else {
        model.color_red(vs);
        mh.color_red(vs);
      }
    } else if (kind == 2) {
      EXPECT_EQ(model.singleton_cascade(), mh.singleton_cascade()) << label;
    } else {
      EXPECT_EQ(model.dedupe_and_minimalize(), mh.dedupe_and_minimalize())
          << label;
    }
    expect_same(oracle(mh, opt), tracker.sync(mh),
                label + " step " + std::to_string(s));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DegreeTracker, MatchesOracleAcrossShardsAndThreads) {
  const Hypergraph h = gen::mixed_arity(220, 480, 2, 6, 17);
  par::ThreadPool p1(1), p2(2), pn(hmis_test::max_test_threads());
  par::ThreadPool* pools[] = {&p1, &p2, &pn};
  for (par::ThreadPool* pool : pools) {
    for (const std::size_t shards : {1u, 2u, 7u}) {
      MutableHypergraph mh(h, pool, ShardConfig{.shards = shards});
      run_tracker_script(h, mh, DegreeStatsOptions{}, 4711, 60,
                         "threads " + std::to_string(pool->num_threads()) +
                             " shards " + std::to_string(shards));
      if (HasFailure()) return;
    }
  }
}

TEST(DegreeTracker, MatchesOracleAboveTheGrain) {
  // Large enough that the pooled residual takes its parallel kernels.
  const Hypergraph h = gen::mixed_arity(1600, 3400, 2, 5, 29);
  par::ThreadPool pn(hmis_test::max_test_threads());
  MutableHypergraph mh(h, &pn, ShardConfig{.shards = 7});
  run_tracker_script(h, mh, DegreeStatsOptions{}, 99, 25, "large");
}

TEST(DegreeTracker, SingletonModeSwitchesToExactWhenBigEdgeShrinks) {
  // One 17-vertex edge puts the residual in singleton mode; blueing one of
  // its members brings it to 16 = max_enum_edge_size, and the next sync
  // must switch to exact enumeration.
  HypergraphBuilder b(30);
  VertexList big;
  for (VertexId v = 0; v < 17; ++v) big.push_back(v);
  b.add_edge(std::span<const VertexId>(big.data(), big.size()));
  b.add_edge({0, 1, 20});
  b.add_edge({0, 1, 21});
  b.add_edge({2, 22, 23});
  b.add_edge({20, 21, 24, 25});
  const Hypergraph h = b.build();
  const DegreeStatsOptions opt;
  MutableHypergraph mh(h);
  DegreeTracker tracker;
  tracker.reset(opt);
  const DegreeStats before = tracker.sync(mh);
  EXPECT_FALSE(before.exact);
  expect_same(oracle(mh, opt), before, "before");
  const VertexId blue[] = {16};
  mh.color_blue(blue);
  const DegreeStats after = tracker.sync(mh);
  EXPECT_TRUE(after.exact);
  expect_same(oracle(mh, opt), after, "after");
  // Exact from here on.
  const VertexId red[] = {20};
  mh.color_red(red);
  expect_same(oracle(mh, opt), tracker.sync(mh), "after red");
}

TEST(DegreeTracker, OverBudgetInstanceCrossesIntoExactMode) {
  // Σ(2^s − 2) starts above a small budget; the script's shrinks and
  // deletions bring it under, and the tracker must follow the oracle
  // through the switch.
  const Hypergraph h = gen::mixed_arity(120, 200, 3, 6, 5);
  DegreeStatsOptions opt;
  opt.enum_budget = 1500;
  MutableHypergraph mh(h);
  EXPECT_FALSE(oracle(mh, opt).exact);
  run_tracker_script(h, mh, opt, 31337, 80, "budget");
  EXPECT_TRUE(oracle(mh, opt).exact);
}

TEST(DegreeTracker, ResetRebindsToAnotherGraph) {
  // One tracker serving two residuals in turn (SBL's inner BL runs reuse
  // their context's tracker this way).
  const Hypergraph a = gen::uniform_random(80, 160, 3, 1);
  const Hypergraph b = gen::mixed_arity(60, 90, 2, 5, 2);
  const DegreeStatsOptions opt;
  DegreeTracker tracker;
  for (const Hypergraph* h : {&a, &b, &a}) {
    MutableHypergraph mh(*h);
    tracker.reset(opt);
    expect_same(oracle(mh, opt), tracker.sync(mh), "rebind");
    const VertexId v[] = {3};
    mh.color_red(v);
    expect_same(oracle(mh, opt), tracker.sync(mh), "rebind step");
  }
}

}  // namespace
