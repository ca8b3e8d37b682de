#include "hmis/hypergraph/mutable_hypergraph.hpp"

#include <gtest/gtest.h>

#include "test_reference_model.hpp"

#include "hmis/hypergraph/builder.hpp"
#include "hmis/hypergraph/generators.hpp"
#include "hmis/util/check.hpp"

namespace {

using namespace hmis;

TEST(MutableHypergraph, InitialStateMirrorsOriginal) {
  const Hypergraph h = make_hypergraph(5, {{0, 1, 2}, {2, 3}, {3, 4}});
  MutableHypergraph mh(h);
  EXPECT_EQ(mh.num_live_vertices(), 5u);
  EXPECT_EQ(mh.num_live_edges(), 3u);
  EXPECT_EQ(mh.max_live_edge_size(), 3u);
  EXPECT_EQ(mh.total_live_edge_size(), 7u);
  EXPECT_EQ(mh.live_degree(2), 2u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_TRUE(mh.vertex_live(v));
}

TEST(MutableHypergraph, ColorBlueShrinksEdges) {
  const Hypergraph h = make_hypergraph(5, {{0, 1, 2}, {2, 3}});
  MutableHypergraph mh(h);
  const VertexId v = 0;
  mh.color_blue(std::span<const VertexId>(&v, 1));
  EXPECT_EQ(mh.color(0), Color::Blue);
  EXPECT_EQ(mh.num_live_vertices(), 4u);
  const auto e0 = mh.edge(0);
  EXPECT_EQ(e0.size(), 2u);  // {1, 2}
  EXPECT_EQ(e0[0], 1u);
  EXPECT_EQ(e0[1], 2u);
  EXPECT_EQ(mh.edge(1).size(), 2u);  // untouched
}

TEST(MutableHypergraph, ColorBlueCompletingEdgeIsChecked) {
  const Hypergraph h = make_hypergraph(3, {{0, 1}});
  MutableHypergraph mh(h);
  const std::vector<VertexId> both = {0, 1};
  EXPECT_THROW(mh.color_blue(both), util::CheckError);
}

TEST(MutableHypergraph, ColorRedDeletesIncidentEdges) {
  const Hypergraph h = make_hypergraph(5, {{0, 1, 2}, {2, 3}, {3, 4}});
  MutableHypergraph mh(h);
  const VertexId v = 2;
  mh.color_red(std::span<const VertexId>(&v, 1));
  EXPECT_EQ(mh.color(2), Color::Red);
  EXPECT_EQ(mh.num_live_edges(), 1u);  // only {3,4} remains
  EXPECT_TRUE(mh.edge_live(2));
  EXPECT_FALSE(mh.edge_live(0));
  EXPECT_FALSE(mh.edge_live(1));
  EXPECT_EQ(mh.live_degree(3), 1u);
  EXPECT_EQ(mh.live_degree(0), 0u);
}

TEST(MutableHypergraph, DoubleColoringIsRejected) {
  const Hypergraph h = make_hypergraph(3, {{0, 1, 2}});
  MutableHypergraph mh(h);
  const VertexId v = 0;
  mh.color_blue(std::span<const VertexId>(&v, 1));
  EXPECT_THROW(mh.color_blue(std::span<const VertexId>(&v, 1)),
               util::CheckError);
  EXPECT_THROW(mh.color_red(std::span<const VertexId>(&v, 1)),
               util::CheckError);
}

TEST(MutableHypergraph, SingletonCascadeExcludesAndDeletes) {
  // {2} is a singleton: 2 must be red and both incident edges vanish.
  const Hypergraph h = make_hypergraph(4, {{2}, {2, 3}, {0, 1}});
  MutableHypergraph mh(h);
  const auto reds = mh.singleton_cascade();
  ASSERT_EQ(reds.size(), 1u);
  EXPECT_EQ(reds[0], 2u);
  EXPECT_EQ(mh.color(2), Color::Red);
  EXPECT_EQ(mh.num_live_edges(), 1u);  // only {0,1}
  EXPECT_TRUE(mh.vertex_live(3));      // 3 survives: its edge was deleted
}

TEST(MutableHypergraph, CascadeAfterShrink) {
  // Coloring 0 blue shrinks {0,2} to {2}; the cascade must then red 2 and
  // delete {2,3}, leaving 3 live and isolated.
  const Hypergraph h = make_hypergraph(4, {{0, 2}, {2, 3}});
  MutableHypergraph mh(h);
  const VertexId v = 0;
  mh.color_blue(std::span<const VertexId>(&v, 1));
  const auto reds = mh.singleton_cascade();
  ASSERT_EQ(reds.size(), 1u);
  EXPECT_EQ(reds[0], 2u);
  EXPECT_EQ(mh.num_live_edges(), 0u);
  EXPECT_TRUE(mh.vertex_live(3));
  EXPECT_EQ(mh.isolated_live_vertices(), (std::vector<VertexId>{1, 3}));
}

TEST(MutableHypergraph, DuplicateSingletonsHandled) {
  HypergraphBuilder b(3);
  b.dedupe_edges(false);
  b.add_edge({1});
  b.add_edge({1});
  const Hypergraph h = b.build();
  MutableHypergraph mh(h);
  const auto reds = mh.singleton_cascade();
  EXPECT_EQ(reds.size(), 1u);
  EXPECT_EQ(mh.num_live_edges(), 0u);
}

TEST(MutableHypergraph, DedupeAndMinimalize) {
  HypergraphBuilder b(6);
  b.dedupe_edges(false);
  b.add_edge({0, 1});
  b.add_edge({0, 1});        // duplicate
  b.add_edge({0, 1, 2});     // superset
  b.add_edge({3, 4, 5});     // kept
  b.add_edge({4, 5});        // makes previous a superset
  const Hypergraph h = b.build();
  MutableHypergraph mh(h);
  const std::size_t removed = mh.dedupe_and_minimalize();
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(mh.num_live_edges(), 2u);
}

TEST(MutableHypergraph, IsolatedVertices) {
  const Hypergraph h = make_hypergraph(5, {{0, 1}});
  MutableHypergraph mh(h);
  EXPECT_EQ(mh.isolated_live_vertices(), (std::vector<VertexId>{2, 3, 4}));
}

TEST(MutableHypergraph, InducedSubgraphKeepsOnlyFullyContainedEdges) {
  const Hypergraph h =
      make_hypergraph(6, {{0, 1}, {1, 2}, {2, 3, 4}, {4, 5}});
  MutableHypergraph mh(h);
  util::DynamicBitset keep(6);
  keep.set(0);
  keep.set(1);
  keep.set(2);
  const auto induced = mh.induced_subgraph(keep);
  EXPECT_EQ(induced.graph.num_vertices(), 3u);
  EXPECT_EQ(induced.graph.num_edges(), 2u);  // {0,1} and {1,2}
  EXPECT_EQ(induced.to_original, (std::vector<VertexId>{0, 1, 2}));
}

TEST(MutableHypergraph, InducedSubgraphTracksShrunkenEdges) {
  const Hypergraph h = make_hypergraph(4, {{0, 1, 2}});
  MutableHypergraph mh(h);
  const VertexId v = 0;
  mh.color_blue(std::span<const VertexId>(&v, 1));  // edge is now {1,2}
  util::DynamicBitset keep(4);
  keep.set(1);
  keep.set(2);
  const auto induced = mh.induced_subgraph(keep);
  EXPECT_EQ(induced.graph.num_edges(), 1u);
  EXPECT_EQ(induced.graph.edge_size(0), 2u);
}

TEST(MutableHypergraph, InducedSubgraphExcludesColoredVertices) {
  const Hypergraph h = make_hypergraph(4, {{0, 1}, {2, 3}});
  MutableHypergraph mh(h);
  const VertexId v = 0;
  mh.color_red(std::span<const VertexId>(&v, 1));
  util::DynamicBitset keep(4, true);
  const auto induced = mh.induced_subgraph(keep);
  EXPECT_EQ(induced.graph.num_vertices(), 3u);  // 1, 2, 3
  EXPECT_EQ(induced.graph.num_edges(), 1u);     // {2,3}; {0,1} was deleted
}

TEST(MutableHypergraph, LiveSnapshotCompacts) {
  const Hypergraph h = make_hypergraph(5, {{0, 1, 4}, {1, 2}});
  MutableHypergraph mh(h);
  const VertexId v = 3;
  mh.color_red(std::span<const VertexId>(&v, 1));  // 3 isolated: no edges die
  const auto snap = mh.live_snapshot();
  EXPECT_EQ(snap.graph.num_vertices(), 4u);
  EXPECT_EQ(snap.graph.num_edges(), 2u);
  EXPECT_EQ(snap.to_original, (std::vector<VertexId>{0, 1, 2, 4}));
}

TEST(MutableHypergraph, BlueVerticesAscending) {
  const Hypergraph h = make_hypergraph(5, {});
  MutableHypergraph mh(h);
  const std::vector<VertexId> vs = {4, 0, 2};
  mh.color_blue(vs);
  EXPECT_EQ(mh.blue_vertices(), (std::vector<VertexId>{0, 2, 4}));
}

// ---- Slab vs vector-of-vectors reference model -----------------------------
// The flat-slab data plane (PR 5) must stay element-for-element identical to
// the seed's vector-of-vectors semantics: edge contents and order, liveness,
// degrees, counts, cascade outputs and dedupe removals, under long
// interleaved mutation sequences.  test_reference_model.hpp holds the model;
// the parallel suite replays the same property against pooled variants.

TEST(MutableHypergraphModel, LongInterleavedMixedArity) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const Hypergraph h = gen::mixed_arity(120, 260, 2, 6, seed);
    MutableHypergraph mh(h);
    hmis_test::run_model_property_script(h, {&mh}, {"serial-slab"},
                                         seed * 7919, 60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MutableHypergraphModel, LongInterleavedWithPlantedDuplicates) {
  // Duplicates and strict supersets make dedupe and the cascade interact:
  // shrinking can re-create duplicates mid-sequence.
  util::Xoshiro256ss rng(2024);
  HypergraphBuilder b(90);
  b.dedupe_edges(false);
  std::vector<VertexList> base;
  for (int i = 0; i < 120; ++i) {
    VertexList e;
    const std::size_t arity = 2 + rng.below(4);
    while (e.size() < arity) {
      const auto v = static_cast<VertexId>(rng.below(90));
      if (std::find(e.begin(), e.end(), v) == e.end()) e.push_back(v);
    }
    std::sort(e.begin(), e.end());
    base.push_back(e);
    b.add_edge(std::span<const VertexId>(e.data(), e.size()));
  }
  for (int i = 0; i < 60; ++i) {
    VertexList e = base[rng.below(base.size())];
    if (i % 2 == 0) {
      auto v = static_cast<VertexId>(rng.below(90));
      while (std::find(e.begin(), e.end(), v) != e.end()) {
        v = static_cast<VertexId>(rng.below(90));
      }
      e.push_back(v);
      std::sort(e.begin(), e.end());
    }
    b.add_edge(std::span<const VertexId>(e.data(), e.size()));
  }
  const Hypergraph h = b.build();
  MutableHypergraph mh(h);
  hmis_test::run_model_property_script(h, {&mh}, {"serial-slab"}, 1234, 80);
}

// ---- Incremental minimalization (DESIGN.md §7) -----------------------------
// dedupe_and_minimalize checks only the edges that shrank since its previous
// call.  These pin its removal set to the model's from-scratch pass: twins
// formed from either id side, clean edges doomed by a dirty subset, and long
// scripts over non-minimal instances with irregular dedupe gaps.

/// Build, optionally dedupe, apply the blue batches in order, dedupe, and
/// compare the removal count and surviving ids with the model's.
void expect_dedupe_after(const std::vector<VertexList>& edges, bool dedupe_first,
                         const std::vector<std::vector<VertexId>>& blue_batches,
                         std::size_t want_removed,
                         const std::vector<bool>& want_live) {
  HypergraphBuilder b(8);
  b.dedupe_edges(false);
  for (const auto& e : edges) {
    b.add_edge(std::span<const VertexId>(e.data(), e.size()));
  }
  const Hypergraph h = b.build();
  MutableHypergraph mh(h);
  hmis_test::ReferenceResidual model(h);
  if (dedupe_first) {
    EXPECT_EQ(model.dedupe_and_minimalize(), mh.dedupe_and_minimalize());
  }
  for (const auto& batch : blue_batches) {
    mh.color_blue(batch);
    model.color_blue(batch);
  }
  EXPECT_EQ(model.dedupe_and_minimalize(), want_removed);
  EXPECT_EQ(mh.dedupe_and_minimalize(), want_removed);
  for (EdgeId e = 0; e < want_live.size(); ++e) {
    EXPECT_EQ(mh.edge_live(e), want_live[e]) << "edge " << e;
  }
  hmis_test::expect_matches_model(model, mh, "dedupe");
}

TEST(Minimalization, HigherIdShrinksIntoLowerIdTwin) {
  // After a dedupe, {0,1,3} (id 0) shrinks to {0,1}; then {0,1,2} (id 1)
  // shrinks onto it.  The larger id goes.
  expect_dedupe_after({{0, 1, 3}, {0, 1, 2}, {4, 5}}, true, {{3}, {2}}, 1,
                      {true, false, true});
  // Non-minimal start: id 1 shrinks onto a twin that never shrank.
  expect_dedupe_after({{0, 1}, {0, 1, 2}, {4, 5}}, false, {{2}}, 1,
                      {true, false, true});
}

TEST(Minimalization, LowerIdShrinksIntoHigherIdTwin) {
  // The same pair, shrinking in the other order: id 0 lands on id 1's
  // twin.  The canonical survivor is still the smaller id.
  expect_dedupe_after({{0, 1, 3}, {0, 1, 2}, {4, 5}}, true, {{2}, {3}}, 1,
                      {true, false, true});
  // Non-minimal start: the twin that never shrank (id 1) is the one removed.
  expect_dedupe_after({{0, 1, 2}, {0, 1}, {4, 5}}, false, {{2}}, 1,
                      {true, false, true});
}

TEST(Minimalization, CleanEdgeDoomedByShrunkSubset) {
  // {0,1,3} never shrinks, but {0,1,2} shrinks to {0,1} ⊊ {0,1,3}.
  expect_dedupe_after({{0, 1, 3}, {0, 1, 2}, {4, 5}}, true, {{2}}, 1,
                      {false, true, true});
}

TEST(Minimalization, FirstCallSeesNonMinimalInput) {
  // Every edge starts on the dirty queue: copies and supersets of {0,1} at
  // both id sides all go on the first call.
  expect_dedupe_after({{0, 1, 4}, {0, 1}, {0, 1}, {5, 6}, {0, 1, 2}}, false, {},
                      3, {false, true, false, true, false});
}

TEST(Minimalization, IrregularScriptsMatchModel) {
  for (const std::uint64_t seed : {5u, 71u, 404u}) {
    const Hypergraph h = hmis_test::non_minimal_graph(70, 90, seed);
    MutableHypergraph s1(h), s2(h, nullptr, ShardConfig{.shards = 2}),
        s7(h, nullptr, ShardConfig{.shards = 7});
    hmis_test::run_minimalize_script(
        h, {&s1, &s2, &s7}, {"shards(1)", "shards(2)", "shards(7)"},
        seed * 613, 120);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- Shard-count invariance (DESIGN.md §10) --------------------------------
// The sharded slab + incidence index must be invisible: at shard counts
// {1, 2, 7} every observable quantity matches the vector-of-vectors model
// element for element through long interleaved scripts.  (The parallel suite
// repeats this matrix at threads {1, 2, max}.)

TEST(MutableHypergraphModel, ShardCountsMatchUnshardedModel) {
  for (const std::uint64_t seed : {13u, 57u}) {
    const Hypergraph h = gen::mixed_arity(120, 260, 2, 6, seed);
    MutableHypergraph s1(h, nullptr, ShardConfig{.shards = 1});
    MutableHypergraph s2(h, nullptr, ShardConfig{.shards = 2});
    MutableHypergraph s7(h, nullptr, ShardConfig{.shards = 7});
    EXPECT_EQ(s1.shard_count(), 1u);
    hmis_test::run_model_property_script(
        h, {&s1, &s2, &s7}, {"shards(1)", "shards(2)", "shards(7)"},
        seed * 6151, 60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MutableHypergraphShards, GeometryFollowsConfig) {
  // 512 arity-2 edges; an explicit 4-way split gives stride 128 (already a
  // multiple of 64) and exactly 4 shards.  A 7-way request on the same m
  // rounds the stride up to a word multiple and re-derives the count —
  // never more shards than needed.
  HypergraphBuilder b(1024);
  for (EdgeId e = 0; e < 512; ++e) {
    b.add_edge({static_cast<VertexId>(2 * e), static_cast<VertexId>(2 * e + 1)});
  }
  const Hypergraph h = b.build();
  MutableHypergraph four(h, nullptr, ShardConfig{.shards = 4});
  EXPECT_EQ(four.shard_count(), 4u);
  MutableHypergraph seven(h, nullptr, ShardConfig{.shards = 7});
  const ShardPlan plan = plan_shards(512, ShardConfig{.shards = 7}, 1);
  EXPECT_EQ(seven.shard_count(), plan.count);
  EXPECT_EQ(plan.stride % 64, 0u);
  EXPECT_LE(plan.count, 7u);
  // m == 0 keeps one (empty) shard.
  const Hypergraph empty = make_hypergraph(3, {});
  MutableHypergraph none(empty, nullptr, ShardConfig{.shards = 7});
  EXPECT_EQ(none.shard_count(), 1u);
}

TEST(MutableHypergraphShards, DebtLedgerIsPerShard) {
  // Edge e = {2e, 2e+1}: each vertex has degree 1, so deleting an edge is
  // attributable to exactly one shard's ledger.  4 shards of 128 edges.
  HypergraphBuilder b(1024);
  for (EdgeId e = 0; e < 512; ++e) {
    b.add_edge({static_cast<VertexId>(2 * e), static_cast<VertexId>(2 * e + 1)});
  }
  const Hypergraph h = b.build();
  MutableHypergraph mh(h, nullptr, ShardConfig{.shards = 4});
  ASSERT_EQ(mh.shard_count(), 4u);
  std::size_t live_total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const auto debt = mh.shard_debt(s);
    EXPECT_EQ(debt.live_entries, 256u) << "shard " << s;
    EXPECT_EQ(debt.stale_entries, 0u) << "shard " << s;
    EXPECT_EQ(debt.sweeps, 0u) << "shard " << s;
    live_total += debt.live_entries;
  }
  EXPECT_EQ(live_total, mh.total_live_edge_size());

  // Deleting edge 200 (shard 1: edges [128, 256)) banks its 2 entries in
  // shard 1's stale counter and nowhere else.
  const VertexId v = 400;  // endpoint of edge 200 only
  mh.color_red(std::span<const VertexId>(&v, 1));
  EXPECT_EQ(mh.shard_debt(1).stale_entries, 2u);
  EXPECT_EQ(mh.shard_debt(1).live_entries, 254u);
  EXPECT_EQ(mh.shard_debt(0).stale_entries, 0u);
  EXPECT_EQ(mh.shard_debt(2).stale_entries, 0u);
  EXPECT_EQ(mh.shard_debt(3).stale_entries, 0u);

  // Killing every shard-0 edge in one batch pushes shard 0's debt past the
  // trigger: it alone sweeps; the cold shards never pay.
  std::vector<VertexId> batch;
  for (EdgeId e = 0; e < 128; ++e) batch.push_back(static_cast<VertexId>(2 * e));
  mh.color_red(batch);
  const auto hot = mh.shard_debt(0);
  EXPECT_EQ(hot.live_entries, 0u);
  EXPECT_EQ(hot.stale_entries, 0u);  // forgiven by the sweep
  EXPECT_GE(hot.sweeps, 1u);
  EXPECT_EQ(hot.swept_entries, 256u);
  for (std::size_t s = 2; s < 4; ++s) {
    EXPECT_EQ(mh.shard_debt(s).sweeps, 0u) << "cold shard " << s;
    EXPECT_EQ(mh.shard_debt(s).live_entries, 256u) << "cold shard " << s;
  }
  EXPECT_EQ(mh.num_live_edges(), 512u - 129u);
}

TEST(MutableHypergraphModel, SingletonQueueMatchesFullRescan) {
  // The slab cascade consumes a pending queue instead of rescanning all m
  // edges; drive a shrink-heavy sequence (small arities, blue-leaning) and
  // check every cascade against the model's full rescan.
  const Hypergraph h = gen::mixed_arity(100, 240, 2, 3, 77);
  MutableHypergraph mh(h);
  hmis_test::ReferenceResidual model(h);
  util::Xoshiro256ss rng(5150);
  while (model.num_live_vertices() > 0) {
    const auto live = model.live_vertices();
    std::vector<VertexId> vs;
    std::vector<std::uint8_t> in_s(h.num_vertices(), 0);
    const std::size_t batch = 1 + rng.below(8);
    for (std::size_t t = 0; t < batch; ++t) {
      const VertexId v = live[rng.below(live.size())];
      if (in_s[v] || model.completes_edge(in_s, v)) continue;
      in_s[v] = 1;
      vs.push_back(v);
    }
    if (vs.empty()) {
      // Every remaining vertex completes an edge: exclude one instead.
      vs.push_back(live[rng.below(live.size())]);
      model.color_red(vs);
      mh.color_red(vs);
    } else {
      model.color_blue(vs);
      mh.color_blue(vs);
    }
    const auto want = model.singleton_cascade();
    EXPECT_EQ(want, mh.singleton_cascade());
    hmis_test::expect_matches_model(model, mh, "shrink-heavy");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(mh.num_live_vertices(), 0u);
}

}  // namespace
