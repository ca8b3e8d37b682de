// Parallel-equivalence harness for the MutableHypergraph mutation core.
//
// PR-1 established the determinism contract for the algorithms (counter RNG,
// fixed chunk decomposition, index-order combination); this suite locks the
// same contract onto the residual-graph maintenance itself: every mutated or
// queried quantity — colors, live counts, degrees, edge contents, induced
// snapshots, dedupe removal counts, cascade exclusions — must be
// bit-identical between the serial fallback (no pool) and pools of 1, 2 and
// 8 threads (HMIS_TEST_THREADS overrides the widest pool, so sanitizer CI
// can crank it).
//
// Mutation scripts are recorded once against a serial reference instance and
// replayed verbatim on every variant, so a divergence is attributable to the
// kernel under test, never to the script generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "test_reference_model.hpp"
#include "test_threads.hpp"

#include "hmis/hypergraph/builder.hpp"
#include "hmis/hypergraph/generators.hpp"
#include "hmis/hypergraph/hypergraph.hpp"
#include "hmis/hypergraph/mutable_hypergraph.hpp"
#include "hmis/par/parallel_for.hpp"
#include "hmis/par/thread_pool.hpp"
#include "hmis/util/rng.hpp"

namespace {

using namespace hmis;

// ---- Deep observable state -------------------------------------------------

struct Observed {
  std::vector<Color> colors;
  std::size_t live_vertex_count = 0;
  std::size_t live_edge_count = 0;
  std::vector<VertexId> live_vertices;
  std::vector<EdgeId> live_edges;
  std::vector<VertexId> blue;
  std::vector<VertexId> isolated;
  std::vector<std::uint32_t> degrees;
  std::vector<VertexList> live_edge_contents;
  std::size_t max_size = 0;
  std::size_t total_size = 0;

  friend bool operator==(const Observed&, const Observed&) = default;
};

Observed observe(const MutableHypergraph& mh) {
  Observed o;
  const std::size_t n = mh.num_original_vertices();
  o.colors.reserve(n);
  o.degrees.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    o.colors.push_back(mh.color(v));
    o.degrees.push_back(
        static_cast<std::uint32_t>(mh.vertex_live(v) ? mh.live_degree(v) : 0));
  }
  o.live_vertex_count = mh.num_live_vertices();
  o.live_edge_count = mh.num_live_edges();
  o.live_vertices = mh.live_vertices();
  o.live_edges = mh.live_edges();
  o.blue = mh.blue_vertices();
  o.isolated = mh.isolated_live_vertices();
  for (const EdgeId e : o.live_edges) {
    const auto verts = mh.edge(e);
    o.live_edge_contents.emplace_back(verts.begin(), verts.end());
  }
  o.max_size = mh.max_live_edge_size();
  o.total_size = mh.total_live_edge_size();
  return o;
}

void expect_same_graph(const Hypergraph& a, const Hypergraph& b,
                       const char* what) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << what;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what;
  EXPECT_EQ(a.dimension(), b.dimension()) << what;
  EXPECT_EQ(a.min_edge_size(), b.min_edge_size()) << what;
  EXPECT_EQ(a.edges_as_lists(), b.edges_as_lists()) << what;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ea = a.edges_of(v);
    const auto eb = b.edges_of(v);
    ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()))
        << what << ": incidence list of vertex " << v;
  }
}

void expect_same_induced(const MutableHypergraph::Induced& a,
                         const MutableHypergraph::Induced& b,
                         const char* what) {
  EXPECT_EQ(a.to_original, b.to_original) << what;
  expect_same_graph(a.graph, b.graph, what);
}

// ---- Recorded mutation scripts ---------------------------------------------

enum class OpKind { Blue, Red, Cascade, Dedupe };

struct Op {
  OpKind kind;
  std::vector<VertexId> vs;  // Blue/Red payload
};

struct OpResult {
  std::size_t removed = 0;        // Dedupe
  std::vector<VertexId> reds;     // Cascade

  friend bool operator==(const OpResult&, const OpResult&) = default;
};

OpResult apply(MutableHypergraph& mh, const Op& op) {
  OpResult r;
  switch (op.kind) {
    case OpKind::Blue:
      mh.color_blue(std::span<const VertexId>(op.vs.data(), op.vs.size()));
      break;
    case OpKind::Red:
      mh.color_red(std::span<const VertexId>(op.vs.data(), op.vs.size()));
      break;
    case OpKind::Cascade:
      r.reds = mh.singleton_cascade();
      break;
    case OpKind::Dedupe:
      r.removed = mh.dedupe_and_minimalize();
      break;
  }
  return r;
}

/// True if coloring `v` blue on top of the already-picked blues `in_s` would
/// turn some live edge fully blue (i.e. empty it).
bool completes_edge(const MutableHypergraph& mh,
                    const std::vector<std::uint8_t>& in_s, VertexId v) {
  for (const EdgeId e : mh.live_edges()) {
    bool all = true;
    for (const VertexId u : mh.edge(e)) {
      if (u != v && !in_s[u]) {
        all = false;
        break;
      }
    }
    if (all) return true;  // every member is v or already picked
  }
  return false;
}

/// Record a random-but-valid mutation script by driving a serial reference
/// copy.  Batches are sized to push the mutation kernels over the parallel
/// grain on the larger instances.
std::vector<Op> make_script(const Hypergraph& h, std::uint64_t seed,
                            int steps) {
  MutableHypergraph ref(h);
  util::Xoshiro256ss rng(seed);
  std::vector<Op> ops;
  for (int s = 0; s < steps && ref.num_live_vertices() > 0; ++s) {
    Op op;
    const auto kind = rng.below(5);
    if (kind <= 1) {  // weight batched coloring higher than cleanup
      const auto live = ref.live_vertices();
      const std::size_t batch =
          1 + rng.below(std::max<std::size_t>(live.size() / 4, 1));
      if (kind == 0) {
        op.kind = OpKind::Blue;
        std::vector<std::uint8_t> in_s(ref.num_original_vertices(), 0);
        for (std::size_t t = 0; t < batch; ++t) {
          const VertexId v = live[rng.below(live.size())];
          if (in_s[v] || completes_edge(ref, in_s, v)) continue;
          in_s[v] = 1;
          op.vs.push_back(v);
        }
      } else {
        op.kind = OpKind::Red;
        std::vector<std::uint8_t> in_s(ref.num_original_vertices(), 0);
        for (std::size_t t = 0; t < batch; ++t) {
          const VertexId v = live[rng.below(live.size())];
          if (in_s[v]) continue;
          in_s[v] = 1;
          op.vs.push_back(v);
        }
      }
      if (op.vs.empty()) continue;
    } else if (kind == 2) {
      op.kind = OpKind::Cascade;
    } else if (kind == 3) {
      op.kind = OpKind::Dedupe;
    } else {
      // Cascade-then-dedupe is the BL cleanup pattern; exercise the
      // shrink-then-delete interleaving explicitly.
      op.kind = OpKind::Cascade;
      apply(ref, op);
      ops.push_back(op);
      op = Op{OpKind::Dedupe, {}};
    }
    apply(ref, op);
    ops.push_back(op);
  }
  return ops;
}

// ---- The equivalence suite -------------------------------------------------

class MutableHypergraphParallel : public ::testing::Test {
 protected:
  void run_script_equivalence(const Hypergraph& h, std::uint64_t seed,
                              int steps) {
    par::ThreadPool p1(1), p2(2), pn(hmis_test::max_test_threads());
    const std::vector<Op> ops = make_script(h, seed, steps);

    std::vector<MutableHypergraph> variants;
    variants.reserve(4);
    variants.emplace_back(h);  // serial fallback
    variants.emplace_back(h, &p1);
    variants.emplace_back(h, &p2);
    variants.emplace_back(h, &pn);

    const char* names[] = {"serial", "pool(1)", "pool(2)", "pool(max)"};
    for (std::size_t step = 0; step < ops.size(); ++step) {
      const OpResult want = apply(variants[0], ops[step]);
      const Observed base = observe(variants[0]);
      const auto snap = variants[0].live_snapshot();
      for (std::size_t i = 1; i < variants.size(); ++i) {
        const OpResult got = apply(variants[i], ops[step]);
        EXPECT_EQ(want, got)
            << names[i] << " diverged on op " << step << " (seed " << seed
            << ")";
        ASSERT_EQ(base, observe(variants[i]))
            << names[i] << " state diverged after op " << step << " (seed "
            << seed << ")";
        expect_same_induced(snap, variants[i].live_snapshot(), names[i]);
      }
    }
  }
};

TEST_F(MutableHypergraphParallel, SmallMixedArityScripts) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_script_equivalence(gen::mixed_arity(80, 160, 2, 5, seed), seed * 7919,
                           30);
  }
}

TEST_F(MutableHypergraphParallel, LargeInstanceHitsParallelKernels) {
  // n and m above par::kMinGrain so every scan/mutation takes the parallel
  // path on the pooled variants (the serial variant stays the reference).
  for (const std::uint64_t seed : {5u, 11u}) {
    run_script_equivalence(gen::mixed_arity(1500, 3000, 2, 6, seed),
                           seed * 104729, 12);
  }
}

TEST_F(MutableHypergraphParallel, UniformInstanceScripts) {
  run_script_equivalence(gen::uniform_random(2000, 6000, 3, 23), 23 * 31, 10);
}

TEST_F(MutableHypergraphParallel, InducedSubgraphEquivalenceOnRandomKeeps) {
  par::ThreadPool p1(1), p2(2), pn(hmis_test::max_test_threads());
  const Hypergraph h = gen::mixed_arity(1400, 2800, 2, 7, 41);
  MutableHypergraph serial(h);
  MutableHypergraph m1(h, &p1), m2(h, &p2), mn(h, &pn);

  // Shared mutations first, so snapshots see shrunken/deleted edges.
  const auto ops = make_script(h, 97, 6);
  for (const auto& op : ops) {
    apply(serial, op);
    apply(m1, op);
    apply(m2, op);
    apply(mn, op);
  }

  util::Xoshiro256ss rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    util::DynamicBitset keep(h.num_vertices());
    // Keep ~1/2, ~1/4, ... of the vertices in different trials.
    const std::uint64_t density = 1 + rng.below(4);
    for (VertexId v = 0; v < h.num_vertices(); ++v) {
      if (rng.below(density + 1) == 0) keep.set(v);
    }
    const auto want = serial.induced_subgraph(keep);
    expect_same_induced(want, m1.induced_subgraph(keep), "pool(1)");
    expect_same_induced(want, m2.induced_subgraph(keep), "pool(2)");
    expect_same_induced(want, mn.induced_subgraph(keep), "pool(max)");
  }
}

TEST_F(MutableHypergraphParallel, DedupeEquivalenceOnCraftedDuplicates) {
  // Duplicates and strict supersets planted at scale (above the parallel
  // grain): the removal count and the surviving edge-id set must match the
  // serial answer at every pool width.
  util::Xoshiro256ss rng(777);
  HypergraphBuilder b(600);
  b.dedupe_edges(false);
  std::vector<VertexList> base;
  for (int i = 0; i < 700; ++i) {
    VertexList e;
    const std::size_t arity = 2 + rng.below(4);
    while (e.size() < arity) {
      const VertexId v = static_cast<VertexId>(rng.below(600));
      if (std::find(e.begin(), e.end(), v) == e.end()) e.push_back(v);
    }
    std::sort(e.begin(), e.end());
    base.push_back(e);
    b.add_edge(std::span<const VertexId>(e.data(), e.size()));
  }
  for (int i = 0; i < 400; ++i) {
    // Half exact duplicates, half strict supersets of an existing edge.
    VertexList e = base[rng.below(base.size())];
    if (i % 2 == 0) {
      VertexId v = static_cast<VertexId>(rng.below(600));
      while (std::find(e.begin(), e.end(), v) != e.end()) {
        v = static_cast<VertexId>(rng.below(600));
      }
      e.push_back(v);
      std::sort(e.begin(), e.end());
    }
    b.add_edge(std::span<const VertexId>(e.data(), e.size()));
  }
  const Hypergraph h = b.build();
  ASSERT_GE(h.num_edges(), par::kMinGrain);  // parallel flavour engages

  par::ThreadPool p1(1), p2(2), pn(hmis_test::max_test_threads());
  MutableHypergraph serial(h);
  MutableHypergraph m1(h, &p1), m2(h, &p2), mn(h, &pn);
  const std::size_t want = serial.dedupe_and_minimalize();
  EXPECT_EQ(want, m1.dedupe_and_minimalize());
  EXPECT_EQ(want, m2.dedupe_and_minimalize());
  EXPECT_EQ(want, mn.dedupe_and_minimalize());
  const Observed base_state = observe(serial);
  EXPECT_EQ(base_state, observe(m1));
  EXPECT_EQ(base_state, observe(m2));
  EXPECT_EQ(base_state, observe(mn));
}

TEST_F(MutableHypergraphParallel, ConstructionStateIdentical) {
  par::ThreadPool pn(hmis_test::max_test_threads());
  const Hypergraph h = gen::mixed_arity(1300, 2600, 2, 8, 3);
  MutableHypergraph serial(h);
  MutableHypergraph pooled(h, &pn);
  EXPECT_EQ(observe(serial), observe(pooled));
}

// ---- Reference model vs the slab at every pool width -----------------------
// The vector-of-vectors model (test_reference_model.hpp) is the seed's
// semantics; the slab must match it element for element not just serially
// but through the parallel kernels at 1/2/max threads, under long
// interleaved mutation sequences — this pins the whole rewrite (slab
// compaction, incidence gather, singleton queue, debt-triggered sweeps)
// against first-principles behavior rather than against itself.

TEST_F(MutableHypergraphParallel, ReferenceModelLongInterleavedSmall) {
  for (const std::uint64_t seed : {7u, 23u}) {
    const Hypergraph h = gen::mixed_arity(150, 320, 2, 6, seed);
    par::ThreadPool p1(1), p2(2), pn(hmis_test::max_test_threads());
    MutableHypergraph serial(h);
    MutableHypergraph m1(h, &p1), m2(h, &p2), mn(h, &pn);
    hmis_test::run_model_property_script(
        h, {&serial, &m1, &m2, &mn},
        {"serial", "pool(1)", "pool(2)", "pool(max)"}, seed * 131, 50);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(MutableHypergraphParallel, ReferenceModelLongInterleavedLarge) {
  // Above the parallel grain, so the pooled variants exercise the hybrid
  // gather (sparse and dense regimes), the parallel compaction sweep, and
  // the parallel dedupe against the model.
  const Hypergraph h = gen::mixed_arity(1600, 3400, 2, 6, 29);
  par::ThreadPool p2(2), pn(hmis_test::max_test_threads());
  MutableHypergraph serial(h);
  MutableHypergraph m2(h, &p2), mn(h, &pn);
  hmis_test::run_model_property_script(
      h, {&serial, &m2, &mn}, {"serial", "pool(2)", "pool(max)"}, 4242, 14);
}

// ---- Incremental minimalization at every width -----------------------------
// The dirty-edge dedupe against the model's from-scratch pass on non-minimal
// instances with irregular dedupe gaps (test_reference_model.hpp).  The
// large instance puts the first call's full dirty queue above the grain.

TEST_F(MutableHypergraphParallel, MinimalizeScriptsMatchModelAtEveryWidth) {
  for (const auto& [n, base, steps] :
       {std::tuple<std::size_t, std::size_t, int>{70, 90, 120},
        std::tuple<std::size_t, std::size_t, int>{1500, 2400, 30}}) {
    const Hypergraph h = hmis_test::non_minimal_graph(n, base, n + base);
    par::ThreadPool p1(1), p2(2), pn(hmis_test::max_test_threads());
    MutableHypergraph serial(h);
    MutableHypergraph m1(h, &p1, ShardConfig{.shards = 2});
    MutableHypergraph m2(h, &p2, ShardConfig{.shards = 7});
    MutableHypergraph mn(h, &pn);
    hmis_test::run_minimalize_script(
        h, {&serial, &m1, &m2, &mn},
        {"serial", "pool(1)/shards(2)", "pool(2)/shards(7)", "pool(max)"},
        base * 17, steps);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- Shard matrix: counts {1, 2, 7} x threads {1, 2, max} ------------------
// The shard plan is the one internal degree of freedom the determinism
// contract does NOT fix bit-identically (sweep timing differs per plan), so
// this matrix pins the OBSERVABLE state of every (shards, threads) cell to
// the unsharded vector-of-vectors model after every op of an interleaved
// script — the full cross product, not just the pool-width diagonal the
// suites above cover implicitly.

TEST_F(MutableHypergraphParallel, ShardMatrixMatchesModelSmall) {
  const Hypergraph h = gen::mixed_arity(160, 340, 2, 6, 31);
  par::ThreadPool p1(1), p2(2), pn(hmis_test::max_test_threads());
  par::ThreadPool* pools[] = {&p1, &p2, &pn};
  const char* pool_names[] = {"1", "2", "max"};
  const std::size_t shard_counts[] = {1, 2, 7};

  std::vector<MutableHypergraph> variants;
  variants.reserve(10);
  std::vector<std::string> labels;
  labels.reserve(10);
  variants.emplace_back(h);  // unsharded serial reference
  labels.emplace_back("serial/unsharded");
  for (std::size_t p = 0; p < 3; ++p) {
    for (const std::size_t s : shard_counts) {
      variants.emplace_back(h, pools[p], ShardConfig{.shards = s});
      labels.emplace_back(std::string("pool(") + pool_names[p] + ")/shards(" +
                          std::to_string(s) + ")");
    }
  }
  std::vector<MutableHypergraph*> ptrs;
  std::vector<const char*> names;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    ptrs.push_back(&variants[i]);
    names.push_back(labels[i].c_str());
  }
  hmis_test::run_model_property_script(h, ptrs, names, 8675309, 40);
}

TEST_F(MutableHypergraphParallel, ShardMatrixMatchesModelLarge) {
  // Above the grain so the per-shard parallel kernels (fan-out gathers,
  // dense word-owned marking, per-shard sweeps) actually engage; the worst
  // mismatches (requested 7 shards vs re-derived count, ragged last shard)
  // are exercised by m = 3400 (stride 512, 7 shards).
  const Hypergraph h = gen::mixed_arity(1600, 3400, 2, 6, 53);
  par::ThreadPool p2(2), pn(hmis_test::max_test_threads());
  MutableHypergraph serial(h);
  MutableHypergraph a(h, &p2, ShardConfig{.shards = 2});
  MutableHypergraph b(h, &p2, ShardConfig{.shards = 7});
  MutableHypergraph c(h, &pn, ShardConfig{.shards = 1});
  MutableHypergraph d(h, &pn, ShardConfig{.shards = 7});
  EXPECT_EQ(b.shard_count(), 7u);
  hmis_test::run_model_property_script(
      h, {&serial, &a, &b, &c, &d},
      {"serial", "pool(2)/shards(2)", "pool(2)/shards(7)", "pool(max)/shards(1)",
       "pool(max)/shards(7)"},
      999331, 12);
}

TEST_F(MutableHypergraphParallel, ShardCountDefaultsToPoolWidth) {
  // Auto resolution (shards == 0, HMIS_SHARDS unset in the test env): the
  // plan takes the pool width; serial construction keeps one shard.
  // (plan_shards sees the same cached env, so the expectations stay valid
  // even under a CI rerun that exports HMIS_SHARDS.)
  const Hypergraph h = gen::mixed_arity(900, 2000, 2, 5, 61);
  MutableHypergraph serial(h);
  EXPECT_EQ(serial.shard_count(),
            plan_shards(h.num_edges(), ShardConfig{}, 1).count);
  if (env_shards() == 0) {
    EXPECT_EQ(serial.shard_count(), 1u);
  }
  par::ThreadPool p4(4);
  MutableHypergraph pooled(h, &p4);
  EXPECT_EQ(pooled.shard_count(),
            plan_shards(h.num_edges(), ShardConfig{}, 4).count);
  EXPECT_EQ(observe(serial), observe(pooled));
}

}  // namespace
