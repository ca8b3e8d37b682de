// A vector-of-vectors reference model of the residual hypergraph — the
// seed's original MutableHypergraph data plane, reimplemented in the most
// obvious serial way.  The slab + incidence-index rewrite (DESIGN.md §7)
// must stay ELEMENT-FOR-ELEMENT equivalent to this: same colors, same live
// edge set, same per-edge contents in the same order, same degrees, same
// cascade outputs, same dedupe removal counts.  The property suites drive
// long interleaved mutation sequences through both and compare after every
// operation.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hmis/hypergraph/builder.hpp"
#include "hmis/hypergraph/hypergraph.hpp"
#include "hmis/hypergraph/mutable_hypergraph.hpp"
#include "hmis/util/rng.hpp"

namespace hmis_test {

using namespace hmis;

class ReferenceResidual {
 public:
  explicit ReferenceResidual(const Hypergraph& h) : original_(&h) {
    const std::size_t n = h.num_vertices();
    const std::size_t m = h.num_edges();
    color_.assign(n, Color::None);
    live_vertex_count_ = n;
    edges_.resize(m);
    for (EdgeId e = 0; e < m; ++e) {
      const auto verts = h.edge(e);
      edges_[e].assign(verts.begin(), verts.end());
    }
    edge_live_.assign(m, 1);
    live_edge_count_ = m;
    degree_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      degree_[v] = static_cast<std::uint32_t>(h.degree(v));
    }
  }

  [[nodiscard]] std::size_t num_live_vertices() const {
    return live_vertex_count_;
  }
  [[nodiscard]] std::size_t num_live_edges() const { return live_edge_count_; }
  [[nodiscard]] Color color(VertexId v) const { return color_[v]; }
  [[nodiscard]] bool edge_live(EdgeId e) const { return edge_live_[e] != 0; }
  [[nodiscard]] const VertexList& edge(EdgeId e) const { return edges_[e]; }
  [[nodiscard]] std::size_t degree(VertexId v) const { return degree_[v]; }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  [[nodiscard]] std::vector<VertexId> live_vertices() const {
    std::vector<VertexId> out;
    for (VertexId v = 0; v < color_.size(); ++v) {
      if (color_[v] == Color::None) out.push_back(v);
    }
    return out;
  }

  void color_blue(const std::vector<VertexId>& vs) {
    for (const VertexId v : vs) {
      color_[v] = Color::Blue;
      --live_vertex_count_;
    }
    for (const VertexId v : vs) {
      for (const EdgeId e : original_->edges_of(v)) {
        if (!edge_live_[e]) continue;
        auto& verts = edges_[e];
        const auto it = std::lower_bound(verts.begin(), verts.end(), v);
        if (it != verts.end() && *it == v) {
          verts.erase(it);
          --degree_[v];
        }
      }
    }
  }

  void color_red(const std::vector<VertexId>& vs) {
    for (const VertexId v : vs) {
      color_[v] = Color::Red;
      --live_vertex_count_;
    }
    for (const VertexId v : vs) {
      for (const EdgeId e : original_->edges_of(v)) {
        if (!edge_live_[e]) continue;
        if (std::binary_search(edges_[e].begin(), edges_[e].end(), v)) {
          delete_edge(e);
        }
      }
    }
  }

  std::vector<VertexId> singleton_cascade() {
    std::vector<VertexId> reds;
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (edge_live_[e] && edges_[e].size() == 1) reds.push_back(edges_[e][0]);
    }
    std::sort(reds.begin(), reds.end());
    reds.erase(std::unique(reds.begin(), reds.end()), reds.end());
    if (!reds.empty()) color_red(reds);
    return reds;
  }

  std::size_t dedupe_and_minimalize() {
    std::vector<EdgeId> order;
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (edge_live_[e]) order.push_back(e);
    }
    std::sort(order.begin(), order.end(), [this](EdgeId a, EdgeId b) {
      if (edges_[a].size() != edges_[b].size()) {
        return edges_[a].size() < edges_[b].size();
      }
      if (edges_[a] != edges_[b]) return edges_[a] < edges_[b];
      return a < b;
    });
    std::size_t removed = 0;
    std::vector<std::vector<EdgeId>> kept_incident(color_.size());
    EdgeId prev = kInvalidEdge;
    for (const EdgeId e : order) {
      const auto& verts = edges_[e];
      if (prev != kInvalidEdge && edges_[prev] == verts) {
        delete_edge(e);
        ++removed;
        continue;
      }
      bool dominated = false;
      for (const VertexId v : verts) {
        for (const EdgeId k : kept_incident[v]) {
          const auto& f = edges_[k];
          if (f.size() < verts.size() &&
              std::includes(verts.begin(), verts.end(), f.begin(), f.end())) {
            dominated = true;
            break;
          }
        }
        if (dominated) break;
      }
      if (dominated) {
        delete_edge(e);
        ++removed;
        continue;
      }
      for (const VertexId v : verts) kept_incident[v].push_back(e);
      prev = e;
    }
    return removed;
  }

  /// True if coloring v blue on top of the picks in `in_s` would empty a
  /// live edge (used by the script generators to keep blue batches valid).
  [[nodiscard]] bool completes_edge(const std::vector<std::uint8_t>& in_s,
                                    VertexId v) const {
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (!edge_live_[e]) continue;
      bool all = true;
      for (const VertexId u : edges_[e]) {
        if (u != v && !in_s[u]) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

 private:
  void delete_edge(EdgeId e) {
    edge_live_[e] = 0;
    --live_edge_count_;
    for (const VertexId v : edges_[e]) --degree_[v];
  }

  const Hypergraph* original_;
  std::vector<Color> color_;
  std::vector<VertexList> edges_;
  std::vector<std::uint8_t> edge_live_;
  std::vector<std::uint32_t> degree_;
  std::size_t live_vertex_count_ = 0;
  std::size_t live_edge_count_ = 0;
};

/// Element-for-element comparison of the slab-backed MutableHypergraph
/// against the reference model: colors, liveness, edge contents and order,
/// degrees, counts, and the derived queries.
inline void expect_matches_model(const ReferenceResidual& model,
                                 const MutableHypergraph& mh,
                                 const char* what) {
  ASSERT_EQ(model.num_live_vertices(), mh.num_live_vertices()) << what;
  ASSERT_EQ(model.num_live_edges(), mh.num_live_edges()) << what;
  const std::size_t n = mh.num_original_vertices();
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(model.color(v), mh.color(v)) << what << ": color of " << v;
    if (model.color(v) == Color::None) {
      ASSERT_EQ(model.degree(v), mh.live_degree(v))
          << what << ": degree of " << v;
    }
  }
  std::size_t max_size = 0;
  std::size_t total_size = 0;
  for (EdgeId e = 0; e < model.num_edges(); ++e) {
    ASSERT_EQ(model.edge_live(e), mh.edge_live(e))
        << what << ": liveness of edge " << e;
    if (!model.edge_live(e)) continue;
    const auto got = mh.edge(e);
    const auto& want = model.edge(e);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << what << ": contents of edge " << e;
    ASSERT_EQ(want.size(), mh.edge_size(e)) << what << ": size of edge " << e;
    max_size = std::max(max_size, want.size());
    total_size += want.size();
  }
  EXPECT_EQ(max_size, mh.max_live_edge_size()) << what;
  EXPECT_EQ(total_size, mh.total_live_edge_size()) << what;
  EXPECT_EQ(model.live_vertices(), mh.live_vertices()) << what;
}

/// Drive `steps` random interleaved mutations through the model and every
/// hypergraph in `variants`, comparing all observable state after each op.
/// Batches are sized to push the kernels over the parallel grain on large
/// instances; all four op kinds interleave (the BL/KUW cleanup patterns).
inline void run_model_property_script(
    const Hypergraph& h, std::vector<MutableHypergraph*> variants,
    const std::vector<const char*>& names, std::uint64_t seed, int steps) {
  ReferenceResidual model(h);
  util::Xoshiro256ss rng(seed);
  for (int s = 0; s < steps && model.num_live_vertices() > 0; ++s) {
    const auto kind = rng.below(5);
    if (kind <= 1) {
      const auto live = model.live_vertices();
      const std::size_t batch =
          1 + rng.below(std::max<std::size_t>(live.size() / 3, 1));
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
      if (kind == 0) {
        model.color_blue(vs);
        for (auto* mh : variants) mh->color_blue(vs);
      } else {
        model.color_red(vs);
        for (auto* mh : variants) mh->color_red(vs);
      }
    } else if (kind == 2) {
      const auto want = model.singleton_cascade();
      for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_EQ(want, variants[i]->singleton_cascade())
            << names[i] << " cascade diverged at step " << s;
      }
    } else if (kind == 3) {
      const auto want = model.dedupe_and_minimalize();
      for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_EQ(want, variants[i]->dedupe_and_minimalize())
            << names[i] << " dedupe diverged at step " << s;
      }
    } else {
      // The BL cleanup pattern: cascade immediately followed by dedupe.
      const auto want_reds = model.singleton_cascade();
      const auto want_removed = model.dedupe_and_minimalize();
      for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_EQ(want_reds, variants[i]->singleton_cascade()) << names[i];
        EXPECT_EQ(want_removed, variants[i]->dedupe_and_minimalize())
            << names[i];
      }
    }
    for (std::size_t i = 0; i < variants.size(); ++i) {
      expect_matches_model(model, *variants[i], names[i]);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// A deliberately NON-minimal instance: random edges plus planted copies
/// (before and after the original id), strict supersets, and pairs
/// e ∪ {x}, e ∪ {y} that become twins once x and y turn blue — so
/// blue batches keep creating duplicates and containments mid-script, with
/// the lower or the higher id on the shrinking side.
inline Hypergraph non_minimal_graph(std::size_t n, std::size_t base_edges,
                                    std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  const auto random_vertex_not_in = [&](const VertexList& e) {
    auto v = static_cast<VertexId>(rng.below(n));
    while (std::find(e.begin(), e.end(), v) != e.end()) {
      v = static_cast<VertexId>(rng.below(n));
    }
    return v;
  };
  std::vector<VertexList> edges;
  for (std::size_t i = 0; i < base_edges; ++i) {
    VertexList e;
    const std::size_t arity = 2 + rng.below(4);
    while (e.size() < arity) e.push_back(random_vertex_not_in(e));
    std::sort(e.begin(), e.end());
    edges.push_back(e);
  }
  for (std::size_t i = 0; i < base_edges / 2; ++i) {
    const VertexList e = edges[rng.below(edges.size())];
    VertexList x = e;
    x.push_back(random_vertex_not_in(x));
    std::sort(x.begin(), x.end());
    VertexList y = e;
    y.push_back(random_vertex_not_in(y));
    std::sort(y.begin(), y.end());
    switch (i % 3) {
      case 0:  // a copy, at a random position (lower or higher id)
        edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(edges.size() + 1)),
                     e);
        break;
      case 1:  // a strict superset, at a random position
        edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(edges.size() + 1)),
                     x);
        break;
      default:  // two supersets that shrink into twins
        edges.push_back(x);
        edges.push_back(y);
        break;
    }
  }
  HypergraphBuilder b(n);
  b.dedupe_edges(false);
  for (const auto& e : edges) {
    b.add_edge(std::span<const VertexId>(e.data(), e.size()));
  }
  return b.build();
}

/// The incremental-minimalization oracle: like run_model_property_script,
/// but dedupe runs only after an irregular gap of 1..7 mutations (never
/// before the first one, so the graph starts non-minimal) and blue batches
/// stay small, so several shrinks accumulate on the dirty-edge queue
/// between calls.  Removal counts and every edge's liveness (the surviving
/// ids) must match the model's from-scratch pass after each call.
inline void run_minimalize_script(const Hypergraph& h,
                                  std::vector<MutableHypergraph*> variants,
                                  const std::vector<const char*>& names,
                                  std::uint64_t seed, int steps) {
  ReferenceResidual model(h);
  util::Xoshiro256ss rng(seed);
  std::size_t gap = 1 + rng.below(7);
  for (int s = 0; s < steps && model.num_live_vertices() > 0; ++s) {
    if (gap-- == 0) {
      gap = 1 + rng.below(7);
      const auto want = model.dedupe_and_minimalize();
      for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_EQ(want, variants[i]->dedupe_and_minimalize())
            << names[i] << " dedupe diverged at step " << s;
      }
    } else {
      const auto kind = rng.below(6);
      if (kind == 5) {
        const auto want = model.singleton_cascade();
        for (std::size_t i = 0; i < variants.size(); ++i) {
          EXPECT_EQ(want, variants[i]->singleton_cascade()) << names[i];
        }
      } else {
        // Mostly blue (4:1), 1..3 vertices.
        const bool blue = kind != 4;
        const auto live = model.live_vertices();
        const std::size_t batch = 1 + rng.below(3);
        std::vector<VertexId> vs;
        std::vector<std::uint8_t> in_s(h.num_vertices(), 0);
        for (std::size_t t = 0; t < batch; ++t) {
          const VertexId v = live[rng.below(live.size())];
          if (in_s[v]) continue;
          if (blue && model.completes_edge(in_s, v)) continue;
          in_s[v] = 1;
          vs.push_back(v);
        }
        if (vs.empty()) continue;
        if (blue) {
          model.color_blue(vs);
          for (auto* mh : variants) mh->color_blue(vs);
        } else {
          model.color_red(vs);
          for (auto* mh : variants) mh->color_red(vs);
        }
      }
    }
    for (std::size_t i = 0; i < variants.size(); ++i) {
      expect_matches_model(model, *variants[i], names[i]);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace hmis_test
