// Golden digests of full solve Results on the checked-in corpus.
//
// Each entry pins one (instance, algorithm) solve at seed 1: the
// independent set, success, rounds, inner stages, resamples, the EREW
// metrics and the per-round trace (Δ and p by bit pattern).  The digests
// come from runs with from-scratch degree statistics and minimalization, so
// any drift in the incremental ones — or anywhere else on the solve path —
// shows up here, not just in a set-level check.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "hmis/core/mis.hpp"
#include "hmis/hypergraph/io.hpp"
#include "hmis/par/thread_pool.hpp"
#include "hmis/util/rng.hpp"
#include "test_threads.hpp"

namespace {

using namespace hmis;

struct Golden {
  const char* instance;
  core::Algorithm algorithm;
  std::uint64_t digest;
};

std::uint64_t digest_of(const core::MisRun& run) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  const auto fold = [&](std::uint64_t x) { h = util::mix64(h ^ x); };
  const algo::Result& r = run.result;
  fold(static_cast<std::uint64_t>(run.algorithm));
  fold(r.success ? 1 : 0);
  fold(r.independent_set.size());
  for (const VertexId v : r.independent_set) fold(v);
  fold(r.rounds);
  fold(r.inner_stages);
  fold(r.resamples);
  fold(r.metrics.work);
  fold(r.metrics.depth);
  fold(r.metrics.calls);
  fold(r.trace.size());
  for (const algo::StageStats& s : r.trace) {
    for (const std::uint64_t x :
         {std::uint64_t{s.stage}, std::uint64_t{s.live_vertices},
          std::uint64_t{s.live_edges}, std::uint64_t{s.dimension},
          std::bit_cast<std::uint64_t>(s.delta),
          std::bit_cast<std::uint64_t>(s.p), std::uint64_t{s.marked},
          std::uint64_t{s.unmarked}, std::uint64_t{s.added_blue},
          std::uint64_t{s.forced_red}, std::uint64_t{s.edges_deleted},
          std::uint64_t{s.sampled}, std::uint64_t{s.sample_dimension},
          std::uint64_t{s.resamples}, std::uint64_t{s.inner_stages}}) {
      fold(x);
    }
  }
  return h;
}

constexpr core::Algorithm kBl = core::Algorithm::BL;
constexpr core::Algorithm kSbl = core::Algorithm::SBL;
constexpr core::Algorithm kKuw = core::Algorithm::KUW;
constexpr core::Algorithm kAuto = core::Algorithm::Auto;

// BL is out of its envelope (dimension > 8) on sbl_s and sunflower_s.
const Golden kGolden[] = {
    {"graph_s", kBl, 0xfb39b3cc798fb6a7ULL},
    {"graph_s", kSbl, 0xd90130e6b88778c7ULL},
    {"graph_s", kKuw, 0x35faded928adea4bULL},
    {"graph_s", kAuto, 0xd8a8905828a393e6ULL},
    {"interval_s", kBl, 0x78f36bf62a4e81e5ULL},
    {"interval_s", kSbl, 0xa46920fd4de87202ULL},
    {"interval_s", kKuw, 0x4ec043514888cb3aULL},
    {"interval_s", kAuto, 0xa46920fd4de87202ULL},
    {"linear_s", kBl, 0xef82be972f5908d0ULL},
    {"linear_s", kSbl, 0x28a41b86d4211a36ULL},
    {"linear_s", kKuw, 0xce5f88e835343863ULL},
    {"linear_s", kAuto, 0xef82be972f5908d0ULL},
    {"mixed_s", kBl, 0xefc6f55d8ab363b3ULL},
    {"mixed_s", kSbl, 0x81a0a9071fdacf85ULL},
    {"mixed_s", kKuw, 0x1a418090811de804ULL},
    {"mixed_s", kAuto, 0xefc6f55d8ab363b3ULL},
    {"planted_s", kBl, 0xb90328afb3adf392ULL},
    {"planted_s", kSbl, 0x7e13603987f13ae0ULL},
    {"planted_s", kKuw, 0xf6390e819130c46dULL},
    {"planted_s", kAuto, 0xb90328afb3adf392ULL},
    {"sbl_s", kSbl, 0xf1951417e50e7d0fULL},
    {"sbl_s", kKuw, 0x29e724e833b6ad7dULL},
    {"sbl_s", kAuto, 0xf1951417e50e7d0fULL},
    {"sunflower_s", kSbl, 0xd6bc775370f9252bULL},
    {"sunflower_s", kKuw, 0x183f18756accf56bULL},
    {"sunflower_s", kAuto, 0xd6bc775370f9252bULL},
    {"uniform_s", kBl, 0x7b5fceaeb7ae9461ULL},
    {"uniform_s", kSbl, 0x0d18e849efa72446ULL},
    {"uniform_s", kKuw, 0x695b680f4ada0140ULL},
    {"uniform_s", kAuto, 0x7b5fceaeb7ae9461ULL},
    {"uniform_l", kBl, 0x7186b75c86e025cfULL},
    {"uniform_l", kSbl, 0x1cf80257af81ca0dULL},
    {"uniform_l", kKuw, 0x390ac44dac1a2334ULL},
    {"uniform_l", kAuto, 0x7186b75c86e025cfULL},
};

class CorpusGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(CorpusGolden, ResultDigestMatches) {
  const Golden& g = GetParam();
  const Hypergraph h = load_hypergraph_mapped(std::string(HMIS_CORPUS_DIR) +
                                              "/" + g.instance + ".hgb2");
  par::ThreadPool pool(hmis_test::max_test_threads());
  core::FindOptions opt;
  opt.seed = 1;
  opt.record_trace = true;
  opt.pool = &pool;
  const core::MisRun run = core::find_mis(h, g.algorithm, opt);
  ASSERT_TRUE(run.result.success) << run.result.failure_reason;
  ASSERT_TRUE(run.verdict.ok());
  EXPECT_EQ(digest_of(run), g.digest)
      << std::hex << "0x" << digest_of(run) << " for " << g.instance << " "
      << core::algorithm_name(g.algorithm);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.instance) + "_" +
             std::string(core::algorithm_name(info.param.algorithm));
    });

}  // namespace
