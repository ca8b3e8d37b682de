// perfbench harness: measures the hmis library from outside, by timing its
// own calls into each layer's public functions.  run.py owns the workload
// table and the statistics; this program only runs the calls and reports
// raw samples and counters as one JSON object on stdout.
//
//   perfbench_harness solve --corpus DIR --pairs algo:inst[:reps],...
//       --seed S --seconds T [--trace-out F] [--setup-only]
//   perfbench_harness serve --corpus DIR --port P --server-pid PID
//       --miss-pairs algo:inst,... --probe-pairs algo:inst,...
//       --load-graph INST --connections N --seed S --seconds T
//       [--trace-out F] [--setup-only]
//
// solve: maps the instances, then runs timed passes over the pairs on a
// kLanes-lane pool until the time budget is spent.  Each solve is
// find_mis(verify = false) followed by verify_mis.  A traced run first
// solves every pair on a kCheckLanes-lane pool, and pass 0 must return
// those sets byte for byte.
//
// serve: uploads the instances to a running `hmis serve`, then runs a closed
// loop of N connections (misses with fresh seeds, hits that re-issue a
// recently answered request, load+unload under a fresh name), then one
// request at a time over the probe pairs.  Every served set is checked with
// verify_mis against the harness's own copy of the graph after the loop.
//
// With --trace-out the harness keeps spans in memory around every call and
// writes them as Chrome trace-event JSON at exit.  Each solve pass then runs
// twice, untraced and traced, and the serve probe alternates untraced and
// traced rounds; the report carries both timings, and their difference is
// the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hmis/core/mis.hpp"
#include "hmis/hypergraph/data_plane_stats.hpp"
#include "hmis/hypergraph/degree_stats.hpp"
#include "hmis/hypergraph/io.hpp"
#include "hmis/hypergraph/mutable_hypergraph.hpp"
#include "hmis/hypergraph/validate.hpp"
#include "hmis/net/client.hpp"
#include "hmis/par/thread_pool.hpp"
#include "hmis/util/bitset.hpp"
#include "hmis/util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double ms_between(double a, double b) { return (b - a) * 1e3; }

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer (a bijection)
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ---- Arguments ---------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> kv;
  bool setup_only = false;

  [[nodiscard]] std::string get(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& k) const {
    return std::stoull(get(k));
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: perfbench_harness solve|serve ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--setup-only") {
      a.setup_only = true;
    } else if (s.rfind("--", 0) == 0 && i + 1 < argc) {
      a.kv[s.substr(2)] = argv[++i];
    } else {
      throw std::runtime_error("bad argument: " + s);
    }
  }
  return a;
}

struct Pair {
  std::string algo;
  std::string instance;
  std::size_t reps = 1;  // solves of this pair per pass
  hmis::core::Algorithm algorithm = hmis::core::Algorithm::Auto;
};

/// "algo:instance[:reps],..."
std::vector<Pair> parse_pairs(const std::string& spec) {
  std::vector<Pair> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::vector<std::string> f;
    std::stringstream is(item);
    for (std::string part; std::getline(is, part, ':');) f.push_back(part);
    if (f.size() < 2 || f.size() > 3) {
      throw std::runtime_error("bad pair " + item);
    }
    Pair p{f[0], f[1], f.size() == 3 ? std::stoull(f[2]) : 1};
    const auto a = hmis::core::algorithm_from_name(p.algo);
    if (!a) throw std::runtime_error("unknown algorithm " + p.algo);
    p.algorithm = *a;
    out.push_back(std::move(p));
  }
  return out;
}

// ---- Spans -------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  std::uint64_t id = 0;
  int tid = 0;
  std::string args;  // JSON object members, without braces
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(now_s()) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  void add(std::string name, double start, double end, std::uint64_t id,
           int tid, std::string args = {}) {
    if (!on_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        Span{std::move(name), start, end, id, tid, std::move(args)});
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      if (!first) os << ",\n";
      first = false;
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                    (s.start - origin_) * 1e6, (s.end - s.start) * 1e6);
      os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << s.tid << "," << buf << ",\"args\":{\"id\":" << s.id
         << (s.args.empty() ? "" : ",") << s.args << "}}";
    }
    os << "]}\n";
  }

 private:
  const bool on_;
  const double origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// ---- Small JSON writer for the report ----------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string quote(std::string_view s) {
  return "\"" + hmis::util::json_escape(s) + "\"";
}

// ---- Process counters --------------------------------------------------

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// utime + stime of another process from /proc/<pid>/stat.
double proc_cpu_s(long pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(is, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// VmHWM (peak resident set) of a process, in kB.
std::uint64_t peak_rss_kb(const std::string& pid) {
  std::ifstream is("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// ---- Instances ---------------------------------------------------------

struct Corpus {
  std::map<std::string, hmis::Hypergraph> graphs;
  double load_ms = 0;
  std::uint64_t bytes = 0;
};

Corpus map_instances(const std::string& dir,
                     const std::vector<std::string>& names, Tracer& tracer) {
  Corpus c;
  for (const std::string& name : names) {
    if (c.graphs.count(name) != 0) continue;
    const std::string path = dir + "/" + name + ".hgb2";
    const double t0 = now_s();
    hmis::Hypergraph h = hmis::load_hypergraph_mapped(path);
    const double t1 = now_s();
    c.load_ms += ms_between(t0, t1);
    c.bytes += std::filesystem::file_size(path);
    tracer.add("load", t0, t1, 0, 0, "\"instance\":" + quote(name));
    c.graphs.emplace(name, std::move(h));
  }
  return c;
}

std::vector<std::string> instances_of(const std::vector<Pair>& pairs) {
  std::vector<std::string> out;
  for (const Pair& p : pairs) out.push_back(p.instance);
  return out;
}

struct Failures {
  std::uint64_t attempted = 0;
  std::vector<std::string> messages;
  std::mutex mutex;

  void fail(std::string msg) {
    const std::lock_guard<std::mutex> lock(mutex);
    messages.push_back(std::move(msg));
  }
  [[nodiscard]] std::string json() {
    std::string out = "[";
    for (std::size_t i = 0; i < messages.size() && i < 20; ++i) {
      if (i > 0) out += ',';
      out += quote(messages[i]);
    }
    return out + "]";
  }
};

// ---- solve -------------------------------------------------------------

/// FNV-1a over the set's vertex ids: equal digests for byte-identical sets.
std::uint64_t digest(const std::vector<hmis::VertexId>& set) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const hmis::VertexId v : set) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  }
  return h;
}

struct PairRecord {
  std::string picked;
  std::uint64_t set_digest = 0;  // pass 0
  std::vector<double> solve_ms, verify_ms, traced_solve_ms, traced_verify_ms;
  std::vector<double> round_ms;  // traced passes: gaps between progress calls
  std::uint64_t rounds = 0, inner_stages = 0, resamples = 0, work = 0,
                depth = 0;  // summed over the solves of pass 0
};

std::string dp_json(const hmis::DataPlaneStats& d) {
  return "{\"sweeps\":" + std::to_string(d.sweeps) +
         ",\"swept_entries\":" + std::to_string(d.swept_entries) +
         ",\"stale_deposited\":" + std::to_string(d.stale_deposited) +
         ",\"sparse_gathers\":" + std::to_string(d.sparse_gathers) +
         ",\"dense_gathers\":" + std::to_string(d.dense_gathers) + "}";
}

/// Lanes of the timed pool, and of the traced run's reference pass.
constexpr std::size_t kLanes = 4;
constexpr std::size_t kCheckLanes = 1;

int run_solve(const Args& args) {
  Tracer tracer(args.kv.count("trace-out") != 0);
  const std::vector<Pair> pairs = parse_pairs(args.get("pairs"));
  const std::uint64_t seed = args.u64("seed");
  const double budget_s = std::stod(args.get("seconds"));

  Corpus corpus = map_instances(args.get("corpus"), instances_of(pairs), tracer);
  const double ready = now_s();
  std::printf("{\"mode\":\"solve\",\"ready_mono\":%s,\"io\":{\"load_ms\":%s,"
              "\"bytes\":%llu}",
              num(ready).c_str(), num(corpus.load_ms).c_str(),
              static_cast<unsigned long long>(corpus.bytes));
  if (args.setup_only) {
    std::printf("}\n");
    return 0;
  }

  const auto pass_seed = [seed](std::size_t pass, std::size_t i) {
    return mix64(mix64(mix64(seed) + pass) + i) >> 12;
  };
  Failures failures;
  std::uint64_t next_id = 1;

  // Reference pass on the other lane count (traced runs): pass 0 of the
  // timed loop must return these sets byte for byte (the determinism
  // contract).  Every run reports a digest of each pass-0 set, so runs of
  // one seed can also be compared across commits.
  std::vector<std::vector<hmis::VertexId>> reference(pairs.size());
  if (tracer.on()) {
    hmis::par::set_global_threads(kCheckLanes);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      hmis::core::FindOptions opt;
      opt.seed = pass_seed(0, i);
      opt.verify = false;
      opt.pool = &hmis::par::global_pool();
      reference[i] = hmis::core::find_mis(corpus.graphs.at(pairs[i].instance),
                                          pairs[i].algorithm, opt)
                         .result.independent_set;
    }
  }

  hmis::par::set_global_threads(kLanes);
  hmis::par::ThreadPool& pool = hmis::par::global_pool();
  std::vector<PairRecord> rec(pairs.size());
  hmis::DataPlaneStats dp_pass0{};

  // One solve of pair i: find_mis, then verify_mis, each timed.  Counts are
  // summed over pass 0; its rep 0 is checked against the reference.
  const auto solve_one = [&](std::size_t pass, std::size_t i, std::size_t rep,
                             bool traced) {
    const Pair& p = pairs[i];
    const hmis::Hypergraph& h = corpus.graphs.at(p.instance);
    const std::uint64_t id = next_id++;
    const bool first = pass == 0 && rep == 0;
    std::vector<double> progress;  // timestamps of on_progress calls
    hmis::core::FindOptions opt;
    opt.seed = rep == 0 ? pass_seed(pass, i) : mix64(pass_seed(pass, i) + rep) >> 12;
    opt.verify = false;
    opt.pool = &pool;
    if (traced) {
      opt.on_progress = [&progress](std::size_t) {
        progress.push_back(now_s());
      };
    }
    ++failures.attempted;
    const double t0 = now_s();
    const hmis::core::MisRun run = hmis::core::find_mis(h, p.algorithm, opt);
    const double t1 = now_s();
    const hmis::MisVerdict verdict = hmis::verify_mis(
        h, std::span<const hmis::VertexId>(run.result.independent_set));
    const double t2 = now_s();

    PairRecord& r = rec[i];
    r.picked = std::string(hmis::core::algorithm_name(run.algorithm));
    (traced ? r.traced_solve_ms : r.solve_ms).push_back(ms_between(t0, t1));
    (traced ? r.traced_verify_ms : r.verify_ms).push_back(ms_between(t1, t2));
    const std::string label = p.instance + "." + p.algo;
    if (!run.result.success || !verdict.ok()) {
      failures.fail(label + ": verify_mis rejected the output");
    } else if (first && tracer.on() &&
               run.result.independent_set != reference[i]) {
      failures.fail(label + ": set differs between " + std::to_string(kLanes) +
                    " and " + std::to_string(kCheckLanes) + " lanes");
    }
    if (first && !traced) r.set_digest = digest(run.result.independent_set);
    if (pass == 0 && !traced) {
      r.rounds += run.result.rounds;
      r.inner_stages += run.result.inner_stages;
      r.resamples += run.result.resamples;
      r.work += run.result.metrics.work;
      r.depth += run.result.metrics.depth;
    }
    if (traced) {
      tracer.add("solve", t0, t1, id, 0,
                 "\"instance\":" + quote(p.instance) + ",\"algo\":" +
                     quote(p.algo) + ",\"picked\":" + quote(r.picked) +
                     ",\"seed\":" + std::to_string(opt.seed));
      tracer.add("verify", t1, t2, id, 0, "\"instance\":" + quote(p.instance));
      double prev = t0;
      for (std::size_t k = 0; k < progress.size(); ++k) {
        r.round_ms.push_back(ms_between(prev, progress[k]));
        tracer.add("round", prev, progress[k], id, 0,
                   "\"round\":" + std::to_string(k + 1));
        prev = progress[k];
      }
    }
  };

  // One pass over the mix.  Returns its wall time.
  const auto run_pass = [&](std::size_t pass, bool traced) {
    const double pass_start = now_s();
    const hmis::DataPlaneStats dp0 = hmis::data_plane_stats();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (std::size_t rep = 0; rep < pairs[i].reps; ++rep) {
        solve_one(pass, i, rep, traced);
      }
    }
    if (pass == 0 && !traced) dp_pass0 = hmis::data_plane_stats() - dp0;
    return now_s() - pass_start;
  };

  // Timed phase: whole passes while at least half of the next one is
  // expected to fit, so the pass count does not flip between runs when a
  // pass takes about a whole fraction of the budget.  A traced run repeats
  // every pass with spans on and the same seeds; the difference between the
  // two is the tracing overhead.
  const hmis::par::SchedulerStats sched0 = pool.stats();
  const double cpu0 = self_cpu_s();
  const double start = now_s();
  std::size_t passes = 0;
  double last = 0;
  while (passes == 0 || (now_s() - start) + 0.5 * last <= budget_s) {
    last = run_pass(passes, false);
    if (tracer.on()) last += run_pass(passes, true);
    ++passes;
  }
  const double wall = now_s() - start;
  const double cpu = self_cpu_s() - cpu0;
  const hmis::par::SchedulerStats sched = pool.stats() - sched0;

  // Layer probes (traced run only): one from-scratch Δ computation and one
  // from-scratch minimalization per BL-slice instance.
  double degree_ms = 0, minimalize_ms = 0;
  if (tracer.on()) {
    for (const Pair& p : pairs) {
      if (p.algorithm != hmis::core::Algorithm::BL) continue;
      const hmis::Hypergraph& h = corpus.graphs.at(p.instance);
      std::vector<double> d, m;
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = now_s();
        const hmis::DegreeStats ds = hmis::compute_degree_stats(h);
        const double t1 = now_s();
        hmis::MutableHypergraph mh(h, &pool);
        const double t2 = now_s();
        const std::size_t removed = mh.dedupe_and_minimalize();
        const double t3 = now_s();
        d.push_back(ms_between(t0, t1));
        m.push_back(ms_between(t2, t3));
        tracer.add("probe.degree_stats", t0, t1, 0, 0,
                   "\"instance\":" + quote(p.instance) +
                       ",\"delta\":" + num(ds.delta));
        tracer.add("probe.minimalize", t2, t3, 0, 0,
                   "\"instance\":" + quote(p.instance) +
                       ",\"removed\":" + std::to_string(removed));
      }
      std::sort(d.begin(), d.end());
      std::sort(m.begin(), m.end());
      degree_ms += d[1];
      minimalize_ms += m[1];
    }
  }

  std::printf(",\"lanes\":%zu,\"check_lanes\":%zu,\"passes\":%zu,"
              "\"timed_wall_s\":%s,\"cpu_s\":%s,\"peak_rss_kb\":%llu",
              kLanes, kCheckLanes, passes, num(wall).c_str(), num(cpu).c_str(),
              static_cast<unsigned long long>(peak_rss_kb("self")));
  std::printf(",\"sched\":{\"spawns\":%llu,\"steals\":%llu,"
              "\"steals_remote\":%llu,\"joins\":%llu}",
              static_cast<unsigned long long>(sched.spawns),
              static_cast<unsigned long long>(sched.steals),
              static_cast<unsigned long long>(sched.steals_remote),
              static_cast<unsigned long long>(sched.joins));
  std::printf(",\"dp\":%s,\"probes\":{\"degree_stats_ms\":%s,"
              "\"minimalize_ms\":%s},\"pairs\":[",
              dp_json(dp_pass0).c_str(), num(degree_ms).c_str(),
              num(minimalize_ms).c_str());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairRecord& r = rec[i];
    std::printf(
        "%s{\"algo\":%s,\"instance\":%s,\"picked\":%s,\"set_digest\":\"%016llx\","
        "\"rounds\":%llu,"
        "\"inner_stages\":%llu,\"resamples\":%llu,\"work\":%llu,"
        "\"depth\":%llu,\"solve_ms\":%s,\"verify_ms\":%s,"
        "\"traced_solve_ms\":%s,\"traced_verify_ms\":%s,\"round_ms\":%s}",
        i == 0 ? "" : ",", quote(pairs[i].algo).c_str(),
        quote(pairs[i].instance).c_str(), quote(r.picked).c_str(),
        static_cast<unsigned long long>(r.set_digest),
        static_cast<unsigned long long>(r.rounds),
        static_cast<unsigned long long>(r.inner_stages),
        static_cast<unsigned long long>(r.resamples),
        static_cast<unsigned long long>(r.work),
        static_cast<unsigned long long>(r.depth), list(r.solve_ms).c_str(),
        list(r.verify_ms).c_str(), list(r.traced_solve_ms).c_str(),
        list(r.traced_verify_ms).c_str(), list(r.round_ms).c_str());
  }
  std::printf("],\"attempted\":%llu,\"failed\":%zu,\"failures\":%s}\n",
              static_cast<unsigned long long>(failures.attempted),
              failures.messages.size(), failures.json().c_str());
  if (tracer.on()) tracer.write(args.get("trace-out"));
  return 0;
}

// ---- serve -------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

bool reply_ok(const hmis::net::Client::Reply& r) {
  return r.transport_ok && r.payload.rfind("{\"ok\":true", 0) == 0;
}

/// The "set" array of a solve response as a membership bitset over n
/// vertices; nullopt when the response does not carry a well-formed set.
std::optional<hmis::util::DynamicBitset> served_set(const std::string& payload,
                                                    std::size_t n) {
  const auto result = hmis::util::json_find(payload, "result");
  if (!result || result->kind != hmis::util::JsonValue::Kind::Object) {
    return std::nullopt;
  }
  const auto set = hmis::util::json_find(result->raw, "set");
  if (!set || set->kind != hmis::util::JsonValue::Kind::Array) {
    return std::nullopt;
  }
  hmis::util::DynamicBitset bits(n);
  std::uint64_t v = 0;
  bool digits = false;
  for (const char c : set->raw) {
    if (c >= '0' && c <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      digits = true;
    } else if (digits) {
      if (v >= n) return std::nullopt;
      bits.set(v);
      v = 0;
      digits = false;
    }
  }
  return bits;
}

std::string solve_request(const Pair& p, std::uint64_t seed) {
  return "{\"op\":\"solve\",\"graph\":" + quote(p.instance) +
         ",\"algo\":" + quote(p.algo) + ",\"seed\":" + std::to_string(seed) +
         "}";
}

std::string stats_op(hmis::net::Client& c) {
  const auto r = c.request("{\"op\":\"stats\"}");
  if (!reply_ok(r)) throw std::runtime_error("stats op failed");
  return r.payload;
}

struct Answered {  // one served miss, kept for the post-loop check
  std::size_t pair = 0;
  std::uint64_t seed = 0;
  std::size_t hash = 0;
  hmis::util::DynamicBitset set;
};

struct ConnResult {
  std::vector<double> lat[3];  // hit, miss, load (ms)
  std::uint64_t ok_responses = 0, response_bytes = 0, responses = 0,
                retries = 0;
  std::vector<Answered> answered;
};

enum OpClass { kHit = 0, kMiss = 1, kLoad = 2 };
const char* const kClassName[] = {"hit", "miss", "load"};
/// Share of --seconds left to the idle-server probe after the closed loop.
constexpr double kProbeShare = 0.2;

int run_serve(const Args& args) {
  Tracer tracer(args.kv.count("trace-out") != 0);
  const std::vector<Pair> miss_pairs = parse_pairs(args.get("miss-pairs"));
  const std::vector<Pair> probe_pairs = parse_pairs(args.get("probe-pairs"));
  const std::string corpus_dir = args.get("corpus");
  const std::string load_graph = args.get("load-graph");
  const auto port = static_cast<std::uint16_t>(args.u64("port"));
  const long server_pid = static_cast<long>(args.u64("server-pid"));
  const std::size_t connections = args.u64("connections");
  const std::uint64_t seed = args.u64("seed");
  const double budget_s = std::stod(args.get("seconds"));

  // Set-up: map our own copy of every instance, then upload each one.
  std::vector<std::string> names = instances_of(miss_pairs);
  for (const std::string& n : instances_of(probe_pairs)) names.push_back(n);
  Corpus corpus = map_instances(corpus_dir, names, tracer);
  hmis::net::Client control;
  if (!control.connect("127.0.0.1", port)) {
    throw std::runtime_error("cannot connect to the server");
  }
  for (const auto& [name, graph] : corpus.graphs) {
    const double t0 = now_s();
    const auto r = control.load(name, read_file(corpus_dir + "/" + name + ".hgb2"));
    tracer.add("upload", t0, now_s(), 0, 0, "\"instance\":" + quote(name));
    if (!reply_ok(r)) throw std::runtime_error("upload of " + name + " failed");
  }
  const double ready = now_s();
  std::printf("{\"mode\":\"serve\",\"ready_mono\":%s,\"io\":{\"load_ms\":%s,"
              "\"bytes\":%llu}",
              num(ready).c_str(), num(corpus.load_ms).c_str(),
              static_cast<unsigned long long>(corpus.bytes));
  if (args.setup_only) {
    std::printf("}\n");
    return 0;
  }
  const std::string load_bytes = read_file(corpus_dir + "/" + load_graph + ".hgb2");

  // Closed loop: each connection sends its next request when the previous
  // one has answered.
  const std::string stats_before = stats_op(control);
  const double server_cpu0 = proc_cpu_s(server_pid);
  const std::uint64_t seed_base = mix64(seed);
  std::atomic<std::uint64_t> fresh{0};
  std::atomic<std::uint64_t> next_id{1};
  Failures failures;
  std::vector<ConnResult> results(connections);
  const double loop_s = budget_s * (1.0 - kProbeShare);
  const double start = now_s();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        ConnResult& out = results[c];
        std::mt19937_64 rng(mix64(seed_base + 1000 + c));
        hmis::net::Client client;
        client.set_retry({.max_attempts = 3});
        if (!client.connect("127.0.0.1", port)) {
          failures.fail("connection " + std::to_string(c) + " refused");
          return;
        }
        std::vector<std::size_t> recent;  // indices into out.answered
        std::uint64_t attempted = 0, loads = 0;
        const auto exchange = [&](auto&& send) {
          const auto r = send();
          out.retries += static_cast<std::uint64_t>(r.attempts - 1);
          ++out.responses;
          out.response_bytes += r.payload.size();
          if (reply_ok(r)) ++out.ok_responses;
          return r;
        };
        while (now_s() - start < loop_s) {
          const unsigned roll = static_cast<unsigned>(rng() % 100);
          OpClass cls = roll < 44 ? kMiss : roll < 88 ? kHit : kLoad;
          if (cls == kHit && recent.empty()) cls = kMiss;
          ++attempted;
          const std::uint64_t id = next_id.fetch_add(1);
          const double t0 = now_s();
          bool ok = false;
          if (cls == kLoad) {
            const std::string name = "pb" + std::to_string(c) + "_" +
                                     std::to_string(loads++);
            const double tl = now_s();
            const auto r1 = exchange([&] { return client.load(name, load_bytes); });
            const double tu = now_s();
            const auto r2 = exchange([&] {
              return client.request("{\"op\":\"unload\",\"graph\":" +
                                    quote(name) + "}");
            });
            tracer.add("load", tl, tu, id, static_cast<int>(c) + 1);
            tracer.add("unload", tu, now_s(), id, static_cast<int>(c) + 1);
            ok = reply_ok(r1) && reply_ok(r2);
          } else if (cls == kMiss) {
            const std::size_t pi = rng() % miss_pairs.size();
            const std::uint64_t s =
                mix64(seed_base + fresh.fetch_add(1)) >> 12;
            const auto r = exchange(
                [&] { return client.request(solve_request(miss_pairs[pi], s)); });
            ok = reply_ok(r);
            if (ok) {
              const hmis::Hypergraph& h =
                  corpus.graphs.at(miss_pairs[pi].instance);
              auto bits = served_set(r.payload, h.num_vertices());
              if (!bits) {
                ok = false;
              } else {
                out.answered.push_back(Answered{
                    pi, s, std::hash<std::string>{}(r.payload),
                    std::move(*bits)});
                recent.push_back(out.answered.size() - 1);
                if (recent.size() > 64) recent.erase(recent.begin());
              }
            }
          } else {
            const Answered& a = out.answered[recent[rng() % recent.size()]];
            const auto r = exchange([&] {
              return client.request(solve_request(miss_pairs[a.pair], a.seed));
            });
            // A hit must return the bytes of the answer it re-issues.
            ok = reply_ok(r) && std::hash<std::string>{}(r.payload) == a.hash;
          }
          const double t1 = now_s();
          out.lat[cls].push_back(ms_between(t0, t1));
          tracer.add("request", t0, t1, id, static_cast<int>(c) + 1,
                     std::string("\"class\":\"") + kClassName[cls] + "\"");
          if (!ok) {
            failures.fail(std::string(kClassName[cls]) + " request failed");
          }
        }
        const std::lock_guard<std::mutex> lock(failures.mutex);
        failures.attempted += attempted;
      });
    }
  }
  const double loop_wall = now_s() - start;
  const double server_cpu = proc_cpu_s(server_pid) - server_cpu0;
  const std::string stats_after = stats_op(control);

  // Probe: one request at a time over the probe pairs on the now idle
  // server, each with a fresh seed, for the rest of the budget.  A traced
  // run records spans on every other round only.
  std::vector<std::vector<double>> probe_ms(probe_pairs.size());
  std::vector<std::vector<double>> traced_probe_ms(probe_pairs.size());
  std::vector<Answered> probe_answered;
  const double probe_start = now_s();
  for (std::size_t rep = 0; rep == 0 || now_s() - start < budget_s; ++rep) {
    const bool traced = tracer.on() && rep % 2 == 1;
    for (std::size_t i = 0; i < probe_pairs.size(); ++i) {
      const std::uint64_t s = mix64(seed_base + fresh.fetch_add(1)) >> 12;
      ++failures.attempted;
      const double t0 = now_s();
      const auto r = control.request(solve_request(probe_pairs[i], s));
      const double t1 = now_s();
      (traced ? traced_probe_ms : probe_ms)[i].push_back(ms_between(t0, t1));
      if (traced) {
        tracer.add("request", t0, t1, next_id.fetch_add(1), 0,
                   "\"class\":\"probe\",\"instance\":" +
                       quote(probe_pairs[i].instance) +
                       ",\"algo\":" + quote(probe_pairs[i].algo));
      }
      const hmis::Hypergraph& h = corpus.graphs.at(probe_pairs[i].instance);
      auto bits = reply_ok(r) ? served_set(r.payload, h.num_vertices())
                              : std::nullopt;
      if (!bits) {
        failures.fail("probe request failed");
        continue;
      }
      probe_answered.push_back(Answered{i, s, 0, std::move(*bits)});
    }
  }
  const double probe_wall = now_s() - probe_start;

  // Post-loop check: every served set against our own copy of the graph.
  const auto check = [&](const Pair& p, const Answered& a) {
    const hmis::Hypergraph& h = corpus.graphs.at(p.instance);
    const double t0 = now_s();
    const bool ok = hmis::verify_mis(h, a.set).ok();
    tracer.add("verify", t0, now_s(), 0, 0, "\"instance\":" + quote(p.instance));
    if (!ok) failures.fail(p.instance + "." + p.algo + ": served set rejected");
  };
  std::size_t checked = probe_answered.size();
  const double verify_start = now_s();
  for (const ConnResult& r : results) {
    for (const Answered& a : r.answered) check(miss_pairs[a.pair], a);
    checked += r.answered.size();
  }
  for (const Answered& a : probe_answered) check(probe_pairs[a.pair], a);
  const double verify_ms = ms_between(verify_start, now_s());

  std::printf(",\"connections\":%zu,\"loop_wall_s\":%s,\"server_cpu_s\":%s,"
              "\"peak_rss_kb\":%llu,\"probe_wall_s\":%s,\"verify_ms\":%s,"
              "\"checked\":%zu",
              connections, num(loop_wall).c_str(), num(server_cpu).c_str(),
              static_cast<unsigned long long>(
                  peak_rss_kb(std::to_string(server_pid))),
              num(probe_wall).c_str(), num(verify_ms).c_str(), checked);
  std::uint64_t ok_responses = 0, responses = 0, bytes = 0, retries = 0;
  std::vector<double> lat[3];
  for (const ConnResult& r : results) {
    ok_responses += r.ok_responses;
    responses += r.responses;
    bytes += r.response_bytes;
    retries += r.retries;
    for (int k = 0; k < 3; ++k) {
      lat[k].insert(lat[k].end(), r.lat[k].begin(), r.lat[k].end());
    }
  }
  std::printf(",\"ok_responses\":%llu,\"responses\":%llu,"
              "\"response_bytes\":%llu,\"retries\":%llu,\"latency_ms\":{",
              static_cast<unsigned long long>(ok_responses),
              static_cast<unsigned long long>(responses),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(retries));
  for (int k = 0; k < 3; ++k) {
    std::printf("%s\"%s\":%s", k == 0 ? "" : ",", kClassName[k],
                list(lat[k]).c_str());
  }
  std::printf("},\"probes\":[");
  for (std::size_t i = 0; i < probe_pairs.size(); ++i) {
    std::printf("%s{\"algo\":%s,\"instance\":%s,\"ms\":%s,\"traced_ms\":%s}",
                i == 0 ? "" : ",", quote(probe_pairs[i].algo).c_str(),
                quote(probe_pairs[i].instance).c_str(),
                list(probe_ms[i]).c_str(), list(traced_probe_ms[i]).c_str());
  }
  std::printf("],\"stats_before\":%s,\"stats_after\":%s,\"attempted\":%llu,"
              "\"failed\":%zu,\"failures\":%s}\n",
              stats_before.c_str(), stats_after.c_str(),
              static_cast<unsigned long long>(failures.attempted),
              failures.messages.size(), failures.json().c_str());
  if (tracer.on()) tracer.write(args.get("trace-out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "solve") return run_solve(args);
    if (args.mode == "serve") return run_serve(args);
    throw std::runtime_error("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
