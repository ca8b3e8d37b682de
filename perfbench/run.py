#!/usr/bin/env python3
"""The hmis benchmark: verified solves and a served traffic mix.

    python3 perfbench/run.py --workload solve-4t --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  Builds the library, the CLI and the
harness (harness.cpp) into .bench_build/, runs one workload for about
--seconds of timed work, checks every output, and prints as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics; --trace 1 is a separate traced run that
reports the per-layer metrics and writes a Chrome trace-event file and the
per-layer table under .bench_build/trace/.  README.md defines every metric.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BUILD_DIR = ".bench_build"
SETUPS = 15  # set-up is repeated this many times; setup_s is the median

SLICES = ("sbl", "bl", "kuw", "auto")
SMALL = ("graph_s", "interval_s", "linear_s", "mixed_s", "planted_s", "sbl_s",
         "sunflower_s", "uniform_s")
SOLVE_MIX = (
    [("sbl", i) for i in ("sbl_l", "sunflower_l", "interval_l")]
    + [("bl", i) for i in ("uniform_l", "mixed_s")]
    + [("kuw", i) for i in ("uniform_l", "planted_l", "linear_l", "mixed_l",
                            "interval_l")]
    + [("auto", i) for i in SMALL])
# Pairs that solve in under 0.1 s are solved this many times per pass, so
# their medians rest on enough samples.
REPS = {p: 5 for p in [("sbl", "sbl_l"), ("sbl", "sunflower_l"),
                       ("sbl", "interval_l"), ("auto", "graph_s"),
                       ("auto", "interval_s"), ("auto", "sbl_s"),
                       ("auto", "sunflower_s")]}
SERVE_MISSES = [("sbl", "sbl_s"), ("sbl", "interval_s"), ("sbl", "sunflower_s"),
                ("kuw", "uniform_s"), ("kuw", "planted_s"), ("auto", "graph_s")]
# The idle-server probe adds one BL pair so every solve_s slice is measured.
SERVE_PROBES = SERVE_MISSES + [("bl", "graph_s")]
SERVE_LOAD_GRAPH = "uniform_s"
SERVE_THREADS = 4
SERVE_CONNECTIONS = 4

WORKLOADS = {"solve-4t": "solve", "serve-mix": "serve"}  # name -> harness mode

END_TO_END = {  # name -> unit
    "setup_s": "s", "solve_s": "s", "solve_s.sbl": "s", "solve_s.bl": "s",
    "solve_s.kuw": "s", "solve_s.auto": "s", "rps": "1/s",
    "latency_ms.p50": "ms", "latency_ms.p90": "ms", "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "io.load_ms": "ms", "io.bytes": "bytes",
    **{"core.auto_picks." + a: "count" for a in ("sbl", "bl", "kuw", "luby")},
    **{"core.solve_ms.%s.%s" % (i, a): "ms" for a, i in SOLVE_MIX},
    "verify.ms": "ms",
    **{"algo.rounds." + a: "count" for a in SLICES},
    "algo.inner_stages.sbl": "count", "algo.resamples.sbl": "count",
    "algo.work": "count", "algo.depth": "count",
    **{"algo.round_ms.%s.%s" % (q, a): "ms"
       for q in ("p50", "max") for a in ("sbl", "bl")},
    **{"dp." + c: "count" for c in ("sweeps", "swept_entries",
                                    "stale_deposited", "sparse_gathers",
                                    "dense_gathers")},
    "dp.degree_stats_ms": "ms", "dp.minimalize_ms": "ms",
    **{"par." + c: "count" for c in ("spawns", "steals", "steals_remote",
                                     "joins")},
    "par.spawns_per_round": "ratio", "par.busy_frac": "ratio",
    **{"engine." + c: "count" for c in ("submitted", "completed", "failed",
                                        "cancelled")},
    **{"net.latency_ms.%s.%s" % (q, c): "ms"
       for q in ("p50", "p90") for c in ("hit", "miss", "load")},
    "net.cache.hit_ratio": "ratio", "net.cache.evictions": "count",
    "net.rejected": "count", "net.retries": "count",
    "net.response_bytes.mean": "bytes",
    "latency.samples": "count", "latency.tail_pct": "pct",
    "latency_ms.tail": "ms", "error_rate": "ratio", "trace.overhead_s": "s",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---- Build and stamp -----------------------------------------------------

def build(root):
    bdir = os.path.join(root, BUILD_DIR)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        log("configuring " + BUILD_DIR)
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        bdir, "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target",
                    "hmis_cli", "perfbench_harness"], check=True, **quiet)
    return (os.path.join(bdir, "perfbench_harness"),
            os.path.join(bdir, "hypermis", "tools", "hmis"))


def cmake_cache(root, key):
    path = os.path.join(root, BUILD_DIR, "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest(root):
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        # __pycache__ holds mtime-stamped bytecode, which differs between
        # checkouts of the same sources.
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path)
            if "__pycache__" not in d.split(os.sep) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(root, args, threads):
    compiler = cmake_cache(root, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    commit = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "none"
    return {"nproc": os.cpu_count(), "build_type": cmake_cache(
        root, "CMAKE_BUILD_TYPE"), "compiler": version, "git_commit": commit,
        "source_digest": source_digest(root), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **threads}


# ---- Running the harness ----------------------------------------------------

def run_harness(cmd, timeout=170):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=timeout)
    if r.returncode != 0:
        fail("harness exited with %d" % r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


def with_setups(one):
    """Calls one(setup_only) SETUPS times; the middle call is the measured
    run.  Returns its output and every set-up time.  On the baseline host a
    process maps its instances either fast or about 1.5x slower, and which
    one changes over seconds, so set-ups are taken on both sides of the
    timed phase."""
    setups = []
    for k in range(SETUPS):
        o, seconds = one(k != SETUPS // 2)
        setups.append(seconds)
        if k == SETUPS // 2:
            out = o
    return out, setups


def solve_workload(harness, root, args, trace_out):
    base = [harness, "solve", "--corpus", os.path.join(root, "corpus"),
            "--pairs", ",".join("%s:%s:%d" % (a, i, REPS.get((a, i), 1))
                                for a, i in SOLVE_MIX),
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace_out:
        base += ["--trace-out", trace_out]

    def one(setup_only):
        t0 = time.monotonic()
        out = run_harness(base + (["--setup-only"] if setup_only else []))
        return out, out["ready_mono"] - t0
    return with_setups(one)


class Server:
    """A spawned `hmis serve`, stopped and reaped on exit."""

    def __init__(self, hmis, port_file):
        if os.path.exists(port_file):
            os.remove(port_file)
        self.proc = subprocess.Popen(
            [hmis, "serve", "--threads", str(SERVE_THREADS), "--port", "0",
             "--port-file", port_file], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                fail("hmis serve did not start")
            time.sleep(0.001)
        with open(port_file) as f:
            self.port = int(f.read().strip())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def serve_workload(harness, hmis, root, args, trace_out):
    port_file = os.path.join(root, BUILD_DIR, "serve.port")

    def one(setup_only):
        t0 = time.monotonic()
        server = Server(hmis, port_file)
        try:
            cmd = [harness, "serve", "--corpus", os.path.join(root, "corpus"),
                   "--port", str(server.port), "--server-pid",
                   str(server.proc.pid), "--miss-pairs",
                   ",".join("%s:%s" % p for p in SERVE_MISSES),
                   "--probe-pairs",
                   ",".join("%s:%s" % p for p in SERVE_PROBES),
                   "--load-graph", SERVE_LOAD_GRAPH, "--connections",
                   str(SERVE_CONNECTIONS), "--seed", str(args.seed),
                   "--seconds", str(args.seconds)]
            if trace_out:
                cmd += ["--trace-out", trace_out]
            out = run_harness(cmd + (["--setup-only"] if setup_only else []))
        finally:
            server.stop()
        return out, out["ready_mono"] - t0
    return with_setups(one)


# ---- Metrics -----------------------------------------------------------------

def solve_metrics(out, setups):
    pairs = out["pairs"]
    solves = sum(len(p["solve_ms"]) for p in pairs)
    per_pair = {(p["algo"], p["instance"]): stats.median(
        [s + v for s, v in zip(p["solve_ms"], p["verify_ms"])]) for p in pairs}
    # Latency percentiles weigh every pair once, by its median solve.
    lat = list(per_pair.values())
    e2e = {
        "setup_s": stats.median(setups),
        "solve_s": sum(per_pair.values()) / 1e3,
        **{"solve_s." + a: sum(v for (pa, _), v in per_pair.items()
                               if pa == a) / 1e3 for a in SLICES},
        "rps": solves / out["timed_wall_s"],
        "latency_ms.p50": stats.percentile(lat, 50),
        "latency_ms.p90": stats.percentile(lat, 90),
        "cpu_s": out["cpu_s"] / out["passes"],
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    return e2e, lat


def serve_metrics(out, setups):
    lat = [x for c in ("hit", "miss", "load") for x in out["latency_ms"][c]]
    per_probe = {(p["algo"], p["instance"]): stats.median(p["ms"])
                 for p in out["probes"]}
    e2e = {
        "setup_s": stats.median(setups),
        "solve_s": sum(per_probe.values()) / 1e3,
        **{"solve_s." + a: sum(v for (pa, _), v in per_probe.items()
                               if pa == a) / 1e3 for a in SLICES},
        "rps": out["ok_responses"] / out["loop_wall_s"],
        "latency_ms.p50": stats.percentile(lat, 50),
        "latency_ms.p90": stats.percentile(lat, 90),
        "cpu_s": out["server_cpu_s"] / out["ok_responses"] * 1e3,
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    return e2e, lat


def layer_metrics(kind, out, e2e, lat):
    m = {name: 0 for name in PER_LAYER}
    m["io.load_ms"] = out["io"]["load_ms"]
    m["io.bytes"] = out["io"]["bytes"]
    tail = stats.summarize(lat)
    m["latency.samples"] = tail["n"]
    m["latency.tail_pct"] = tail["tail_pct"]
    m["latency_ms.tail"] = tail["tail"]
    m["error_rate"] = out["failed"] / max(out["attempted"], 1)
    if kind == "solve":
        pairs = out["pairs"]
        passes = out["passes"]
        rounds = 0
        for p in pairs:
            a = p["algo"]
            m["core.solve_ms.%s.%s" % (p["instance"], a)] = stats.median(
                p["solve_ms"])
            m["verify.ms"] += stats.median(p["verify_ms"])
            m["algo.rounds." + a] += p["rounds"]
            m["algo.work"] += p["work"]
            m["algo.depth"] += p["depth"]
            rounds += p["rounds"]
            if a == "auto":
                m["core.auto_picks." + p["picked"]] += 1
            if a == "sbl":
                m["algo.inner_stages.sbl"] += p["inner_stages"]
                m["algo.resamples.sbl"] += p["resamples"]
        for a in ("sbl", "bl"):
            gaps = [g for p in pairs if p["algo"] == a for g in p["round_ms"]]
            if gaps:
                m["algo.round_ms.p50." + a] = stats.percentile(gaps, 50)
                m["algo.round_ms.max." + a] = max(gaps)
        for c, v in out["dp"].items():
            m["dp." + c] = v
        m["dp.degree_stats_ms"] = out["probes"]["degree_stats_ms"]
        m["dp.minimalize_ms"] = out["probes"]["minimalize_ms"]
        for c, v in out["sched"].items():
            m["par." + c] = v / passes
        m["par.spawns_per_round"] = m["par.spawns"] / max(rounds, 1)
        m["par.busy_frac"] = out["cpu_s"] / (out["timed_wall_s"] *
                                             out["lanes"])
        traced = sum(stats.median([s + v for s, v in zip(
            p["traced_solve_ms"], p["traced_verify_ms"])]) for p in pairs
            if p["traced_solve_ms"]) / 1e3
        if traced:
            m["trace.overhead_s"] = traced - e2e["solve_s"]
    else:
        d = serve_delta(out)
        for c in ("submitted", "completed", "failed", "cancelled"):
            m["engine." + c] = d["engine." + c]
        for c in ("sweeps", "swept_entries", "stale_deposited",
                  "sparse_gathers", "dense_gathers"):
            m["dp." + c] = d["data_plane." + c]
        for c in ("hit", "miss", "load"):
            xs = out["latency_ms"][c]
            if xs:
                m["net.latency_ms.p50." + c] = stats.percentile(xs, 50)
                m["net.latency_ms.p90." + c] = stats.percentile(xs, 90)
        lookups = d["cache.hits"] + d["cache.misses"]
        m["net.cache.hit_ratio"] = d["cache.hits"] / max(lookups, 1)
        m["net.cache.evictions"] = d["cache.evictions"]
        m["net.rejected"] = d["rejected"]
        m["net.retries"] = out["retries"]
        m["net.response_bytes.mean"] = out["response_bytes"] / max(
            out["responses"], 1)
        m["verify.ms"] = out["verify_ms"] / max(out["checked"], 1)
        m["par.busy_frac"] = out["server_cpu_s"] / (out["loop_wall_s"] *
                                                    SERVE_THREADS)
        if all(p["traced_ms"] for p in out["probes"]):
            m["trace.overhead_s"] = sum(stats.median(p["traced_ms"]) for p in
                                        out["probes"]) / 1e3 - e2e["solve_s"]
    return m


def serve_delta(out):
    return stats.stats_delta(stats.parse_serve_stats(out["stats_before"]),
                             stats.parse_serve_stats(out["stats_after"]))


def serve_invariants(out):
    """Consistency failures the server's own counters reveal."""
    d = serve_delta(out)
    bad = []
    if d["engine.submitted"] != d["cache.misses"]:
        bad.append("engine submitted %d != cache misses %d" % (
            d["engine.submitted"], d["cache.misses"]))
    if d["engine.failed"] or d["engine.cancelled"] or d["rejected"]:
        bad.append("server reported failed, cancelled or rejected requests")
    if out["checked"] == 0:
        bad.append("no served set was checked")
    return bad


def layer_table(metrics):
    width = max(len(k) for k in metrics)
    return "\n".join("%-*s %16.6g %s" % (width, k, v, PER_LAYER[k])
                     for k, v in metrics.items())


# ---- Main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src/hmis", "tools", "corpus"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a hypermis source checkout (no %s)"
                 % need)
    kind = WORKLOADS[args.workload]
    harness, hmis = build(root)
    trace_out = None
    if args.trace:
        tdir = os.path.join(root, BUILD_DIR, "trace")
        os.makedirs(tdir, exist_ok=True)
        trace_out = os.path.join(tdir, "%s-%d.trace.json" % (args.workload,
                                                             args.seed))

    if kind == "solve":
        out, setups = solve_workload(harness, root, args, trace_out)
        e2e, lat = solve_metrics(out, setups)
        problems = []
        threads = {"lanes": out["lanes"], "check_lanes": out["check_lanes"]}
    else:
        out, setups = serve_workload(harness, hmis, root, args, trace_out)
        e2e, lat = serve_metrics(out, setups)
        problems = serve_invariants(out)
        threads = {"server_threads": SERVE_THREADS,
                   "connections": SERVE_CONNECTIONS}
    out["failed"] += len(problems)
    for msg in out["failures"] + problems:
        log("check failed: " + msg)

    if args.trace:
        metrics = layer_metrics(kind, out, e2e, lat)
        units = PER_LAYER
        table = layer_table(metrics)
        with open(trace_out.replace(".trace.json", ".layers.txt"), "w") as f:
            f.write(table + "\n")
        print(table)
    else:
        metrics, units = e2e, END_TO_END
    record = {"stamp": stamp(root, args, threads), "setups_s": setups,
              "latency_samples": len(lat), "passes": out.get("passes"),
              "metrics": metrics}
    if kind == "solve":
        record["set_digests"] = {"%s.%s" % (p["instance"], p["algo"]):
                                 p["set_digest"] for p in out["pairs"]}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
