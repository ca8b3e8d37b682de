"""Statistics and parsing shared by the benchmark's scripts.

Timings are summarised by their median and by the highest percentile that
still has at least ten samples beyond it, always with the sample count.
Spreads are the distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median.
"""

import json
import statistics

# Percentiles a tail figure may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) with the exclusive method of statistics.quantiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, p):
    """p-th percentile by linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return n * (100.0 - p) / 100.0


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def summarize(values):
    """Median, the tail percentile by the rule above, and the count."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0) if values else 0.0,
        "tail_pct": p if p is not None else 0.0,
        "tail": percentile(values, p) if p is not None else 0.0,
    }


def parse_serve_stats(payload):
    """Flatten the serve `stats` op response into dotted counter names.

    {"ok":true,"stats":{"requests":3,"cache":{"hits":1}}} becomes
    {"requests": 3, "cache.hits": 1}.  Booleans are dropped; anything that
    is not an ok:true stats response raises ValueError.
    """
    doc = json.loads(payload) if isinstance(payload, str) else payload
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        raise ValueError("not an ok:true response")
    body = doc.get("stats")
    if not isinstance(body, dict):
        raise ValueError("response has no stats object")
    out = {}

    def walk(prefix, obj):
        for key, val in obj.items():
            name = prefix + key
            if isinstance(val, dict):
                walk(name + ".", val)
            elif isinstance(val, bool):
                continue
            elif isinstance(val, (int, float)):
                out[name] = val
            else:
                raise ValueError("unexpected value for " + name)

    walk("", body)
    return out


def stats_delta(before, after):
    """after - before for every counter present in both."""
    return {k: after[k] - before[k] for k in after if k in before}
