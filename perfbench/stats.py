"""Statistics of the benchmark: medians, quartiles, tail percentiles, the
metric-name grammar, and the rule that a run with failed operations is
reported as failed.

Used by run.py; tested by test_stats.py (`python3 -m unittest` from this
directory).
"""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def check_name(name):
    """Return `name` if it matches the metric-name grammar, else raise."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: must match [A-Za-z0-9_.-]+")
    return name


def median(xs):
    """Median of a non-empty sample."""
    if not xs:
        raise ValueError("median of an empty sample")
    return statistics.median(xs)


def quartiles(xs):
    """First and third quartile, as `statistics.quantiles(xs, n=4)` gives
    them (needs at least two values)."""
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def spread(xs):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(xs)
    return (q3 - q1) / median(xs)


def tail_percentile(xs, p):
    """The nearest-rank `p`-th percentile of `xs`, refused unless at least
    MIN_BEYOND samples lie above its rank."""
    n = len(xs)
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return sorted(xs)[rank - 1]


def verdict(attempted, failed):
    """A run is correct only if it attempted something and nothing failed.
    A run with failures is reported as failed however fast it was."""
    return attempted >= 1 and failed == 0


def result(metrics, attempted, failed):
    """The benchmark's result object."""
    for name in metrics:
        check_name(name)
    return {
        "correct": verdict(attempted, failed),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def per_session(rows, statistic):
    """Median over sessions of `statistic` of each session's samples, with
    the total sample count. A burst of host noise in one session moves
    this less than a statistic of the pooled samples."""
    return median([statistic(r) for r in rows]), sum(len(r) for r in rows)


def end_to_end(raw):
    """End-to-end metrics from one run's raw samples, as
    name -> (value, unit, sample count). Latency samples come as one list
    per serve session. `miss_p90_ms` is printed with these but gated only
    as a per-layer figure (see README.md)."""
    walls = raw["wall_s"]
    per_pass = [e / w for e, w in zip(raw["events"], walls)]
    rates = [
        c / e for c, e in zip(raw["session_completed"], raw["session_elapsed_s"])
    ]
    p90 = lambda xs: tail_percentile(xs, 90)  # noqa: E731
    metrics = {
        "wall_s": (median(walls), "s", len(walls)),
        "setup_s": (median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "events_per_s": (median(per_pass), "1/s", len(per_pass)),
        "peak_rss_mib": (median(raw["rss_kib"]) / 1024.0, "MiB", len(raw["rss_kib"])),
        "requests_per_s": (median(rates), "1/s", len(rates)),
    }
    for name, key, statistic in [
        ("hit_p50_ms", "hit_a_ms", median),
        ("hit_p90_ms", "hit_a_ms", p90),
        ("miss_p50_ms", "miss_ms", median),
        ("miss_p90_ms", "miss_ms", p90),
        ("connect_hit_p50_ms", "hit_b_ms", median),
    ]:
        value, count = per_session(raw[key], statistic)
        metrics[name] = (value, "ms", count)
    return metrics
