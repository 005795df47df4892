"""Statistics of the rl0 benchmark.

Conventions (perfbench/README.md):
  * A percentile is the nearest-rank value of the sorted samples.
  * A percentile is reported only when at least ten samples lie beyond
    it; `highest_supported` names the highest percentile that qualifies.
  * An operation that failed or was refused counts as missing any
    latency limit: the load generator records it as -1, and it enters a
    latency series as +infinity.
  * A latency percentile is taken in each of five consecutive equal
    slices of the series (in time order) and the median of the five is
    reported, so one burst of interference on the host moves at most one
    slice. Each slice must support the percentile on its own.
  * Open-loop latency is timed from each request's *scheduled* send, so a
    stalled generator charges its stall to every request it delayed.
  * Run-to-run spread is the interquartile range over the median, with
    quartiles as statistics.quantiles(values, n=4) gives them.
"""

import math
import statistics

MIN_BEYOND = 10
WINDOWS = 5


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    rank = max(1, math.ceil(pct / 100.0 * n))
    return n - rank


def supported(n, pct, min_beyond=MIN_BEYOND):
    return n > 0 and samples_beyond(n, pct) >= min_beyond


def highest_supported(n, min_beyond=MIN_BEYOND):
    """Highest percentile (0.1 steps) with min_beyond samples beyond it, or
    None when even the median is unsupported."""
    best = None
    for tenth in range(500, 1000):
        pct = tenth / 10.0
        if supported(n, pct, min_beyond):
            best = pct
    return best


def percentile(values, pct):
    """Nearest-rank percentile; None when fewer than MIN_BEYOND samples lie
    beyond it."""
    n = len(values)
    if not supported(n, pct):
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]


def latency_series(recorded_ms):
    """The recorded series with failed operations (-1) as +inf."""
    return [math.inf if v < 0 else v for v in recorded_ms]


def windowed_percentile(values, pct, windows=WINDOWS):
    """Median over `windows` consecutive equal slices of each slice's
    pct-th percentile; None unless every slice supports it."""
    n = len(values)
    slices = [values[i * n // windows:(i + 1) * n // windows]
              for i in range(windows)]
    got = [percentile(s, pct) for s in slices]
    if any(g is None for g in got):
        return None
    return median(got)


def scheduled_latencies(scheduled, completed):
    """Open-loop latency of each request from its scheduled send time."""
    if len(scheduled) != len(completed):
        raise ValueError("one completion per scheduled request")
    return [c - s for s, c in zip(scheduled, completed)]


def failed_fraction(attempted, failed):
    if attempted < 1:
        raise ValueError("a run attempts at least one operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
