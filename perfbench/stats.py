"""Small statistics helpers: weighted percentiles and the exact
Clopper-Pearson binomial interval (stdlib only, no SciPy)."""

import math


def weighted_percentile(samples, q: float) -> float:
    """Percentile ``q`` (0-100) of (value, weight) pairs with integer
    weights, by linear interpolation over the expanded sample."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    if total == 0:
        raise ValueError("no samples")
    rank = (total - 1) * q / 100.0
    lo_rank, frac = int(math.floor(rank)), rank - math.floor(rank)

    def at(r):
        seen = 0
        for value, weight in ordered:
            seen += weight
            if r < seen:
                return value
        return ordered[-1][0]

    lo = at(lo_rank)
    return lo if frac == 0 else lo + (at(lo_rank + 1) - lo) * frac


def _binom_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p ** i * (1.0 - p) ** (n - i) for i in range(k + 1))


def _solve(f, target: float) -> float:
    """p in [0, 1] with f(p) == target for f decreasing in p (bisection)."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def clopper_pearson(k: int, n: int, confidence: float = 0.95) -> tuple:
    """Exact two-sided binomial interval for k successes in n trials."""
    alpha = 1.0 - confidence
    lower = 0.0 if k == 0 else _solve(lambda p: _binom_cdf(k - 1, n, p), 1.0 - alpha / 2)
    upper = 1.0 if k == n else _solve(lambda p: _binom_cdf(k, n, p), alpha / 2)
    return lower, upper
