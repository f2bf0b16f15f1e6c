"""Scalar reference implementations the census sweep is checked against.

These are the per-column and per-curve versions of what ``census`` does a
block at a time: the interval ends of one a-column by exact integer square
roots, the region enumerated pair by pair, and one census record computed
from two factorizations.  The truncated real slice length, which
``real_density`` computes for a whole array of x by inclusion-exclusion, is
here as an interval list at one x.  They are slow and simple on purpose.
"""

from __future__ import annotations

from math import isqrt, sqrt
from typing import Callable, Iterator, Optional

from twotor import arithmetic as ar
from twotor.census import _MAX_Z
from twotor.curve_core import CurveParams, kodaira_symbol_large_p

# per-curve record: (a, b, |cond poly|, conductor, prime-to-6 index, cube-free flag)
Record = tuple[int, int, int, int, int, bool]


def _nudge_down(f: Callable[[int], bool], b: int) -> int:
    """Largest b' <= b + 8 with f true, assuming f true somewhere near b."""
    for _ in range(8):
        if f(b + 1):
            b += 1
        else:
            break
    for _ in range(8):
        if f(b):
            return b
        b -= 1
    raise AssertionError("interval endpoint drifted by more than the nudge budget")


def _nudge_up(f: Callable[[int], bool], b: int) -> int:
    for _ in range(8):
        if f(b - 1):
            b -= 1
        else:
            break
    for _ in range(8):
        if f(b):
            return b
        b += 1
    raise AssertionError("interval endpoint drifted by more than the nudge budget")


def b_intervals(a: int, Z: int) -> list[tuple[int, int]]:
    """Closed b-intervals with |b (a^2 - 4b)| <= Z (b = 0 not yet excluded)."""
    t = a * a
    in_outer = lambda b: b * (t - 4 * b) >= -Z  # down parabola: >= -Z between roots
    below_cap = lambda b: b * (t - 4 * b) <= Z
    dp = isqrt(t * t + 16 * Z)
    hi = _nudge_down(in_outer, (t + dp) // 8)
    lo = _nudge_up(in_outer, -((dp - t) // 8))
    if t * t <= 16 * Z:
        return [(lo, hi)]
    dm = isqrt(t * t - 16 * Z)
    left_end = _nudge_down(below_cap, (t - dm) // 8)
    right_start = _nudge_up(below_cap, (t + dm) // 8 + 1)
    if right_start <= left_end:  # hole holds no integer; keep one interval
        return [(lo, hi)]
    return [(lo, left_end), (right_start, hi)]


def enumerate_region(
    X: int, filter: Optional[Callable[[CurveParams], bool]] = None
) -> Iterator[CurveParams]:
    """All (a, b) with 0 < |b (a^2 - 4b)| <= X, a ascending then b ascending."""
    if X < 1:
        raise ValueError("X must be >= 1")
    if X > _MAX_Z:
        raise ValueError(f"X beyond the int64-safe bound {_MAX_Z}")
    A = isqrt(4 * X + 1)
    for a in range(-A, A + 1):
        t = a * a
        for lo, hi in b_intervals(a, X):
            for b in range(lo, hi + 1):
                v = b * (t - 4 * b)
                if v == 0 or abs(v) > X:
                    continue
                c = CurveParams(a, b)
                if filter is None or filter(c):
                    yield c


def curve_record(a: int, b: int) -> tuple[Optional[Record], list]:
    """Classify one curve at all p >= 5; None when the pair is a rescaled copy."""
    c = a * a - 4 * b
    vb = {p: e for p, e in ar.factorize(b).factors if p >= 5}
    vc = {p: e for p, e in ar.factorize(c).factors if p >= 5}
    for p, e in vb.items():
        if e >= 4 and a % (p * p) == 0:
            return None, []
    cond = 1
    idx6 = 1
    cubefree = True
    anomalies = []
    for p in sorted(set(vb) | set(vc)):
        eb, ec = vb.get(p, 0), vc.get(p, 0)
        if eb and ec:
            red = kodaira_symbol_large_p(CurveParams(a, b), p)
            f = red.conductor_exponent
            tag = str(red.symbol)
            if tag not in ("III", "I0*", "III*"):
                anomalies.append((a, b, p, tag))
        else:
            f = 1
        cond *= p**f
        idx6 *= p ** (eb + ec - f)
        cubefree &= eb + ec <= 2
    return (a, b, abs(b * c), cond, idx6, cubefree), anomalies


def records_as_tuples(records) -> list[Record]:
    """A census record table as the oracle's tuples (good_23 left out)."""
    return [r[:6] for r in records.tolist()]


def _subtract_open(intervals, lo, hi):
    """Remove the open interval (lo, hi) from a list of closed intervals."""
    out = []
    for a, b in intervals:
        if b <= lo or a >= hi:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, min(b, lo)))
        if b > hi:
            out.append((max(a, hi), b))
    return out


def truncated_slice_length(x: float, Z: float) -> float:
    """Length of {y : |y(x^2-y)| <= Z, |y| >= 4, |x^2-y| >= 4} at fixed x."""
    t = x * x
    half = t / 2
    peak = t * t / 4
    upper = sqrt(peak + Z)
    if peak <= Z:
        intervals = [(half - upper, half + upper)]
    else:
        inner = sqrt(peak - Z)
        intervals = [(half - upper, half - inner), (half + inner, half + upper)]
    intervals = _subtract_open(intervals, -4.0, 4.0)
    intervals = _subtract_open(intervals, t - 4.0, t + 4.0)
    return sum(b - a for a, b in intervals)
