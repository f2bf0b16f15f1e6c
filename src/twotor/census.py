"""Enumeration of family curves by conductor-polynomial size.

The region |b (a^2 - 4b)| <= Z is swept one a-column at a time; per column the
admissible b form one interval, or two once a^4 > 16 Z opens a hole around
b = a^2/4.  Interval ends come from integer square roots and are then nudged
against the exact predicate, so no float ever decides membership.

Conductor ordering is approximated: only curves with |conductor poly| <=
X * index_cap are visible, and the report says so.  Counts always refer to
minimal models; pairs with p^2 | a, p^4 | b for some p >= 5 are skipped as
rescaled copies of a smaller pair.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterator, Optional

import numpy as np

from . import arithmetic as ar
from . import local_density
from .curve_core import (
    CurveParams,
    avg_szpiro,
    in_good_family,
    kodaira_symbol_large_p,
    tate_algorithm,
)

KAPPA_MAX = Fraction(155, 68)
TAIL_INDEX_CAP = 100
_MAX_Z = 10**12  # keeps b*(a^2-4b) evaluations inside int64
_BLOCK = 1024  # a-values per worker block; fixed so merges are worker-count independent

_family_mask_cache: Optional[np.ndarray] = None


def _family_mask() -> np.ndarray:
    """96 x 96 boolean table of the good-reduction congruence classes."""
    global _family_mask_cache
    if _family_mask_cache is None:
        mask = np.zeros((96, 96), dtype=bool)
        for (a0, b0) in local_density.good_reduction_class_mod96():
            mask[a0, b0] = True
        _family_mask_cache = mask
    return _family_mask_cache


def _nudge_down(f: Callable[[int], bool], b: int) -> int:
    """Largest b' <= b + 3 with f true, assuming f true somewhere <= b + 3."""
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


def _b_intervals(a: int, Z: int) -> list[tuple[int, int]]:
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
        for lo, hi in _b_intervals(a, X):
            for b in range(lo, hi + 1):
                v = b * (t - 4 * b)
                if v == 0 or abs(v) > X:
                    continue
                c = CurveParams(a, b)
                if filter is None or filter(c):
                    yield c


# ---------------------------------------------------------------------------
# Census pipeline.
# ---------------------------------------------------------------------------

# per-curve record: (a, b, |cond poly|, conductor, prime-to-6 index, cube-free flag)
Record = tuple[int, int, int, int, int, bool]


def _curve_record(a: int, b: int) -> tuple[Optional[Record], list]:
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


def _block_pairs(Z: int, a_lo: int, a_hi: int, use_family: bool):
    """(a, b, b (a^2 - 4b)) for a_lo <= a <= a_hi, as int64 arrays sorted by (a, b).

    Only the b in residue classes mod 96 that the family mask allows for a are
    generated (all b when use_family is off), across every interval of every
    column at once.
    """
    cols, los, his = [], [], []
    for a in range(a_lo, a_hi + 1):
        for lo, hi in _b_intervals(a, Z):
            cols.append(a)
            los.append(lo)
            his.append(hi)
    cols = np.array(cols, dtype=np.int64)
    los = np.array(los, dtype=np.int64)
    his = np.array(his, dtype=np.int64)
    if use_family:
        mod, allowed = 96, _family_mask()[cols % 96]
    else:
        mod, allowed = 1, np.ones((len(cols), 1), dtype=bool)
    iv, r = np.nonzero(allowed)  # (interval, residue) pairs
    first = los[iv] + (r - los[iv]) % mod
    count = np.maximum((his[iv] - first) // mod + 1, 0)
    pair = np.repeat(np.arange(len(iv)), count)
    step = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    b = first[pair] + mod * step
    a = cols[iv[pair]]
    f = b * (a * a - 4 * b)
    keep = (f != 0) & (np.abs(f) <= Z)
    a, b, f = a[keep], b[keep], f[keep]
    order = np.lexsort((b, a))
    return a[order], b[order], f[order]


def _block_records(args) -> tuple[list[Record], list]:
    """The records of one block of a-columns, equal to ``_curve_record`` on each pair.

    On a minimal pair a prime p >= 5 dividing only one of b, c = a^2 - 4b has
    conductor exponent 1, and one dividing both has exponent 2 (additive
    reduction).  So the conductor is rad(b)_{6'} rad(c)_{6'} and the index is
    |bc|_{6'} over it.  Only pairs with a shared prime go through scalar code:
    the rescaled-copy skip and the Kodaira symbol at each shared prime.
    """
    Z, a_lo, a_hi, use_family = args
    a, b, f = _block_pairs(Z, a_lo, a_hi, use_family)
    rad_b, part_b, emax_b = ar.prime_to_6_profile(b)
    rad_c, part_c, emax_c = ar.prime_to_6_profile(a * a - 4 * b)
    cond = rad_b * rad_c
    idx6 = part_b * part_c // cond
    cubefree = (emax_b <= 2) & (emax_c <= 2)
    keep = np.ones(len(a), dtype=bool)
    anomalies: list = []
    shared = np.gcd(rad_b, rad_c)
    for i in np.flatnonzero(shared > 1).tolist():
        ai, bi, g = int(a[i]), int(b[i]), int(shared[i])
        primes = []
        while g > 1:  # g is square-free
            p = ar.smallest_prime_factor(g)
            primes.append(p)
            g //= p
        if any(bi % p**4 == 0 and ai % (p * p) == 0 for p in primes):
            keep[i] = False
            continue
        for p in primes:
            red = kodaira_symbol_large_p(CurveParams(ai, bi), p)
            assert red.conductor_exponent == 2, (
                f"({ai}, {bi}) at p={p}: shared prime with conductor exponent"
                f" {red.conductor_exponent}, not 2")
            if red.v_b + red.v_c > 2:
                cubefree[i] = False
            tag = str(red.symbol)
            if tag not in ("III", "I0*", "III*"):
                anomalies.append((ai, bi, p, tag))
    rows = (a, b, np.abs(f), cond, idx6, cubefree)
    records = list(zip(*(col[keep].tolist() for col in rows)))
    return records, anomalies


def _census_records(Z: int, workers: int = 1, use_family: bool = True):
    """All minimal (family) curves with |cond poly| <= Z, in deterministic order."""
    if Z > _MAX_Z:
        raise ValueError(f"region bound beyond the int64-safe limit {_MAX_Z}")
    ar.ensure_sieve(Z)  # build once here; forked workers inherit the table
    A = isqrt(4 * Z + 1)
    blocks = [
        (Z, a_lo, min(a_lo + _BLOCK - 1, A), use_family)
        for a_lo in range(-A, A + 1, _BLOCK)
    ]
    records: list[Record] = []
    anomalies: list = []
    if workers <= 1:
        results = map(_block_records, blocks)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        results = pool.map(_block_records, blocks)
    for recs, anoms in results:
        records.extend(recs)
        anomalies.extend(anoms)
    if workers > 1:
        pool.shutdown()
    return records, anomalies


@dataclass(frozen=True)
class CensusConfig:
    X: int
    family: str = "CondPoly"
    kappa: Optional[float] = None
    order_by: str = "CondPoly"
    index_cap: int = 10**4
    good_reduction_filter: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.X < 1:
            raise ValueError("X must be >= 1")
        if self.family not in local_density.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "Kappa":
            if self.kappa is None or not 1 < self.kappa < KAPPA_MAX:
                raise ValueError(f"Kappa family needs 1 < kappa < {KAPPA_MAX}")
        elif self.kappa is not None:
            raise ValueError("kappa only applies to the Kappa family")
        if self.order_by not in ("Conductor", "CondPoly"):
            raise ValueError(f"unknown ordering {self.order_by!r}")
        if self.index_cap < 1:
            raise ValueError("index_cap must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class CensusReport:
    config: CensusConfig
    cutoffs: tuple
    counts: tuple
    predicted: tuple
    ratios: tuple
    total_curves: int
    tails: dict
    anomalies: dict
    caveat: Optional[str]


def _default_cutoffs(X: int) -> tuple:
    cuts = []
    d = 10
    while d < X:
        cuts.append(d)
        d *= 10
    cuts.append(X)
    return tuple(cuts)


def _sampled_tate_check(rows: list[Record], sample_cap: int = 200) -> dict:
    """Run the 2,3 oracle on a deterministic subsample of counted curves.

    The mod-96 predicate is exact at 3 but provably overcounts at 2 for the
    odd-b clause, so a nonzero mismatch count at 2 is expected and reported,
    not hidden.
    """
    if not rows:
        return {"sample_size": 0, "bad_at_2": 0, "bad_at_3": 0}
    step = max(1, len(rows) // sample_cap)
    sample = rows[::step][:sample_cap]
    bad2 = bad3 = 0
    for a, b, *_ in sample:
        c = CurveParams(a, b)
        if tate_algorithm(c, 2).conductor_exponent != 0:
            bad2 += 1
        if tate_algorithm(c, 3).conductor_exponent != 0:
            bad3 += 1
    return {"sample_size": len(sample), "bad_at_2": bad2, "bad_at_3": bad3}


def run_census(
    config: CensusConfig,
    cutoffs: Optional[tuple] = None,
    euler_tol: Optional[float] = None,
) -> CensusReport:
    """Count family curves against the X^{3/4} prediction on a cutoff grid."""
    X = config.X
    cutoffs = tuple(sorted(set(cutoffs))) if cutoffs else _default_cutoffs(X)
    if cutoffs[-1] > X:
        raise ValueError("cutoffs beyond config.X")
    Z = X if config.order_by == "CondPoly" else X * config.index_cap
    records, anomaly_rows = _census_records(
        Z, workers=config.workers, use_family=config.good_reduction_filter
    )

    if config.family == "CubeFree":
        records = [r for r in records if r[5]]
    key_col = 2 if config.order_by == "CondPoly" else 3
    kept_szpiro = []  # avg_szpiro of each kept Kappa record, computed once
    if config.family == "Kappa":
        kept = []
        for r in records:
            if r[key_col] <= X and r[3] > 1:
                ratio = avg_szpiro(CurveParams(r[0], r[1]))
                if ratio <= config.kappa:
                    kept.append(r)
                    kept_szpiro.append(ratio)
        records = kept
    else:
        records = [r for r in records if r[key_col] <= X]

    keys = np.sort(np.array([r[key_col] for r in records], dtype=np.int64))
    counts = tuple(int(np.searchsorted(keys, c, side="right")) for c in cutoffs)

    const = local_density.mt1_constant(config.family, tol=euler_tol)  # None: the default
    predicted = tuple(const * c ** 0.75 for c in cutoffs)
    ratios = tuple(n / p for n, p in zip(counts, predicted))

    tails = {}
    if config.family == "CubeFree":
        thr = X**0.2
        tails["index_tail_delta_0.1"] = sum(1 for r in records if r[4] > thr)
    if config.family == "Kappa":
        lo = 1.5 + 0.25
        tails["szpiro_tail_theta_0.25"] = sum(1 for ratio in kept_szpiro if ratio > lo)

    overflow = 0
    caveat = None
    if config.order_by == "Conductor":
        overflow = sum(1 for r in records if r[4] > config.index_cap)
        caveat = (
            f"conductor ordering sees only |cond poly| <= {Z}; curves of conductor"
            f" <= {X} with index beyond {config.index_cap} * (X/C) are invisible"
        )

    anomalies = {
        "out_of_list_symbols": len(anomaly_rows),
        "out_of_list_examples": anomaly_rows[:10],
        "index_cap_overflow": overflow,
        "predicate_oracle_2_3": _sampled_tate_check(records),
    }
    return CensusReport(
        config=config,
        cutoffs=cutoffs,
        counts=counts,
        predicted=predicted,
        ratios=ratios,
        total_curves=len(records),
        tails=tails,
        anomalies=anomalies,
        caveat=caveat,
    )


# ---------------------------------------------------------------------------
# Tail statistics.
# ---------------------------------------------------------------------------


def tail_count_index(X: int, delta: float, workers: int = 1) -> int:
    """Cube-free family curves with conductor <= X and index > X^{2 delta}.

    Index and cube-freeness refer to the prime-to-6 part of the conductor
    polynomial.  The sweep covers |cond poly| <= 100 X, so indices beyond
    100 X / C are invisible; the X-grid decay statistic uses the same window
    at every X, which is what makes the ratios comparable.
    """
    if not 0 < delta < 0.5:
        raise ValueError("need 0 < delta < 1/2")
    records, _ = _census_records(X * TAIL_INDEX_CAP, workers=workers)
    thr = X ** (2 * delta)
    return sum(1 for r in records if r[5] and r[3] <= X and r[4] > thr)


def tail_count_szpiro(X: int, theta: float, kappa: float, workers: int = 1) -> int:
    """Curves with conductor <= X and 3/2 + theta < avg Szpiro <= kappa.

    Only curves with good reduction at 2 and 3 count (``in_good_family``), so
    the conductor is the prime-to-6 conductor the records carry.  The ratios
    use minimal discriminants for E and phi(E) (``avg_szpiro``).  The sweep
    covers |cond poly| <= 100 X, the same window as ``tail_count_index``.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not 1 < kappa < KAPPA_MAX:
        raise ValueError(f"need 1 < kappa < {KAPPA_MAX}")
    lo = 1.5 + theta
    if lo >= kappa:
        return 0
    records, _ = _census_records(X * TAIL_INDEX_CAP, workers=workers)
    count = 0
    for a, b, _cp, cond, _i, _cf in records:
        if 1 < cond <= X:
            c = CurveParams(a, b)
            if in_good_family(c) and lo < avg_szpiro(c) <= kappa:
                count += 1
    return count
