"""Enumeration of family curves by conductor-polynomial size.

The family is ``curve_core.family_at_2 & family_at_3``: the sweep generates
only the b in the residue classes mod 96 that it allows for a, and the
records' good_23 column is ``curve_core.good_family``.

The region |b (a^2 - 4b)| <= Z is swept in blocks of a-columns; per column
the admissible b form one interval, or two once a^4 > 16 Z opens a hole
around b = a^2/4.  The interval ends of a whole block are estimated in
float64 and then decided exactly by vectorized int64 nudge passes over
b (a^2 - 4b), which never form a^4; so no float decides membership, up to
Z = _MAX_Z.

A sweep returns one record table, a numpy structured array (``RECORD_DTYPE``).
The census counts, both tails and the Kappa filter read its columns, and a
tails grid is served by one sweep at its largest X.

Conductor ordering is approximated: only curves with |conductor poly| <=
X * index_cap are visible, and the report says so.  Counts always refer to
minimal models; pairs with p^2 | a, p^4 | b for some p >= 5 are skipped as
rescaled copies of a smaller pair.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from typing import Optional

import numpy as np

from . import arithmetic as ar
from . import local_density
from .curve_core import (
    CurveParams,
    avg_szpiro,  # not called here: perfbench's tracer counts calls through this name
    avg_szpiro_of_parts,
    family_at_2,
    family_at_3,
    good_family,
    kodaira_symbol_large_p,
    tate_algorithm,
)

KAPPA_MAX = Fraction(155, 68)
TAIL_INDEX_CAP = 100
_MAX_Z = 10**12  # keeps b*(a^2-4b) evaluations inside int64
_BLOCK = 1024  # a-values per worker block; fixed so merges are worker-count independent
_NUDGE = 8  # steps an estimated interval end may move in each direction

# One row per minimal curve: |cond poly|, the prime-to-6 conductor and index,
# the cube-free flag, and good_23 = ``curve_core.good_family``.
RECORD_DTYPE = np.dtype([
    ("a", np.int64),
    ("b", np.int64),
    ("cond_poly", np.int64),
    ("conductor", np.int64),
    ("index_6", np.int64),
    ("cubefree", np.bool_),
    ("good_23", np.bool_),
])

# (a mod 96, b mod 96) -> in the family: the congruences read a and b mod 32 and mod 3.
_FAMILY_MOD96 = family_at_2(*np.ogrid[:96, :96]) & family_at_3(*np.ogrid[:96, :96])


def _nudge(f, b: np.ndarray, step: int) -> np.ndarray:
    """Exact interval ends from estimates b, for a whole array at once.

    With step = +1 each entry moves up while f holds one step further, then
    down until f holds: the top end of f's interval, given an estimate
    within the budget.  step = -1 gives the bottom end.  Each walk takes at
    most _NUDGE steps.
    """
    b = b.copy()
    move = np.ones(len(b), dtype=bool)
    for _ in range(_NUDGE):
        move &= f(b + step)
        if not move.any():
            break
        b += step * move
    hold = f(b)
    for _ in range(_NUDGE - 1):
        if hold.all():
            break
        b -= step * ~hold
        hold = f(b)
    if not hold.all():
        raise AssertionError("interval endpoint drifted by more than the nudge budget")
    return b


def _block_intervals(a: np.ndarray, Z: int):
    """Closed b-intervals with |b (a^2 - 4b)| <= Z (b = 0 not yet excluded).

    Returns int64 arrays (column, lo, hi), one entry per interval, in column
    order with a column's left interval first.  With t = a^2 the outer ends
    are the roots of b (t - 4b) = -Z and the hole's ends those of
    b (t - 4b) = Z; float64 puts each root within a unit and the nudges
    decide it on the exact predicate.
    """
    t = a * a
    tf = t.astype(np.float64)

    def in_outer(t):
        return lambda b: b * (t - 4 * b) >= -Z  # down parabola: >= -Z between roots

    def below_cap(t):
        return lambda b: b * (t - 4 * b) <= Z

    dp = np.sqrt(tf * tf + 16.0 * Z)
    hi = _nudge(in_outer(t), np.floor((tf + dp) / 8).astype(np.int64), 1)
    lo = _nudge(in_outer(t), -np.floor((dp - tf) / 8).astype(np.int64), -1)
    cut = np.flatnonzero(t > isqrt(16 * Z))  # t^2 > 16 Z, decided without forming t^2
    th, thf, r = t[cut], tf[cut], 4.0 * sqrt(Z)
    dm = np.sqrt(np.maximum((thf - r) * (thf + r), 0.0))
    left_end = _nudge(below_cap(th), np.floor((thf - dm) / 8).astype(np.int64), 1)
    right_start = _nudge(below_cap(th), np.floor((thf + dm) / 8).astype(np.int64) + 1, -1)
    two = right_start > left_end  # otherwise the hole holds no integer: one interval
    cut = cut[two]
    count = np.ones(len(a), dtype=np.int64)
    count[cut] = 2
    first = np.cumsum(count)[cut] - 2  # each split column's left interval
    cols, los, his = (np.repeat(x, count) for x in (a, lo, hi))
    his[first] = left_end[two]
    los[first + 1] = right_start[two]
    return cols, los, his


# ---------------------------------------------------------------------------
# Census pipeline.
# ---------------------------------------------------------------------------


def _block_pairs(Z: int, a_lo: int, a_hi: int, use_family: bool):
    """(a, b, b (a^2 - 4b)) for a_lo <= a <= a_hi, as int64 arrays sorted by (a, b).

    Only the b in residue classes mod 96 that the family mask allows for a are
    generated (all b when use_family is off), across every interval of every
    column at once.
    """
    cols, los, his = _block_intervals(np.arange(a_lo, a_hi + 1, dtype=np.int64), Z)
    if use_family:
        mod, allowed = 96, _FAMILY_MOD96[cols % 96]
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


def _block_records(args) -> tuple[np.ndarray, list]:
    """The records of one block of a-columns, as a ``RECORD_DTYPE`` array.

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
    records = np.empty(np.count_nonzero(keep), dtype=RECORD_DTYPE)
    columns = (a, b, np.abs(f), cond, idx6, cubefree, good_family(a, b))
    for name, col in zip(RECORD_DTYPE.names, columns):
        records[name] = col[keep]
    return records, anomalies


def _census_records(Z: int, workers: int = 1, use_family: bool = True):
    """All minimal (family) curves with |cond poly| <= Z, in deterministic order.

    Returns the ``RECORD_DTYPE`` table, sorted by (a, b), and the list of
    (a, b, p, symbol) for shared primes whose Kodaira symbol is outside
    {III, I0*, III*}.
    """
    if Z > _MAX_Z:
        raise ValueError(f"region bound beyond the int64-safe limit {_MAX_Z}")
    A = isqrt(4 * Z + 1)
    blocks = [
        (Z, a_lo, min(a_lo + _BLOCK - 1, A), use_family)
        for a_lo in range(-A, A + 1, _BLOCK)
    ]
    parts: list[np.ndarray] = []
    anomalies: list = []
    # a fork pool starts all its processes at the first submit: ask for no more than can work
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        results = map(_block_records, blocks)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        results = pool.map(_block_records, blocks)
    for recs, anoms in results:
        parts.append(recs)
        anomalies.extend(anoms)
    if workers > 1:
        pool.shutdown()
    return np.concatenate(parts), anomalies


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


def _sampled_tate_check(records: np.ndarray, sample_cap: int = 200) -> dict:
    """Run the 2,3 oracle on a deterministic subsample of counted curves.

    The mod-96 predicate is exact at 3 but provably overcounts at 2 for the
    odd-b clause, so a nonzero mismatch count at 2 is expected and reported,
    not hidden.
    """
    if not len(records):
        return {"sample_size": 0, "bad_at_2": 0, "bad_at_3": 0}
    step = max(1, len(records) // sample_cap)
    sample = records[::step][:sample_cap]
    bad2 = bad3 = 0
    for a, b in zip(sample["a"].tolist(), sample["b"].tolist()):
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
        records = records[records["cubefree"]]
    key = "cond_poly" if config.order_by == "CondPoly" else "conductor"
    window = records[key] <= X
    if config.family == "Kappa":
        records = records[window & (records["conductor"] > 1)]
        _, part_b, _ = ar.prime_to_6_profile(records["b"])
        part_c = records["index_6"] * records["conductor"] // part_b
        cols = (records["a"], records["b"], part_b, part_c, records["conductor"])
        szpiro = np.array([avg_szpiro_of_parts(*row) for row in zip(*(c.tolist() for c in cols))])
        kept = szpiro <= config.kappa
        records, szpiro = records[kept], szpiro[kept]
    else:
        records = records[window]

    keys = np.sort(records[key])
    counts = tuple(int(np.searchsorted(keys, c, side="right")) for c in cutoffs)

    const = local_density.mt1_constant(config.family, tol=euler_tol)  # None: the default
    predicted = tuple(const * c ** 0.75 for c in cutoffs)
    ratios = tuple(n / p for n, p in zip(counts, predicted))

    tails = {}
    if config.family == "CubeFree":
        thr = X**0.2
        tails["index_tail_delta_0.1"] = int(np.count_nonzero(records["index_6"] > thr))
    if config.family == "Kappa":
        lo = 1.5 + 0.25
        tails["szpiro_tail_theta_0.25"] = int(np.count_nonzero(szpiro > lo))

    overflow = 0
    caveat = None
    if config.order_by == "Conductor":
        overflow = int(np.count_nonzero(records["index_6"] > config.index_cap))
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


# A tails grid is served by one sweep at |cond poly| <= 100 max(grid): a
# record depends on (a, b) alone, so that sweep's rows with |cond poly| <= 100 X
# are the sweep at 100 X.


def tail_counts_index(grid, delta: float, workers: int = 1) -> list[int]:
    """Per X in grid, in grid order: cube-free family curves with conductor <= X
    and index > X^{2 delta}, all from one sweep.

    Index and cube-freeness refer to the prime-to-6 part of the conductor
    polynomial.  The window is |cond poly| <= 100 X, so indices beyond
    100 X / C are invisible; the X-grid decay statistic uses the same window
    at every X, which is what makes the ratios comparable.
    """
    if not 0 < delta < 0.5:
        raise ValueError("need 0 < delta < 1/2")
    grid = tuple(grid)
    records, _ = _census_records(max(grid) * TAIL_INDEX_CAP, workers=workers)
    records = records[records["cubefree"]]
    return [
        int(np.count_nonzero(
            (records["cond_poly"] <= X * TAIL_INDEX_CAP)
            & (records["conductor"] <= X)
            & (records["index_6"] > X ** (2 * delta))))
        for X in grid
    ]


def tail_counts_szpiro(grid, theta: float, kappa: float, workers: int = 1) -> list[int]:
    """Per X in grid, in grid order: curves with conductor <= X and
    3/2 + theta < avg Szpiro <= kappa, all from one sweep.

    Only curves with good reduction at 2 and 3 count (``good_family``), so
    the conductor is the prime-to-6 conductor the records carry.  The ratios
    use minimal discriminants for E and phi(E), and the window is
    |cond poly| <= 100 X, as for ``tail_counts_index``.

    On a curve with good reduction at 2 and 3, Delta_min is prime to 6 for E
    and for phi(E), with p-adic valuations 2 v_p(b) + v_p(c) and
    v_p(b) + 2 v_p(c) (c = a^2 - 4b).  Their product is (index_6 * C)^3, so
    the average Szpiro ratio is 3 log(index_6 * C) / (2 log C), read off the
    record; ``avg_szpiro`` is the per-curve oracle the tests compare against.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not 1 < kappa < KAPPA_MAX:
        raise ValueError(f"need 1 < kappa < {KAPPA_MAX}")
    grid = tuple(grid)
    lo = 1.5 + theta
    if lo >= kappa:
        return [0] * len(grid)
    records, _ = _census_records(max(grid) * TAIL_INDEX_CAP, workers=workers)
    records = records[records["good_23"] & (records["conductor"] > 1)]
    cond = records["conductor"]
    ratio = (3 * np.log((records["index_6"] * cond).astype(np.float64))
             / (2 * np.log(cond.astype(np.float64))))
    band = (lo < ratio) & (ratio <= kappa)
    return [
        int(np.count_nonzero(band & (records["cond_poly"] <= X * TAIL_INDEX_CAP) & (cond <= X)))
        for X in grid
    ]
