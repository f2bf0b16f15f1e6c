"""p-adic densities of reduction patterns and the Euler products built from them.

Every density and every local factor is an integer polynomial in
x = p^{-1/4}, written {power of x: coefficient}, whose coefficients do not
depend on p.  ``density_kodaira`` evaluates one exactly at p.  The
"empirical" counterparts really count residue pairs; they are the oracle the
closed forms are tested against.

The 2,3 family is ``curve_core.family_at_2 & family_at_3``, which reads
(a, b) mod 32 and mod 3 only, so its mass is a count over the residue grids
mod 32, 3 and 96.  MT1_PREFACTOR folds that mass (1/32) into the lattice
pair-count constant.

The index-weighted Dirichlet local sum of a family is assembled from the
density polynomials, an index p^e weighing x^{-3e}.  That it equals the
family's Euler factor F is an identity of polynomials, checked exactly on
every ``dirichlet_index_sum`` call, so it holds at every prime.

Euler products are zeta-factored.  Each factor F deviates from 1 only like
2 p^{-5/4}, so a plain product needs primes to ~4e7 for two digits.  Instead
F = prod_k (1 - x^k)^{-e_k} is split off as zeta values: the primes
5 <= p <= 100 are multiplied in float64, the rest is
prod_k zeta_{>100}(k/4)^{e_k}, summed in logs from a table of
log zeta_{>100}(k/4) in integer units of 10^-50, and what remains is
1 + O(p^{-(K+1)/4}) with a rigorous bound.  Every family reaches 1e-12 in a
few milliseconds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from . import arithmetic as ar
from ._constants import PAIR_COUNT_CONST
from .curve_core import FAMILY_MOD96, family_at_2, family_at_3

# The Euler factor F of each family, with x = p^{-1/4}.  dirichlet_index_sum
# checks each one against the local sum assembled from the pattern densities.
_SERIES = {
    "CondPoly": {0: 1, 24: -1},
    "CubeFree": {0: 1, 5: 2, 8: -2, 9: -4, 12: 1, 13: 2},
    "Kappa": {0: 1, 5: 2, 6: 3, 7: 2, 8: 1, 9: -2, 10: -3, 11: -2, 12: -2},
}

FAMILIES = tuple(_SERIES)
DEFAULT_TOL = 1e-12  # the Euler-product tolerance when none is given

# Pattern densities: Good (p-1)^2/p^2, III (p-1)/p^3, I0* (p-1)/p^4 and
# III* (p-1)/p^6.  Semistable with index power p^k, 2(p-1)^2/p^{k+2}, is
# 2 x^{4k} times Good (_density).
_DENSITY = {
    "Good": {0: 1, 4: -2, 8: 1},
    "III": {8: 1, 12: -1},
    "I0*": {12: 1, 16: -1},
    "III*": {20: 1, 24: -1},
}

_MIN_M = {"Good": 1, "III": 2, "I0*": 3, "III*": 4}
_SCAN_LIMIT = 2 * 10**9  # refuse p^{2m} grids beyond this
_MAX_K = 10**4  # refuse semistable index powers p^k beyond this, before forming p^k


class LocalSumMismatch(AssertionError):
    """The local sum assembled from the pattern densities is not the Euler
    factor; raised explicitly, so that ``python -O`` keeps the check."""


class DensityCheckError(AssertionError):
    """Another internal check of the density polynomials or of the Euler
    product's bounds failed; raised explicitly, like LocalSumMismatch."""


class ToleranceUnreachable(ValueError):
    """Requested Euler-product tolerance is below what the float64 head and the
    largest zeta order can guarantee."""


def _check_p(p: int) -> None:
    if p < 5 or not ar.is_prime(p):
        raise ValueError("requires a prime p >= 5")


def _normalize_class(cls: str, k: Optional[int]) -> tuple[str, Optional[int]]:
    if cls == "semistable":
        if k is None or not 1 <= k <= _MAX_K:
            raise ValueError(f"semistable class needs 1 <= k <= {_MAX_K}")
        return "semistable", k
    if cls in _MIN_M:
        if k is not None:
            raise ValueError(f"class {cls} takes no k")
        return cls, None
    raise ValueError(f"unknown reduction class {cls!r}")


# ---------------------------------------------------------------------------
# Integer polynomials in x = p^{-1/4}, as {power of x: coefficient}.
# ---------------------------------------------------------------------------


def _add(*polys: dict) -> dict:
    """The sum, with zero coefficients dropped."""
    out: dict = {}
    for poly in polys:
        for j, c in poly.items():
            out[j] = out.get(j, 0) + c
    return {j: c for j, c in out.items() if c}


def _shift(poly: dict, n: int, scale: int = 1) -> dict:
    """scale x^n poly."""
    return {j + n: scale * c for j, c in poly.items()}


def _geometric(poly: dict, r: int) -> dict:
    """sum_{k >= 0} x^{rk} poly = poly / (1 - x^r), which must be a polynomial."""
    out: dict = {}
    top = max(poly)
    for n in range(min(poly), top + 1):
        c = poly.get(n, 0) + out.get(n - r, 0)
        if c:
            out[n] = c
    # the quotient stops at x^{top - r}; a term above it is a nonzero remainder
    if max(out, default=0) > top - r:
        raise DensityCheckError("the series does not terminate")
    return out


def _q_coefficients(poly: dict, p: int) -> tuple[Fraction, ...]:
    """(c0, c1, c2, c3) with poly(p^{-1/4}) = c0 + c1 q + c2 q^2 + c3 q^3, q = p^{1/4}.

    x^j = q^{-j} = q^{4m - j} / p^m with m = ceil(j/4), so the terms group by
    j mod 4; each group is summed over the common denominator p^top.
    """
    ms = {j: -(-j // 4) for j in poly}
    top = max([0, *ms.values()])
    num = [0] * 4
    for j, c in poly.items():
        num[4 * ms[j] - j] += c * p ** (top - ms[j])
    return tuple(Fraction(n, p**top) for n in num)


def _q_float(coeffs: tuple, p: int) -> float:
    q = p**0.25
    return math.fsum(float(c) * q**i for i, c in enumerate(coeffs))


def _density(cls: str, k: Optional[int] = None) -> dict:
    if cls == "semistable":
        return _shift(_DENSITY["Good"], 4 * k, 2)
    return _DENSITY[cls]


def density_kodaira(p: int, cls: str, k: Optional[int] = None) -> Fraction:
    """Closed-form density of a valuation pattern among (a, b) mod powers of p.

    Good: (p-1)^2/p^2; III: (p-1)/p^3; I0*: (p-1)/p^4; III*: (p-1)/p^6;
    semistable with index power p^k: 2(p-1)^2/p^{k+2}.  Each is a polynomial
    in x^4 = 1/p, evaluated exactly.
    """
    _check_p(p)
    value, *irrational = _q_coefficients(_density(*_normalize_class(cls, k)), p)
    if any(irrational):
        raise DensityCheckError(f"the {cls} density is not rational at p={p}")
    return value


def _exact_valuation_mask(arr: np.ndarray, p: int, k: int) -> np.ndarray:
    """v_p(arr) == k elementwise; arr entries are residues in [0, p^m)."""
    return (arr % p**k == 0) & (arr % p ** (k + 1) != 0)


def _count_semistable(p: int, m: int, k: int) -> int:
    """Count (a, b) mod p^m with {v(b), v(a^2-4b)} = {0, k} by scanning the grid.

    The pattern reads c mod P = p^(k+1) only: a cell adds a^2 mod P to -4b
    mod P, looks up the class of c (0: unit, 1: v(c) = k, 2: other) and
    matches the class its b needs (3 where b is neither a unit nor v(b) = k).
    """
    M, P = p**m, p ** (k + 1)
    r = np.arange(2 * P, dtype=np.int64) % P
    c_class = np.where(r % p != 0, 0, np.where(_exact_valuation_mask(r, p, k), 1, 2))
    b = np.arange(M, dtype=np.int64)  # also the residues a
    wanted = np.where(_exact_valuation_mask(b, p, k), 0, np.where(b % p != 0, 1, 3))
    c_class, wanted = c_class.astype(np.int8), wanted.astype(np.int8)
    a_squared, minus_4b = (b * b % P).astype(np.int32), (-4 * b % P).astype(np.int32)
    total = 0
    chunk = max(1, min(M, (1 << 22) // M))
    for lo in range(0, M, chunk):
        c = a_squared[lo:lo + chunk, None] + minus_4b[None, :]
        total += int(np.count_nonzero(c_class[c] == wanted))
    return total


def density_empirical(p: int, m: Optional[int], cls: str,
                      k: Optional[int] = None) -> Fraction:
    """Count residue pairs mod p^m matching the class pattern, over p^{2m}.

    Patterns: III is p | a, p || b; I0* is p | a, p^2 || b; III* is p^2 | a,
    p^3 || b; semistable k is v(b) = k xor v(a^2-4b) = k with the other one 0;
    Good is p dividing neither b nor a^2-4b.  m = None takes the smallest m
    the pattern can be read at.
    """
    _check_p(p)
    cls, k = _normalize_class(cls, k)
    min_m = _MIN_M[cls] if cls != "semistable" else k + 1
    if m is None:
        m = min_m
    if m < min_m:
        raise ValueError(f"{cls} needs m >= {min_m}")
    # 2m > bit_length(limit) already gives p^{2m} > 2^{2m} > limit: no power formed
    if 2 * m > _SCAN_LIMIT.bit_length() or p ** (2 * m) > _SCAN_LIMIT:
        raise ValueError("residue grid too large to scan")
    M = p**m

    if cls == "Good":
        # depends on (a, b) mod p only; scale the mod-p grid count
        a = np.arange(p, dtype=np.int64)
        c = a[:, None] * a[:, None] - 4 * np.arange(p, dtype=np.int64)[None, :]
        good = (np.arange(p)[None, :] % p != 0) & (c % p != 0)
        count = int(np.count_nonzero(good)) * p ** (2 * (m - 1))
    elif cls == "semistable":
        count = _count_semistable(p, m, k)
    else:
        v_a_min, v_b_exact = {"III": (1, 1), "I0*": (1, 2), "III*": (2, 3)}[cls]
        r = np.arange(M, dtype=np.int64)
        count_a = int(np.count_nonzero(r % p**v_a_min == 0))
        count_b = int(np.count_nonzero(_exact_valuation_mask(r, p, v_b_exact)))
        count = count_a * count_b
    return Fraction(count, M * M)


# ---------------------------------------------------------------------------
# The 2,3 congruence mass.
# ---------------------------------------------------------------------------


def _grid_mass(predicate, m: int) -> Fraction:
    a, b = np.ogrid[:m, :m]
    return Fraction(int(np.count_nonzero(predicate(a, b))), m * m)


def good_reduction_density_2() -> Fraction:
    return _grid_mass(family_at_2, 32)


def good_reduction_density_3() -> Fraction:
    return _grid_mass(family_at_3, 3)


def good_reduction_density_23() -> Fraction:
    """Joint mass over (Z/96)^2; equals the product of the 2- and 3-parts."""
    joint = Fraction(int(np.count_nonzero(FAMILY_MOD96)), 96 * 96)
    if joint != good_reduction_density_2() * good_reduction_density_3():
        raise DensityCheckError("the mod-96 mass is not the product of its 2- and 3-parts")
    return joint


# The lattice pair-count constant with the family's mass folded in:
# (2 + sqrt2) Gamma(1/4)^2 / (96 sqrt(pi)).
MT1_PREFACTOR = PAIR_COUNT_CONST * float(good_reduction_density_23())


# ---------------------------------------------------------------------------
# Euler factors and Dirichlet local sums.
# ---------------------------------------------------------------------------


def _series(family: str) -> dict:
    try:
        return _SERIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


def _local_sum(family: str) -> dict:
    """sum over reduction patterns of density * (index p-part)^{3/4}, in x.

    Index p-parts: 1 for Good and III, p^{k-1} for semistable k, p^2 for I0*,
    p^4 for III*; an index p^e weighs x^{-3e}.  CondPoly applies no index
    weight (ordering is by the conductor polynomial) and sums all minimal
    patterns, to 1 - p^{-6}; CubeFree keeps patterns with v(conductor poly)
    <= 2; Kappa keeps all.
    """
    good, iii, ss1 = _density("Good"), _density("III"), _density("semistable", 1)
    if family == "CondPoly":
        return _add(
            good, iii,
            _geometric(ss1, 4),  # semistable k >= 1, each x^4 times the one before
            _density("I0*"),  # p | a, p^2 || b
            _shift(good, 16),  # p || a, p^3 || b: (p-1)^2/p^6
            _density("III*"),  # p^2 | a, p^3 || b
            {20: 1, 24: -1},  # p | a, p^4 | b, minimal: 1/p^5 - 1/p^6
        )
    if family == "CubeFree":
        return _add(good, ss1, iii, _shift(_density("semistable", 2), -3))
    if family == "Kappa":
        return _add(
            good, iii,
            _geometric(ss1, 1),  # semistable k weighs x^{-3(k-1)}: each x times the last
            _shift(_density("I0*"), -6),
            _shift(_density("III*"), -12),
        )
    raise ValueError(f"unknown family {family!r}")


def dirichlet_local_sum_q4(p: int, family: str) -> tuple[Fraction, ...]:
    """The family's local sum at p, as the exact coefficients of 1, q, q^2, q^3
    with q = p^{1/4}."""
    _check_p(p)
    return _q_coefficients(_local_sum(family), p)


# ---------------------------------------------------------------------------
# Zeta-factored Euler products.
#
# With x = p^{-1/4} each local factor is f_p = F(x) for an integer polynomial
# F = 1 + O(x^5).  Writing F = prod_k (1 - x^k)^{-e_k}, with integers e_k and
# e_1 = ... = e_4 = 0, the product over p >= 5 becomes
#
#   prod_{5<=p<=P} f_p * prod_{5<=k<=K} zeta_{>P}(k/4)^{e_k} * prod_{p>P} R_K(x_p)
#
# where zeta_{>P}(s) = zeta(s) prod_{p<=P} (1 - p^{-s}) and R_K = 1 + O(x^{K+1}).
# The first two factors are computed; the third is bounded (_remainder_bound).
# This is the acceleration of H. Cohen ("High precision computation of
# Hardy-Littlewood constants") and P. Moree (Manuscripta Math. 101, 2000).
# ---------------------------------------------------------------------------

_HEAD_CUTOFF = 100  # P: the primes 5 <= p <= P are multiplied directly
_MAX_ORDER = 64  # the largest K; tolerances it cannot reach are unreachable

# log zeta_{>P}(k/4) = log(zeta(k/4) prod_{p<=P} (1 - p^{-k/4})) for P = 100
# and k = 5, ..., _MAX_ORDER, each rounded to an integer multiple of 10^-50
# and stored as that integer.  tests/test_local_density.py recomputes every
# entry with mpmath from _HEAD_CUTOFF and _MAX_ORDER.
_LOG_ZETA_ABOVE_100 = (
    16862085434536526538589782205271469660275920245440,  # k = 5
    3189550429011712810023712443280338109900950037155,  # k = 6
    729375875419050459855309113960638438191329302018,  # k = 7
    181866798951201723704491466669739113838828603841,  # k = 8
    47693345762431924163293199900172952832054471947,  # k = 9
    12930108645291398247416264870645226368648932379,  # k = 10
    3589351024200243461209783381684526027440998632,  # k = 11
    1014190672394408205685672422449265555526664624,  # k = 12
    290536954236189846017605052249212378139226839,  # k = 13
    84151986659330310164998193720649760307603547,  # k = 14
    24594464965348336144437140191570169371140698,  # k = 15
    7242116683339481279461226386884428663616547,  # k = 16
    2146067774410053045977190687775497290220227,  # k = 17
    639399873743320606089433847720162623159200,  # k = 18
    191395909181086041516782896164978372216574,  # k = 19
    57525769304589652987825775429064781329805,  # k = 20
    17351848608950274801243812551950608775529,  # k = 21
    5250512574419104020156758671590985334039,  # k = 22
    1593225908346305323365831839011123515750,  # k = 23
    484665679455171972010765230768569957601,  # k = 24
    147769318368549947355199294052973604776,  # k = 25
    45144648632403072250024852553751012747,  # k = 26
    13817316913287937941801246449710039078,  # k = 27
    4236064123180918758226009895575679696,  # k = 28
    1300641199683249662694966820005638095,  # k = 29
    399899655700537962291052230715929555,  # k = 30
    123109606242946924478163002336285073,  # k = 31
    37943262831429668821892228599640255,  # k = 32
    11706808053510748325862318706895259,  # k = 33
    3615487795899144815605236531364888,  # k = 34
    1117601705220944717691001129274653,  # k = 35
    345755724245996527418719987347370,  # k = 36
    107050115090225303797714702605996,  # k = 37
    33167759042228362911214375756766,  # k = 38
    10283344586649715217217393308115,  # k = 39
    3190229654663131830579584677401,  # k = 40
    990285950904814467777074567402,  # k = 41
    307562798433804281594944975990,  # k = 42
    95571045828616273075352892961,  # k = 43
    29711483618094896846653003336,  # k = 44
    9240917145093875129309452544,  # k = 45
    2875324519572690825385999658,  # k = 46
    895012233989765294440986179,  # k = 47
    278696491070174270577571291,  # k = 48
    86813115463738062053870718,  # k = 49
    27050922885728478694026170,  # k = 50
    8431677063835320276766628,  # k = 51
    2628898330635319552341446,  # k = 52
    819888718227957418553921,  # k = 53
    255770914323299847435078,  # k = 54
    79809906722534121015197,  # k = 55
    24909587471017579872265,  # k = 56
    7776342992837339338877,  # k = 57
    2428168491015453630706,  # k = 58
    758354872789214571512,  # k = 59
    236893092021411361441,  # k = 60
    74014162834559539107,  # k = 61
    23128970281135861341,  # k = 62
    7228921943548929807,  # k = 63
    2259766102673243721,  # k = 64
)


def _prime_sum_bound(s: float, P: float) -> float:
    """Bound on sum_{p > P} p^{-s}, s > 1, from pi(t) <= 1.3 t/log t and
    partial summation: (1.3 s/(s-1)) P^{1-s}/log P."""
    return 1.3 * s / (s - 1) * P ** (1 - s) / math.log(P)


def _exponents(family: str, K: int) -> list[int]:
    """[e_0, ..., e_K] with F = prod_{k<=K} (1 - x^k)^{-e_k} + O(x^{K+1}).

    log F = sum a_n x^n has integer c_n = n a_n = sum_{k | n} k e_k, and the
    c_n follow from F' = F (log F)', i.e. n f_n = sum_{j=1}^{n} c_j f_{n-j}.
    """
    coeffs = _series(family)
    f = [coeffs.get(n, 0) for n in range(K + 1)]
    c = [0] * (K + 1)
    e = [0] * (K + 1)
    for n in range(1, K + 1):
        c[n] = n * f[n] - sum(c[j] * f[n - j] for j in range(1, n))
        proper = sum(k * e[k] for k in range(1, n // 2 + 1) if n % k == 0)
        e[n], rem = divmod(c[n] - proper, n)
        if rem:
            raise DensityCheckError(f"{family}: non-integer exponent e_{n}")
    return e


@functools.cache
def _family_exponents(family: str) -> tuple[int, ...]:
    """_exponents(family, _MAX_ORDER), once per family; e_k does not depend
    on K, so its first K + 1 entries are _exponents(family, K)."""
    return tuple(_exponents(family, _MAX_ORDER))


@functools.cache
def _cauchy_radius(family: str) -> float:
    """r with sum_{j>=1} |c_j| r^j < 1/2, so |log F| < log 2 on |x| <= r."""
    coeffs = _series(family)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if sum(abs(c) * mid**j for j, c in coeffs.items() if j) < 0.5:
            lo = mid
        else:
            hi = mid
    return lo


def _remainder_bound(family: str, e: list, K: int, P: int) -> float:
    """Bound on sum_{p > P} |log R_K(p^{-1/4})|.

    log R_K = sum_{n>K} b_n x^n with b_n = a_n - (1/n) sum_{k|n, k<=K} k e_k.
    Cauchy's estimate on |x| = r gives |a_n| <= log(2) r^{-n}, and
    sum_{p>P} x_p^n <= _prime_sum_bound(n/4, P).  The terms K < n <= 2K are
    summed one by one; beyond 2K each divisor sum is at most
    T = sum_{k<=K} k |e_k| and what is left is geometric.
    """
    r, M = _cauchy_radius(family), math.log(2)
    x = P ** -0.25  # x_p < x for every p > P
    if not x < r:
        raise DensityCheckError("the series of log R_K must converge at every x_p")
    total = 0.0
    for n in range(K + 1, 2 * K + 1):
        # the divisors k <= K of n are its proper divisors, all <= n/2 <= K
        d = sum(k * abs(e[k]) for k in range(1, n // 2 + 1) if n % k == 0)
        total += (M * r**-n + d / n) * _prime_sum_bound(n / 4, P)
    # for n >= n0: _prime_sum_bound(n/4, P) <= _prime_sum_bound(n0/4, P) x^(n - n0)
    n0 = 2 * K + 1
    T = sum(k * abs(e[k]) for k in range(1, K + 1))
    geometric = M * r**-n0 / (1 - x / r) + T / n0 / (1 - x)
    return total + _prime_sum_bound(n0 / 4, P) * geometric


def _rounding_bound(n_head: int) -> float:
    """Float64 allowance: an ulp of 1 per head factor, four more for the
    log, fsum and exp and for rounding the zeta part to a float."""
    return (n_head + 4) * 2.0**-52


def _tail_cutoff(family: str, tol: float) -> tuple[int, int]:
    """(P, K): the direct-product cutoff and the order of the zeta factors.

    K is the least order whose remainder bound plus the rounding allowance is
    at most tol, a bound on |log(computed / true product)|.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    P = _HEAD_CUTOFF
    budget = tol - _rounding_bound(len(ar.primes_from_5(P)))
    e = _family_exponents(family)
    if budget <= 0 or _remainder_bound(family, e, _MAX_ORDER, P) > budget:
        raise ToleranceUnreachable(
            f"{family}: tol {tol} is below what float64 and order {_MAX_ORDER} reach"
        )
    lo, hi = 5, _MAX_ORDER
    while lo < hi:
        mid = (lo + hi) // 2
        if _remainder_bound(family, e, mid, P) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return P, lo


@functools.lru_cache(maxsize=32)
def _zeta_tail(family: str, tol: float) -> tuple[int, float]:
    """(P, sum_{5<=k<=K} e_k log zeta_{>P}(k/4)) for the (P, K) tol needs.

    The logs come from _LOG_ZETA_ABOVE_100 in units of 10^-50, so the sum
    is one exact integer, and its true division by 10^50 rounds correctly.
    Each entry is off by at most 10^-50/2, so the sum is exact far below
    float64 resolution.
    """
    P, K = _tail_cutoff(family, tol)
    e = _family_exponents(family)
    total = sum(ek * t for ek, t in zip(e[5:K + 1], _LOG_ZETA_ABOVE_100))
    return P, total / 10**50


def _factor_values(primes: np.ndarray, family: str) -> np.ndarray:
    """Vectorized float64 factors f_p = 1 + (F(p^{-1/4}) - 1), the deviation by Horner."""
    coeffs = _series(family)
    x = np.asarray(primes, dtype=np.float64) ** -0.25
    dev = np.zeros_like(x)
    for j in range(max(coeffs), 0, -1):
        dev = (dev + coeffs.get(j, 0)) * x
    return 1.0 + dev


def euler_product(family: str, tol: float) -> tuple[float, int]:
    """(prod_{p >= 5} f_p, P) with |log(value / true product)| <= tol.

    P is the direct-product cutoff: the primes 5 <= p <= P are multiplied in
    float64, the rest is the zeta factors and a bounded remainder.
    """
    P, log_tail = _zeta_tail(family, tol)
    log_head = math.fsum(np.log(_factor_values(ar.primes_from_5(P), family)))
    return math.exp(log_head + log_tail), P


def dirichlet_index_sum(family: str, tol: float) -> tuple[float, int]:
    """Euler product of the index-weighted local density sums.

    The local sum assembled from the pattern densities is checked against the
    Euler factor F, an identity of polynomials in x that holds at every p.
    Up to P each local sum is evaluated exactly at p; beyond P they are F, so
    the same zeta tail applies.
    """
    P, log_tail = _zeta_tail(family, tol)
    if _local_sum(family) != _SERIES[family]:
        raise LocalSumMismatch(f"{family}: the local sum differs from the Euler factor")
    logs = [math.log(_q_float(dirichlet_local_sum_q4(p, family), p))
            for p in map(int, ar.primes_from_5(P))]
    return math.exp(math.fsum(logs) + log_tail), P


def mt1_constant(family: str, tol: Optional[float] = None) -> float:
    """Leading constant for the X^{3/4} count: prefactor times Euler product."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if tol is None:
        tol = DEFAULT_TOL
    value, _ = euler_product(family, tol)
    return MT1_PREFACTOR * value
