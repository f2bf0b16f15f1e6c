"""Archimedean density: the region |y(x^2 - y)| <= Z and its area.

The region splits at |x| = sqrt(2) Z^{1/4}.  Inside, a slice is one interval
of length sqrt(x^4 + 4Z); outside it breaks into an upper and a lower band
around y = x^2/2.  Pieces are reported for the x > 0 half plane, where they
partition the half region; the full area is twice the half-plane total, and
the assembled constant 2(1+sqrt2) Gamma(1/4)^2 / (3 sqrt(pi)) is the one the
quadrature, the Monte Carlo runs, and the lattice counts all support.

Truncation (|y| >= 4 and |x^2 - y| >= 4) chops the cusp at the origin and the
two parabolic horns; the truncated region is bounded, which is what makes the
Monte Carlo box finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from ._constants import AREA_CONST, CENTER_INTEGRAL, SQRT2, TAIL_INTEGRAL
from .census import _MAX_Z, _block_pairs


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance."""


@dataclass(frozen=True)
class RegionSpec:
    Z: float
    truncated: bool = False

    def __post_init__(self) -> None:
        if not self.Z > 0:
            raise ValueError("Z must be positive")


def region_contains(x: float, y: float, spec: RegionSpec) -> bool:
    if abs(y * (x * x - y)) > spec.Z:
        return False
    if spec.truncated and (abs(y) < 4 or abs(x * x - y) < 4):
        return False
    return True


def area_closed_form(Z: float) -> float:
    if not Z > 0:
        raise ValueError("Z must be positive")
    return AREA_CONST * Z**0.75


def center_integral(tol: float = 1e-12) -> float:
    """int_0^1 sqrt(z^4 + 1) dz by adaptive quadrature."""
    val, err = integrate.quad(lambda z: math.sqrt(z**4 + 1), 0.0, 1.0, epsabs=tol, epsrel=0)
    if err > tol:
        raise QuadratureError(f"center integral error estimate {err} > {tol}")
    return val


def tail_integral(tol: float = 1e-12) -> float:
    """int_1^inf sqrt(z^4+1) - sqrt(z^4-1) dz, compactified by z -> 1/t.

    After the substitution the integrand is 2 / (sqrt(1+t^4) + sqrt(1-t^4)),
    which also removes the cancellation between the two square roots.
    """
    val, err = integrate.quad(
        lambda t: 2.0 / (math.sqrt(1 + t**4) + math.sqrt(max(1 - t**4, 0.0))),
        0.0,
        1.0,
        epsabs=tol,
        epsrel=0,
    )
    if err > tol:
        raise QuadratureError(f"tail integral error estimate {err} > {tol}")
    return val


def area_pieces(Z: float, tol: float = 1e-10) -> tuple[float, float, float]:
    """(m1, m2, m3) for the x > 0 half plane: center band, upper and lower tail.

    m1 integrates sqrt(x^4 + 4Z) over [0, sqrt(2) Z^{1/4}]; the tails use the
    compactified substitution.  m2 = m3 by the y -> x^2 - y symmetry.  The
    three pieces partition the half region, so the full area is 2(m1 + 2 m2).
    """
    if not Z > 0:
        raise ValueError("Z must be positive")
    x0 = SQRT2 * Z**0.25
    scale = Z**0.75
    m1, e1 = integrate.quad(
        lambda x: math.sqrt(x**4 + 4 * Z), 0.0, x0, epsabs=tol * scale / 4, epsrel=0
    )
    # int_{x0}^inf (sqrt(x^4+4Z) - sqrt(x^4-4Z)) dx under x = x0/t
    tail_t, e2 = integrate.quad(
        lambda t: 2.0 / (math.sqrt(1 + t**4) + math.sqrt(max(1 - t**4, 0.0))),
        0.0,
        1.0,
        epsabs=tol / (4 * 2 * SQRT2),
        epsrel=0,
    )
    m2 = SQRT2 * scale * tail_t
    err = e1 + 2 * SQRT2 * scale * e2
    if err > tol * max(scale, 1.0):
        raise QuadratureError(f"area pieces error estimate {err} exceeds budget")
    return m1, m2, m2


def area_quadrature(Z: float, tol: float) -> float:
    """Full area by quadrature: 2 (m1 + 2 m2) over the split at sqrt(2) Z^{1/4}.

    tol is measured per Z^{3/4} unit, so the certified absolute error scales
    with the area itself (homogeneity makes a flat absolute budget hopeless
    for large Z).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    m1, m2, m3 = area_pieces(Z, tol=tol / 8)
    return 2 * (m1 + m2 + m3)


# ---------------------------------------------------------------------------
# Truncated region.
# ---------------------------------------------------------------------------


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


def _truncated_slice_length(x: float, Z: float) -> float:
    """Length of {y : |y(x^2-y)| <= Z, |y| >= 4, |x^2-y| >= 4} at fixed x."""
    t = x * x
    half = t / 2
    peak = t * t / 4
    upper = math.sqrt(peak + Z)
    if peak <= Z:
        intervals = [(half - upper, half + upper)]
    else:
        inner = math.sqrt(peak - Z)
        intervals = [(half - upper, half - inner), (half + inner, half + upper)]
    intervals = _subtract_open(intervals, -4.0, 4.0)
    intervals = _subtract_open(intervals, t - 4.0, t + 4.0)
    return sum(b - a for a, b in intervals)


def truncated_area_quadrature(Z: float, tol: float = 1e-8) -> float:
    """Area of the truncated region by slicewise quadrature.

    The truncated region is empty for Z < 16 (|y| >= 4 and |x^2-y| >= 4 force
    |y (x^2-y)| >= 16) and always fits in |x| <= sqrt(Z/4 + 4), |y| <= Z/4.
    """
    if not Z > 0:
        raise ValueError("Z must be positive")
    if Z < 16:
        return 0.0
    xmax = math.sqrt(Z / 4 + 4)
    # slice structure changes where bands appear, meet the strips, or vanish
    points = [SQRT2 * Z**0.25, 2.0, math.sqrt(8.0)]
    for s in (Z / 4 + 4, Z / 4 - 4, 4 - Z / 4):
        if s > 0:
            points.append(math.sqrt(s))
    points = sorted({p for p in points if 0 < p < xmax})
    val, err = integrate.quad(
        _truncated_slice_length,
        0.0,
        xmax,
        args=(Z,),
        points=points,
        limit=200,
        epsabs=tol / 2,
        epsrel=0,
    )
    if err > tol:
        raise QuadratureError(f"truncated area error estimate {err} > {tol}")
    return 2 * val


def area_monte_carlo(
    Z: float, samples: int, seed: int, chunk: int = 1 << 18
) -> tuple[float, float]:
    """Hit-count estimate of the truncated area over its bounding box.

    Sampling is chunked with SeedSequence([seed, chunk_index]), so the result
    is a pure function of (Z, samples, seed) no matter how it is scheduled.
    """
    if samples < 10**3:
        raise ValueError("need at least 10^3 samples")
    if not Z > 0:
        raise ValueError("Z must be positive")
    xmax = math.sqrt(Z / 4 + 4)
    ymax = Z / 4
    box = 2 * xmax * 2 * ymax
    hits = 0
    done = 0
    index = 0
    while done < samples:
        n = min(chunk, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        x = rng.uniform(-xmax, xmax, n)
        y = rng.uniform(-ymax, ymax, n)
        w = x * x - y
        inside = (np.abs(y * w) <= Z) & (np.abs(y) >= 4) & (np.abs(w) >= 4)
        hits += int(np.count_nonzero(inside))
        done += n
        index += 1
    p = hits / samples
    estimate = box * p
    stderr = box * math.sqrt(max(p * (1 - p), 1.0 / samples) / samples)
    return estimate, stderr


# ---------------------------------------------------------------------------
# Lattice point counts against the area prediction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceClass:
    """Allowed residues of (a, b) mod n; density is |S| / n^2."""

    n: int
    residues: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus must be >= 1")
        for a0, b0 in self.residues:
            if not (0 <= a0 < self.n and 0 <= b0 < self.n):
                raise ValueError("residues must be reduced mod n")

    @classmethod
    def everything(cls) -> "CongruenceClass":
        return cls(1, frozenset({(0, 0)}))

    @classmethod
    def good_reduction(cls) -> "CongruenceClass":
        from .local_density import good_reduction_class_mod96

        return cls(96, frozenset(good_reduction_class_mod96()))

    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.n * self.n)


def lattice_count_with_error(
    congruence: CongruenceClass, X: int
) -> tuple[int, float, float]:
    """(count, predicted, |count - predicted|) for the truncated lattice count.

    Counts (a, b) in the class with 0 < |b(a^2-4b)| <= X, |b| >= 4 and
    |a^2-4b| >= 4; the prediction is (sqrt2/2) nu(S) AREA_CONST X^{3/4}, the
    covolume-4 lattice (a, 4b) against the region with parameter 4X.
    """
    if not 1 <= X <= _MAX_Z:
        raise ValueError(f"need 1 <= X <= {_MAX_Z}")
    A = math.isqrt(4 * X + 1)
    a, b, _ = _block_pairs(X, -A, A, use_family=False)
    n = congruence.n
    in_class = np.zeros((n, n), dtype=bool)
    for a0, b0 in congruence.residues:
        in_class[a0, b0] = True
    keep = (np.abs(b) >= 4) & (np.abs(a * a - 4 * b) >= 4) & in_class[a % n, b % n]
    count = int(np.count_nonzero(keep))
    predicted = float(SQRT2 / 2 * float(congruence.density()) * area_closed_form(X))
    return count, predicted, abs(count - predicted)
