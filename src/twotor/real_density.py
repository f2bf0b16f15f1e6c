"""Archimedean density: the region |y(x^2 - y)| <= Z and its area.

The region splits at |x| = sqrt(2) Z^{1/4}.  Inside, a slice is one interval
of length sqrt(x^4 + 4Z); outside it breaks into an upper and a lower band
around y = x^2/2.  Pieces are reported for the x > 0 half plane, where they
partition the half region; the full area is twice the half-plane total, and
the assembled constant 2(1+sqrt2) Gamma(1/4)^2 / (3 sqrt(pi)) is the one the
quadrature and the Monte Carlo runs support.  The lattice counts against it,
which sweep the census's blocks, are a test-side check (tests/oracles.py).

Truncation (|y| >= 4 and |x^2 - y| >= 4) chops the cusp at the origin and the
two parabolic horns; the truncated region is bounded, which is what makes the
Monte Carlo box finite.

Every integral here is a 1-D adaptive Gauss-Kronrod quadrature (G7/K15, as
QUADPACK's qk15) written in numpy: each round evaluates all new intervals in
one array call and bisects those whose error estimate exceeds their equal
share of the budget.  It needs only numpy, so importing the package stays
cheap.
"""

from __future__ import annotations

import math

import numpy as np

from ._constants import AREA_CONST, SQRT2


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance."""


# G7/K15 on [-1, 1]: the 15 Kronrod nodes, their weights, and the 7-point
# Gauss weights on the same nodes (zero on the nodes only Kronrod adds).
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0,
])
_GK_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_GK_KRONROD = np.concatenate([_WK, [0.209482141084727828012999174891714], _WK[::-1]])
_GK_GAUSS = np.concatenate([_WG, [0.417959183673469387755102040816327], _WG[::-1]])
_EPS = float(np.finfo(float).eps)
_MAX_INTERVALS = 200


def _gauss_kronrod(f, lo, hi):
    """Per interval [lo_i, hi_i]: K15 value, QUADPACK error estimate, and
    whether that estimate is only its rounding floor."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fv = f(center[:, None] + half[:, None] * _GK_NODES)
    kronrod = fv @ _GK_KRONROD
    err = np.abs(half * (kronrod - fv @ _GK_GAUSS))
    # |K - G| measures the Gauss rule; qk15 scales it down for the Kronrod
    # one and floors it at what rounding allows
    resasc = half * (np.abs(fv - 0.5 * kronrod[:, None]) @ _GK_KRONROD)
    resabs = half * (np.abs(fv) @ _GK_KRONROD)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    floor = 50 * _EPS * resabs
    return half * kronrod, np.maximum(floor, err), err <= floor


def _quad(f, points, epsabs: float) -> tuple[float, float]:
    """(integral, error estimate) of f over [points[0], points[-1]].

    f maps an array of abscissae to an array of values.  The inner points are
    breakpoints where f may kink.  An interval whose error estimate sits at
    its rounding floor gains nothing from bisection; the others share what
    the floors leave of epsabs equally, and each one above its share is
    bisected.  The loop stops when the total is within epsabs, when rounding
    alone exceeds it, or before the partition would pass _MAX_INTERVALS, so
    an unreachable epsabs returns an error estimate above it within a few
    rounds.
    """
    edges = np.asarray(points, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err, flat = _gauss_kronrod(f, lo, hi)
    while err.sum() > epsabs:
        left = epsabs - err[flat].sum()
        split = ~flat & (err > left / max(np.count_nonzero(~flat), 1))
        n_split = np.count_nonzero(split)
        if left <= 0 or n_split == 0 or err.size + n_split > _MAX_INTERVALS:
            break
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err, new_flat = _gauss_kronrod(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        flat = np.concatenate([flat[keep], new_flat])
    return float(val.sum()), float(err.sum())


def area_closed_form(Z: float) -> float:
    if not Z > 0:
        raise ValueError("Z must be positive")
    return AREA_CONST * Z**0.75


def _tail_integrand(s):
    """2 / (sqrt(1+t^4) + sqrt(1-t^4)) at t = 1 - s^2, times dt/ds = 2s.

    In t the integrand behaves like sqrt(1-t) at t = 1, a kink that bisection
    resolves slowly.  With 1 - t^4 = s^2 (2 - s^2)(1 + t^2) it is smooth in s
    on [0, 1], and free of cancellation near s = 0.
    """
    t = 1 - s * s
    return 4 * s / (np.sqrt(1 + t**4) + s * np.sqrt((2 - s * s) * (1 + t * t)))


def area_pieces(Z: float, tol: float = 1e-10) -> tuple[float, float, float]:
    """(m1, m2, m3) for the x > 0 half plane: center band, upper and lower tail.

    m1 integrates sqrt(x^4 + 4Z) over [0, sqrt(2) Z^{1/4}]; the tails use the
    compactified substitution.  m2 = m3 by the y -> x^2 - y symmetry.  The
    three pieces partition the half region, so the full area is 2(m1 + 2 m2).
    Both integrals are taken in u = x Z^{-1/4}, where they do not depend on Z:
    tol bounds their error per Z^{3/4} unit, and no power of x can overflow.
    """
    if not Z > 0:
        raise ValueError("Z must be positive")
    scale = Z**0.75
    # m1 = Z^{3/4} int_0^sqrt2 sqrt(u^4 + 4) du
    center, e1 = _quad(lambda u: np.sqrt(u**4 + 4), (0.0, SQRT2), tol / 4)
    # int_{x0}^inf (sqrt(x^4+4Z) - sqrt(x^4-4Z)) dx under x = x0/t, x0 = sqrt2 Z^{1/4},
    # then t = 1 - s^2
    tail, e2 = _quad(_tail_integrand, (0.0, 1.0), tol / (4 * 2 * SQRT2))
    err = e1 + 2 * SQRT2 * e2
    if not err <= tol:
        raise QuadratureError(f"area pieces error estimate {err} per Z^(3/4) exceeds {tol}")
    m2 = SQRT2 * scale * tail
    return scale * center, m2, m2


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


def _overlap(a, b, c, d):
    """Length of [a, b] intersected with [c, d]; zero when they miss."""
    return np.maximum(np.minimum(b, d) - np.maximum(a, c), 0.0)


def _slice_parts(x, Z: float):
    """(band, cut) at each x: the slice length of |y(x^2-y)| <= Z, and the
    part of it in the strips |y| < 4 or |x^2-y| < 4.

    The slice is the band [x^2/2 - upper, x^2/2 + upper], less the gap
    (x^2/2 - inner, x^2/2 + inner) once x^4/4 > Z; it is taken as two bands
    that touch at x^2/2 when there is no gap.  y -> x^2 - y swaps the bands
    and the two strips, so both parts are twice the lower band's: its length,
    and its overlap with the strips less that with their intersection
    (x^2 - 4, 4).  Nothing cancels, and nothing overflows once x^4 leaves
    the float range (Z from about 5e154).
    """
    t = x * x
    half = t / 2
    root_z = math.sqrt(Z)
    upper = np.hypot(half, root_z)
    with np.errstate(over="ignore"):
        gap = half * half - Z  # inner^2 as x^4/4 - Z rounds it; inf past the float range
    inner = np.where(np.isfinite(gap), np.sqrt(np.maximum(gap, 0.0)),
                     np.sqrt(np.maximum(half - root_z, 0.0)) * np.sqrt(half + root_z))
    lo = -Z / (half + upper)  # half - upper
    hi = np.where(half > root_z, Z / np.maximum(half + inner, root_z), half)  # half - inner
    cut = (_overlap(lo, hi, -4.0, 4.0) + _overlap(lo, hi, t - 4.0, t + 4.0)
           - _overlap(lo, hi, t - 4.0, 4.0))
    return 2 * (hi - lo), 2 * cut


def _truncated_edges(Z: float) -> list[float]:
    """0, the x where the slice structure changes, and the region's xmax."""
    xmax = math.sqrt(Z / 4 + 4)
    # slice structure changes where bands appear, meet the strips, or vanish
    points = [SQRT2 * Z**0.25, 2.0, math.sqrt(8.0)]
    for s in (Z / 4 + 4, Z / 4 - 4, 4 - Z / 4):
        if s > 0:
            points.append(math.sqrt(s))
    return [0.0, *sorted({p for p in points if 0 < p < xmax}), xmax]


def truncated_area_quadrature(Z: float, tol: float = 3e-13) -> float:
    """Area of the truncated region by slicewise quadrature.

    The truncated region is empty for Z < 16 (|y| >= 4 and |x^2-y| >= 4 force
    |y (x^2-y)| >= 16) and always fits in |x| <= sqrt(Z/4 + 4), |y| <= Z/4.
    tol is per Z^{3/4} unit, as for ``area_quadrature``; the default bounds
    the absolute error by 1e-8 up to Z = 1e6.  Beyond x0 = sqrt(2) Z^{1/4}
    the bands decay like 4Z/x^2 over a range too wide to bisect in x: they
    are integrated as the area's tail, and in x only their part in the
    strips, at most 16 per unit of x, is taken off.
    """
    if not Z > 0:
        raise ValueError("Z must be positive")
    if Z < 16:
        return 0.0
    budget = tol * Z**0.75
    edges = _truncated_edges(Z)
    x0 = min(SQRT2 * Z**0.25, edges[-1])

    def in_x(x):  # the slice up to x0, then the strips' part alone
        band, cut = _slice_parts(x, Z)
        return np.where(x < x0, band, 0.0) - cut

    sliced, e1 = _quad(in_x, edges, budget / 4)
    # x = x0 / t, t = 1 - s^2 takes the bands on [x0, x] to s in [0, sqrt(1 - x0/x)]
    scale = 2 * SQRT2 * Z**0.75
    tail, e2 = _quad(_tail_integrand, [math.sqrt(1 - x0 / x) for x in edges if x >= x0],
                     budget / (4 * scale))
    err = e1 + scale * e2
    if not err <= budget:
        raise QuadratureError(
            f"truncated area error estimate {err / Z**0.75} per Z^(3/4) exceeds {tol}")
    return 2 * (sliced + scale * tail)


_MC_CHUNK = 1 << 18
# Sub-block of a chunk: three float buffers of this length stay in cache.
_MC_BLOCK = 1 << 15


def _mc_draws(seed: int, index: int, n: int, xmax: float, ymax: float, x_buf, y_buf):
    """Chunk ``index``'s n samples, one sub-block at a time, as views into
    x_buf and y_buf, each at most len(x_buf) long.

    Concatenated, the x views are default_rng(SeedSequence([seed, index]))
    .uniform(-xmax, xmax, n) and the y views the uniform(-ymax, ymax, n) drawn
    after it: two PCG64 generators walk the chunk's one stream, x from its
    start and y advanced past the n draws of x, and each draw u is mapped in
    place to u * 2 max - max, which is ``uniform``'s low + range u.
    """
    seq = np.random.SeedSequence([seed, index])
    x_gen = np.random.Generator(np.random.PCG64(seq))
    y_bits = np.random.PCG64(seq)
    y_bits.advance(n)
    y_gen = np.random.Generator(y_bits)
    for start in range(0, n, len(x_buf)):
        m = min(len(x_buf), n - start)
        x, y = x_buf[:m], y_buf[:m]
        x_gen.random(out=x)
        x *= 2 * xmax
        x += -xmax
        y_gen.random(out=y)
        y *= 2 * ymax
        y += -ymax
        yield x, y


def area_monte_carlo(Z: float, samples: int, seed: int) -> tuple[float, float]:
    """Hit-count estimate of the truncated area over its bounding box.

    Chunk k draws _MC_CHUNK samples from SeedSequence([seed, k]), the last
    chunk fewer, so the result is a pure function of (Z, samples, seed).
    A chunk is taken in sub-blocks of _MC_BLOCK samples (``_mc_draws``), in
    three float buffers and a mask allocated once per call.  Per sub-block,
    |y (x^2 - y)| <= Z is tested first; only its candidates, about 0.1 % of
    the box at Z = 1e6, are tested for |y| >= 4 and |x^2 - y| >= 4.  Neither
    size changes the result.  The seed must be a non-negative integer.  The
    box overflows float64 above Z ~ 5e205; that is a ValueError, since the
    estimate, a fraction of the box, would be inf or nan.
    """
    if samples < 10**3:
        raise ValueError("need at least 10^3 samples")
    if not Z > 0:
        raise ValueError("Z must be positive")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    xmax = math.sqrt(Z / 4 + 4)
    ymax = Z / 4
    box = 2 * xmax * 2 * ymax
    if not math.isfinite(box):
        raise ValueError(f"Z = {Z} is too large: the sampling box overflows float64")
    block = min(_MC_BLOCK, _MC_CHUNK, samples)
    x_buf, y_buf, w_buf = np.empty(block), np.empty(block), np.empty(block)
    near_buf = np.empty(block, dtype=bool)
    hits = 0
    # |y w| overflows only where it exceeds Z anyway; inf compares as outside
    with np.errstate(over="ignore"):
        for index, done in enumerate(range(0, samples, _MC_CHUNK)):
            n = min(_MC_CHUNK, samples - done)
            for x, y in _mc_draws(seed, index, n, xmax, ymax, x_buf, y_buf):
                w = np.multiply(x, x, out=w_buf[:len(x)])
                w -= y
                w *= y
                np.abs(w, out=w)
                near = np.flatnonzero(np.less_equal(w, Z, out=near_buf[:len(x)]))
                # x^2 - y again on the candidates: the same floats as w had
                yc = y[near]
                wc = x[near]
                wc *= wc
                wc -= yc
                hits += int(np.count_nonzero((np.abs(wc) >= 4) & (np.abs(yc) >= 4)))
    p = hits / samples
    estimate = box * p
    stderr = box * math.sqrt(max(p * (1 - p), 1.0 / samples) / samples)
    return estimate, stderr
