"""Region membership, area quadrature vs closed form, Monte Carlo, lattice counts."""

import math
import subprocess
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gamma as scipy_gamma

from oracles import (
    CENTER_INTEGRAL,
    GAMMA_QUARTER,
    RegionSpec,
    TAIL_INTEGRAL,
    _G,
    lattice_count_with_error,
    piece_integrals,
    region_contains,
    truncated_slice_length,
)
from twotor import census
from twotor import real_density as rd
from twotor.curve_core import FAMILY_MOD96
from twotor._constants import AREA_CONST, PAIR_COUNT_CONST, SQRT2


class TestConstants:
    def test_literals_are_the_50_digit_values(self):
        with mpmath.workdps(50):
            g14 = mpmath.gamma(mpmath.mpf(1) / 4)
            g34 = mpmath.gamma(mpmath.mpf(3) / 4)
            # the reflection identity Gamma(1/4) Gamma(3/4) = pi sqrt(2)
            assert abs(g14 * g34 - mpmath.pi * mpmath.sqrt(2)) < mpmath.mpf(10) ** -40
            root_pi = mpmath.sqrt(mpmath.pi)
            assert GAMMA_QUARTER == float(g14)
            assert _G == float(g14 * g14 / (4 * root_pi))
            assert AREA_CONST == float(2 * (1 + mpmath.sqrt(2)) * g14 * g14 / (3 * root_pi))

    def test_gamma_quarter_against_scipy(self):
        assert math.isclose(GAMMA_QUARTER, float(scipy_gamma(0.25)), rel_tol=1e-14)

    def test_reflection_identity(self):
        lhs = float(scipy_gamma(0.25) * scipy_gamma(0.75))
        assert math.isclose(lhs, math.pi * SQRT2, rel_tol=1e-14)

    def test_area_constant_value(self):
        expected = 2 * (1 + SQRT2) * GAMMA_QUARTER**2 / (3 * math.sqrt(math.pi))
        assert math.isclose(AREA_CONST, expected, rel_tol=1e-15)
        assert math.isclose(AREA_CONST, 11.936352617582644, rel_tol=1e-15)


class TestRegionContains:
    def test_examples(self):
        assert region_contains(0, 0, RegionSpec(1))
        assert not region_contains(0, 2, RegionSpec(1))
        assert region_contains(0, 4, RegionSpec(64, truncated=True))

    def test_truncation_bites(self):
        spec_plain = RegionSpec(64)
        spec_trunc = RegionSpec(64, truncated=True)
        assert region_contains(0, 2, spec_plain)
        assert not region_contains(0, 2, spec_trunc)  # |y| < 4
        assert region_contains(2, 5, spec_plain)
        assert not region_contains(2, 5, spec_trunc)  # |x^2-y| = 1 < 4

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            RegionSpec(0)
        with pytest.raises(ValueError):
            RegionSpec(-3, truncated=True)

    @given(st.integers(-40, 40), st.integers(-900, 900), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_symmetries_on_integer_points(self, x, y, Z):
        spec = RegionSpec(Z)
        assert region_contains(x, y, spec) == region_contains(-x, y, spec)
        # reflection about the slice midline y -> x^2 - y fixes the region
        assert region_contains(x, y, spec) == region_contains(x, x * x - y, spec)


class TestClosedForm:
    def test_value_at_1(self):
        assert math.isclose(rd.area_closed_form(1), 11.936353, abs_tol=5e-7)

    def test_homogeneity(self):
        assert math.isclose(
            rd.area_closed_form(16), 8 * rd.area_closed_form(1), rel_tol=1e-15
        )
        lam = 3.0
        assert math.isclose(
            rd.area_closed_form(lam**4 * 7.5),
            lam**3 * rd.area_closed_form(7.5),
            rel_tol=1e-14,
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rd.area_closed_form(0)


class TestPieceIntegrals:
    def test_center_integral(self):
        val, _ = piece_integrals(1e-12)
        assert abs(val - CENTER_INTEGRAL) < 1e-11
        assert math.isclose(val, 1.0894294, abs_tol=5e-8)

    def test_tail_integral(self):
        _, val = piece_integrals(1e-12)
        assert abs(val - TAIL_INTEGRAL) < 1e-11

    def test_tail_integral_plain_truncation_agrees(self):
        # direct x-space integration up to a large cutoff, stable form
        f = lambda z: 2.0 / (math.sqrt(z**4 + 1) + math.sqrt(z**4 - 1))
        from scipy.integrate import quad

        val, _ = quad(f, 1, 4000, limit=400)
        assert abs(val - TAIL_INTEGRAL) < 1e-3  # z^-2 tail: truncation error ~ 1/4000

    def test_pieces_at_1(self):
        m1, m2, m3 = rd.area_pieces(1.0)
        assert m2 == m3
        assert math.isclose(m2, SQRT2 * TAIL_INTEGRAL, rel_tol=1e-9)
        assert math.isclose(m2, 1.443402, abs_tol=1e-6)
        assert math.isclose(m1, 2 * SQRT2 * CENTER_INTEGRAL, rel_tol=1e-9)
        assert math.isclose(m1 + m2 + m3, rd.area_closed_form(1) / 2, rel_tol=1e-9)


class TestAreaQuadrature:
    @pytest.mark.parametrize("Z", [1.0, 10.0, 100.0, 1e4])
    def test_matches_closed_form(self, Z):
        got = rd.area_quadrature(Z, 1e-8)
        assert math.isclose(got, rd.area_closed_form(Z), rel_tol=1e-6)

    def test_homogeneity_numeric(self):
        v1 = rd.area_quadrature(1.0, 1e-8)
        v2 = rd.area_quadrature(1e4, 1e-8)
        assert math.isclose(v2, 1e3 * v1, rel_tol=1e-8)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(rd.QuadratureError):
            rd.area_quadrature(1.0, 1e-30)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            rd.area_quadrature(1.0, 0)


def _tail(t):
    return 2.0 / (math.sqrt(1 + t**4) + math.sqrt(max(1 - t**4, 0.0)))


def _scipy_truncated_area(Z, epsabs):
    """scipy.integrate.quad of the interval-list slice length, same breakpoints."""
    edges = rd._truncated_edges(Z)
    val, _ = integrate.quad(truncated_slice_length, edges[0], edges[-1], args=(Z,),
                            points=edges[1:-1], limit=200, epsabs=epsabs, epsrel=0)
    return 2 * val


class TestGaussKronrod:
    """The numpy quadrature against the stored constants and scipy.integrate.quad."""

    def test_constants_at_1e12(self):
        center, tail = piece_integrals(1e-12)
        assert abs(center - CENTER_INTEGRAL) <= 1e-12
        assert abs(tail - TAIL_INTEGRAL) <= 1e-12

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_piece_integrals_match_scipy(self, tol):
        center, _ = integrate.quad(lambda z: math.sqrt(z**4 + 1), 0, 1, epsabs=tol, epsrel=0)
        tail, _ = integrate.quad(_tail, 0, 1, epsabs=tol, epsrel=0)
        got_center, got_tail = piece_integrals(tol)
        assert abs(got_center - center) <= tol
        assert abs(got_tail - tail) <= tol

    @pytest.mark.parametrize("Z", [1e-6, 1.0, 1e6, 1e12])
    def test_area_pieces_match_scipy(self, Z):
        # the x-space integrals the pieces used to be, scipy as the oracle
        tol = 1e-10
        scale = Z**0.75
        x0 = SQRT2 * Z**0.25
        m1, _ = integrate.quad(lambda x: math.sqrt(x**4 + 4 * Z), 0, x0,
                               epsabs=tol * scale / 4, epsrel=0)
        tail, _ = integrate.quad(_tail, 0, 1, epsabs=tol / (4 * 2 * SQRT2), epsrel=0)
        got1, got2, got3 = rd.area_pieces(Z, tol)
        assert got2 == got3
        assert abs(got1 - m1) <= tol * scale
        assert abs(got2 - SQRT2 * scale * tail) <= tol * scale

    @pytest.mark.parametrize("Z", [30.0, 100.0, 256.0, 400.0, 1600.0, 1e6])
    def test_truncated_area_matches_scipy(self, Z):
        tol = 1e-8  # absolute; the function takes it per Z^(3/4) unit
        assert abs(rd.truncated_area_quadrature(Z, tol / Z**0.75)
                   - _scipy_truncated_area(Z, tol / 2)) <= tol

    def test_converges_near_the_rounding_floor(self):
        # at Z = 3e6 the rounding floors of the K15 estimates take about 90 % of
        # an absolute 5e-9 budget; the intervals above their floor must still get there
        Z = 3e6
        assert math.isclose(rd.truncated_area_quadrature(Z, 1e-8 / Z**0.75),
                            _scipy_truncated_area(Z, 5e-9), rel_tol=1e-13)

    @pytest.mark.parametrize("Z", [5e6, 1e7])
    def test_truncated_area_past_an_absolute_floor(self, Z):
        # an absolute 1e-8 is below the rounding floor here; the default tol
        # is per Z^(3/4) unit and is met
        budget = 3e-13 * Z**0.75
        assert abs(rd.truncated_area_quadrature(Z) - _scipy_truncated_area(Z, budget / 2)) <= budget

    @pytest.mark.parametrize("Z", [1e200, 1.7e308])
    def test_truncated_area_finite_at_large_Z(self, Z):
        # the cut is O(sqrt Z), far below the budget of 3e-13 Z^(3/4)
        got = rd.truncated_area_quadrature(Z)
        assert math.isfinite(got)
        assert abs(got - rd.area_closed_form(Z)) <= 3e-13 * Z**0.75

    @pytest.mark.parametrize("Z", [16.0, 30.0, 256.0, 1e4, 1e6])
    def test_slice_length_matches_interval_lists(self, Z):
        edges = rd._truncated_edges(Z)
        xs = np.unique(np.concatenate([np.linspace(0, edges[-1] * 1.01, 20001), edges]))
        want = np.array([truncated_slice_length(x, Z) for x in xs])
        band, cut = rd._slice_parts(xs, Z)
        np.testing.assert_allclose(band - cut, want,
                                   rtol=1e-12, atol=1e-12 * math.sqrt(Z))

    def test_unreachable_tolerance_is_quick(self):
        start = time.perf_counter()
        with pytest.raises(rd.QuadratureError):
            rd.area_quadrature(1.0, 1e-30)
        assert time.perf_counter() - start < 0.25

    @pytest.mark.parametrize("Z", [1e100, 5e205, 1e300, 1.7e308])
    def test_area_finite_at_large_Z(self, Z):
        got = rd.area_quadrature(Z, 1e-8)
        assert math.isfinite(got)
        assert abs(got - rd.area_closed_form(Z)) <= 2e-8 * Z**0.75

    def test_import_loads_no_scipy(self):
        code = "import sys, twotor.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestTruncatedArea:
    def test_empty_below_16(self):
        assert rd.truncated_area_quadrature(1.0) == 0.0
        assert rd.truncated_area_quadrature(15.9) == 0.0

    def test_below_untruncated(self):
        for Z in (64.0, 256.0, 1e4):
            t = rd.truncated_area_quadrature(Z)
            assert 0 < t < rd.area_closed_form(Z)

    def test_monotone_in_Z(self):
        vals = [rd.truncated_area_quadrature(Z) for Z in (30.0, 100.0, 400.0, 1600.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_trim_scales_like_sqrt_Z(self):
        # untruncated minus truncated should grow ~ Z^{1/2}, not Z^{3/4}
        trims = []
        for Z in (1e3, 1e4, 1e5):
            trims.append((rd.area_closed_form(Z) - rd.truncated_area_quadrature(Z)) / math.sqrt(Z))
        assert max(trims) / min(trims) < 3.0

    def test_brute_grid_cross_check(self):
        # coarse cell count over the bounding box as an independent estimate
        Z = 256.0
        xmax = math.sqrt(Z / 4 + 4)
        xs = np.linspace(-xmax, xmax, 1201)
        ys = np.linspace(-Z / 4, Z / 4, 1201)
        dx = xs[1] - xs[0]
        dy = ys[1] - ys[0]
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        W = X * X - Y
        inside = (np.abs(Y * W) <= Z) & (np.abs(Y) >= 4) & (np.abs(W) >= 4)
        estimate = inside.sum() * dx * dy
        exact = rd.truncated_area_quadrature(Z)
        assert abs(estimate - exact) / exact < 0.02


_MC_PINNED = [
    ((256.0, 10**5, 7), "0x1.176a7b2339ba1p+8", "0x1.2191bf445dc89p+1"),
    ((1e6, 10**7, 3), "0x1.4e3b2f3b366aap+18", "0x1.02757c2003991p+12"),
    ((1e6, 10**7, 7), "0x1.5494328f2d5a2p+18", "0x1.04e666c983871p+12"),
    # three full chunks of 2^18 and a last one of 17 samples
    ((1e6, 3 * 2**18 + 17, 5), "0x1.4b8bdbc305c52p+18", "0x1.caf6180781976p+13"),
    ((256.0, 3 * 10**4, 3, 1 << 12), "0x1.1b16d17884df3p+8", "0x1.09cde797fc06dp+2"),
]


class TestMonteCarlo:
    def test_deterministic(self):
        a = rd.area_monte_carlo(256.0, 10**5, seed=7)
        b = rd.area_monte_carlo(256.0, 10**5, seed=7)
        assert a == b

    def test_seed_changes_estimate(self):
        a, _ = rd.area_monte_carlo(256.0, 10**5, seed=7)
        b, _ = rd.area_monte_carlo(256.0, 10**5, seed=8)
        assert a != b

    def test_chunking_invisible(self, monkeypatch):
        monkeypatch.setattr(rd, "_MC_CHUNK", 1 << 12)
        a = rd.area_monte_carlo(256.0, 3 * 10**4, seed=3)
        b = rd.area_monte_carlo(256.0, 3 * 10**4, seed=3)
        assert a == b

    def test_brackets_truncated_quadrature(self):
        exact = rd.truncated_area_quadrature(256.0)
        misses = 0
        for seed in range(100):
            est, se = rd.area_monte_carlo(256.0, 2 * 10**4, seed=seed)
            if abs(est - exact) > 4 * se:
                misses += 1
        assert misses <= 1

    @pytest.mark.parametrize("args,estimate,stderr", _MC_PINNED)
    def test_pinned_estimates(self, monkeypatch, args, estimate, stderr):
        # recorded from the kernel that allocated fresh temporaries per chunk;
        # the in-place kernel must give the same floats, bit for bit
        Z, samples, seed, *chunk = args  # a fourth entry is the chunk size
        if chunk:
            monkeypatch.setattr(rd, "_MC_CHUNK", chunk[0])
        assert rd.area_monte_carlo(Z, samples, seed) == (float.fromhex(estimate),
                                                        float.fromhex(stderr))

    @pytest.mark.parametrize("Z", [256.0, 1e6, 1e205])
    @pytest.mark.parametrize("n", [rd._MC_CHUNK, 12345, 17])
    def test_blocked_draws_are_uniform_draws(self, Z, n):
        # a full chunk, and short last chunks of several sub-blocks and of one
        xmax, ymax = math.sqrt(Z / 4 + 4), Z / 4
        bufs = np.empty(min(999, n)), np.empty(min(999, n))
        xs, ys = [], []
        for x, y in rd._mc_draws(5, 3, n, xmax, ymax, *bufs):
            assert len(x) == len(y) <= 999
            xs.append(x.copy())
            ys.append(y.copy())
        rng = np.random.default_rng(np.random.SeedSequence([5, 3]))
        # compared as bytes, bit for bit
        assert np.concatenate(xs).tobytes() == rng.uniform(-xmax, xmax, n).tobytes()
        assert np.concatenate(ys).tobytes() == rng.uniform(-ymax, ymax, n).tobytes()

    @pytest.mark.parametrize("block", [1, 999, 1 << 12, 1 << 18])
    def test_sub_blocks_invisible(self, monkeypatch, block):
        # every pinned case at each sub-block size, with its own chunk size
        # (the default, or 2^12); one-sample sub-blocks cost about 30 us each,
        # so they run on the cases of at most 10^5 samples
        default_chunk = rd._MC_CHUNK
        monkeypatch.setattr(rd, "_MC_BLOCK", block)
        ran = 0
        for (Z, samples, seed, *chunk), estimate, stderr in _MC_PINNED:
            if samples > block * 10**5:
                continue
            monkeypatch.setattr(rd, "_MC_CHUNK", chunk[0] if chunk else default_chunk)
            assert rd.area_monte_carlo(Z, samples, seed) == (float.fromhex(estimate),
                                                            float.fromhex(stderr))
            ran += 1
        assert ran == (2 if block == 1 else len(_MC_PINNED))

    def test_peak_memory_is_the_buffers(self):
        # three float buffers and one bool mask of _MC_BLOCK entries, plus at
        # most one more mask's worth for the candidates' index and coordinate
        # arrays (about 0.1 % of a sub-block at Z = 1e6) and the generators
        bound = 3 * 8 * rd._MC_BLOCK + rd._MC_BLOCK + rd._MC_BLOCK
        tracemalloc.start()
        try:
            rd.area_monte_carlo(1e6, 10**6, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_negative_seed_is_a_value_error(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            rd.area_monte_carlo(256.0, 10**3, seed=-1)

    def test_box_overflow_is_a_value_error(self):
        est, se = rd.area_monte_carlo(1e205, 10**3, seed=0)
        assert math.isfinite(est) and math.isfinite(se)
        with pytest.raises(ValueError):
            rd.area_monte_carlo(1e206, 10**3, seed=0)

    def test_small_sample_floor(self):
        est, se = rd.area_monte_carlo(256.0, 10**3, seed=0)
        assert se > 0 and math.isfinite(est)
        with pytest.raises(ValueError):
            rd.area_monte_carlo(256.0, 999, seed=0)


class TestLatticeCount:
    def test_brute_force_small(self):
        X = 2000
        count, predicted, error = lattice_count_with_error(census._ALL_RESIDUES, X)
        brute = 0
        for a in range(-100, 101):
            for b in range(-X, X + 1):
                v = b * (a * a - 4 * b)
                if v != 0 and abs(v) <= X and abs(b) >= 4 and abs(a * a - 4 * b) >= 4:
                    brute += 1
        assert count == brute
        assert error == abs(count - predicted)
        assert math.isclose(predicted, SQRT2 / 2 * rd.area_closed_form(X), rel_tol=1e-12)

    def test_error_stays_subleading(self):
        # error is dominated by the O(sqrt X) trim; the fitted exponent-0.55
        # coefficient stays bounded and the relative error decays with X
        rel = {}
        for X in (10**3, 10**4, 10**5):
            _, predicted, error = lattice_count_with_error(census._ALL_RESIDUES, X)
            assert error < 25 * X**0.55
            rel[X] = error / predicted
        assert rel[10**5] < rel[10**4] < rel[10**3]

    def test_good_reduction_class(self):
        assert np.count_nonzero(FAMILY_MOD96) / FAMILY_MOD96.size == 1 / 32
        count, predicted, _ = lattice_count_with_error(FAMILY_MOD96, 10**6)
        assert math.isclose(
            predicted, float(PAIR_COUNT_CONST) * (10**6) ** 0.75 / 32, rel_tol=1e-12
        )
        assert abs(count - predicted) / predicted < 0.1

    @pytest.mark.parametrize("X, blocks", [(10**5, 2), (10**6, 4)])
    def test_blockwise_count_matches_one_sweep(self, X, blocks):
        # the count runs over the census's blocks and generates only its class's
        # pairs; one _block_pairs call over every column and every residue,
        # filtered by the class, is the reference
        assert len(census._blocks(X)) == blocks
        A = math.isqrt(4 * X + 1)
        a, b, _ = census._block_pairs(X, -A, A, census._ALL_RESIDUES)
        # neither the family nor everything: 0 to 6 residues b mod 12 per a mod 12
        a0, b0 = np.ogrid[:12, :12]
        mod_12 = np.isin((a0 * b0 + b0) % 12, (1, 5, 6))
        for table in (census._ALL_RESIDUES, FAMILY_MOD96, mod_12):
            n = len(table)
            keep = (np.abs(b) >= 4) & (np.abs(a * a - 4 * b) >= 4) & table[a % n, b % n]
            assert lattice_count_with_error(table, X)[0] == np.count_nonzero(keep)

    def test_empty_region(self):
        count, predicted, _ = lattice_count_with_error(census._ALL_RESIDUES, 10)
        assert count == 0
        assert predicted < 100
