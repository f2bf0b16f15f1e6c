"""Decomposition, quadric, and box-count tests with brute-force oracles."""

import math
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from twotor import curve_core as cc
from twotor.curve_core import CurveParams

from oracles import enumerate_region
import uniformity as un
from uniformity import avg_szpiro_from_exponents


def strip6(n: int) -> int:
    n = abs(n)
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n


class TestQuadricDecomposition:
    def test_all_units_decomposition(self):
        d = un.decompose_III_curve(5, 5, 5)
        assert (d.u, d.v0, d.v1, d.w0, d.w1) == (1, 1, 1, 1, 1)
        assert d.v == 1 and d.w == 1
        assert 5 * d.u**2 == d.w + 4 * d.v == 1 + 4

    def test_negative_w_decomposition(self):
        d = un.decompose_III_curve(5, 10, 5)
        assert (d.v0, d.v1) == (2, 1) and (d.w0, d.w1) == (-3, 1)
        assert 5 == -3 + 8

    def test_square_parts(self):
        # b = 5 * 49 puts a 7^2 in v; w = 5 - 196 = -191 is prime
        d = un.decompose_III_curve(5, 245, 5)
        assert (d.v0, d.v1) == (1, 7) and d.w == -191
        assert abs(d.v1 * d.w1) == 7

    @pytest.mark.parametrize("a,b,P", [
        (25, 25, 25),     # P not square-free
        (3, 5, 5),        # P does not divide a
        (5, 25, 5),       # P^2 | b
        (5, 40, 5),       # v = 8 not cube-free
        (2, 2, 2),        # w = -2 shares the factor 2 with P
        (5, -5, -5),      # P negative
    ])
    def test_precondition_rejections(self, a, b, P):
        with pytest.raises(un.DecompositionError):
            un.decompose_III_curve(a, b, P)

    def test_type_invariant_enforcement(self):
        with pytest.raises(un.DecompositionError):
            un.QuadricDecomposition(P=5, u=1, v0=1, v1=1, w0=3, w1=1)  # 5 != 3+4
        with pytest.raises(un.DecompositionError):
            un.QuadricDecomposition(P=5, u=3, v0=5, v1=1, w0=25, w1=1)  # v,w share P
        with pytest.raises(un.DecompositionError):
            un.QuadricDecomposition(P=5, u=5, v0=4, v1=2, w0=109, w1=1)  # gcd(v0,v1) != 1

    def test_index_cross_check_on_enumerated_curves(self):
        # prime-to-6 part of |v1 w1| must equal the prime-to-6 index
        found = 0
        for cp in enumerate_region(4000):
            cand = 1
            red = cc.reduction(cp)
            for p in (r.p for r in red.local if r.p >= 5):
                if cp.a % p == 0 and cp.b % p == 0 and (cp.b // p) % p != 0:
                    cand *= p
            if cand == 1:
                continue
            try:
                d = un.decompose_III_curve(cp.a, cp.b, cand)
            except un.DecompositionError:
                continue
            assert strip6(abs(d.v1 * d.w1)) == red.index_6, (cp, d)
            found += 1
        assert found > 50

    @given(st.integers(-40, 40), st.integers(-40, 40),
           st.sampled_from([5, 7, 11, 13, 35]))
    def test_roundtrip_from_parts(self, u, v, P):
        assume(v != 0 and gcd(v, P) == 1 and un.is_cubefree(abs(v)))
        w = P * u * u - 4 * v
        assume(w != 0 and gcd(w, P) == 1 and un.is_cubefree(abs(w)))
        d = un.decompose_III_curve(P * u, P * v, P)
        assert d.u == u and d.v == v and d.w == w
        assert d.v0 * d.v1**2 == v and d.w0 * d.w1**2 == w


def brute_dyadic(T1, T2, T3, T4, P, Z):
    def bucket(T):
        if T == 0.5:
            return [1]
        return list(range(math.ceil(T), math.ceil(2 * T)))

    n = 0
    for v1 in bucket(T3):
        for w1 in bucket(T4):
            for av0 in bucket(T1):
                for aw0 in bucket(T2):
                    for v0 in (av0, -av0):
                        for w0 in (aw0, -aw0):
                            if abs(v0 * v1 * w0 * w1) > Z:
                                continue
                            if not all(un.is_squarefree(abs(x)) for x in (v0, v1, w0, w1)):
                                continue
                            if gcd(v0, v1) != 1 or gcd(w0, w1) != 1:
                                continue
                            if gcd(v0 * v1 * w0 * w1, P) != 1:
                                continue
                            s = w0 * w1**2 + 4 * v0 * v1**2
                            if s >= 0 and s % P == 0 and math.isqrt(s // P) ** 2 == s // P:
                                n += 1
    return n


class TestDyadicBox:
    def test_half_unit_box_single_tuple(self):
        assert un.count_dyadic_box(0.5, 0.5, 0.5, 0.5, 5, 5) == 1

    def test_unit_bucket_alias(self):
        # T = 1 covers [1, 2) = {1}, the same single tuple as T = 1/2
        assert un.count_dyadic_box(1, 1, 1, 1, 5, 5) == 1

    def test_empty_when_weight_exceeds_Z(self):
        assert un.count_dyadic_box(4, 4, 4, 4, 5, 5) == 0

    @pytest.mark.parametrize("T,P,Z", [
        ((0.5, 2, 1, 0.5), 5, 50),
        ((2, 2, 0.5, 0.5), 7, 100),
        ((1, 4, 1, 1), 5, 64),
        ((3, 0.5, 2, 0.5), 11, 200),
    ])
    def test_matches_brute_force(self, T, P, Z):
        assert un.count_dyadic_box(*T, P, Z) == brute_dyadic(*T, P, Z)

    def test_subpolynomial_growth(self):
        # max box count over an admissible grid should grow slower than Z^{3/4}
        import itertools
        maxima = []
        zs = [64, 512, 4096]
        for Z in zs:
            best = 0
            for t1, t2 in itertools.product((0.15, 0.3, 0.45), repeat=2):
                T1, T2 = max(0.5, Z**t1), max(0.5, Z**t2)
                best = max(best, un.count_dyadic_box(T1, T2, 0.5, 0.5, 5, Z))
            maxima.append(best)
        assert all(m > 0 for m in maxima)
        slope = (math.log(maxima[-1]) - math.log(maxima[0])) / (
            math.log(zs[-1]) - math.log(zs[0]))
        assert slope < 0.75, maxima

    def test_validation(self):
        with pytest.raises(ValueError):
            un.count_dyadic_box(0.25, 1, 1, 1, 5, 10)
        with pytest.raises(ValueError):
            un.count_dyadic_box(1, 1, 1, 1, 5, 0.5)
        with pytest.raises(ValueError):
            un.count_dyadic_box(1, 1, 1, 1, 20, 10)


def brute_quadric(M, R1, R2, R3):
    n = 0
    for x in range(-R1, R1 + 1):
        for y in range(-R2, R2 + 1):
            for z in range(-R3, R3 + 1):
                if math.gcd(math.gcd(abs(x), abs(y)), abs(z)) != 1:
                    continue
                row = (
                    M[0][0] * x * x + M[1][1] * y * y + M[2][2] * z * z
                    + 2 * (M[0][1] * x * y + M[0][2] * x * z + M[1][2] * y * z)
                )
                if row == 0:
                    n += 1
    return n


class TestQuadricPoints:
    def test_sum_of_squares_form_box_ten(self):
        Q = ((1, 0, 0), (0, 1, 0), (0, 0, -2))
        assert un.quadric_point_count(Q, 10, 10, 10) == brute_quadric(Q, 10, 10, 10) == 24

    def test_off_diagonal_form(self):
        Q = ((0, 1, 0), (1, 0, 0), (0, 0, -1))  # 2xy = z^2
        assert un.quadric_point_count(Q, 8, 8, 8) == brute_quadric(Q, 8, 8, 8)

    def test_anisotropic_zero_count(self):
        Q = ((1, 0, 0), (0, 1, 0), (0, 0, -3))
        assert un.quadric_point_count(Q, 10, 10, 10) == 0
        assert un.bhb_bound(Q, 10, 10, 10) >= 0

    def test_diagonal_bound_fields(self):
        # diagonal(P, -w0, -4 v0) for (P, w0, v0) = (5, -3, 2)
        Q = ((5, 0, 0), (0, 3, 0), (0, 0, -8))
        delta = 4 * 5 * 3 * 2
        tau = un.tau(delta)
        want = (1.0 + (7 * 9 * 11 * 1**1.5 / delta) ** (1 / 3)) * tau
        assert un.bhb_bound(Q, 7, 9, 11) == pytest.approx(want, rel=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            un.quadric_point_count(((1, 0, 0), (0, 1, 0), (0, 0, 0)), 5, 5, 5)
        with pytest.raises(ValueError):
            un.quadric_point_count(((1, 2, 0), (0, 1, 0), (0, 0, 1)), 5, 5, 5)
        with pytest.raises(ValueError):
            un.quadric_point_count(((1, 0, 0), (0, 1, 0), (0, 0, -2)), 0, 5, 5)
        with pytest.raises(ValueError):
            un.bhb_bound(((1, 0, 0), (0, 1, 0), (0, 0, 0)), 5, 5, 5)


def brute_lattice(basis, R1, R2):
    (b11, b12), (b21, b22) = basis
    n = 0
    for m in range(-400, 401):
        for k in range(-400, 401):
            if gcd(m, k) != 1:
                continue
            x1 = m * b11 + k * b21
            x2 = m * b12 + k * b22
            if abs(x1) <= R1 and abs(x2) <= R2:
                n += 1
    return n


class TestLatticeBox:
    def test_standard_basis(self):
        got = un.lattice_box_count(((1, 0), (0, 1)), 10, 10)
        assert got == brute_lattice(((1, 0), (0, 1)), 10, 10) == 256

    def test_large_det_tiny_count(self):
        assert un.lattice_box_count(((1000, 0), (0, 1000)), 10, 10) == 0

    def test_scaling_pattern(self):
        assert un.lattice_box_count(((3, 0), (0, 3)), 30, 30) == \
            un.lattice_box_count(((1, 0), (0, 1)), 10, 10)
        assert un.lattice_box_count(((2, 0), (0, 2)), 9, 9) == \
            un.lattice_box_count(((1, 0), (0, 1)), 4, 4)

    def test_basis_invariance(self):
        # ((1,0),(3,1)) is a unimodular change of the standard basis
        assert un.lattice_box_count(((1, 0), (3, 1)), 12, 7) == \
            un.lattice_box_count(((1, 0), (0, 1)), 12, 7)

    def test_skew_basis_matches_brute(self):
        basis = ((5, 3), (2, 1))
        assert un.lattice_box_count(basis, 20, 15) == brute_lattice(basis, 20, 15)

    def test_row_resonance_is_exactly_four(self):
        # two full rows plus the axis pair: count = 4 (R1 R2/det + 1)
        assert un.lattice_box_count(((1, 0), (0, 3)), 77, 3) == 4 * 78

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            un.lattice_box_count(((2, 4), (1, 2)), 5, 5)


class TestMultiplicativeDecompose:
    def test_b_twelve(self):
        m = un.multiplicative_decompose(1, 12)
        assert (m.P1, m.Q1, m.R1, m.S1, m.u) == (2, 2, 2, 1, 3)

    def test_b_eight(self):
        m = un.multiplicative_decompose(1, 8)
        assert (m.P1, m.Q1, m.R1, m.S1, m.u) == (2, 4, 1, 8, 1)

    def test_squarefree_b(self):
        m = un.multiplicative_decompose(1, 30)
        assert m.P1 == m.Q1 == 1 and m.u == 30

    def test_negative_b_keeps_sign(self):
        m = un.multiplicative_decompose(1, -12)
        assert m.P1 * m.Q1 * m.u == -12 and m.u == -3

    def test_c_side(self):
        # a=1, b=-6: c = 25 = 5^2
        m = un.multiplicative_decompose(1, -6)
        assert (m.P2, m.Q2, m.R2, m.S2, m.v) == (5, 5, 5, 1, 1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            un.multiplicative_decompose(2, 1)  # c = 0
        with pytest.raises(ValueError):
            un.multiplicative_decompose(1, 0)

    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_reassembly(self, a, b):
        c = a * a - 4 * b
        assume(b != 0 and c != 0)
        m = un.multiplicative_decompose(a, b)
        assert m.P1 * m.Q1 * m.u == b
        assert m.P2 * m.Q2 * m.v == c
        assert m.R1 ** 2 * m.S1 == m.P1 * m.Q1
        assert m.R2 ** 2 * m.S2 == m.P2 * m.Q2
        assert un.is_squarefree(abs(m.u)) and gcd(m.u, m.P1) == 1
        if m.P1 > 1:
            assert un.radical(m.P1 * m.Q1) == m.P1


class TestExponentVector:
    def test_trivial_parts(self):
        v = un.exponent_vector(14, 5, 1000.0)
        lx = math.log(1000.0)
        assert v.upsilon == pytest.approx(math.log(5) / lx)
        assert v.nu == pytest.approx(math.log(11) / lx)
        others = (v.gamma_I0star, v.gamma_III, v.gamma_IIIstar,
                  v.alpha1, v.alpha2, v.beta1, v.beta2)
        assert all(x == 0 for x in others)

    def test_conductor_identity_and_avg_on_enumerated(self):
        X = 8000.0
        lx = math.log(X)
        checked = 0
        for cp in enumerate_region(8000, filter=cc.in_family):
            try:
                v = un.exponent_vector(cp.a, cp.b, X)
            except un.DecompositionError:
                continue
            red = cc.reduction(cp)
            cond = red.conductor_6
            lhs = (2 * (v.gamma_I0star + v.gamma_III + v.gamma_IIIstar)
                   + v.alpha1 + v.upsilon + v.alpha2 + v.nu)
            assert lhs == pytest.approx(math.log(cond) / lx, abs=1e-10)
            if cond > 1:
                m = red.minimal
                size6 = strip6(abs(m.b * (m.a * m.a - 4 * m.b)))
                direct = 1.5 * math.log(size6) / math.log(cond)
                assert avg_szpiro_from_exponents(v) == pytest.approx(direct, abs=1e-9)
                # the literal (beta_E + beta_phi)/2 differs only by the 2,3-parts
                gap = abs(avg_szpiro_from_exponents(v) - cc.avg_szpiro(cp))
                assert gap <= 40.0 / math.log(cond)
            checked += 1
        assert checked > 100

    def test_conductor_at_most_X_bounds_identity(self):
        X = 500.0
        for cp in enumerate_region(500, filter=cc.in_family):
            if cc.reduction(cp).conductor_6 > X:
                continue
            try:
                v = un.exponent_vector(cp.a, cp.b, X)
            except un.DecompositionError:
                continue
            lhs = (2 * (v.gamma_I0star + v.gamma_III + v.gamma_IIIstar)
                   + v.alpha1 + v.upsilon + v.alpha2 + v.nu)
            assert lhs <= 1.0 + 1e-12

    def test_nonminimal_pair_reduced_first(self):
        a, b = 150, 3125  # 25 | a, 625 | b: reduces to (6, 5)
        assert un.exponent_vector(a, b, 100.0) == un.exponent_vector(6, 5, 100.0)

    def test_out_of_list_type_raises(self):
        with pytest.raises(un.DecompositionError, match="I1\\*"):
            un.exponent_vector(110, 275, 100.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            un.exponent_vector(14, 5, 1.0)
        with pytest.raises(un.FamilyMembershipError):
            un.exponent_vector(5, 5, 100.0)


def brute_nu(Z, M1, M2, P1, Q1, u, P2, Q2):
    M = M1 * M2
    B = 4 * P1 * Q1 * u
    bound = math.isqrt(abs(B + Z)) + 2
    mod = P2 * Q2
    return sum(
        1 for a in range(-bound, bound + 1)
        if abs(M * a * a - B) <= Z and (M * a * a - B) % mod == 0
    )


class TestCountNu:
    @pytest.mark.parametrize("args", [
        (100, 1, 1, 1, 1, 1, 7, 1),
        (500, 5, 1, 2, 2, 3, 7, 1),
        (50, 1, 1, 1, 1, -2, 3, 2),
        (300, 1, 7, 3, 1, 2, 5, 5),
        (40, 5, 7, 1, 1, 1, 2, 3),
        (0, 1, 1, 1, 1, 1, 1, 1),
    ])
    def test_matches_brute(self, args):
        assert un.count_Nu(*args) == brute_nu(*args)

    def test_unconstrained_interval(self):
        Z = 10**6
        assert un.count_Nu(Z, 1, 1, 1, 1, 1, 1, 1) == 2 * math.isqrt(Z + 4) + 1

    def test_two_intervals(self):
        # B = 400, Z = 39: a^2 in [361, 439]: a in {-20, -19, 19, 20}
        assert un.count_Nu(39, 1, 1, 10, 10, 1, 1, 1) == 4

    def test_negative_target_empty(self):
        assert un.count_Nu(10, 1, 1, 5, 5, -10, 1, 1) == 0

    def test_shape_bound(self):
        for args in [(10**4, 1, 1, 2, 2, 3, 7, 5), (10**5, 5, 1, 1, 1, 7, 11, 3)]:
            Z, M1, M2, P1, Q1, u, P2, Q2 = args
            mod = P2 * Q2
            n_res = sum(1 for r in range(mod)
                        if (M1 * M2 * r * r - 4 * P1 * Q1 * u) % mod == 0)
            width = 2 * math.isqrt((4 * P1 * Q1 * abs(u) + Z) // (M1 * M2)) + 1
            assert un.count_Nu(*args) <= n_res * (width / mod + 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            un.count_Nu(10, 0, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            un.count_Nu(-1, 1, 1, 1, 1, 1, 1, 1)


class TestNearSquare:
    def test_squarefree_always_true(self):
        m = un.multiplicative_decompose(1, 15)
        assert un.near_square_check(m, 10.0, 0.01)

    def test_large_square_part_fails(self):
        m = un.multiplicative_decompose(1, 2**5 * 3)
        assert m.Q1 == 16 and m.P1 == 2
        assert not un.near_square_check(m, 2**10, 0.1)

    def test_true_branch_checks_S(self):
        m = un.multiplicative_decompose(1, 2**10)
        assert un.near_square_check(m, 512.0, 1.0)

    def test_census_sweep_implication(self):
        X, nu = 2000.0, 0.25
        passed = failed = 0
        for cp in enumerate_region(2000):
            m = un.multiplicative_decompose(cp.a, cp.b)
            if un.near_square_check(m, X, nu):  # asserts S_i internally
                passed += 1
            else:
                failed += 1
        assert passed > 0 and failed > 0

    def test_validation(self):
        m = un.multiplicative_decompose(1, 15)
        with pytest.raises(ValueError):
            un.near_square_check(m, 1.0, 0.1)
        with pytest.raises(ValueError):
            un.near_square_check(m, 10.0, 0.0)


class TestFittedCorpora:
    def test_quadric_constant_stable(self):
        c1 = un.fitted_quadric_constant(un.quadric_corpus(100, seed=11))
        c2 = un.fitted_quadric_constant(un.quadric_corpus(100, seed=12))
        assert c1 == pytest.approx(4.0, rel=1e-9)
        assert abs(c1 - c2) / c1 <= 0.2

    def test_lattice_constant_stable(self):
        c1 = un.fitted_lattice_constant(un.lattice_corpus(100, seed=21))
        c2 = un.fitted_lattice_constant(un.lattice_corpus(100, seed=22))
        assert c1 == pytest.approx(4.0, rel=1e-9)
        assert abs(c1 - c2) / c1 <= 0.2

    @pytest.mark.parametrize("seed", [101, 202, 11, 12, 21, 22])
    def test_random_remainder_below_claimed_bounds(self, seed):
        # the fitted constants are pinned at 4 by the extremal fifth of each
        # corpus; the random rest must stay below what the docstrings claim,
        # and the whole corpus within the supremum 4 that they state
        quadrics = un.quadric_corpus(100, seed=seed)
        assert un.fitted_quadric_constant(quadrics[100 // 5:]) < 2.7
        assert un.fitted_quadric_constant(quadrics) <= 4 + 1e-9
        lattices = un.lattice_corpus(100, seed=seed)
        assert un.fitted_lattice_constant(lattices[100 // 5:]) <= 4
        assert un.fitted_lattice_constant(lattices) <= 4 + 1e-9

    def test_bound_dominates_corpus(self):
        corpus = un.quadric_corpus(60, seed=3)
        c = un.fitted_quadric_constant(corpus)
        for Q, R1, R2, R3 in corpus:
            assert un.quadric_point_count(Q, R1, R2, R3) <= c * un.bhb_bound(Q, R1, R2, R3) + 1e-9

    def test_corpus_spans_determinants(self):
        dets = [abs(un._det3(Q)) for Q, _, _, _ in un.quadric_corpus(200, seed=0)]
        assert min(dets) <= 10 and max(dets) >= 10**6
        assert len(dets) == 200
