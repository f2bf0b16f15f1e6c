"""Local density closed forms against residue-grid counts and exact identities."""

import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import euler_factor, log_zeta_above, zeta_tail_mpmath
from twotor import arithmetic as ar
from twotor import local_density as ld
from twotor._constants import PAIR_COUNT_CONST
from twotor.local_density import MT1_PREFACTOR
from twotor.curve_core import FAMILY_MOD96, CurveParams, kodaira_symbol_large_p

F = Fraction


# |f_p - 1| <= c p^{-theta}: (theta, c) per family.
_DEVIATION = {"CubeFree": (1.25, 2.2), "Kappa": (1.25, 3.0)}


def _truncated_oracle(family, P):
    """(t, b): the plain float64 product over 5 <= p <= P, by the closed forms
    of the factors, and b, a bound on sum_{p > P} |f_p - 1|, which bounds the
    log of what the product leaves out."""
    p = ar.primes_up_to(P)
    p = p[p >= 5].astype(np.float64)
    if family == "CubeFree":
        f = 1 - (2 * p - 1) / p**3 + 2 * (p - 1) ** 2 * p**-3.25
    else:
        q = p**0.25
        f = 1 - p**-2 + (p - 1) * p**-2.5 + 2 * (p - 1) ** 2 / (p**3 * (q - 1))
    theta, c = _DEVIATION[family]
    return math.exp(math.fsum(np.log(f))), c * ld._prime_sum_bound(theta, P)


def _closed_form_factor(p, family):
    """The Euler factor at p, derived by hand, as the coefficients of 1, q,
    q^2, q^3 with q = p^{1/4}."""
    if family == "CondPoly":
        return (1 - F(1, p**6), 0, 0, 0)
    if family == "CubeFree":
        return (1 - F(2 * p - 1, p**3), 0, 0, F(2 * (p - 1) ** 2, p**4))
    # 1 - 1/p^2 + (p-1) q^2/p^3 + 2(p-1)(1 + q + q^2 + q^3)/p^3
    w = F(2 * (p - 1), p**3)
    return (1 - F(1, p**2) + w, w, F(p - 1, p**3) + w, w)


_HEAD_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97]


_PINNED_HEX = {  # (family, j): float.hex of euler_product, dirichlet_index_sum
    # and mt1_constant at tol 10^-j
    ("CondPoly", 1): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 2): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 3): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 4): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 5): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 6): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 7): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 8): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 9): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                      "0x1.0e11ab355b932p-2"),
    ("CondPoly", 10): ("0x1.fff662fabd1dbp-1", "0x1.fff662fabd1dbp-1",
                       "0x1.0e11ab355b932p-2"),
    ("CondPoly", 11): ("0x1.fff662fab2757p-1", "0x1.fff662fab2757p-1",
                       "0x1.0e11ab3555f3fp-2"),
    ("CondPoly", 12): ("0x1.fff662fab2757p-1", "0x1.fff662fab2757p-1",
                       "0x1.0e11ab3555f3fp-2"),
    ("CubeFree", 1): ("0x1.4d2447583e5e0p+1", "0x1.4d2447583e5e4p+1",
                      "0x1.5f79dae34d31ap-1"),
    ("CubeFree", 2): ("0x1.4c60b8b35ea1fp+1", "0x1.4c60b8b35ea22p+1",
                      "0x1.5eab891270daap-1"),
    ("CubeFree", 3): ("0x1.4c63a3ff54a9fp+1", "0x1.4c63a3ff54aa2p+1",
                      "0x1.5eae9d7eefdd8p-1"),
    ("CubeFree", 4): ("0x1.4c63a875c0ef6p+1", "0x1.4c63a875c0efap+1",
                      "0x1.5eaea2343b897p-1"),
    ("CubeFree", 5): ("0x1.4c63a545f45a5p+1", "0x1.4c63a545f45a9p+1",
                      "0x1.5eae9ed7894d0p-1"),
    ("CubeFree", 6): ("0x1.4c63a5674b971p+1", "0x1.4c63a5674b975p+1",
                      "0x1.5eae9efab6453p-1"),
    ("CubeFree", 7): ("0x1.4c63a567ae1d9p+1", "0x1.4c63a567ae1ddp+1",
                      "0x1.5eae9efb1e37dp-1"),
    ("CubeFree", 8): ("0x1.4c63a567863a1p+1", "0x1.4c63a567863a5p+1",
                      "0x1.5eae9efaf4225p-1"),
    ("CubeFree", 9): ("0x1.4c63a567881fbp+1", "0x1.4c63a567881ffp+1",
                      "0x1.5eae9efaf622bp-1"),
    ("CubeFree", 10): ("0x1.4c63a56788258p+1", "0x1.4c63a5678825cp+1",
                       "0x1.5eae9efaf628dp-1"),
    ("CubeFree", 11): ("0x1.4c63a56788233p+1", "0x1.4c63a56788237p+1",
                       "0x1.5eae9efaf6266p-1"),
    ("CubeFree", 12): ("0x1.4c63a56788235p+1", "0x1.4c63a56788239p+1",
                       "0x1.5eae9efaf6268p-1"),
    ("Kappa", 1): ("0x1.1ae8a84592c23p+3", "0x1.1ae8a84592c23p+3",
                   "0x1.2a7a82d1dc29ep+1"),
    ("Kappa", 2): ("0x1.1a92e8e21e3eep+3", "0x1.1a92e8e21e3eep+3",
                   "0x1.2a200b5910c5dp+1"),
    ("Kappa", 3): ("0x1.1a91777ee5501p+3", "0x1.1a91777ee5501p+3",
                   "0x1.2a1e85a19ada9p+1"),
    ("Kappa", 4): ("0x1.1a918fba97d6ap+3", "0x1.1a918fba97d6ap+3",
                   "0x1.2a1e9f32b8349p+1"),
    ("Kappa", 5): ("0x1.1a918f023ad06p+3", "0x1.1a918f023ad06p+3",
                   "0x1.2a1e9e7035b79p+1"),
    ("Kappa", 6): ("0x1.1a918efcad9b1p+3", "0x1.1a918efcad9b1p+3",
                   "0x1.2a1e9e6a5a4b1p+1"),
    ("Kappa", 7): ("0x1.1a918efd7e57ep+3", "0x1.1a918efd7e57ep+3",
                   "0x1.2a1e9e6b3684cp+1"),
    ("Kappa", 8): ("0x1.1a918efd82152p+3", "0x1.1a918efd82152p+3",
                   "0x1.2a1e9e6b3a76bp+1"),
    ("Kappa", 9): ("0x1.1a918efd81951p+3", "0x1.1a918efd81951p+3",
                   "0x1.2a1e9e6b39ef9p+1"),
    ("Kappa", 10): ("0x1.1a918efd819acp+3", "0x1.1a918efd819acp+3",
                    "0x1.2a1e9e6b39f59p+1"),
    ("Kappa", 11): ("0x1.1a918efd819aep+3", "0x1.1a918efd819aep+3",
                    "0x1.2a1e9e6b39f5bp+1"),
    ("Kappa", 12): ("0x1.1a918efd819aep+3", "0x1.1a918efd819aep+3",
                    "0x1.2a1e9e6b39f5bp+1"),
}


def _vp(n: int, p: int) -> int:
    v = 0
    while n != 0 and n % p == 0:
        n //= p
        v += 1
    return v


class TestKodairaDensities:
    def test_examples_at_5(self):
        assert ld.density_kodaira(5, "Good") == F(16, 25)
        assert ld.density_kodaira(5, "III") == F(4, 125)
        assert ld.density_kodaira(5, "I0*") == F(4, 625)
        assert ld.density_kodaira(5, "III*") == F(4, 15625)
        assert ld.density_kodaira(5, "semistable", 1) == F(32, 125)
        assert ld.density_kodaira(5, "semistable", 2) == F(32, 625)

    @pytest.mark.parametrize("p", [5, 7, 11, 97, 1009])
    def test_polynomials_are_the_formulas(self, p):
        assert ld.density_kodaira(p, "Good") == F((p - 1) ** 2, p**2)
        assert ld.density_kodaira(p, "III") == F(p - 1, p**3)
        assert ld.density_kodaira(p, "I0*") == F(p - 1, p**4)
        assert ld.density_kodaira(p, "III*") == F(p - 1, p**6)
        for k in (1, 2, 5):
            assert ld.density_kodaira(p, "semistable", k) == F(2 * (p - 1) ** 2, p ** (k + 2))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ld.density_kodaira(4, "Good")
        with pytest.raises(ValueError):
            ld.density_kodaira(3, "III")
        with pytest.raises(ValueError):
            ld.density_kodaira(5, "semistable")
        with pytest.raises(ValueError):
            ld.density_kodaira(5, "III", k=1)
        with pytest.raises(ValueError):
            ld.density_kodaira(5, "II")


class TestEmpiricalDensities:
    def test_examples_at_5(self):
        assert ld.density_empirical(5, 2, "III") == F(20, 625)
        assert ld.density_empirical(5, None, "III") == F(20, 625)
        assert ld.density_empirical(5, 3, "I0*") == F(100, 15625)
        assert ld.density_empirical(5, 2, "semistable", 1) == F(160, 625)

    def test_insufficient_modulus_rejected(self):
        for cls, m_min in [("III", 2), ("I0*", 3), ("III*", 4)]:
            with pytest.raises(ValueError):
                ld.density_empirical(5, m_min - 1, cls)
        with pytest.raises(ValueError):
            ld.density_empirical(5, 2, "semistable", 2)

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_closed_form_at_min_modulus(self, p):
        cases = [("Good", None, 1), ("III", None, 2), ("I0*", None, 3),
                 ("III*", None, 4), ("semistable", 1, 2), ("semistable", 2, 3)]
        for cls, k, m in cases:
            assert ld.density_empirical(p, m, cls, k) == ld.density_kodaira(p, cls, k)

    def test_stable_under_larger_modulus(self):
        assert ld.density_empirical(5, 3, "III") == ld.density_empirical(5, 2, "III")
        assert ld.density_empirical(5, 3, "semistable", 1) == ld.density_empirical(
            5, 2, "semistable", 1
        )

    def test_brute_force_valuation_scan(self):
        # independent pure-python count over the mod 125 grid
        p, m = 5, 3
        M = p**m
        tallies = {"III": 0, "I0*": 0, ("ss", 1): 0, ("ss", 2): 0, "Good": 0}
        for a in range(M):
            for b in range(M):
                c = a * a - 4 * b
                vb = _vp(b, p) if b else m
                vc = _vp(c % M, p) if c % M else m
                if vb == 0 and vc == 0:
                    tallies["Good"] += 1
                elif a % p == 0 and vb == 1:
                    tallies["III"] += 1
                elif a % p == 0 and vb == 2:
                    tallies["I0*"] += 1
                for k in (1, 2):
                    if {vb, vc} == {0, k}:
                        tallies[("ss", k)] += 1
        assert ld.density_empirical(p, m, "III") == F(tallies["III"], M * M)
        assert ld.density_empirical(p, m, "I0*") == F(tallies["I0*"], M * M)
        assert ld.density_empirical(p, m, "Good") == F(tallies["Good"], M * M)
        for k in (1, 2):
            assert ld.density_empirical(p, m, "semistable", k) == F(
                tallies[("ss", k)], M * M
            )

    def test_pattern_names_match_symbols(self):
        # the counted valuation patterns carry the symbol they are named after
        for a in range(-30, 31, 5):
            for b in [5, 10, 15, 20, 35, -5, -10, -35]:
                if _vp(b, 5) != 1 or a * a == 4 * b:
                    continue
                red = kodaira_symbol_large_p(CurveParams(a, b), 5)
                assert str(red.symbol) == "III"


class TestCongruenceMass:
    def test_class_count(self):
        assert len(np.argwhere(FAMILY_MOD96)) == 288

    def test_component_masses(self):
        assert ld.good_reduction_density_2() == F(72, 1024)
        assert ld.good_reduction_density_3() == F(4, 9)

    def test_joint_mass(self):
        assert ld.good_reduction_density_23() == F(1, 32)

    def test_prefactor_reads_the_mass(self):
        assert MT1_PREFACTOR == PAIR_COUNT_CONST * float(ld.good_reduction_density_23())
        assert MT1_PREFACTOR == PAIR_COUNT_CONST / 32


class TestDensityTable:
    def test_table_at_5(self):
        total = (sum(ld.density_kodaira(5, cls) for cls in ("Good", "III", "I0*", "III*"))
                 + sum(ld.density_kodaira(5, "semistable", k) for k in (1, 2, 3)))
        expected = (
            F(16, 25) + F(4, 125) + F(4, 625) + F(4, 15625)
            + F(32, 125) + F(32, 625) + F(32, 3125)
        )
        assert total == expected
        assert total < 1

    def test_semistable_tail_closes_the_gap(self):
        # Good + all semistable should reach 1 - 1/p^2
        p = 7
        acc = ld.density_kodaira(p, "Good")
        for k in range(1, 60):
            acc += ld.density_kodaira(p, "semistable", k)
        assert abs(float(acc) - (1 - p**-2)) < 1e-40


class TestXPolynomials:
    """Integer polynomials in x = p^{-1/4} and their exact values at p."""

    def test_q_coefficients_reduce_by_p(self):
        # x^{-j} = q^j, reduced by q^4 = p
        assert ld._q_coefficients({-4: 1}, 5) == (5, 0, 0, 0)
        assert ld._q_coefficients({-6: 1}, 5) == (0, 0, 5, 0)
        assert ld._q_coefficients({-12: 1}, 5) == (125, 0, 0, 0)
        # x = q^3 / p, x^8 = 1/p^2
        assert ld._q_coefficients({1: 3, 8: 2}, 5) == (F(2, 25), 0, 0, F(3, 5))
        assert ld._q_coefficients({}, 5) == (0, 0, 0, 0)

    def test_q_float(self):
        assert abs(ld._q_float(ld._q_coefficients({-1: 1}, 5), 5) - 5**0.25) < 1e-15
        assert ld._q_float(ld._q_coefficients({0: 1, 24: -1}, 5), 5) == 1 - 5.0**-6

    @given(st.dictionaries(st.integers(-12, 24), st.integers(-9, 9), max_size=8),
           st.sampled_from([5, 7, 97]))
    @settings(max_examples=60, deadline=None)
    def test_q_coefficients_match_floats(self, poly, p):
        exact = ld._q_float(ld._q_coefficients(poly, p), p)
        direct = math.fsum(c * p ** (-j / 4) for j, c in poly.items())
        scale = math.fsum(abs(c) * p ** (-j / 4) for j, c in poly.items())
        assert abs(exact - direct) <= 1e-14 * max(scale, 1)

    def test_add_and_shift(self):
        good = ld._DENSITY["Good"]
        assert ld._add(good, ld._shift(good, 0, -1)) == {}
        assert ld._shift(good, 4, 2) == {4: 2, 8: -4, 12: 2}

    def test_geometric(self):
        # (1 - x^4)^2 / (1 - x) = (1 + x + x^2 + x^3)(1 - x^4)
        assert ld._geometric(ld._DENSITY["Good"], 1) == {
            0: 1, 1: 1, 2: 1, 3: 1, 4: -1, 5: -1, 6: -1, 7: -1}
        assert ld._geometric({2: 1, 6: -1}, 4) == {2: 1}
        with pytest.raises(AssertionError):
            ld._geometric({0: 1, 1: 1}, 1)


class TestEulerFactors:
    def test_condpoly_factor(self):
        assert euler_factor(5, "CondPoly") == 1 - 5.0**-6

    def test_cubefree_factor_value(self):
        expected = 1 - 9 / 125 + 32 * 5.0**-3.25
        assert math.isclose(euler_factor(5, "CubeFree"), expected, rel_tol=1e-14)
        assert math.isclose(euler_factor(5, "CubeFree"), 1.09920, abs_tol=5e-6)

    def test_kappa_factor_value(self):
        q = 5**0.25
        expected = 1 - 1 / 25 + 4 * 5.0**-2.5 + 32 / (125 * (q - 1))
        assert math.isclose(euler_factor(5, "Kappa"), expected, rel_tol=1e-13)
        assert math.isclose(euler_factor(5, "Kappa"), 1.548362, abs_tol=5e-7)

    def test_closed_forms_match_vectorized_path(self):
        primes = np.array([5, 7, 11, 97], dtype=np.int64)
        for family in ld.FAMILIES:
            vec = ld._factor_values(primes, family)
            for p, v in zip(primes, vec):
                assert math.isclose(
                    euler_factor(int(p), family), float(v), rel_tol=1e-15
                )

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            euler_factor(5, "Squarefree")
        with pytest.raises(ValueError):
            ld.dirichlet_local_sum_q4(5, "Squarefree")


class TestDirichletIdentity:
    @pytest.mark.parametrize("family", ld.FAMILIES)
    def test_local_sum_equals_euler_factor(self, family):
        # one identity of polynomials in x, so it holds at every p ...
        assert ld._local_sum(family) == ld._SERIES[family]
        # ... and the local sum at each head prime is the hand-derived factor
        for p in _HEAD_PRIMES:
            assert ld.dirichlet_local_sum_q4(p, family) == _closed_form_factor(p, family)

    def test_mismatch_is_an_internal_check_failure(self, monkeypatch, capsys):
        from twotor import cli

        monkeypatch.setitem(ld._DENSITY, "III*", {20: 1, 24: -2})
        assert cli.main(["euler", "--family", "kappa", "--tol", "0.01"]) == 3
        assert "the local sum differs from the Euler factor" in capsys.readouterr().err

    def test_mismatch_fails_under_optimize(self):
        # -O drops assert statements; the identity check must still run
        code = ("import sys; from twotor import cli, local_density as ld; "
                "ld._DENSITY['III*'] = {20: 1, 24: -2}; "
                "sys.exit(cli.main(['euler', '--family', 'kappa', '--tol', '0.01']))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert "the local sum differs from the Euler factor" in proc.stderr

    @pytest.mark.parametrize("patch, message", [
        # P = 5 puts x_p = 5^(-1/4) outside the radius where log F converges
        ("ld._HEAD_CUTOFF = 5", "the series of log R_K must converge"),
        # (1 - x^4)^2 + x^8 has no factor 1 - x, so sum_k x^k ss1 does not stop
        ("ld._DENSITY['Good'] = {0: 1, 4: -2, 8: 2}", "the series does not terminate"),
    ])
    def test_density_checks_fail_under_optimize(self, patch, message):
        # -O drops assert statements; the checks on the euler path must still run
        code = ("import sys; from twotor import cli, local_density as ld; "
                f"{patch}; sys.exit(cli.main(['euler', '--family', 'kappa', '--tol', '0.01']))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert message in proc.stderr


class TestEulerProducts:
    def test_condpoly_against_zeta6(self):
        value, P = ld.euler_product("CondPoly", 1e-10)
        zeta6 = math.pi**6 / 945
        oracle = (1 / zeta6) / ((1 - 2.0**-6) * (1 - 3.0**-6))
        assert abs(value - oracle) < 1e-9
        assert P < 10**4

    def test_self_consistency_cubefree(self):
        t, b = _truncated_oracle("CubeFree", 10**6)
        for tol in (0.05, 1e-12):
            value, _ = ld.euler_product("CubeFree", tol)
            assert t * math.exp(-b) <= value <= t * math.exp(b)

    def test_tolerance_unreachable(self):
        for family in ld.FAMILIES:
            value, P = ld.euler_product(family, 1e-12)
            assert value > 0 and P <= 10**4
            with pytest.raises(ld.ToleranceUnreachable):
                ld.euler_product(family, 1e-20)

    def test_condpoly_tiny_tolerance_ok(self):
        value, _ = ld.euler_product("CondPoly", 1e-12)
        assert 0.98 < value < 1.0

    def test_cutoff_monotone_in_tolerance(self):
        assert ld._tail_cutoff("Kappa", 0.02) >= ld._tail_cutoff("Kappa", 0.2)

    def test_index_sum_matches_product(self):
        for family, tol in [("CondPoly", 1e-10), ("CubeFree", 0.05), ("Kappa", 0.05)]:
            v1, P1 = ld.euler_product(family, tol)
            v2, P2 = ld.dirichlet_index_sum(family, tol)
            assert P1 == P2
            assert math.isclose(v1, v2, rel_tol=1e-9)


class TestLeadingConstants:
    def test_condpoly_constant(self):
        value, _ = ld.euler_product("CondPoly", ld.DEFAULT_TOL)
        expected = float(MT1_PREFACTOR) * value
        assert math.isclose(ld.mt1_constant("CondPoly"), expected, rel_tol=1e-12)
        assert math.isclose(ld.mt1_constant("CondPoly"), 0.2637393, abs_tol=2e-6)

    def test_family_ordering(self):
        tol = 0.05
        c1 = ld.mt1_constant("CondPoly", tol=tol)
        c2 = ld.mt1_constant("CubeFree", tol=tol)
        c3 = ld.mt1_constant("Kappa", tol=tol)
        assert c1 < c2 < c3


class TestZetaFactored:
    @pytest.mark.parametrize("family", ld.FAMILIES)
    def test_exponents_reproduce_series(self, family):
        K = 40
        e = ld._exponents(family, K)
        assert e[1:5] == [0, 0, 0, 0]
        prod = [1] + [0] * K
        for k in range(1, K + 1):
            # (1 - x^k)^{-e}: coefficient of x^{km} is binom(e + m - 1, m)
            series, coeff = [1] + [0] * K, 1
            for m in range(1, K // k + 1):
                coeff = coeff * (e[k] + m - 1) // m
                series[k * m] = coeff
            prod = [sum(prod[i] * series[n - i] for i in range(n + 1)) for n in range(K + 1)]
        coeffs = ld._SERIES[family]
        assert prod == [coeffs.get(n, 0) for n in range(K + 1)]

    @pytest.mark.parametrize("family", ld.FAMILIES)
    def test_series_is_the_euler_factor(self, family):
        for p in [5, 7, 11, 13, 97, 101]:
            value = [F(0)] * 4
            for j, c in ld._SERIES[family].items():
                # x^j = q^{-j} = q^{(-j) mod 4} p^{floor(-j/4)}
                value[-j % 4] += c * F(p) ** (-j // 4)
            assert tuple(value) == _closed_form_factor(p, family)
            assert ld._q_coefficients(ld._SERIES[family], p) == tuple(value)

    def test_condpoly_is_inverse_zeta6(self):
        zeta6 = math.pi**6 / 945
        oracle = (1 / zeta6) / ((1 - 2.0**-6) * (1 - 3.0**-6))
        for tol in (1e-12, None):
            value, _ = ld.euler_product("CondPoly", tol or ld.DEFAULT_TOL)
            assert abs(value - oracle) < 1e-14

    @pytest.mark.parametrize("family", ["CubeFree", "Kappa"])
    def test_inside_truncated_product_bracket(self, family):
        t, b = _truncated_oracle(family, 10**6)
        value, _ = ld.euler_product(family, 1e-12)
        assert t * math.exp(-b) <= value <= t * math.exp(b)

    @pytest.mark.parametrize("family", ld.FAMILIES)
    def test_tolerances_within_reported_bound(self, family):
        def bound(tol):
            P, K = ld._tail_cutoff(family, tol)
            e = ld._exponents(family, K)
            out = ld._remainder_bound(family, e, K, P)
            out += ld._rounding_bound(len(ar.primes_from_5(P)))
            assert out <= tol
            return out

        ref, _ = ld.euler_product(family, 1e-14)
        for tol in (1e-2, 1e-6, 1e-12):
            value, _ = ld.euler_product(family, tol)
            assert abs(math.log(value / ref)) <= bound(tol) + bound(1e-14)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            ld._tail_cutoff("CubeFree", tol)
        with pytest.raises(ValueError):
            ld.euler_product("Kappa", tol)

    def test_small_primes_and_no_sieve_growth(self, monkeypatch, capsys):
        from twotor import cli

        asked = []
        real = ar.primes_up_to

        def recording(n):
            asked.append(n)
            return real(n)

        monkeypatch.setattr(ar, "primes_up_to", recording)
        ld._zeta_tail.cache_clear()
        limit = ar._sieve.limit
        for family in ("condpoly", "cubefree", "kappa"):
            assert cli.main(["euler", "--family", family, "--tol", "1e-12"]) == 0
        assert asked and max(asked) <= 10**5
        assert ar._sieve.limit == limit


class TestZetaTable:
    def test_entries_against_mpmath(self):
        table = ld._LOG_ZETA_ABOVE_100
        orders = range(5, ld._MAX_ORDER + 1)
        assert len(table) == len(orders)
        with mpmath.workdps(75):
            for k, entry in zip(orders, table):
                value = log_zeta_above(F(k, 4), ld._HEAD_CUTOFF, 75)
                assert int(mpmath.nint(value * mpmath.mpf(10) ** 50)) == entry, k

    @pytest.mark.parametrize("family", ld.FAMILIES)
    def test_tail_against_mpmath_zeta(self, family):
        # the mpmath loop is not exact to the last bit: from K = 24 on it
        # loses the CondPoly tail, log(1 + 4.8e-12), to cancellation by 1.3e-22
        for j in range(1, 13):
            tol = float(f"1e-{j}")
            P, tail = ld._zeta_tail(family, tol)
            P_oracle, oracle = zeta_tail_mpmath(family, tol)
            assert P == P_oracle and abs(tail - oracle) <= 1e-20

    @pytest.mark.parametrize("family", ld.FAMILIES)
    def test_exponents_do_not_depend_on_order(self, family):
        e = ld._family_exponents(family)
        for K in range(5, ld._MAX_ORDER + 1):
            assert e[:K + 1] == tuple(ld._exponents(family, K))

    @pytest.mark.parametrize("family", ld.FAMILIES)
    def test_pinned_products(self, family):
        for j in range(1, 13):
            tol = float(f"1e-{j}")
            values = (ld.euler_product(family, tol)[0],
                      ld.dirichlet_index_sum(family, tol)[0],
                      ld.mt1_constant(family, tol))
            assert tuple(v.hex() for v in values) == _PINNED_HEX[family, j], tol
