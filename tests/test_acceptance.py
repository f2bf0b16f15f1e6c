"""The ten build-acceptance checks, one test each, with a summary line apiece.

Each test records a PASS/FAIL line (shown in the terminal summary block)
and then asserts.  Criterion 9's Szpiro half counts curves that have good
reduction at 2 and 3 (the census sweeps only their residue classes),
with average Szpiro ratios from minimal discriminants on both sides of the
2-isogeny.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import acceptance_line
from oracles import enumerate_region, isogeny, objective_value, piece_integrals
import uniformity as un
from twotor import arithmetic as ar
from twotor import census
from twotor import curve_core as cc
from twotor import local_density as ld
from twotor import lp_bounds as lp
from twotor import real_density as rd
from twotor.curve_core import FAMILY_MOD96, CurveParams


def test_criterion_01_exact_local_densities():
    t0 = time.time()
    bad = []
    for p in (5, 7, 11, 13):
        closed = {
            ("III", None): Fraction(p - 1, p**3),
            ("I0*", None): Fraction(p - 1, p**4),
            ("III*", None): Fraction(p - 1, p**6),
        }
        for k in (1, 2, 3):
            closed[("semistable", k)] = Fraction(2 * (p - 1) ** 2, p ** (k + 2))
        for (cls, k), want in closed.items():
            m = k + 1 if cls == "semistable" else {"III": 2, "I0*": 3, "III*": 4}[cls]
            got_closed = ld.density_kodaira(p, cls, k)
            got_counted = ld.density_empirical(p, m, cls, k)
            if not (got_closed == got_counted == want):
                bad.append((p, cls, k, got_closed, got_counted))
    ok = not bad
    acceptance_line(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - closed-form vs counted "
        f"densities exact for p in 5..13, 6 classes ({time.time()-t0:.0f}s)")
    assert ok, bad


def test_criterion_02_good_reduction_mass():
    t0 = time.time()
    classes = np.argwhere(FAMILY_MOD96)
    mass = Fraction(len(classes), 96 * 96)
    ok = len(classes) == 288 and mass == Fraction(1, 32) == ld.good_reduction_density_23()
    acceptance_line(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - mod-96 count {len(classes)}"
        f"/9216 = {mass} ({time.time()-t0:.1f}s)")
    assert ok


def test_criterion_03_archimedean_constant():
    t0 = time.time()
    quad = rd.area_quadrature(1.0, 1e-8)
    closed = rd.area_closed_form(1.0)
    rel = abs(quad - closed) / closed
    piece, _ = piece_integrals()
    piece_closed = (math.sqrt(2) + math.gamma(0.25) ** 2 / (4 * math.sqrt(math.pi))) / 3
    ok = rel <= 1e-6 and abs(piece - piece_closed) <= 1e-9
    acceptance_line(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - area rel err {rel:.2e}, "
        f"piece err {abs(piece - piece_closed):.2e} ({time.time()-t0:.1f}s)")
    assert ok


def test_criterion_04_kodaira_oracle_equivalence():
    t0 = time.time()
    primes = [int(p) for p in ar.primes_up_to(97) if p >= 5]
    disagreements = []
    for a in range(-200, 201):
        for b in range(-200, 201):
            if b == 0 or a * a == 4 * b:
                continue
            c = CurveParams(a, b)
            for p in primes:
                table = cc.kodaira_symbol_large_p(c, p)
                tate = cc.tate_algorithm(c, p)
                if (str(table.symbol) != str(tate.symbol)
                        or table.conductor_exponent != tate.conductor_exponent):
                    disagreements.append((a, b, p))
    ok = not disagreements
    acceptance_line(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - "
        f"{len(disagreements)} disagreements over |a|,|b| <= 200, p <= 97 "
        f"({time.time()-t0:.0f}s)")
    assert ok, disagreements[:10]


def test_criterion_05_lp_certificates():
    t0 = time.time()
    deltas = [Fraction(k, 100) for k in range(0, 11)]
    rs = [Fraction(0), Fraction(1, 200), Fraction(1, 100), Fraction(1, 102)]
    bad = []
    for delta in deltas:
        for r in rs:
            prog = lp.build_primal(delta, r)
            dual = lp.build_dual(prog)
            x = lp.certificate_primal(delta, r)
            y = lp.certificate_dual()
            want = Fraction(3, 2) - 3 * delta + 3 * r
            checks = (
                lp.check_feasible(prog, x)
                and lp.check_feasible(dual, y)
                and objective_value(prog, x) == want
                and objective_value(dual, y) == want
                and lp.solve_simplex(prog)[0] == want
            )
            if not checks:
                bad.append((delta, r))
    ok = not bad
    acceptance_line(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - certificates and simplex "
        f"equal 3/2 - 3d + 3r on the 11x4 grid ({time.time()-t0:.1f}s)")
    assert ok, bad


def test_criterion_06_isogeny_identities():
    t0 = time.time()
    rng = random.Random(0)
    ratios = set()
    drawn = 0
    while drawn < 10**4:
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if b == 0 or a * a == 4 * b:
            continue
        drawn += 1
        c = CurveParams(a, b)
        ratios.add(Fraction(cc.conductor_polynomial(isogeny(c)),
                            cc.conductor_polynomial(c)))
    checked = 0
    invariant_ok = True
    for c in enumerate_region(10**5, filter=cc.in_family):
        if checked >= 10**3:
            break
        if cc.reduction(c).conductor != cc.reduction(isogeny(c)).conductor:
            invariant_ok = False
            break
        checked += 1
    ok = len(ratios) == 1 and invariant_ok and checked == 10**3
    measured = [str(v) for v in sorted(ratios)]
    acceptance_line(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - cond-poly ratio constant "
        f"at {measured} over 10^4 draws (commonly stated as 4); conductor "
        f"isogeny-invariant on {checked} curves ({time.time()-t0:.0f}s)")
    assert ok, measured


def brute_region(X: int) -> set:
    out = set()
    amax = math.isqrt(5 * X) + 1
    bs = np.arange(-X, X + 1, dtype=np.int64)
    for a in range(-amax, amax + 1):
        c = a * a - 4 * bs
        keep = (bs != 0) & (c != 0) & (np.abs(bs * c) <= X)
        for b in bs[keep]:
            out.add((a, int(b)))
    return out


def test_criterion_07_census_oracle_equivalence():
    t0 = time.time()
    bad = []
    for X in (10**2, 10**3, 10**4):
        A = math.isqrt(4 * X + 1)
        a, b, _ = census._block_pairs(X, -A, A, census._ALL_RESIDUES)
        fast = set(zip(a.tolist(), b.tolist()))
        slow = brute_region(X)
        if fast != slow:
            bad.append((X, len(fast), len(slow)))
    ok = not bad
    acceptance_line(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - the block sweep matches "
        f"the double loop as sets for X in 1e2..1e4 ({time.time()-t0:.0f}s)")
    assert ok, bad


def test_criterion_08_asymptotic_trend():
    t0 = time.time()
    config = census.CensusConfig(X=10**7, family="CondPoly", workers=4)
    report = census.run_census(config, cutoffs=(10**4, 10**5, 10**6, 10**7))
    r = report.ratios
    finite = all(math.isfinite(v) and v > 0 for v in r)
    steps = [abs(r[i + 1] - r[i]) for i in range(len(r) - 1)]
    shrinking = all(steps[i + 1] < steps[i] for i in range(len(steps) - 1))
    ok = finite and shrinking and 0.5 <= r[-1] <= 1.5
    acceptance_line(
        f"criterion 8: {'PASS' if ok else 'FAIL'} - ratios "
        f"{tuple(round(v, 4) for v in r)}, final in [0.5, 1.5] "
        f"({time.time()-t0:.0f}s)")
    assert ok, r


def weakly_nonincreasing(values, slack=0.05, allowed=1):
    violations = [(b - a) / a for a, b in zip(values, values[1:]) if b > a]
    return len(violations) <= allowed and all(v <= slack for v in violations)


def test_criterion_09_tail_decay():
    t0 = time.time()
    grid = (10**4, 10**5, 10**6)
    idx_counts = census.tail_counts_index(grid, 0.1)
    szp_counts = census.tail_counts_szpiro(grid, 0.25, 2.2)
    idx = [n / X**0.75 for X, n in zip(grid, idx_counts)]
    szp = [n / X**0.75 for X, n in zip(grid, szp_counts)]
    idx_ok = weakly_nonincreasing(idx)
    szp_ok = weakly_nonincreasing(szp)
    ok = idx_ok and szp_ok
    acceptance_line(
        f"criterion 9: {'PASS' if ok else 'FAIL'} - index tail "
        f"{tuple(round(v, 3) for v in idx)} "
        f"{'nonincreasing' if idx_ok else 'rises'}; szpiro tail "
        f"{tuple(round(v, 3) for v in szp)} "
        f"{'nonincreasing' if szp_ok else 'rises'} ({time.time()-t0:.0f}s)")
    assert idx_ok, idx
    assert szp_ok, (
        f"szpiro tail ratios {szp} over X in {grid} are not weakly "
        f"nonincreasing; relative steps "
        f"{[round((b - a) / a, 3) for a, b in zip(szp, szp[1:])]}")


def test_criterion_10_bound_corpora():
    t0 = time.time()
    qa = un.fitted_quadric_constant(un.quadric_corpus(100, seed=101))
    qb = un.fitted_quadric_constant(un.quadric_corpus(100, seed=202))
    la = un.fitted_lattice_constant(un.lattice_corpus(100, seed=101))
    lb = un.fitted_lattice_constant(un.lattice_corpus(100, seed=202))
    q_spread = abs(qa - qb) / min(qa, qb)
    l_spread = abs(la - lb) / min(la, lb)
    ok = q_spread <= 0.2 and l_spread <= 0.2
    acceptance_line(
        f"criterion 10: {'PASS' if ok else 'FAIL'} - fitted c {qa:.3f}/{qb:.3f} "
        f"(spread {q_spread:.1%}), c' {la:.3f}/{lb:.3f} (spread {l_spread:.1%}) "
        f"({time.time()-t0:.0f}s)")
    assert ok
