"""Exactness tests for the exponent linear program and its simplex solver."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from oracles import check_feasible_fractions, objective_value, solve_simplex_fractions
from twotor import lp_bounds
from twotor.lp_bounds import (
    LinearProgram,
    LPInfeasibleError,
    LPUnboundedError,
    build_dual,
    build_primal,
    certificate_dual,
    certificate_primal,
    certificate_value,
    check_feasible,
    solve_simplex,
    sweep_grid,
)
from uniformity import ExponentVector, avg_szpiro_from_exponents

GRID = [
    (F(k, 100), r)
    for k in range(11)
    for r in (F(0), F(1, 200), F(1, 102), F(1, 100))
]


class TestProgramConstruction:
    def test_objective_vector(self):
        lp = build_primal(0, 0)
        assert lp.objective == (6, 0, 12, 0, 0, 3, 3, 0, 0)

    def test_first_row(self):
        lp = build_primal(0, 0)
        assert lp.matrix[0] == (-2, -2, -2, -1, -1, 0, 0, -1, -1)

    def test_rhs_at_parameters(self):
        # rows 4 and 5 carry r/2 so both certificates are tight
        lp = build_primal(F(1, 10), F(1, 100))
        assert lp.rhs == (F(-1), F(2, 5), F(0), F(1, 200), F(1, 200))

    def test_shape(self):
        lp = build_primal(0, 0)
        assert lp.n_rows == 5 and lp.n_vars == 9
        assert all(isinstance(v, F) for row in lp.matrix for v in row)

    @pytest.mark.parametrize("delta,r", [(F(1, 2), 0), (F(-1, 10), 0), (0, -1)])
    def test_parameter_range(self, delta, r):
        with pytest.raises(ValueError):
            build_primal(delta, r)

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            LinearProgram("max_ge", (F(1),), ((F(1),),), (F(0),))

    def test_ragged_matrix(self):
        with pytest.raises(ValueError):
            LinearProgram("min_ge", (F(1), F(2)), ((F(1),),), (F(0),))

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram("min_ge", (F(1),), ((F(1),),), (F(0), F(1)))


class TestCertificates:
    @pytest.mark.parametrize("delta,r", GRID)
    def test_primal_certificate_feasible_and_tight(self, delta, r):
        lp = build_primal(delta, r)
        x = certificate_primal(delta, r)
        assert check_feasible(lp, x)
        assert objective_value(lp, x) == certificate_value(delta, r)

    @pytest.mark.parametrize("delta,r", GRID)
    def test_dual_certificate_feasible_and_tight(self, delta, r):
        dual = build_dual(build_primal(delta, r))
        y = certificate_dual()
        assert check_feasible(dual, y)
        assert objective_value(dual, y) == certificate_value(delta, r)

    def test_value_at_origin(self):
        assert certificate_value(0, 0) == F(3, 2)

    def test_value_spec_point(self):
        v = certificate_value(F(1, 100), F(1, 102))
        assert v == F(3, 2) - F(3, 100) + F(3, 102) == F(2549, 1700)
        assert abs(float(v) - 1.49941) < 5e-6

    def test_perturbed_x4_violates_row_two(self):
        # pushing x4 down by (1/2 - delta)/2 empties half of alpha1 + alpha2
        x = list(certificate_primal(0, 0))
        x[3] -= F(1, 2) / 2
        lp = build_primal(0, 0)
        assert not check_feasible(lp, x)
        row2 = sum(c * v for c, v in zip(lp.matrix[1], x))
        assert row2 < lp.rhs[1]

    def test_certificate_components(self):
        x = certificate_primal(F(1, 10), F(1, 100))
        s, t = F(2, 5), F(3, 5)
        assert x == (0, 0, 0, s / 2, s / 2, (s + F(1, 100)) / 2,
                     (s + F(1, 100)) / 2, t / 2, t / 2)


class TestSimplex:
    @pytest.mark.parametrize("delta,r", GRID)
    def test_grid_optimum_exact(self, delta, r):
        opt, x = solve_simplex(build_primal(delta, r))
        assert opt == certificate_value(delta, r)
        assert check_feasible(build_primal(delta, r), x)

    @pytest.mark.parametrize("delta,r", GRID)
    def test_dual_optimum_exact(self, delta, r):
        dual = build_dual(build_primal(delta, r))
        opt, y = solve_simplex(dual)
        assert opt == certificate_value(delta, r)
        assert check_feasible(dual, y)

    def test_outside_grid_still_agrees(self):
        # the closed form keeps holding well past the grid edge
        opt, _ = solve_simplex(build_primal(F(1, 5), 0))
        assert opt == F(9, 10)
        opt, _ = solve_simplex(build_primal(F(49, 100), F(3)))
        assert opt == F(3, 2) - F(3 * 49, 100) + 9

    def test_infeasible_raises(self):
        lp = LinearProgram("min_ge", (F(1),), ((F(1),), (F(-1),)), (F(1), F(1)))
        with pytest.raises(LPInfeasibleError):
            solve_simplex(lp)

    def test_unbounded_raises(self):
        lp = LinearProgram("min_ge", (F(-1),), ((F(1),),), (F(0),))
        with pytest.raises(LPUnboundedError):
            solve_simplex(lp)

    def test_max_sense(self):
        # max x1 + x2 st x1 + x2 <= 2, x1 <= 1: optimum 2
        lp = LinearProgram(
            "max_le", (F(1), F(1)),
            ((F(1), F(1)), (F(1), F(0))), (F(2), F(1)),
        )
        opt, x = solve_simplex(lp)
        assert opt == 2 and sum(x) == 2


class TestDuality:
    def test_dual_of_dual_is_identity(self):
        lp = build_primal(F(1, 10), F(1, 100))
        assert build_dual(build_dual(lp)) == lp

    def test_dual_shape(self):
        dual = build_dual(build_primal(0, 0))
        assert dual.sense == "max_le"
        assert dual.n_vars == 5 and dual.n_rows == 9

    @pytest.mark.parametrize("delta,r", [(0, 0), (F(1, 20), F(1, 200))])
    def test_weak_duality_on_feasible_pairs(self, delta, r):
        lp = build_primal(delta, r)
        dual = build_dual(lp)
        # non-optimal feasible primal point: beta bumps cancel in row 3 and
        # only help rows 4 and 5, so feasibility survives
        x = list(certificate_primal(delta, r))
        x[5] += F(1, 7)
        x[6] += F(1, 7)
        assert check_feasible(lp, x)
        y = [F(1, 2) * v for v in certificate_dual()]
        assert check_feasible(dual, y)
        assert objective_value(lp, x) >= objective_value(dual, y)

    def test_dimension_mismatch(self):
        lp = build_primal(0, 0)
        with pytest.raises(ValueError):
            check_feasible(lp, (F(0),) * 8)
        with pytest.raises(ValueError):
            objective_value(lp, (F(0),) * 10)

    def test_negative_point_infeasible(self):
        lp = build_primal(0, 0)
        x = list(certificate_primal(0, 0))
        x[0] = F(-1, 100)
        assert not check_feasible(lp, x)


class TestSweep:
    def test_default_grid(self):
        rows = sweep_grid()
        assert len(rows) == 44
        assert all(r[4] for r in rows)
        assert all(r[2] == r[3] == F(3, 2) - 3 * r[0] + 3 * r[1] for r in rows)

    def test_custom_grid(self):
        rows = sweep_grid(deltas=[F(1, 8)], rs=[F(1, 16)])
        assert rows == [(F(1, 8), F(1, 16), F(21, 16), F(21, 16), True)]


class TestExponentVector:
    def test_certificate_origin_value(self):
        v = ExponentVector(*certificate_primal(0, 0))
        assert avg_szpiro_from_exponents(v) == F(9, 4)

    def test_rejects_negative_component(self):
        with pytest.raises(ValueError):
            ExponentVector(0, 0, 0, -0.1, 0, 0, 0, 0, 0)

    def test_rejects_zero_denominator(self):
        v = ExponentVector(0, 0, 0, 0, 0, 1, 1, 0, 0)
        with pytest.raises(ValueError):
            avg_szpiro_from_exponents(v)

    def test_round_trip(self):
        v = ExponentVector(*range(1, 10))
        assert v.as_tuple() == tuple(range(1, 10))
        assert list(v.as_dict().values()) == list(range(1, 10))

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=9, max_size=9))
    def test_floor_three_halves(self, xs):
        v = ExponentVector(*xs)
        gs = v.gamma_I0star + v.gamma_III + v.gamma_IIIstar
        if 2 * (2 * gs + v.alpha1 + v.upsilon + v.alpha2 + v.nu) > 0:
            assert avg_szpiro_from_exponents(v) >= 1.5


def _int_fracs(draw, k, lo=-3, hi=3):
    return tuple(F(draw(st.integers(lo, hi))) for _ in range(k))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def _columns(matrix):
    return tuple(zip(*matrix))


def _check_unbounded(lp):
    """Exact certificate: a feasible point and an improving ray of min c.x, Ax >= b, x >= 0."""
    n, m = lp.n_vars, lp.n_rows
    _, x = solve_simplex(LinearProgram("min_ge", (F(0),) * n, lp.matrix, lp.rhs))
    assert check_feasible(lp, x)
    # auxiliary LP: min c.d  st  A d >= 0, sum(d) <= 1, d >= 0
    ray_lp = LinearProgram("min_ge", lp.objective, lp.matrix + ((F(-1),) * n,),
                           (F(0),) * m + (F(-1),))
    _, d = solve_simplex(ray_lp)
    assert all(v >= 0 for v in d)
    assert all(_dot(row, d) >= 0 for row in lp.matrix)
    assert _dot(lp.objective, d) < 0


def _check_infeasible(lp):
    """Exact Farkas vector: y >= 0 with y.A <= 0 and y.b > 0, so no x >= 0 has Ax >= b."""
    m = lp.n_rows
    # auxiliary LP: max b.y  st  A^T y <= 0, sum(y) <= 1, y >= 0
    farkas_lp = LinearProgram("max_le", lp.rhs, _columns(lp.matrix) + ((F(1),) * m,),
                              (F(0),) * lp.n_vars + (F(1),))
    _, y = solve_simplex(farkas_lp)
    assert all(v >= 0 for v in y)
    assert all(_dot(col, y) <= 0 for col in _columns(lp.matrix))
    assert _dot(lp.rhs, y) > 0


class TestScipyOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_min_ge_matches_linprog(self, data):
        # Infeasible and unbounded verdicts are checked by exact certificates:
        # HiGHS's status there is not reliable (presolve can report an
        # unbounded LP as infeasible, status 2, or as status 4).  HiGHS stays
        # the oracle for optimal values, and must not claim an optimum where
        # the certificates rule one out.
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        c = _int_fracs(data.draw, n)
        A = tuple(_int_fracs(data.draw, n) for _ in range(m))
        b = _int_fracs(data.draw, m)
        lp = LinearProgram("min_ge", c, A, b)
        res = linprog(
            [float(v) for v in c],
            A_ub=[[-float(v) for v in row] for row in A],
            b_ub=[-float(v) for v in b],
            bounds=[(0, None)] * n,
            method="highs",
        )
        try:
            opt, x = solve_simplex(lp)
        except LPInfeasibleError:
            _check_infeasible(lp)
            assert res.status != 0
            return
        except LPUnboundedError:
            _check_unbounded(lp)
            assert res.status != 0
            return
        assert res.status == 0
        assert check_feasible(lp, x)
        assert abs(float(opt) - res.fun) < 1e-8


@st.composite
def small_lps(draw, size=4):
    """Small programs of both senses; zero entries and repeated rows make degenerate ones."""
    n = draw(st.integers(1, size))
    m = draw(st.integers(1, size))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    entry = st.one_of(st.just(F(0)), value)
    c = tuple(draw(entry) for _ in range(n))
    A = [tuple(draw(entry) for _ in range(n)) for _ in range(m)]
    b = [draw(entry) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        A[-1], b[-1] = A[0], b[0]
    return LinearProgram(draw(st.sampled_from(["min_ge", "max_le"])), c, tuple(A), tuple(b))


@st.composite
def programs_and_points(draw):
    """A program and a point x of ints, Fractions and floats, some negative; for
    half the programs each rhs is moved to A_i.x, or one step of 1/7 either side."""
    lp = draw(small_lps(5))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6),
                      st.floats(-3, 3, allow_nan=False))
    x = tuple(draw(entry) for _ in range(lp.n_vars))
    if draw(st.booleans()):
        x = tuple(abs(v) for v in x)
    if draw(st.booleans()):
        step = st.sampled_from([F(-1, 7), F(0), F(1, 7)])
        rhs = tuple(sum(F(a) * F(v) for a, v in zip(row, x)) + draw(step)
                    for row in lp.matrix)
        lp = LinearProgram(lp.sense, lp.objective, lp.matrix, rhs)
    return lp, x


def _outcome(solve, lp):
    try:
        return solve(lp)
    except (LPInfeasibleError, LPUnboundedError) as e:
        return type(e)


class TestFractionOracle:
    """The integer-tableau simplex against the same simplex run in Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(small_lps())
    @example(LinearProgram("min_ge", (F(1),), ((F(1),), (F(-1),)), (F(1), F(1))))  # infeasible
    @example(LinearProgram("min_ge", (F(-1),), ((F(1),),), (F(0),)))  # unbounded
    @example(LinearProgram("max_le", (F(1), F(1)), ((F(1), F(1)), (F(1), F(1))),
                           (F(0), F(0))))  # degenerate, a redundant row
    # ratio-test ties that Bland's rule breaks by basis index, not row order
    @example(LinearProgram("min_ge", (F(0),) * 3,
                           ((F(0), F(0), F(1, 2)), (F(-1, 2), F(0), F(1)),
                            (F(0), F(3), F(1)), (F(3), F(1), F(1))),
                           (F(0), F(0), F(0), F(3))))
    @example(build_primal(F(1, 102), F(1, 100)))
    @example(build_dual(build_primal(F(7, 100), F(1, 200))))
    def test_same_optimum_vertex_or_exception(self, lp):
        assert _outcome(solve_simplex, lp) == _outcome(solve_simplex_fractions, lp)

    @settings(max_examples=400, deadline=None)
    @given(programs_and_points())
    def test_integer_feasibility_check(self, case):
        lp, x = case
        assert check_feasible(lp, x) == check_feasible_fractions(lp, x)
        for check in (check_feasible, check_feasible_fractions):
            with pytest.raises(ValueError):
                check(lp, x + (0,))

    def test_sweep_rows(self, monkeypatch):
        rows = sweep_grid()
        monkeypatch.setattr(lp_bounds, "solve_simplex", solve_simplex_fractions)
        assert sweep_grid() == rows
