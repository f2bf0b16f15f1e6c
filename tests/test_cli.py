"""Exit codes, report formats, and manifest determinism for the CLI."""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotor import arithmetic
from twotor import cli
from twotor import census
from twotor import local_density


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def strip_volatile(text: str) -> str:
    lines = []
    for ln in text.splitlines():
        if ln.startswith("# wall_time_s:") or '"wall_time_s"' in ln:
            continue
        lines.append(ln)
    return "\n".join(lines)


def _trial_factors(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return tuple(out + [(n, 1)] * (n > 1))


class TestClassify:
    def test_five_five_invariants(self, capsys):
        code, doc = run_json(capsys, ["classify", "5", "5"])
        assert code == 0
        assert doc["invariants"]["delta"] == 2000
        assert doc["invariants"]["cond_poly"] == 25
        at5 = [row for row in doc["local"] if row["p"] == 5]
        assert at5 and at5[0]["symbol"] == "III"

    def test_nonminimal_input_reduced(self, capsys):
        code, doc = run_json(capsys, ["classify", "150", "3125"])
        assert code == 0
        assert (doc["invariants"]["minimal_a"], doc["invariants"]["minimal_b"]) == (6, 5)

    @pytest.mark.parametrize("a, b", [(1, -2), (0, -1)])
    def test_bad_only_at_2_and_3(self, a, b, capsys):
        # the prime-to-6 conductor is 1, so the Szpiro ratios are undefined
        code, doc = run_json(capsys, ["classify", str(a), str(b)])
        assert code == 0
        assert doc["invariants"]["conductor"] > 1
        assert "szpiro_ratio" not in doc["invariants"]
        assert "avg_szpiro" not in doc["invariants"]

    @pytest.mark.parametrize("a, b", [(1, -2), (9, 20)])
    def test_index_is_prime_to_6(self, a, b, capsys):
        # |cond poly| = 18 and 20; the prime-to-6 index, as census records it, is 1
        records, _ = census._census_records(100, use_family=False)
        assert (a, b, 1) in {(r[0], r[1], r[4]) for r in records}
        code, doc = run_json(capsys, ["classify", str(a), str(b)])
        assert code == 0
        assert doc["invariants"]["index_prime_to_6"] == 1

    def test_two_factorizations(self, monkeypatch, capsys):
        calls = []
        factorize = arithmetic.factorize
        monkeypatch.setattr(arithmetic, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        code, doc = run_json(capsys, ["classify", "123457", "98765432101"])
        assert code == 0 and "avg_szpiro" in doc["invariants"]
        assert len(calls) <= 2, calls

    def test_lone_factorization_leaves_the_sieve(self, monkeypatch, capsys):
        # |b| = 5e7 and a^2 - 4b = 2e8 + 1 lie past the table: trial division,
        # not a table of 5e7 entries
        monkeypatch.setattr(arithmetic, "_sieve", arithmetic._SpfSieve())
        start = arithmetic._sieve.limit
        code, doc = run_json(capsys, ["classify", "1", "-50000000"])
        assert code == 0 and arithmetic._sieve.limit == start
        assert [row["p"] for row in doc["local"]] == [2, 3, 5, 66666667]
        assert arithmetic.factorize(-50000000).factors == ((2, 7), (5, 8))
        assert arithmetic.factorize(200000001).factors == _trial_factors(200000001)
        assert arithmetic._sieve.limit == start

    def test_singular_rejected(self, capsys):
        assert cli.main(["classify", "2", "1"]) == 2

    def test_csv_table(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert cli.main(["classify", "5", "5", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# subcommand: classify" in text
        assert "# config_sha256: " in text
        header = [ln for ln in text.splitlines() if not ln.startswith("#")][0]
        assert header.split(",")[:2] == ["p", "v_a"]
        assert any(ln.startswith("5,") and ",III," in ln for ln in text.splitlines())


class TestCensusCommand:
    def test_csv_rows_match_library(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        code = cli.main(["census", "--x", "10000", "--family", "condpoly",
                         "--order-by", "condpoly", "--out", str(out)])
        assert code == 0
        report = census.run_census(census.CensusConfig(X=10000))
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("X,")]
        assert [int(r[0]) for r in rows] == list(report.cutoffs)
        assert [int(r[1]) for r in rows] == list(report.counts)

    def test_json_includes_anomalies(self, capsys):
        code, doc = run_json(capsys, ["census", "--x", "1000"])
        assert code == 0
        assert "out_of_list_symbols" in doc["report"]["anomalies"]
        assert doc["report"]["config"]["family"] == "CondPoly"

    def test_grid_flag(self, capsys):
        code, doc = run_json(capsys, ["census", "--x", "1e3", "--grid", "1e2,1e3"])
        assert code == 0
        assert doc["report"]["cutoffs"] == [100, 1000]

    @pytest.mark.parametrize("argv", [
        ["census", "--x", "0"],
        ["census", "--x", "100", "--kappa", "2"],
        ["census", "--x", "100", "--grid", "10,abc"],
        ["census", "--x", "100", "--workers", "0"],
    ])
    def test_config_errors(self, argv, capsys):
        assert cli.main(argv) == 2

    def test_two_workers_give_the_same_report(self, capsys):
        # forked workers take the trial-division path for |b|, |a^2 - 4b| > 2^16
        _, one = run_json(capsys, ["census", "--x", "1e6", "--workers", "1"])
        code, two = run_json(capsys, ["census", "--x", "1e6", "--workers", "2"])
        assert code == 0 and one["report"]["total_curves"] > 0
        assert two["report"]["config"].pop("workers") == 2
        one["report"]["config"].pop("workers")
        assert two["report"] == one["report"]


class TestLocalDensityCommand:
    def test_check_agrees(self, capsys):
        code, doc = run_json(capsys, ["local-density", "--p", "7",
                                      "--class", "I0*", "--check"])
        assert code == 0
        assert doc["density"]["match"] is True
        assert doc["density"]["density"] == {"num": 6, "den": 2401}

    def test_semistable_needs_k(self, capsys):
        assert cli.main(["local-density", "--p", "5", "--class", "semistable"]) == 2
        code, doc = run_json(capsys, ["local-density", "--p", "5",
                                      "--class", "semistable", "--k", "2", "--check"])
        assert code == 0
        assert doc["density"]["density"] == {"num": 32, "den": 625}

    def test_grid_below_the_class_minimum_is_exit_2(self, capsys):
        for m in ("0", "1", "-1"):
            assert cli.main(["local-density", "--p", "5", "--class", "III",
                             "--check", "--m", m]) == 2
        code, doc = run_json(capsys, ["local-density", "--p", "5", "--class", "III",
                                      "--check", "--m", "3"])
        assert code == 0
        assert doc["density"]["match"] is True

    def test_forced_mismatch_is_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.local_density, "density_empirical",
                            lambda *a, **k: Fraction(1, 2))
        assert cli.main(["local-density", "--p", "5", "--class", "III",
                         "--check"]) == 3


class TestRealDensityCommand:
    def test_closed_value(self, capsys):
        code, doc = run_json(capsys, ["real-density", "--method", "closed", "--z", "1"])
        assert code == 0
        assert doc["area"]["value"] == pytest.approx(11.936352617582644)

    def test_quad_matches_closed(self, capsys):
        code, doc = run_json(capsys, ["real-density", "--method", "quad",
                                      "--z", "1", "--tol", "1e-9"])
        assert code == 0
        assert doc["area"]["value"] == pytest.approx(11.936352617582644, rel=1e-7)

    def test_unreachable_quad_tolerance(self, capsys):
        assert cli.main(["real-density", "--method", "quad", "--tol", "1e-300"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_mc_deterministic(self, capsys):
        argv = ["real-density", "--method", "mc", "--z", "100",
                "--samples", "20000", "--seed", "5"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        assert doc1["area"] == doc2["area"]


class TestLpCommand:
    def test_single_point_rationals(self, capsys):
        code, doc = run_json(capsys, ["lp", "--delta", "1/102", "--r", "1/100"])
        assert code == 0
        row = doc["rows"][0]
        assert row["certificate"] == {"num": 2551, "den": 1700}
        assert row["simplex"] == row["certificate"]
        assert row["match"] is True

    def test_origin_is_three_halves(self, capsys):
        code, doc = run_json(capsys, ["lp", "--delta", "0", "--r", "0"])
        assert code == 0
        assert doc["rows"][0]["certificate"] == {"num": 3, "den": 2}

    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert cli.main(["lp", "--sweep", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "delta,r,certificate,simplex,match"
        assert len(lines) == 1 + 44
        assert all(ln.endswith(",True") for ln in lines[1:])

    def test_bad_fraction_rejected(self, capsys):
        assert cli.main(["lp", "--delta", "zero"]) == 2
        assert cli.main(["lp", "--delta", "1/2"]) == 2  # outside [0, 1/2)


class TestTailsCommand:
    def test_index_grid(self, capsys):
        code, doc = run_json(capsys, ["tails", "index", "--grid", "1e2,1e3"])
        assert code == 0
        assert [row["X"] for row in doc["tails"]] == [100, 1000]
        assert all(row["count"] >= 0 for row in doc["tails"])

    def test_szpiro_single(self, capsys):
        code, doc = run_json(capsys, ["tails", "szpiro", "--x", "1e3",
                                      "--theta", "0.25", "--kappa", "2.2"])
        assert code == 0
        assert doc["tails"][0]["params"] == "theta=0.25;kappa=2.2"

    def test_bad_theta(self, capsys):
        assert cli.main(["tails", "szpiro", "--x", "100", "--theta", "-1"]) == 2


class TestEulerCommand:
    def test_condpoly_constant(self, capsys):
        code, doc = run_json(capsys, ["euler", "--family", "condpoly",
                                      "--tol", "1e-8"])
        assert code == 0
        assert doc["euler"]["mt1_constant"] == pytest.approx(0.2637393, abs=1e-5)
        assert doc["euler"]["euler_product"] == pytest.approx(
            doc["euler"]["dirichlet_index_sum"], abs=1e-7)

    def test_default_tolerance(self, capsys):
        code, doc = run_json(capsys, ["euler"])
        assert code == 0
        assert doc["euler"]["family"] == "CondPoly"
        assert doc["euler"]["tol"] == local_density.DEFAULT_TOL
        assert doc["euler"]["mt1_constant"] == pytest.approx(0.2637393, abs=1e-6)

    def test_unreachable_tolerance(self, capsys):
        for family in ("condpoly", "cubefree", "kappa"):
            code, doc = run_json(capsys, ["euler", "--family", family, "--tol", "1e-12"])
            assert code == 0
            assert doc["euler"]["product_cutoff"] <= 10**4
            assert cli.main(["euler", "--family", family, "--tol", "1e-20"]) == 2

    def test_constant_is_prefactor_times_product(self, capsys):
        code, doc = run_json(capsys, ["euler", "--family", "kappa"])
        assert code == 0
        row = doc["euler"]
        assert row["tol"] == 1e-12
        assert row["mt1_constant"] == local_density.mt1_constant("Kappa")
        assert row["dirichlet_index_sum"] == pytest.approx(row["euler_product"], rel=1e-14)


class TestPlumbing:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_bad_out_extension(self, capsys):
        assert cli.main(["classify", "5", "5", "--out", "/tmp/x.txt"]) == 2

    def test_bad_out_extension_before_any_work(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(census, "run_census",
                            lambda *a, **k: pytest.fail("census ran before --out was checked"))
        assert cli.main(["census", "--x", "1e3", "--out", str(tmp_path / "x.txt")]) == 2
        assert "must end in .csv or .json" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("name", ["missing/x.json", "missing/x.csv", "d.json"])
    def test_unwritable_out(self, name, tmp_path, capsys):
        (tmp_path / "d.json").mkdir()
        assert cli.main(["classify", "5", "5", "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert "config error: cannot write" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["tails", "index", "--x", "0"],
        ["tails", "index", "--grid", "0,10"],
        ["tails", "szpiro", "--x", "inf"],
        ["census", "--x", "inf"],
        ["census", "--x", "100", "--grid", "0,100"],
    ])
    def test_bad_bounds(self, argv, capsys):
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("argv", [
        ["euler", "--tol"],
        ["census", "--x", "100", "--euler-tol"],
        ["census", "--x", "100", "--family", "kappa", "--kappa"],
        ["tails", "szpiro", "--x", "1e3", "--theta"],
        ["tails", "szpiro", "--x", "1e3", "--kappa"],
        ["tails", "index", "--x", "1e3", "--delta"],
        ["real-density", "--z"],
        ["real-density", "--method", "quad", "--tol"],
    ])
    def test_non_finite_floats_rejected(self, argv, bad, capsys):
        assert cli.main(argv + [bad]) == 2
        assert capsys.readouterr().out == ""

    def test_reports_byte_identical_modulo_wall_time(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["census", "--x", "1000", "--grid", "1e2,1e3"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert strip_volatile(a.read_text()) == strip_volatile(b.read_text())
        assert a.read_text() != ""

    def test_config_hash_tracks_args(self, capsys):
        _, d1 = run_json(capsys, ["lp", "--delta", "0", "--r", "0"])
        _, d2 = run_json(capsys, ["lp", "--delta", "0", "--r", "0"])
        _, d3 = run_json(capsys, ["lp", "--delta", "1/100", "--r", "0"])
        h = lambda d: d["manifest"]["input_hashes"]["config_sha256"]
        assert h(d1) == h(d2) != h(d3)

    def test_manifest_embedded_everywhere(self, capsys):
        for argv in (["classify", "5", "5"], ["lp", "--delta", "0", "--r", "0"]):
            _, doc = run_json(capsys, argv)
            assert doc["manifest"]["subcommand"] == argv[0]
            assert doc["manifest"]["version"]

    @pytest.mark.skipif(shutil.which("twotor") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["twotor", "lp", "--delta", "0", "--r", "0"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rows"][0]["match"] is True

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twotor.cli", "classify", "5", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["invariants"]["delta"] == 2000


# ---------------------------------------------------------------------------
# argv fuzzing: every run ends in a documented exit code, never a traceback.
# ---------------------------------------------------------------------------

_BAD_WORDS = st.sampled_from(
    ["", "abc", "1e", "0x1f", "nan", "inf", "-inf", "1e400", "--", "1/0", "-0", "--bogus"])


def _word(good):
    return st.one_of(good, _BAD_WORDS)


def _ints(lo, hi):
    return _word(st.integers(lo, hi).map(str))


def _floats(lo, hi):
    return _word(st.floats(lo, hi).map(repr))


def _opt(flag, value):
    """Either nothing or [flag, value]."""
    return st.one_of(st.just([]), value.map(lambda v: [flag, v]))


def _argv(*parts):
    """Concatenate word lists drawn from each part."""
    return st.tuples(*parts).map(lambda ps: [w for p in ps for w in p])


def _one(words):
    return words.map(lambda w: [w])


@st.composite
def _local_density_check(draw):
    """local-density --check.  It scans p^(2m) residue pairs for a semistable
    class and p^m residues for the others, m defaulting to the class's
    minimum (k + 1 for semistable); m is capped so a scan stays <= 1e7 cells."""
    p = draw(st.one_of(st.sampled_from([5, 7, 11, 13]), st.sampled_from([-3, 0, 1, 2, 3, 9])))
    cls = draw(st.sampled_from(["Good", "III", "I0*", "III*", "semistable"]))
    span = 2 if cls == "semistable" else 1
    top = 1
    while top < 8 and abs(p) ** (span * (top + 1)) <= 10**7:
        top += 1
    # mostly give k exactly when the class takes one
    k = draw(st.integers(-2, top - 1))
    with_k = (cls == "semistable") == draw(st.sampled_from([True, True, True, False]))
    return draw(_argv(
        st.just(["local-density", "--check", "--class", cls, "--p", str(p)]),
        st.just(["--k", str(k)] if with_k else []), _opt("--m", _ints(-1, top))))


_GRID = _word(st.lists(st.integers(-2, 1000), min_size=1, max_size=3).map(
    lambda xs: ",".join(map(str, xs))))
_FRACTION = _word(st.fractions(-1, 1, max_denominator=200).map(str))

_ARGV = st.one_of(
    _argv(st.just(["classify"]), _one(_ints(-10**6, 10**6)), _one(_ints(-10**6, 10**6))),
    _argv(st.just(["lp"]), _opt("--delta", _FRACTION), _opt("--r", _FRACTION)),
    _argv(st.just(["local-density"]), _opt("--p", _ints(-3, 60)),
          _opt("--class", st.sampled_from(["Good", "III", "I0*", "III*", "semistable", "II"])),
          _opt("--k", _ints(-2, 30))),
    _local_density_check(),
    _argv(st.just(["real-density", "--method", "closed"]), _opt("--z", _floats(-10, 1e12))),
    _argv(st.just(["real-density", "--method", "quad"]), _opt("--z", _floats(-10, 1.7e308)),
          _opt("--tol", _floats(1e-300, 1))),
    _argv(st.just(["real-density", "--method", "mc", "--samples"]), _one(_ints(10**3, 10**4)),
          _opt("--z", _floats(-10, 1.7e308)), _opt("--seed", _ints(-2, 2**40))),
    _argv(st.just(["census"]), _opt("--x", _ints(-5, 1000)),
          _opt("--family", st.sampled_from(["condpoly", "cubefree", "kappa", "Kappa", "x"])),
          _opt("--kappa", _floats(0, 3)),
          _opt("--order-by", st.sampled_from(["condpoly", "conductor", "height"])),
          _opt("--index-cap", _ints(-1, 100)), _opt("--grid", _GRID)),
    _argv(st.just(["tails"]), _one(st.sampled_from(["index", "szpiro", "bogus"])),
          _opt("--x", _ints(-5, 1000)), _opt("--grid", _GRID),
          _opt("--delta", _floats(-1, 1)), _opt("--theta", _floats(-1, 2)),
          _opt("--kappa", _floats(0, 3))),
    _argv(st.just(["euler"]),
          _opt("--family", st.sampled_from(["condpoly", "cubefree", "kappa", "Kappa", "x"])),
          _opt("--tol", _word(st.one_of(st.floats(1e-12, 0.5), st.sampled_from(
              [math.nan, math.inf, -math.inf])).map(repr)))),
    st.lists(st.sampled_from(["classify", "census", "lp", "tails", "5", "-x", "--help"]),
             max_size=4),
)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(_ARGV)
@settings(max_examples=250, deadline=None)
def test_argv_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and "--help" not in argv:
        json.loads(out.getvalue(), parse_constant=_no_constant)


_OUT_KINDS = st.sampled_from(["x.json", "x.csv", "x.txt", "missing/x.json", "missing/x.csv"])


@given(_ARGV, _OUT_KINDS)
@settings(max_examples=250, deadline=None)
def test_argv_fuzz_out_exit_codes(argv, name):
    # a fresh directory per example: hypothesis cannot reuse function-scoped fixtures
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", str(path)])
        assert code in (0, 2, 3), (argv, name, code)
        assert "Traceback" not in err.getvalue(), (argv, name)
        if code == 0 and "--help" not in argv:
            assert out.getvalue() == "" and name in ("x.json", "x.csv"), (argv, name)
            text = path.read_text()
            if name == "x.json":
                json.loads(text, parse_constant=_no_constant)
            else:
                assert text.startswith("# subcommand:"), (argv, text[:80])
