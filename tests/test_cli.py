"""Exit codes, report formats, and manifest determinism for the CLI."""

import collections
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twotor
from twotor import arithmetic
from twotor import cli
from twotor import census
from twotor import local_density
from twotor import lp_bounds

from oracles import census_records


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
        records, _ = census_records(100, use_family=False)
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

    def test_strong_pseudoprime_b_split(self, capsys):
        # b = 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
        code, doc = run_json(capsys, ["classify", "1129009934118", "318665857834031151167461"])
        assert code == 0
        assert [(row["p"], row["symbol"]) for row in doc["local"]][-2:] == [
            (399165290221, "I2"), (798330580441, "I2")]

    # |a^2 - 4b| >= 2^63: the lone factorizations take the Python-int trial division
    @pytest.mark.parametrize("a, b, local", [
        (10**10, 1, [(2, 10, 0, 2, 6, 6, "II", 6), (3, 0, 0, 1, 1, 1, "I1", 1),
                     (17, 0, 0, 1, 1, 1, "I1", 1), (14033, 0, 0, 1, 1, 1, "I1", 1),
                     (20959, 0, 0, 1, 1, 1, "I1", 1), (1666666667, 0, 0, 1, 1, 1, "I1", 1)]),
        (-3 * 10**12, 7 * 10**20 + 1, [
            (2, 12, 0, 2, 6, 6, "II", 6), (13, 0, 0, 1, 1, 1, "I1", 1),
            (881, 0, 0, 1, 1, 1, "I1", 1), (1709, 0, 1, 0, 2, 2, "I2", 1),
            (95482253, 0, 0, 1, 1, 1, "I1", 1), (2056863466711, 0, 0, 1, 1, 1, "I1", 1),
            (409596255119953189, 0, 1, 0, 2, 2, "I2", 1)]),
    ])
    def test_discriminant_past_2_63(self, a, b, local, capsys):
        assert abs(a * a - 4 * b) >= 2**63
        code, doc = run_json(capsys, ["classify", str(a), str(b)])
        assert code == 0
        header = ["p", "v_a", "v_b", "v_c", "v_disc", "v_disc_min",
                  "symbol", "conductor_exponent"]
        assert [tuple(row[k] for k in header) for row in doc["local"]] == local

    def test_singular_rejected(self, capsys):
        assert cli.main(["classify", "2", "1"]) == 2

    @pytest.mark.parametrize("patch, message", [
        # the singular point left where it was: a4 = 3125 is odd at p = 2
        ("cc._singular_point = lambda co, p, disc, c4: (0, 1)",
         "singular point not moved to the origin at p=2"),
        # I0* at 2 (v_2(Delta) = 8) with 20 components: f = 8 - 20 + 1 < 1
        ("cc.KodairaSymbol.components = lambda self: 20",
         "conductor exponent -11 out of range for I0* at p=2"),
    ])
    def test_tate_checks_fail_under_optimize(self, patch, message):
        # -O drops assert statements; Tate's internal checks must still run
        code = (f"import sys; from twotor import cli, curve_core as cc; {patch}; "
                f"sys.exit(cli.main(['classify', '150', '3125']))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert message in proc.stderr

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

    def test_csv_carries_the_anomaly_counts(self, tmp_path, capsys):
        # the # lines of a CSV report give the counts of the JSON report's anomalies
        argv = ["census", "--x", "1e4", "--order-by", "conductor", "--index-cap", "100"]
        out = tmp_path / "census.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        _, doc = run_json(capsys, argv)
        anomalies = doc["report"]["anomalies"]
        oracle = anomalies["predicate_oracle_2_3"]
        want = {"out_of_list_symbols": anomalies["out_of_list_symbols"],
                "index_cap_overflow": anomalies["index_cap_overflow"],
                "predicate_oracle_2_3.family_curves": oracle["family_curves"],
                "predicate_oracle_2_3.bad_at_2": oracle["bad_at_2"]}
        assert min(want.values()) > 0
        lines = out.read_text().splitlines()
        assert [f"# {k}: {v}" for k, v in want.items()] == [
            ln for ln in lines if ln.startswith("# ") and ln[2:].split(":")[0] in want]

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

    @pytest.mark.parametrize("argv, limit", [
        (["census", "--x", "1e16"], f"{10**15} of a census count"),
        (["census", "--x", "1e16", "--all-residues"], f"{10**15} of a census count"),
        (["census", "--x", "1e13", "--family", "cubefree"], f"{10**12} of a census sweep"),
    ])
    def test_limit_of_the_kind_asked_for(self, argv, limit, capsys, monkeypatch):
        # each kind exits 2 past its own limit, and names it, before any block
        monkeypatch.setattr(census, "_block_intervals", lambda *a: pytest.fail("ran"))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"beyond the limit {limit}" in captured.err

    def test_two_workers_give_the_same_report(self, capsys):
        # forked workers take the trial-division path for |b|, |a^2 - 4b| > 2^16
        _, one = run_json(capsys, ["census", "--x", "1e6", "--workers", "1"])
        code, two = run_json(capsys, ["census", "--x", "1e6", "--workers", "2"])
        assert code == 0 and one["report"]["total_curves"] > 0
        assert two["report"]["config"].pop("workers") == 2
        one["report"]["config"].pop("workers")
        assert two["report"] == one["report"]


class TestPinnedReports:
    """sha256 of each JSON report with its wall_time_s and version lines left
    out: a report of any kind that changes by one byte fails here."""

    @pytest.mark.parametrize("argv, digest", [
        (["census", "--x", "1e7"],
         "34c09625d42303d21b08ddc303384532587fa6111ffda00d02b910ce2fd6569f"),
        (["census", "--x", "1e6", "--family", "cubefree"],
         "cdc40c8c6ffd09b259dffacdc306c3f474ac6258d75a8938c7f812df52333541"),
        (["census", "--x", "1e6", "--family", "kappa", "--kappa", "2.2"],
         "fa0fc5d69620fc73a29b93f2d0fac8b2308e623ccc15b2f611ca6dbf2e210935"),
        (["census", "--x", "1e5", "--all-residues"],
         "87000bff7f88a9f77448ee2dbd1855b961dd4656fafd01f2f3947baf0e76f489"),
        (["tails", "szpiro", "--grid", "1e4,3e4"],
         "0e98c2f2fb27d58db3bf89640b81e669a7ba03e4e07b55a1cb69e9720bb5a601"),
        (["tails", "index", "--grid", "1e4,1e5"],
         "e365060de2af3dc76864895d37b808937e1bb367a1a693b0dc0beff90d2fc90b"),
        (["classify", "150", "3125"],  # I0*, I2, II and I1 rows
         "13ad0517145419601d2f1a7129e4c2501e6ac05663c5b1f4705ba520960cc6da"),
        (["lp", "--delta", "1/102", "--r", "1/100"],
         "467a3cfe44a9441612244075793841b526a72acfe2f8d3d8f119de5f54552b1f"),
        (["euler", "--family", "cubefree", "--tol", "0.01"],
         "2b54ad11be236ea6f2c47f0453fb8dbc8aa0ce69c5a8aa0eaa80516cb71aa016"),
        (["local-density", "--p", "7", "--class", "I0*", "--check"],
         "2a2d2abd22bb2b7ce1b1a7e32e86d2ad96dea8f92be7dcc5ba41bfbc5d6a94d6"),
        (["real-density", "--method", "mc", "--z", "1e6", "--samples", "10000", "--seed", "7"],
         "da10249f4aff01ff360706203cc3a40af9323cf04599bee855247948656502d0"),
        (["lp", "--sweep"],
         "505cdc96739f6718a45b87c61f9cb49f684e6f0e17bcd504d5ea19b6a872f06d"),
        # |b| = 2^52 - 1219986 = 2 * 5 * 47491 * 97381^2: float trial division
        (["classify", "30", "-4503599626150510"],
         "3b1d5cdbd6798bd55cca3eb097a2acd6b2d3cb28157a63e02c174885a9000f09"),
        # |b| = 2^52 + 9932099 = 3 * 5 * 33797 * 94253^2: the int64 remainder
        (["classify", "30", "4503599637302595"],
         "980dbb7433966508283b5a74d78a06ab5d3623c177622be2c246b87058ceacfb"),
        # |b|, |c| in [2^52, 2^63): III* at 2, I8* at 3, I1* at 5
        (["classify", "420", "576460752307977600"],
         "c7525f9353a1c458bc766c682da67142426155e4cf7b66df6b49fe8a47b0473b"),
        # the conductor columns of the CondPoly family, by conductor
        (["census", "--x", "1e6", "--order-by", "conductor"],
         "b8bc6c281a1461054acf4c9dc633f4d94a1e1e62eae71ac0207857069e057630"),
    ])
    def test_report_digest(self, capsys, argv, digest):
        assert cli.main(argv) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if not ln.lstrip().startswith(('"wall_time_s":', '"version":'))]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_default_census_profiles_no_conductor(self, capsys, monkeypatch):
        # CondPoly counted by |cond poly| reads no conductor column, so its
        # sweep neither profiles nor deduplicates |b| and |a^2 - 4b|
        for module, name in ((arithmetic, "prime_to_6_profile"), (census.np, "unique")):
            monkeypatch.setattr(module, name, lambda *a, _name=name, **k: pytest.fail(
                f"{_name} called"))
        self.test_report_digest(
            capsys, ["census", "--x", "1e7"],
            "34c09625d42303d21b08ddc303384532587fa6111ffda00d02b910ce2fd6569f")


def stdlib_report_text(obj) -> str:
    """The reference the report writer must match byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True, default=cli._encode)


def written(obj) -> str:
    chunks = []
    cli._write(obj, chunks.append, "\n")
    return "".join(chunks)


Point = collections.namedtuple("Point", "x y")
_FLOATS = st.floats() | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf])
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\n\t\x1f\x7f", "caf\u00e9", "\u65e5\u672c",
                                     "\U0001f600", "\ud800"])
_LEAVES = (
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
    | st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.fractions()
    | st.just(cli.RunManifest("lp", {"delta": "1/3", "sweep": False}, None, 0.25, "0",
                              {"config_sha256": "0"}))
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | _FLOATS.map(np.float64)
    | st.booleans().map(np.bool_)
)


def _containers(children):
    def keyed(keys):
        return st.dictionaries(keys, children, max_size=4)

    # the keys of one dict must sort against each other, as json sorts them
    dicts = keyed(_TEXT) | keyed(st.integers() | _FLOATS | st.booleans()) | keyed(st.none())
    items = st.lists(children, max_size=4)
    return (items | items.map(tuple) | dicts | dicts.map(collections.OrderedDict)
            | st.builds(Point, children, children))


class TestReportWriter:
    """``cli._write`` gives the bytes of json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=400, deadline=None)
    @given(st.recursive(_LEAVES, _containers, max_leaves=30))
    def test_matches_stdlib_indent_encoder(self, obj):
        assert written(obj) == stdlib_report_text(obj)

    @pytest.mark.parametrize("obj, error", [
        ({"n": [10**4999]}, ValueError),  # past Python's int-to-str digit limit
        ({10**4999: 1}, ValueError),
        ({(1, 2): 1}, TypeError),
    ])
    def test_raises_as_stdlib(self, obj, error):
        with pytest.raises(error) as stdlib:
            stdlib_report_text(obj)
        with pytest.raises(error) as ours:
            written(obj)
        assert str(ours.value) == str(stdlib.value)

    @pytest.mark.parametrize("argv", [["census", "--x", "1e4"], ["classify", "150", "3125"]])
    def test_emit_leaves_no_reference_cycle(self, argv):
        # a cycle would keep each report's pieces alive until the cyclic GC runs
        args = cli.build_parser().parse_args(argv)
        scalars, header, rows, payload = args.func(args)
        manifest = cli._build_manifest(args, 0.0)
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                cli._emit(None, manifest, scalars, header, rows, payload)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert out.getvalue() == stdlib_report_text({"manifest": manifest, **payload}) + "\n"


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

    def test_mc_negative_seed_names_the_seed(self, capsys):
        assert cli.main(["real-density", "--method", "mc", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "twotor: config error: seed must be a non-negative integer, got -1\n")


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

    @pytest.mark.parametrize("delta, r", [("0", "0"), ("1/102", "1/100"), ("49/100", "1/200")])
    def test_single_point_is_the_sweep_row(self, capsys, delta, r):
        code, doc = run_json(capsys, ["lp", "--delta", delta, "--r", r])
        assert code == 0
        (row,) = doc["rows"]
        decoded = [Fraction(v["num"], v["den"]) if isinstance(v, dict) else v
                   for v in row.values()]
        header = ["delta", "r", "certificate", "simplex", "match"]
        assert dict(zip(row, decoded)) == dict(
            zip(header, lp_bounds.sweep_grid([Fraction(delta)], [Fraction(r)])[0]))

    @pytest.mark.parametrize("patch", [
        "lp_bounds.certificate_dual = lambda: (0, 100, 0, 0, 0)",
        "lp_bounds.certificate_primal = lambda d, r: (0,) * 9",
    ])
    @pytest.mark.parametrize("argv", [["lp", "--sweep"], ["lp", "--delta", "0", "--r", "0"]])
    def test_infeasible_certificate_fails_under_optimize(self, patch, argv):
        # -O drops assert statements; the certificate checks must still run
        code = (f"import sys; from twotor import cli, lp_bounds; {patch}; "
                f"sys.exit(cli.main({argv!r}))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 3 and proc.stdout == ""
        assert "certificate is infeasible" in proc.stderr

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
        ["local-density", "--p", "5", "--class", "semistable", "--k", "7000"],
        ["lp", "--r", "1e5000"],
    ])
    def test_unprintable_report(self, argv, capsys):
        # Python refuses to print an int of more than 4300 digits
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "config error: cannot print the report" in captured.err

    @pytest.mark.parametrize("argv", [
        ["local-density", "--p", "5", "--class", "semistable", "--k", str(10**9)],
        ["local-density", "--p", "5", "--class", "semistable", "--k", "3",
         "--m", str(10**9), "--check"],
    ])
    def test_huge_powers_rejected_before_forming_them(self, argv):
        # a subprocess with a timeout: p^k or p^(2m) here would not finish
        proc = subprocess.run([sys.executable, "-m", "twotor.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "config error" in proc.stderr and "Traceback" not in proc.stderr

    def test_rho_budget_exhausted(self):
        # b = (10^20 + 39)(3 10^20 + 53): two 21-digit primes, far past the
        # budget; a subprocess with a timeout, as an unbounded rho would not finish
        proc = subprocess.run(
            [sys.executable, "-m", "twotor.cli", "classify", "1",
             "30000000000000000017000000000000000002067"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Pollard rho found no factor" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["tails", "index", "--grid", "1e3"],
        ["tails", "szpiro", "--grid", "1e3"],
        ["tails", "szpiro", "--grid", "1e3", "--theta", "1", "--kappa", "2"],
        ["census", "--x", "1e3"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-4", "x"])
    def test_bad_workers(self, argv, workers, monkeypatch, capsys):
        monkeypatch.setattr(census, "_block_records",
                            lambda *a, **k: pytest.fail("swept before --workers was checked"))
        assert cli.main(argv + ["--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "workers" in captured.err
        assert "Traceback" not in captured.err

    def test_import_leaves_mpmath_precision(self):
        code = ("import mpmath; mpmath.mp.dps = 23; import twotor.cli; "
                "print(mpmath.mp.dps)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout.strip() == "23"

    def test_import_loads_no_process_pool(self):
        # the pool is imported where a census asks for workers > 1; the zeta
        # tails and the Gamma(1/4) constants are tables and literals, and the
        # version is the package's own string
        denied = ("mpmath", "importlib.metadata", "concurrent.futures.process",
                  "multiprocessing",
                  "csv")  # imported where a report is written as CSV
        code = (f"import sys, twotor.cli; "
                f"print([m for m in {denied!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["tails", "index", "--x", "0"],
        ["tails", "index", "--grid", "0,10"],
        ["tails", "szpiro", "--x", "inf"],
        ["census", "--x", "inf"],
        ["census", "--x", "100", "--grid", "0,100"],
        ["census", "--x", "1000.9"],
        ["census", "--x", "1000", "--grid", "100.5,1000"],
        ["census", "--x", "1e999999999"],
        ["tails", "index", "--x", "1000.5"],
        ["tails", "szpiro", "--grid", "1000,2999.9"],
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

    def test_csv_cells_print_numpy_floats_as_numbers(self, tmp_path):
        out = tmp_path / "x.csv"
        manifest = cli.RunManifest("census", {}, None, 0.0, twotor.__version__,
                                   {"config_sha256": "0"})
        cli._emit(str(out), manifest, {"share": np.float64(0.1)}, ["x", "y"],
                  [[np.float64(0.1), Fraction(1, 3)]], {})
        lines = out.read_text().splitlines()
        assert "# share: 0.1" in lines
        assert lines[-2:] == ["x,y", "0.1,1/3"]

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
            assert doc["manifest"]["version"] == twotor.__version__

    def test_console_script(self, capsys):
        if shutil.which("twotor") is not None:  # an installed tree: the script itself
            proc = subprocess.run(["twotor", "lp", "--delta", "0", "--r", "0"],
                                  capture_output=True, text=True)
            assert proc.returncode == 0
            assert json.loads(proc.stdout)["rows"][0]["match"] is True
        if tomllib is None:
            pytest.skip("tomllib needs Python 3.11")
        # the entry pyproject.toml installs, resolved and called in this process
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["twotor"]
        assert entry == "twotor.cli:main"
        module, attr = entry.split(":")
        main = getattr(importlib.import_module(module), attr)
        assert main(["lp", "--delta", "0", "--r", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["match"] is True

    def test_one_version_string(self):
        if tomllib is None:
            pytest.skip("tomllib needs Python 3.11")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        project = config["project"]
        assert project["dynamic"] == ["version"] and "version" not in project
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "twotor.__version__"}
        assert cli._VERSION is twotor.__version__
        # no module of the package imports mpmath; the tests do
        assert not any(d.startswith("mpmath") for d in project["dependencies"])
        assert any(d.startswith("mpmath") for d in project["optional-dependencies"]["test"])

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twotor.cli", "classify", "5", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["invariants"]["delta"] == 2000


def _fresh_process(argv, env):
    """(exit code, stdout, stderr) of argv run by ``python -m twotor.cli``."""
    proc = subprocess.run([sys.executable, "-m", "twotor.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    """One parser serves every main() call of a process; no call leaks into the next."""

    @pytest.fixture
    def env(self, monkeypatch):
        # the help and usage width, the same in this process and a fresh one
        monkeypatch.setenv("COLUMNS", "80")
        return {**os.environ, "COLUMNS": "80"}

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert cli.main(["classify", "1", "-2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = json.loads(out.read_text())
        out.unlink()
        code, doc = run_json(capsys, ["classify", "1", "-2"])
        assert code == 0 and not out.exists()
        assert doc["manifest"]["config"] == written["manifest"]["config"]
        assert doc["invariants"] == written["invariants"]

    def test_parse_error_then_good_call(self, env, capsys):
        bad, good = ["classify", "1"], ["lp", "--delta", "1/102", "--r", "1/100"]
        assert cli.main(bad) == 2
        err = capsys.readouterr().err
        assert cli.main(good) == 0
        captured = capsys.readouterr()
        assert (2, "", err) == _fresh_process(bad, env)
        code, out, fresh_err = _fresh_process(good, env)
        assert code == 0 and captured.err == fresh_err == ""
        assert strip_volatile(captured.out) == strip_volatile(out)

    def test_defaults_per_call(self, env, capsys):
        code, point = run_json(capsys, ["lp", "--delta", "1/10"])
        assert code == 0 and len(point["rows"]) == 1
        assert cli.main(["lp", "--sweep"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert len(doc["rows"]) == 44
        assert doc["rows"][0]["delta"] == {"num": 0, "den": 1}
        code, fresh, _ = _fresh_process(["lp", "--sweep"], env)
        assert code == 0 and strip_volatile(out) == strip_volatile(fresh)


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
_FRACTION = _word(st.one_of(
    st.fractions(-1, 1, max_denominator=200).map(str),
    # exponent form: 1e5000 or 3e-4400 is a fraction too long to print
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-6000, 6000))))
_WORKERS = _ints(-2, 2)  # small: never a large pool

_ARGV = st.one_of(
    _argv(st.just(["classify"]), _one(_ints(-10**6, 10**6)), _one(_ints(-10**6, 10**6))),
    _argv(st.just(["lp"]), _opt("--delta", _FRACTION), _opt("--r", _FRACTION)),
    _argv(st.just(["local-density"]), _opt("--p", _ints(-3, 60)),
          _opt("--class", st.sampled_from(["Good", "III", "I0*", "III*", "semistable", "II"])),
          _opt("--k", st.one_of(_ints(-2, 30), _ints(-2, 10**9)))),
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
          _opt("--index-cap", _ints(-1, 100)), _opt("--grid", _GRID),
          _opt("--workers", _WORKERS)),
    _argv(st.just(["tails"]), _one(st.sampled_from(["index", "szpiro", "bogus"])),
          _opt("--x", _ints(-5, 1000)), _opt("--grid", _GRID),
          _opt("--delta", _floats(-1, 1)), _opt("--theta", _floats(-1, 2)),
          _opt("--kappa", _floats(0, 3)), _opt("--workers", _WORKERS)),
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
