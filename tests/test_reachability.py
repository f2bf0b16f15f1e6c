"""Every function in src/twotor is entered by a CLI call, or is allow-listed.

A child interpreter turns on ``sys.setprofile`` before it imports
``twotor.cli``, so code that runs at import counts, and then runs a fixed
list of ``cli.main`` calls: every subcommand, every option, every
local-density class and the exit-2 paths.  Each ``def`` in the package,
nested ones included, is found by an ``ast`` walk and must have been entered.
A function no CLI call reaches belongs in tests/ (tests/oracles.py,
tests/uniformity.py) or nowhere; the allow-list below is the exception, one
reason per entry.
"""

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import twotor
from conftest import acceptance_line

PACKAGE = Path(twotor.__file__).resolve().parent

# "module.qualname": why it stays although no CLI call enters it.
ALLOWED = {
    "curve_core.kodaira_symbol_large_p":
        "perfbench/tracer.py reads its call count (kodaira_large_p_calls)",
    "curve_core.avg_szpiro":
        "perfbench/tracer.py reads its call count; perfbench/selftest.py wraps it",
    "real_density.truncated_area_quadrature":
        "perfbench/record_refs.py records the truncated area with it",
    "real_density.truncated_area_quadrature.in_x":
        "the integrand of truncated_area_quadrature",
    "real_density._overlap": "a helper of truncated_area_quadrature",
    "real_density._slice_parts": "a helper of truncated_area_quadrature",
    "real_density._truncated_edges": "a helper of truncated_area_quadrature",
    "arithmetic._SpfSieve.limit": "perfbench/record_refs.py and perfbench/tracer.py read it",
}

# (argv, expected exit code); "{tmp}" is a scratch directory.
CALLS = [
    (["classify", "5", "5"], 0),
    (["classify", "150", "3125", "--out", "{tmp}/classify.csv"], 0),
    (["classify", "6", "1"], 0),
    (["classify", "1", "10002200057"], 0),  # 100003 * 100019: Pollard rho
    (["classify", "123457", "98765432101", "--out", "{tmp}/classify.json"], 0),
    (["census", "--x", "1e4"], 0),
    (["census", "--x", "1e4", "--family", "cubefree", "--grid", "1e3,1e4",
      "--euler-tol", "1e-6", "--out", "{tmp}/census.csv"], 0),
    (["census", "--x", "1e3", "--family", "Kappa", "--kappa", "2.2",
      "--order-by", "conductor", "--index-cap", "100"], 0),
    # CubeFree reads the conductor columns, whose profile peels values past the SPF table
    (["census", "--x", "1e5", "--all-residues", "--family", "cubefree"], 0),
    (["census", "--x", "1000.5"], 2),
    (["census", "--x", "zero"], 2),
    (["census", "--x", "0"], 2),
    (["census", "--x", "1e3", "--kappa", "nan"], 2),
    (["census", "--x", "1e3", "--family", "kappa"], 2),
    (["census", "--x", "1e16"], 2),  # past the count's limit
    (["census", "--x", "1e13", "--family", "cubefree"], 2),  # past the sweep's
    (["local-density", "--p", "5", "--class", "Good", "--check"], 0),
    (["local-density", "--p", "5", "--class", "III", "--check"], 0),
    (["local-density", "--p", "7", "--class", "I0*", "--m", "3", "--check"], 0),
    (["local-density", "--p", "5", "--class", "III*", "--check"], 0),
    (["local-density", "--p", "5", "--class", "semistable", "--k", "2", "--check"], 0),
    (["local-density", "--p", "5", "--class", "semistable"], 2),
    (["local-density", "--p", "4", "--class", "III"], 2),
    (["local-density", "--p", "5", "--class", "semistable", "--k", "7000"], 2),
    (["real-density"], 0),
    (["real-density", "--method", "quad", "--z", "100", "--tol", "1e-8"], 0),
    (["real-density", "--method", "mc", "--z", "256", "--samples", "2000", "--seed", "7"], 0),
    (["real-density", "--method", "quad", "--tol", "1e-30"], 2),
    (["real-density", "--z", "inf"], 2),
    (["lp", "--delta", "1/102", "--r", "1/100"], 0),
    (["lp", "--sweep", "--out", "{tmp}/lp.json"], 0),
    (["lp", "--delta", "zero"], 2),
    (["tails", "index", "--grid", "1e2,1e3", "--delta", "0.1", "--workers", "1"], 0),
    (["tails", "szpiro", "--x", "1e1", "--theta", "0.25", "--kappa", "2.2",
      "--workers", "2"], 0),  # one block, so no pool
    (["tails", "szpiro", "--x", "100", "--theta", "-1"], 2),
    (["euler"], 0),
    (["euler", "--family", "cubefree", "--tol", "1e-6"], 0),
    (["euler", "--family", "Kappa", "--tol", "1e-20"], 2),
    (["classify", "5", "5", "--out", "{tmp}/x.txt"], 2),
    (["classify", "5", "5", "--out", "{tmp}/missing/x.json"], 2),
    ([], 2),
]

# Runs the calls under a profile hook; prints the exit codes and every
# (file, first line, name) of package code that was entered.
CHILD = """
import contextlib, io, json, os, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
import twotor.cli as cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
package = os.path.dirname(cli.__file__) + os.sep
print(json.dumps({"package": package, "codes": codes, "entered": sorted(
    (c.co_filename[len(package):], c.co_firstlineno, c.co_name)
    for c in entered if c.co_filename.startswith(package))}))
"""


def package_functions() -> dict:
    """(file, first line, name) -> (qualified name, line count) of every def
    in the package; the first line is a decorator's, as in the code object."""
    found = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                qualname = f"{prefix}.{child.name}"
                found[(file, first, child.name)] = (qualname, child.end_lineno - first + 1)
                walk(child, file, qualname)
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}.{child.name}")
            else:
                walk(child, file, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.name, path.stem)
    return found


def test_every_function_is_reached_by_the_cli(tmp_path):
    t0 = time.time()
    argvs = [[arg.replace("{tmp}", str(tmp_path)) for arg in argv] for argv, _ in CALLS]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert Path(result["package"]).resolve() == PACKAGE
    functions = package_functions()
    entered = {tuple(key) for key in result["entered"]}
    names = {qualname for qualname, _ in functions.values()}
    missed = sorted((file, line, *functions[file, line, name])
                    for file, line, name in set(functions) - entered
                    if functions[file, line, name][0] not in ALLOWED)
    allowed_entered = sorted(functions[key][0] for key in entered & set(functions)
                             if functions[key][0] in ALLOWED)
    src_lines = sum(len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py"))
    ok = not missed and not allowed_entered and set(ALLOWED) <= names
    acceptance_line(
        f"reachability: {'PASS' if ok else 'FAIL'} - src/twotor holds {len(functions)} "
        f"functions in {src_lines} lines; {len(CALLS)} CLI calls enter all but "
        f"{len(ALLOWED)} allow-listed ({time.time() - t0:.1f}s)")
    assert result["codes"] == [code for _, code in CALLS]
    assert not missed, "entered by no CLI call:\n" + "\n".join(
        f"{file}:{line} {qualname} ({n} lines)" for file, line, qualname, n in missed)
    assert not allowed_entered, f"allow-listed but entered, so take them off: {allowed_entered}"
    assert set(ALLOWED) <= names, f"allow-listed but gone: {sorted(set(ALLOWED) - names)}"
