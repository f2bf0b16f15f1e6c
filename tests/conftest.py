"""Shared test plumbing: the acceptance-criteria summary block."""

import os
from pathlib import Path

# pyproject's pytest ``pythonpath`` reaches this process only: pass src/ on to
# the child interpreters that some tests start, so they import the same tree.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

_acceptance_lines = []


def acceptance_line(text: str) -> None:
    _acceptance_lines.append(text)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
