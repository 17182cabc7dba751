"""Which lines of ``src/linemg`` the tier-1 suite never runs, with the stdlib only.

    python tests/linecov.py [extra pytest arguments]

Runs the suite in this process under a ``sys.settrace`` line tracer, and puts
``tests/linecov_site`` first on ``PYTHONPATH``, so that its
``sitecustomize.py`` traces the suite's subprocesses (``python -m linemg``)
as well.  Hypothesis runs derandomized and without deadlines here, so the
same lines run on every call and the tracer's slowdown fails no test.

A line is executable when CPython's line table has it (``dis.findlinestarts``
over every code object of the module).  Each line that never ran is printed
as ``file:line: source``.  ``tests/linecov_allowed.txt`` lists the lines that
may stay unrun, by file and source text (not by line number), each with a
reason.  Exit status: pytest's when a test fails; else 1 when a line never
ran that the list does not allow, or an entry of the list matches no unrun
line; else 0.
"""

from __future__ import annotations

import dis
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "linemg"
SITE = TESTS / "linecov_site"
ALLOWED = TESTS / "linecov_allowed.txt"


def executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def read_allowed() -> dict[tuple[str, str], str]:
    """(file, stripped source text) -> reason, from lines ``file | text | reason``."""
    allowed = {}
    for raw in ALLOWED.read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            name, rest = raw.split(" | ", 1)
            text, reason = rest.rsplit(" | ", 1)
            allowed[(name.strip(), text.strip())] = reason.strip()
    return allowed


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit code and the lines run, by file."""
    import pytest

    class Profile:
        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings

            settings.register_profile("linecov", deadline=None, derandomize=True)
            settings.load_profile("linecov")

    site = SITE / "sitecustomize.py"
    spec = importlib.util.spec_from_file_location("linecov_tracer", site)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    prefix = str(PACKAGE) + os.sep
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as out:
        paths = [str(SITE), str(SRC), os.environ.get("PYTHONPATH", "")]
        os.environ.update(
            LINECOV_DIR=out,
            LINECOV_SRC=prefix,
            PYTHONPATH=os.pathsep.join(p for p in paths if p),
        )
        tracer.start(prefix)
        try:
            args = [str(TESTS), "-q", "-p", "no:cacheprovider", *pytest_args]
            status = pytest.main(args, plugins=[Profile()])
        finally:
            sys.settrace(None)
        executed = set(tracer.executed)
        for dump in Path(out).glob("*.lines"):
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                executed.add((name, int(line)))
    ran: dict[str, set[int]] = {}
    for name, line in executed:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = run_traced(argv)
    if status != 0:
        print(f"linecov: the tests failed (pytest exit code {status})")
        return status
    allowed = read_allowed()
    used: set[tuple[str, str]] = set()
    total = 0
    unrun: list[str] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran.get(os.path.realpath(path), set())):
            key = (name, source[line - 1].strip())
            if key in allowed:
                used.add(key)
            else:
                unrun.append(f"{name}:{line}: {key[1]}")
    stale = [f"{name} | {text}" for name, text in allowed if (name, text) not in used]
    for row in unrun:
        print(f"never ran: {row}")
    for row in stale:
        print(f"allowed but no such unrun line: {row}")
    print(
        f"linecov: {total} executable lines in src/linemg, {len(used)} allowed "
        f"entries matched, {len(unrun)} unrun lines not allowed, {len(stale)} stale"
    )
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
