"""Line tracer of ``tests/linecov.py``; does nothing unless ``LINECOV_DIR`` is set.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one.  ``linecov.py`` puts this directory first on the
``PYTHONPATH`` of the test run, so every subprocess the suite starts
(``python -m linemg ...``) records which lines under ``LINECOV_SRC`` it runs
and writes them to ``LINECOV_DIR/<pid>.lines`` when it exits.
"""

import atexit
import os
import sys

executed: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def start(prefix: str) -> None:
    """Trace this thread: record every line run in files under ``prefix``."""

    def call(frame, event, arg):
        return _line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)


def _dump(directory: str) -> None:
    path = os.path.join(directory, f"{os.getpid()}.lines")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}\t{line}\n" for name, line in executed)


if os.environ.get("LINECOV_DIR"):
    start(os.environ["LINECOV_SRC"])
    atexit.register(_dump, os.environ["LINECOV_DIR"])
