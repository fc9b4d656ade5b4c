"""Print the lines of ``src/aqsteiner`` that no test runs.

    python3 tools/line_trace.py [PYTEST_ARGS ...]

Runs pytest in this process, by default on the whole tier-1 suite, with
a line tracer installed through ``sys.settrace`` and
``threading.settrace``, and prints each executable line of each module
of ``src/aqsteiner`` that no traced frame ran, as ``path:line: source``.
A line is executable when ``co_lines()`` of a code object compiled from
the module names it.  Only this process is traced: CLI runs that tests
make in a subprocess (``run_cli``, ``run_bounded``) and the workers of
``sweep --jobs`` are not, so a line that only they reach is printed.
Hypothesis deadlines are switched off, since tracing slows every test.
The exit status is pytest's.  For use where ``coverage`` is not
installed.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "aqsteiner")
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(path: str) -> set[int]:
    """Every line that a code object compiled from the file names."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    # the package must be imported from this checkout, and only after the
    # tracer is in place, so that its module-level lines count too; the
    # tests' subprocesses find it through PYTHONPATH, as in tier-1
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    import pytest
    from hypothesis import settings

    settings.register_profile("line_trace", deadline=None)
    settings.load_profile("line_trace")

    hits: dict[str, set[int]] = {}
    # co_filename -> the set of lines run in it, or None outside the package
    by_name: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name in by_name:
            ran = by_name[name]
        else:
            path = os.path.realpath(name)
            ran = by_name[name] = hits.setdefault(path, set()) if path.startswith(PACKAGE + os.sep) else None
        if ran is None:
            return None
        # the call event holds a function's first line, which no line
        # event reports
        ran.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        missed = sorted(executable_lines(path) - hits.get(path, set()))
        for line in missed:
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
