"""Line census of ``src/changeid``: what tier-1 never runs, and what only
tests run.

Usage (takes no flags; about 2 minutes on 2 cores):

    python scripts/census.py

It first runs the whole tier-1 suite (``tests/``) in process with
``pytest.main`` under ``sys.settrace``, with a line tracer on the frames of
``src/changeid`` only; a failing test does not stop it.  It then runs
``calibrate``, ``detect``, ``simulate``, ``validate`` and ``report`` in
process through ``cli.main`` on each of ``tests/test_cli_fuzz.py``'s three
``BASES``, in full mode and at window 5, with ``detect`` on that module's
drawn 40-row CSV, under a second tracer.  It prints:

* every statement inside a function body that tier-1 never runs, as
  ``file:line: source``.  A statement runs when a line of its own (for a
  compound statement, a line of its header) emits a line event, or when
  a statement it contains runs.  Docstrings, nested ``def`` and ``class``
  lines and ``nonlocal``/``global`` statements are not statements here:
  they emit no line event when the function runs.
* every function some of whose lines tier-1 runs but none of which a
  command runs: code that only tests reach.

Limits: the tracer sees this process only.  The worker processes of a
campaign pool (``threads`` > 1) and the subprocess runs of the CLI tests
are not traced, so a line that only they reach counts as never run.
Module-level code runs at import and is not counted.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "changeid")
# nodes that are not statements of the census
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Nonlocal,
         ast.Global)


def _children(node) -> list:
    """The statements directly inside a compound statement."""
    kids = [c for f in ("body", "orelse", "finalbody")
            for c in getattr(node, f, [])]
    return kids + [c for h in getattr(node, "handlers", []) for c in h.body]


def _ran(node, lines: set) -> bool:
    end = min((c.lineno for c in _children(node)), default=node.end_lineno + 1)
    return (any(line in lines for line in range(node.lineno, end))
            or any(_ran(c, lines) for c in _children(node)
                   if not isinstance(c, _SKIP)))


def _statements(nodes):
    for node in nodes:
        if not isinstance(node, _SKIP):
            yield node
            yield from _statements(_children(node))


def _functions(nodes, prefix=""):
    """(qualified name, node) of every function below ``nodes``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        else:
            yield from _functions(_children(node), prefix)


@contextlib.contextmanager
def traced(executed: set):
    """Add (file, line) of every line event in ``PACKAGE`` to ``executed``
    while the block runs, in this thread and in the threads it starts."""
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    old = sys.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        yield tracer
    finally:
        sys.settrace(old)
        threading.settrace(None)


class Retrace:
    """A pytest plugin that puts ``tracer`` back after each test: CPython
    drops a trace function that raises, as a call at the recursion limit
    does in the tests that nest input past it."""

    def __init__(self, tracer):
        self.tracer = tracer

    def pytest_runtest_teardown(self):
        sys.settrace(self.tracer)


def run_commands() -> None:
    """Every command on each fuzz base, in full mode and at window 5."""
    import yaml
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import test_cli_fuzz as fuzz
    from changeid import cli

    # a cache that tier-1 filled would hide the function bodies it skips
    for module in [m for n, m in sys.modules.items() if n.startswith("changeid")]:
        for obj in vars(module).values():
            getattr(obj, "cache_clear", lambda: None)()
    with tempfile.TemporaryDirectory() as tmp:
        for name, base in fuzz.BASES.items():
            for window in (None, 5):
                stem = os.path.join(tmp, f"{name}-{window}")
                with open(stem + ".yaml", "w") as fh:
                    yaml.safe_dump({**base, "window": window}, fh)
                with open(stem + ".csv", "w", newline="") as fh:
                    fh.write(fuzz.csv_text(fuzz.data_rows(len(base["models"]))))
                config = stem + ".yaml"
                for argv in (["calibrate", "--config", config],
                             ["detect", "--config", config, stem + ".csv"],
                             ["simulate", "--config", config, "--out", stem],
                             ["validate", "--config", config, "--trials", "3"],
                             ["report", os.path.join(stem, "report.json")]):
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(argv)


def main() -> int:
    import pytest
    sys.path.insert(0, os.path.join(ROOT, "src"))
    by_tests, by_commands = set(), set()
    with traced(by_tests) as tracer:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests")],
                           plugins=[Retrace(tracer)])
    with traced(by_commands):
        run_commands()

    never, test_only, text = [], [], {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        text[name] = source.splitlines()
        tests = {line for f, line in by_tests if f == path}
        commands = {line for f, line in by_commands if f == path}
        for qualname, func in _functions(ast.parse(source).body):
            body = func.body[1:] if ast.get_docstring(func) else func.body
            never += [(name, s.lineno) for s in _statements(body)
                      if not _ran(s, tests)]
            lines = set(range(func.lineno, func.end_lineno + 1))
            if lines & tests and not lines & commands:
                test_only.append(f"{name}:{func.lineno}: {qualname}")
    print(f"\ntier-1 exit code {int(code)}")
    print(f"{len(never)} statements tier-1 never runs:")
    print("".join(f"  {name}:{line}: {text[name][line - 1].strip()}\n"
                  for name, line in sorted(never)), end="")
    print(f"{len(test_only)} functions tier-1 runs but no command does:")
    print("".join(f"  {line}\n" for line in test_only), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
