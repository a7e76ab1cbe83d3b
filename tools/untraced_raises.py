"""Report every ``raise`` statement in ``src/somgmm`` that the quick test
loop never runs.

Runs ``pytest -m "not slow" tests`` in this process under ``sys.settrace``
and ``threading.settrace``, records the lines executed in the package's
files, and prints, as ``file:line``, each ``raise`` none of whose lines
ran.  Exits 1 if it printed any, else with pytest's exit code (0 when
every test passes).  Child processes, such as the ``python -m somgmm``
runs of the CLI tests, are not traced.

Needs only the standard library and pytest; run it from anywhere:

    python tools/untraced_raises.py
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "somgmm"


def raise_lines(path):
    """The (first, last) line of each ``raise`` statement in a source file."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Raise)]


def traced_run(args):
    """Run pytest with ``args`` under a line tracer confined to the package's
    files; return pytest's exit code and the executed lines per file."""
    files = {str(path): set() for path in PACKAGE.glob("*.py")}

    def tracer(frame, event, arg):
        lines = files.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, files


def main():
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # The CLI tests' child processes import the package from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code, files = traced_run(["-q", "-p", "no:cacheprovider", "-m", "not slow", "tests"])
    missed = [f"{Path(name).relative_to(ROOT)}:{first}"
              for name, lines in sorted(files.items())
              for first, last in sorted(raise_lines(Path(name)))
              if lines.isdisjoint(range(first, last + 1))]
    for entry in missed:
        print(entry)
    return 1 if missed else int(code)


if __name__ == "__main__":
    sys.exit(main())
