"""Print the lines of `src/lstag` that no tier-1 test runs.

    python3 tools/untested_lines.py

The tool runs the tier-1 suite (`pytest tests/`) in this process under a
`sys.settrace` tracer.  It records line events only in frames whose code
lives under `src/lstag`, so it traces the package and not the tests.  Then,
for each module, it prints the executable lines that never ran.  A module's
executable lines are those the `co_lines()` of its compiled code objects
name.  A line that runs only in a subprocess that a test starts, such as
`python -m lstag.cli`, counts as not run.

It is a report, not a gate: it exits 0 unless pytest fails, and then with
pytest's status.  Tracing makes the suite about three times slower.  The
lstag it traces is the one under `src/` of this checkout.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "lstag"


def executable_lines(path: Path) -> set[int]:
    """The lines of the module at `path` that its compiled code objects run."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def spans(lines: set[int]) -> str:
    """`lines` as sorted comma-separated runs, such as `3, 7-9`."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.path.insert(0, str(SRC))  # before anything imports lstag, so module-level lines are traced too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events in this frame
        ran[filename].add(frame.f_lineno)
        return on_line

    sys.settrace(on_call)
    try:
        # A fixed seed, so the property tests draw the same examples and two reports differ only where the code does.
        argv = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        status = pytest.main([*argv, str(REPO / "tests")])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - ran[str(path)]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(REPO)}: {spans(missed)}")
    print(f"{total} executable lines of src/lstag ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
