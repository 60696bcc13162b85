"""Check that the tests still kill the committed mutants.

    python3 tools/mutants.py
    python3 tools/mutants.py --each --name "stamped node"

`tools/mutants.json` lists mutants: each names a file under `src/`, an exact
old text, the new text that replaces it, and the test ids that must catch
the change.  For each mutant in turn the tool writes the mutated file into
a temporary copy of `src/`, never the working tree, and runs only the named
tests on that copy with pytest (Hypothesis seeded with 0, so a run is
repeatable).  A mutant is killed when pytest reports a failing test.

By default one pytest runs a mutant's tests with `-x`, so it stops at the
first test that fails.  With `--each`, every named test runs in its own
pytest, and the tool prints under each mutant which of its tests kill it
and which miss it; the mutant is killed when at least one of them kills
it.  `--name` (repeatable) checks only the mutants whose name contains one
of the given texts.

Prints one line per mutant and exits 1 if a mutant survives, if its old
text does not occur exactly once in its file (a refactor must re-aim the
mutant, not drop it), or if pytest ends in any other way, such as on a
test id that no longer exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().with_name("mutants.json")
EACH = {0: "misses", 1: "kills"}
"""What one test's pytest exit status says of it under `--each`."""


def pytest(tests: list[str], root: Path) -> subprocess.CompletedProcess:
    """Run the tests on the lstag under `root`/src, from `root`, so Hypothesis keeps its database there."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    return subprocess.run(argv + [str(REPO / t) for t in tests], cwd=root, env=env, capture_output=True, text=True)


def verdict(runs: list[subprocess.CompletedProcess]) -> str:
    """A mutant's verdict from its pytest runs: an error if one neither passed nor failed, else killed by a fail."""
    codes = [run.returncode for run in runs]
    errors = [code for code in codes if code not in (0, 1)]
    if errors:
        return f"ERROR {errors[0]}"
    return "killed" if 1 in codes else "SURVIVED"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--each", action="store_true", help="run each named test in its own pytest and report which kill")
    ap.add_argument("--name", action="append", default=[], metavar="TEXT", help="check only mutants whose name has it")
    args = ap.parse_args(argv)
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    mutants = [m for m in mutants if not args.name or any(text in m["name"] for text in args.name)]
    if not mutants:
        ap.error(f"no mutant's name contains any of {args.name}")
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
        probe = [sys.executable, "-c", "import lstag; print(lstag.__file__)"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        where = subprocess.run(probe, cwd=root, env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(root)):
            print(f"lstag imports from {where!r}, not from the copy under {root}", file=sys.stderr)
            return 1
        for m in mutants:
            original = (REPO / m["file"]).read_text(encoding="utf-8")
            target = root / m["file"]
            count = original.count(m["old"])
            if count != 1:
                print(f"BROKEN   {m['name']}: its old text occurs {count} times in {m['file']}")
                failures += 1
                continue
            target.write_text(original.replace(m["old"], m["new"]), encoding="utf-8")
            start = time.perf_counter()
            try:
                runs = [pytest([test], root) for test in m["tests"]] if args.each else [pytest(m["tests"], root)]
            finally:
                target.write_text(original, encoding="utf-8")
            found = verdict(runs)
            print(f"{found:8} {m['name']} ({time.perf_counter() - start:.1f} s)")
            if args.each:
                for test, run in zip(m["tests"], runs):
                    print(f"    {EACH.get(run.returncode, f'ERROR {run.returncode}'):8} {test}")
            if found != "killed":
                failures += 1
                for run in runs:
                    print(run.stdout[-2000:] + run.stderr[-2000:], file=sys.stderr)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
