"""Check that the tests still kill the committed mutants.

    python3 tools/mutants.py

`tools/mutants.json` lists mutants: each names a file under `src/`, an exact
old text, the new text that replaces it, and the test ids that must catch
the change.  For each mutant in turn the tool writes the mutated file into
a temporary copy of `src/`, never the working tree, and runs only the named
tests on that copy with pytest (Hypothesis seeded with 0, so a run is
repeatable).  A mutant is killed when pytest reports a failing test.

Prints one line per mutant and exits 1 if a mutant survives, if its old
text does not occur exactly once in its file (a refactor must re-aim the
mutant, not drop it), or if pytest ends in any other way, such as on a
test id that no longer exists.
"""

from __future__ import annotations

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


def pytest(tests: list[str], root: Path) -> subprocess.CompletedProcess:
    """Run the tests on the lstag under `root`/src, from `root`, so Hypothesis keeps its database there."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    return subprocess.run(argv + [str(REPO / t) for t in tests], cwd=root, env=env, capture_output=True, text=True)


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
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
                run = pytest(m["tests"], root)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(run.returncode, f"ERROR {run.returncode}")
            print(f"{verdict:8} {m['name']} ({time.perf_counter() - start:.1f} s)")
            if run.returncode != 1:
                failures += 1
                print(run.stdout[-2000:] + run.stderr[-2000:], file=sys.stderr)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
