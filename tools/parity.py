"""Run a fixed list of `lstag` commands in-process and compare their outputs with a committed list of digests.

    python3 tools/parity.py --check
    python3 tools/parity.py --check --max-ops 2
    python3 tools/parity.py --write

The list runs `lstag.cli.main` on every grammar under `fixtures/`:
`enumerate` at `--max-ops` 1 to 5, with no flag, `--no-restrictions`,
`--format json` or `--strings-only`, each at the default `--max-structures`
and at 1, 3, 7, 13, 40 and 120; and `derive` of both shipped scripts as
text, JSON and DOT.  Each run is one line: its arguments (paths relative to
the repository), its exit status, and the SHA-256 of its standard output
and of its standard error, UTF-8 encoded, separated by tabs.

`--check` compares the runs with `tests/golden/parity.txt`, prints every
line that differs, and exits 1 if there is any; `--max-ops N` checks only
the enumerations at most N operations deep, and every derive.  The whole
list also names each line of the file that no run makes.  `--write` runs
the whole list and rewrites the file.

`lstag` is imported from `PYTHONPATH` if it is there, else from `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "parity.txt"
FLAGS = ((), ("--no-restrictions",), ("--format", "json"), ("--strings-only",))
CAPS = ((), *(("--max-structures", str(cap)) for cap in (1, 3, 7, 13, 40, 120)))
SCRIPTS = (("cooks_eats.lstag", "cooks_eats.script"), ("cooked.tag", "cooked_dried.script"))
FORMATS = ("text", "json", "dot")
ALL_OPS = 5


def runs(max_ops: int = ALL_OPS) -> list[tuple[str, ...]]:
    """The argument lists of the runs, enumerations at most `max_ops` operations deep, in file order."""
    grammars = sorted(p.name for p in (REPO / "fixtures").iterdir() if p.is_file())
    argvs = [
        ("enumerate", f"fixtures/{grammar}", "--max-ops", str(ops), *flags, *cap)
        for grammar in grammars
        for ops in range(1, max_ops + 1)
        for flags in FLAGS
        for cap in CAPS
    ]
    derives = [("derive", f"fixtures/{g}", f"fixtures/scripts/{s}", "--format", f) for g, s in SCRIPTS for f in FORMATS]
    return argvs + derives


def line(argv: tuple[str, ...]) -> str:
    """One run of `lstag.cli.main`: its arguments, exit status and output digests, separated by tabs."""
    from lstag.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    digests = (hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest() for stream in (out, err))
    return "\t".join((" ".join(argv), str(status), *digests))


def arguments(text: str) -> str:
    return text.split("\t", 1)[0]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare the runs with the committed file")
    mode.add_argument("--write", action="store_true", help="run the whole list and rewrite the committed file")
    ap.add_argument("--max-ops", type=int, default=ALL_OPS, metavar="N", help="check only enumerations of <= N ops")
    args = ap.parse_args(argv)
    if args.write and args.max_ops != ALL_OPS:
        ap.error("--write runs the whole list; it does not take --max-ops")
    sys.path.append(str(REPO / "src"))
    os.chdir(REPO)  # the paths in the list, and so in any message, are relative to the repository
    got = [line(argv) for argv in runs(args.max_ops)]
    if args.write:
        GOLDEN.write_text("".join(f"{g}\n" for g in got), encoding="utf-8")
        print(f"wrote {len(got)} runs to {GOLDEN.relative_to(REPO)}")
        return 0
    want = {arguments(w): w for w in GOLDEN.read_text(encoding="utf-8").splitlines()}
    differ = [g for g in got if want.get(arguments(g)) != g]
    for g in differ:
        print(f"differs: {g}\n   file: {want.get(arguments(g), '(no line)')}")
    unrun = sorted(want.keys() - set(map(arguments, got))) if args.max_ops == ALL_OPS else []
    for text in unrun:
        print(f"no run makes the file's line for: {text}")
    print(f"{len(got) - len(differ)} of {len(got)} runs match {GOLDEN.relative_to(REPO)}")
    return 1 if differ or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
