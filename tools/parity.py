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

A second list, kept in `tests/golden/parity_random.txt`, enumerates in
process the `random_lstag_grammar` grammars of `tests/helpers_trees.py`
for seeds 0 to 99, at `max_operations` 1 to 3 and `max_structures` 7, 40
and the default.  Their searches meet steps that the link-sharing fit rules
leave out, such as a group that shares a site with another live group or a
right slot of another symbol than the guest's right root, so offering one
changes a line.  Each run is one line: its seed and budget, then the
SHA-256 of the items' records in history order, yields and both
projections, and of `truncated`.

A third list, kept in `tests/golden/parity_coord.txt`, enumerates in
process the n-way verb coordinations that the benchmark's `coord-enum`
workload builds with `perfbench/gen.py`, for seeds 1 to 3 and n = 1 to 3,
at `max_operations` 2 to 4 and `max_structures` 1 to 60 and the default.
Most of their states one operation short of the budget cannot complete,
so the search leaves them unbuilt, and the caps reach every point where a
bound that is too low would change a line.  Each run is one line, as in
the random list: its seed, n and budget, then the digest.

A fourth list, kept in `tests/golden/parity_tag.txt`, enumerates in
process the plain-TAG grammars that the benchmark's `tag-enum` workload
builds with `perfbench/gen.py` (the three modifier chains and the three
substitution-only grammars), for seeds 1 to 3, at each `max_operations`
the workload gives a grammar and `max_structures` 1, 7, 40, 120 and the
default.  Each run is one line: its seed, grammar and budget, then the
digest of the items and `truncated`, as above but with each derivation as
its script, and the digest of each item's `replay` yield.

`--check` compares the runs with the committed files, prints every line
that differs, and exits 1 if there is any; `--max-ops N` checks only the
enumerations at most N operations deep, and every derive; below the whole
depth it also checks the TAG runs of seed 1, which are the benchmark's own
`tag-enum` cases at every cap (the TAG budgets are 4 to 7 operations).
The whole lists also name each line of the files that no run makes.
`--write` runs the whole lists and rewrites the files.

`lstag` is imported from `PYTHONPATH` if it is there, else from `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "parity.txt"
RANDOM_GOLDEN = REPO / "tests" / "golden" / "parity_random.txt"
COORD_GOLDEN = REPO / "tests" / "golden" / "parity_coord.txt"
TAG_GOLDEN = REPO / "tests" / "golden" / "parity_tag.txt"
FLAGS = ((), ("--no-restrictions",), ("--format", "json"), ("--strings-only",))
CAPS = ((), *(("--max-structures", str(cap)) for cap in (1, 3, 7, 13, 40, 120)))
SCRIPTS = (("cooks_eats.lstag", "cooks_eats.script"), ("cooked.tag", "cooked_dried.script"))
FORMATS = ("text", "json", "dot")
ALL_OPS = 5
RANDOM_OPS = 3
RANDOM_CAPS = (7, 40, None)  # None: the default cap
COORD_OPS = range(2, 5)
COORD_CAPS = (*range(1, 61), None)
TAG_CAPS = (1, 7, 40, 120, None)


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


def random_runs(max_ops: int = ALL_OPS) -> list[tuple[int, int, int | None]]:
    """(seed, max operations, cap) of the random-grammar runs at most `max_ops` operations deep, in file order."""
    depths = range(1, min(max_ops, RANDOM_OPS) + 1)
    return [(seed, ops, cap) for seed in range(100) for ops in depths for cap in RANDOM_CAPS]


def digest(grammar, ops: int, cap: int | None) -> str:
    """The SHA-256 of an enumeration's items (records in history order, yields, both projections) and `truncated`."""
    from lstag import EnumerationBudget, enumerate_derivations

    budget = EnumerationBudget(ops) if cap is None else EnumerationBudget(ops, cap)
    result = enumerate_derivations(grammar, budget)
    items = [
        ([r.to_line() for r in item.records], item.left_yield, item.left_derivation, item.right_derivation)
        for item in result.items
    ]
    return hashlib.sha256(repr((items, result.truncated)).encode("utf-8")).hexdigest()


def budget_flags(ops: int, cap: int | None) -> str:
    return f"--max-ops {ops}" + ("" if cap is None else f" --max-structures {cap}")


def random_line(seed: int, ops: int, cap: int | None) -> str:
    """One enumeration of a random grammar: its seed and budget, and the digest of its items and `truncated`."""
    from helpers_trees import random_lstag_grammar

    return f"random {seed} {budget_flags(ops, cap)}\t{digest(random_lstag_grammar(random.Random(seed)), ops, cap)}"


def coord_runs(max_ops: int = ALL_OPS) -> list[tuple[int, int, int, int | None]]:
    """(seed, n, max operations, cap) of the coordination runs at most `max_ops` operations deep, in file order."""
    depths = [ops for ops in COORD_OPS if ops <= max_ops]
    return [(seed, n, ops, cap) for seed in (1, 2, 3) for n in (1, 2, 3) for ops in depths for cap in COORD_CAPS]


def coord_line(seed: int, n: int, ops: int, cap: int | None) -> str:
    """One enumeration of the gated n-way coordination grammar `coord_enum` builds for `seed`, with its digest."""
    import gen
    from lstag import parse_grammar, usable_lstag_names

    host, *verbs, subject, obj = gen.words(random.Random(seed), 6)  # the words `coord_enum` draws, in its order
    doc = parse_grammar(gen.Coordination(host, tuple(verbs[:n]), (subject,), (obj,)).text())
    grammar = doc.lstag_grammar(usable_lstag_names(doc, restrictions=True))
    return f"coord {seed} n={n} {budget_flags(ops, cap)}\t{digest(grammar, ops, cap)}"


def tag_grammars(seed: int) -> dict[str, tuple[str, tuple[int, ...]]]:
    """{name: (text, the workload's budgets)} of the grammars `tag_enum` builds for `seed`, drawn in its order."""
    import gen

    vocab = iter(gen.words(random.Random(seed), 48))
    mods = (2, 3, 4)
    chains = {k: gen.Chain(next(vocab), (next(vocab), next(vocab)), tuple(next(vocab) for _ in range(k))) for k in mods}
    shapes = ((3, 3), (2, 2, 2), (2, 3, 2))
    substs = {s: gen.SubstOnly(next(vocab), tuple(tuple(next(vocab) for _ in range(b)) for b in s)) for s in shapes}
    out = {f"chain k={k}": (c.text(), (4, 5) if k == 2 else (5,)) for k, c in chains.items()}
    out.update({f"subst {'x'.join(map(str, s))}": (g.text(), (2 * len(s) + 1,)) for s, g in substs.items()})
    return out


def tag_runs(max_ops: int = ALL_OPS) -> list[tuple[int, str, int, int | None]]:
    """(seed, grammar name, max operations, cap) of the TAG runs `--max-ops max_ops` checks, in file order."""
    seeds = (1, 2, 3) if max_ops == ALL_OPS else (1,)
    return [
        (seed, name, ops, cap)
        for seed in seeds
        for name, (_, budgets) in tag_grammars(seed).items()
        for ops in budgets
        for cap in TAG_CAPS
    ]


def tag_line(seed: int, name: str, ops: int, cap: int | None) -> str:
    """One enumeration of a `tag-enum` grammar: its digest, as `digest` with scripts, and that of its replays."""
    from lstag import (
        EnumerationBudget,
        enumerate_derivations,
        format_derivation_script,
        parse_grammar,
        replay,
        yield_tokens,
    )

    grammar = parse_grammar(tag_grammars(seed)[name][0]).tag_grammar()
    result = enumerate_derivations(grammar, EnumerationBudget(ops) if cap is None else EnumerationBudget(ops, cap))
    items = [
        ([r.to_line() for r in item.records], item.left_yield, format_derivation_script(item.left_derivation))
        for item in result.items
    ]
    replayed = [yield_tokens(replay(grammar, item.left_derivation)) for item in result.items]
    digests = (hashlib.sha256(repr(x).encode("utf-8")).hexdigest() for x in ((items, result.truncated), replayed))
    return "\t".join((f"tag {seed} {name} {budget_flags(ops, cap)}", *digests))


def arguments(text: str) -> str:
    return text.split("\t", 1)[0]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare the runs with the committed files")
    mode.add_argument("--write", action="store_true", help="run the whole lists and rewrite the committed files")
    ap.add_argument("--max-ops", type=int, default=ALL_OPS, metavar="N", help="check only enumerations of <= N ops")
    args = ap.parse_args(argv)
    if args.write and args.max_ops != ALL_OPS:
        ap.error("--write runs the whole lists; it does not take --max-ops")
    sys.path += [str(REPO / "src"), str(REPO / "tests"), str(REPO / "perfbench")]
    os.chdir(REPO)  # the paths in the list, and so in any message, are relative to the repository
    lists = (
        (GOLDEN, [line(argv) for argv in runs(args.max_ops)]),
        (RANDOM_GOLDEN, [random_line(*run) for run in random_runs(args.max_ops)]),
        (COORD_GOLDEN, [coord_line(*run) for run in coord_runs(args.max_ops)]),
        (TAG_GOLDEN, [tag_line(*run) for run in tag_runs(args.max_ops)]),
    )
    failed = False
    for golden, got in lists:
        name = golden.relative_to(REPO)
        if args.write:
            golden.write_text("".join(f"{g}\n" for g in got), encoding="utf-8")
            print(f"wrote {len(got)} runs to {name}")
            continue
        want = {arguments(w): w for w in golden.read_text(encoding="utf-8").splitlines()}
        differ = [g for g in got if want.get(arguments(g)) != g]
        for g in differ:
            print(f"differs: {g}\n   file: {want.get(arguments(g), '(no line)')}")
        unrun = sorted(want.keys() - set(map(arguments, got))) if args.max_ops == ALL_OPS else []
        for text in unrun:
            print(f"no run makes the file's line for: {text}")
        print(f"{len(got) - len(differ)} of {len(got)} runs match {name}")
        failed = failed or bool(differ or unrun)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
