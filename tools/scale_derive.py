"""Time long derive scripts at several sizes n and print how they scale.

    python3 tools/scale_derive.py --shape coord --n 320 640 1280 2560 --repeat 3

Three script shapes:

- `coord`: n-way verb coordination, built by `Coordination` of
  `perfbench/gen.py`.  It is `root cooks`, then n x `adjoin and_eats at 2.1
  ~ ε`, then `substitute john at 1` and `substitute beans at 2.2`, read
  once by `_lex.read_script` and run by `cli.run_lstag_script`, as `lstag
  derive` does.
- `chain`: a modifier chain over `tree mK: X(A("aK") X*)`.  It is `root
  v`, `v @ 1 <- n`, `v @ 2.2 <- o`, `n @ 1 <- m0`, then `mK @ ε <- mK+1`
  for K < n, parsed by `tag.parse_derivation_script` (the `read_script`
  and edge reader that `lstag derive` calls) and replayed.  Each modifier
  adjoins at the root of the one before, so the foot of the derived
  auxiliary sinks one level per step.
- `stack`: the modifier stack of the `Chain` family of `perfbench/gen.py`,
  the shape the benchmark's `derive chain` cases derive.  It is `Chain.script`
  at depth n: `root v`, `v @ 1 <- s`, `v @ 2.2 <- o`, `s @ 1 <- mod_w1`,
  then `mod_wK @ 1 <- mod_wK+1` for K < n, replayed as `chain` is.  Each
  modifier adjoins below the root of the one before, so every derived
  auxiliary keeps its foot at depth 1.

Each shape is timed as a whole and adjoin-only.  The adjoin-only script
leaves out the steps that fill the verb's slots: the two substitutions of
`coord`, and for `chain` and `stack` the verb and its object, with the
subject as the root.  The grammar is parsed once, outside the timing.
Each time is the best of `--repeat` runs.  Per shape, the tool prints ms
per n, µs per adjoined auxiliary, the whole/adjoin-only ratio, and the
least-squares slope of log(ms) over log(n).  It exits 1 if a whole script does not derive the
sentence its family predicts.  The lstag it times is the one under `src/`
of this checkout.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402  (found through the path set above)
from lstag import parse_grammar  # noqa: E402
from lstag._lex import read_script  # noqa: E402
from lstag.cli import run_lstag_script  # noqa: E402
from lstag.tag import parse_derivation_script, replay  # noqa: E402
from lstag.trees import yield_string  # noqa: E402


def _coord(n: int):
    """(adjoin-only script, whole script, expected sentence, derive) for `coord` at n."""
    family = gen.Coordination("cooks", ("eats",), ("John",), ("beans",))
    seq = ("eats",) * n
    whole = family.script(seq, "John", "beans")
    adjoin_only = "".join(whole.splitlines(keepends=True)[:-2])
    grammar = parse_grammar(family.text()).lstag_grammar()
    derive = lambda script: " ".join(run_lstag_script(grammar, *read_script(script)).left_yield(partial=True))
    return adjoin_only, whole, family.sentence("John", seq, "beans"), derive


def _chain(n: int):
    """The same for `chain` at n."""
    trees = ['tree v: S(NP! VP(V("v") NP!))', 'tree n: NP(X("n"))', 'tree o: NP(N("o"))']
    trees += [f'tree m{k}: X(A("a{k}") X*)' for k in range(n + 1)]
    steps = ["n @ 1 <- m0"] + [f"m{k} @ ε <- m{k + 1}" for k in range(n)]
    grammar = parse_grammar("\n".join(trees) + "\n").tag_grammar()
    derive = lambda script: yield_string(replay(grammar, parse_derivation_script(script)), partial=True)
    adjoin_only = "\n".join(["root n", *steps]) + "\n"
    whole = "\n".join(["root v", "v @ 1 <- n", "v @ 2.2 <- o", *steps]) + "\n"
    sentence = " ".join([f"a{k}" for k in range(n, -1, -1)] + ["n", "v", "o"])
    return adjoin_only, whole, sentence, derive


def _stack(n: int):
    """The same for `stack` at n."""
    family = gen.Chain("v", ("s", "o"), tuple(f"w{k}" for k in range(1, n + 1)))
    whole, sentence = family.script(n)
    lines = whole.splitlines()
    grammar = parse_grammar(family.text()).tag_grammar()
    derive = lambda script: yield_string(replay(grammar, parse_derivation_script(script)), partial=True)
    adjoin_only = "\n".join(["root s", *lines[3:]]) + "\n"
    return adjoin_only, whole, sentence, derive


SHAPES = {"coord": _coord, "chain": _chain, "stack": _stack}


def _best_ms(run, script: str, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        run(script)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def _slope(ns: list[int], ms: list[float]) -> float:
    """The least-squares slope of log(ms) over log(n)."""
    xs, ys = [math.log(n) for n in ns], [math.log(m) for m in ms]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--shape", nargs="+", choices=sorted(SHAPES), default=sorted(SHAPES))
    ap.add_argument("--n", nargs="+", type=int, default=[160, 320, 640, 1280])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    if args.repeat < 1 or min(args.n) < 1 or len(set(args.n)) < 2:
        ap.error("--repeat must be >= 1, and --n needs two or more distinct sizes >= 1")
    ns = sorted(set(args.n))
    wrong = 0
    for shape in args.shape:
        print(f"{shape}: n, adjoin-only ms, whole ms, adjoin-only us/step, whole us/step, whole/adjoin-only")
        times: dict[str, list[float]] = {"adjoin-only": [], "whole": []}
        for n in ns:
            adjoin_only, whole, sentence, derive = SHAPES[shape](n)
            got = derive(whole)
            if got != sentence:
                wrong += 1
                print(f"  n={n}: whole script derived {got[:60]!r}..., not the expected sentence", file=sys.stderr)
            a, w = _best_ms(derive, adjoin_only, args.repeat), _best_ms(derive, whole, args.repeat)
            times["adjoin-only"].append(a)
            times["whole"].append(w)
            print(f"  {n:6d} {a:10.1f} {w:10.1f} {a * 1000 / n:8.1f} {w * 1000 / n:8.1f} {w / a:6.2f}x")
        slopes = ", ".join(f"{name} {_slope(ns, ms):.2f}" for name, ms in times.items())
        print(f"  log-log slope, n = {ns[0]} to {ns[-1]}: {slopes}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
