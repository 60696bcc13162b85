"""Profile one benchmark workload under cProfile, or sample it.

    python3 tools/profile_workload.py --workload tag-enum --seed 1 --rounds 3 --top 15
    python3 tools/profile_workload.py --workload coord-enum --case "coord n=3" --rounds 20
    python3 tools/profile_workload.py --workload tag-enum --rounds 200 --sample 1

Builds the workload's inputs from the seed with `perfbench/workloads.py`,
runs the program's set-up, keeps only the cases whose name contains
`--case` (every case without it; exit 2 if none does), runs one checked
warm-up round of those cases, then runs `--rounds` more rounds under
cProfile and prints the `--top` functions by self time and by cumulative
time.  With `--sample MS`, the tool runs the same rounds without cProfile
and instead samples its own stack every MS milliseconds of process CPU time
(`signal.setitimer(ITIMER_PROF)`), then prints the `--top` functions by
their share of the samples: self (the function was running) and
cumulative (it was on the stack).  cProfile charges every call a cost of
its own, which inflates code that makes many small calls; sampling does
not.  The profiled rounds run no output checks and leave out a case that
raised or gave a wrong output in the warm-up; the tool then exits 1, as it
does when the set-up reports a problem.  The lstag it profiles is the one
under `src/` of this checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import random
import signal
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (found through the path set above)


def sample(run: Callable[[], object], ms: float) -> tuple[Counter[CodeType], Counter[CodeType]]:
    """Call `run` while SIGPROF samples the stack every `ms` milliseconds of this process's CPU time.

    Returns, per function (its code object), the samples it was running in
    (self, one function per sample) and those it was on the stack in
    (cumulative, once per sample however deep it recurses).
    """
    own: Counter[CodeType] = Counter()
    cumulative: Counter[CodeType] = Counter()

    def handler(signum, frame) -> None:
        own[frame.f_code] += 1
        stack = set()
        while frame is not None:
            stack.add(frame.f_code)
            frame = frame.f_back
        cumulative.update(stack)

    previous = signal.signal(signal.SIGPROF, handler)
    signal.setitimer(signal.ITIMER_PROF, ms / 1000, ms / 1000)
    try:
        run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return own, cumulative


def where(code: CodeType) -> str:
    """A function as pstats prints it with its directories stripped: file:line(name)."""
    return f"{Path(code.co_filename).name}:{code.co_firstlineno}({code.co_name})"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--case", default="", metavar="SUBSTRING", help="profile only the cases whose name contains it")
    ap.add_argument("--sample", type=float, metavar="MS", help="sample the stack every MS ms of CPU time instead")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.top < 1:
        ap.error("--rounds and --top must be >= 1")
    if args.sample is not None and not args.sample > 0:
        ap.error("--sample must be > 0")

    with tempfile.TemporaryDirectory() as workdir:
        plan = workloads.WORKLOADS[args.workload](random.Random(args.seed), ROOT, Path(workdir))
        lstag = importlib.import_module("lstag")
        env, problems = plan.setup(lstag)
        failed = len(problems)
        if problems:
            print(f"set-up: {'; '.join(problems)}", file=sys.stderr)
        chosen = [case for case in plan.cases(lstag, env) if args.case in case.name]
        if not chosen:
            ap.error(f"no case of {args.workload} has {args.case!r} in its name")
        cases = []
        for case in chosen:  # warm-up: lazy caches fill and every output is checked
            try:
                found = case.check(case.run())
            except Exception as exc:  # reported, and the case is left out of the profile
                found = [f"raised {type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                print(f"warm-up: {case.name}: {'; '.join(found)}", file=sys.stderr)
            else:
                cases.append(case)

        def rounds() -> None:
            for _ in range(args.rounds):
                for case in cases:
                    case.run()

        if args.sample is not None:
            own, cumulative = sample(rounds, args.sample)
        else:
            profile = cProfile.Profile()
            profile.runcall(rounds)

    which = f"{len(cases)} cases" + (f" matching {args.case!r}" if args.case else "")
    print(f"{args.workload}, seed {args.seed}: {which}, {args.rounds} profiled rounds after 1 warm-up")
    if args.sample is None:
        stats = pstats.Stats(profile, stream=sys.stdout)
        stats.strip_dirs()
        for order in ("tottime", "cumulative"):
            stats.sort_stats(order).print_stats(args.top)
    else:
        taken = sum(own.values())
        print(f"{taken} samples, one every {args.sample:g} ms of CPU time")
        for title, counts in (("self", own), ("cumulative", cumulative)):
            print(f"\n   share  by {title} samples")
            for code, n in counts.most_common(args.top):
                print(f"{100 * n / max(taken, 1):7.1f}%  {where(code)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
