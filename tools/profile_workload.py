"""Profile one benchmark workload under cProfile.

    python3 tools/profile_workload.py --workload tag-enum --seed 1 --rounds 3 --top 15
    python3 tools/profile_workload.py --workload coord-enum --case "coord n=3" --rounds 20

Builds the workload's inputs from the seed with `perfbench/workloads.py`,
runs the program's set-up, keeps only the cases whose name contains
`--case` (every case without it; exit 2 if none does), runs one checked
warm-up round of those cases, then runs `--rounds` more rounds under
cProfile and prints the `--top` functions by self time and by cumulative
time.  The profiled rounds run no output checks and leave out a case that
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
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (found through the path set above)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--case", default="", metavar="SUBSTRING", help="profile only the cases whose name contains it")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.top < 1:
        ap.error("--rounds and --top must be >= 1")

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
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(args.rounds):
            for case in cases:
                case.run()
        profile.disable()

    stats = pstats.Stats(profile, stream=sys.stdout)
    stats.strip_dirs()
    which = f"{len(cases)} cases" + (f" matching {args.case!r}" if args.case else "")
    print(f"{args.workload}, seed {args.seed}: {which}, {args.rounds} profiled rounds after 1 warm-up")
    for order in ("tottime", "cumulative"):
        stats.sort_stats(order).print_stats(args.top)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
