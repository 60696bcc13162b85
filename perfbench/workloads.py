"""The three workloads: their inputs, set-up, cases and output checks.

A workload is built in three steps.  `plan(rng, root, workdir)` generates
the inputs from the seed (the program only ever sees the generated text
and files).  `Plan.setup(lstag)` is the program's own set-up, timed as
`setup_s`: parse, validate and restriction-gate every grammar.
`Plan.cases(lstag, env)` lists the cases a round runs; each case has a
`run` that calls the public API and a `check` that compares its output
with the model the generator built from the grammar's construction.
"""

from __future__ import annotations

import collections
import importlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen

BLOCKED = "peanuts john likes and almonds hates"


@dataclass
class Case:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Plan:
    setup: Callable[[Any], tuple[dict, list[str]]]  # lstag -> (env, problems)
    cases: Callable[[Any, dict], list[Case]]


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# --- coord-enum ---------------------------------------------------------------


def _topicalization_yields(max_ops: int, gated: bool) -> set[str]:
    """topicalization.lstag by construction: gating drops the discontiguous host."""
    if gated:
        return {"john"}
    return {"john"} | {"peanuts john likes" + " and almonds hates" * k for k in range(max_ops)}


COOKS_EATS = gen.Coordination("cooks", ("eats",), ("John", "beans"), ("John", "beans"), ("NP", "NP"))


def _check_lstag_result(result, yields: set[str], truncated: bool, by_verbs: dict | None, verbs) -> list[str]:
    problems: list[str] = []
    got = [item.yield_text for item in result.items]
    _expect(problems, (BLOCKED in got) == (BLOCKED in yields), f"blocked string present: {BLOCKED in got}")
    _expect(problems, set(got) == yields, f"yield set differs: {sorted(set(got) ^ yields)[:4]}")
    _expect(problems, result.truncated == truncated, f"truncated is {result.truncated}")
    singles = [y for y in got if " " not in y]
    _expect(problems, len(singles) == len(set(singles)), "a lone noun is enumerated twice")
    if by_verbs is not None:
        counts = collections.Counter(
            sum(tok in verbs for tok in item.left_yield) - 1 for item in result.items if len(item.left_yield) > 1
        )
        _expect(problems, dict(counts) == by_verbs, f"derivations per verb count {dict(counts)} != {by_verbs}")
    for item in result.items:
        graph = item.right_derivation
        if not graph.is_dag():
            problems.append(f"right projection of {item.yield_text!r} is not a DAG")
        adjunctions = sum(r.operation == "adjunction" for r in item.records)
        for r in item.records:
            if r.operation != "adjunction" and graph.in_degree(r.guest_id) != adjunctions + 1:
                problems.append(f"{r.guest_id} has right in-degree {graph.in_degree(r.guest_id)}")
    return problems


def coord_enum(rng: random.Random, root: Path, workdir: Path) -> Plan:
    vocab = gen.words(rng, 6)
    host, verbs, subj, obj = vocab[0], tuple(vocab[1:4]), vocab[4], vocab[5]
    families = {n: gen.Coordination(host, verbs[:n], (subj,), (obj,)) for n in (1, 2, 3)}
    texts = {f"coord{n}": fam.text() for n, fam in families.items()}
    for name in ("cooks_eats", "topicalization"):
        texts[name] = (root / "fixtures" / f"{name}.lstag").read_text(encoding="utf-8")
    gatings = [(f"coord{n}", True) for n in families] + [
        ("cooks_eats", True), ("cooks_eats", False), ("topicalization", True), ("topicalization", False)
    ]

    def setup(lstag):
        docs = {name: lstag.parse_grammar(text) for name, text in texts.items()}
        problems = []
        for name, doc in docs.items():
            got = [(d.code, d.where) for d in lstag.validate_document(doc)]
            want = [("LexicallyDiscontiguous", "peanuts_likes")] if name == "topicalization" else []
            _expect(problems, got == want, f"{name}: diagnostics {got} != {want}")
        grammars = {
            (name, gated): docs[name].lstag_grammar(lstag.usable_lstag_names(docs[name], restrictions=gated))
            for name, gated in gatings
        }
        return grammars, problems

    def cases(lstag, grammars):
        out = []

        def add(label, key, ops, yields, truncated, by_verbs=None, verbs=()):
            grammar, budget = grammars[key], lstag.EnumerationBudget(ops)
            out.append(
                Case(
                    label,
                    lambda: lstag.enumerate_derivations(grammar, budget),
                    lambda r: _check_lstag_result(r, yields, truncated, by_verbs, set(verbs)),
                )
            )

        for n, ops in ((1, 3), (1, 4), (2, 3), (3, 3)):
            fam = families[n]
            verbs_all = set(fam.verbs) | {fam.host}
            add(f"coord n={n} ops={ops}", (f"coord{n}", True), ops, fam.yields(ops), True,
                fam.sentences_by_verbs(ops), verbs_all)
        add("cooks_eats gated ops=4", ("cooks_eats", True), 4, COOKS_EATS.yields(4), True,
            COOKS_EATS.sentences_by_verbs(4), {"cooks", "eats"})
        add("cooks_eats ungated ops=3", ("cooks_eats", False), 3, COOKS_EATS.yields(3), True,
            COOKS_EATS.sentences_by_verbs(3), {"cooks", "eats"})
        for gated, ops in ((True, 3), (False, 2)):
            add(f"topicalization {'gated' if gated else 'ungated'} ops={ops}",
                ("topicalization", gated), ops, _topicalization_yields(ops, gated), not gated)
        return out

    return Plan(setup, cases)


# --- tag-enum -----------------------------------------------------------------


def tag_enum(rng: random.Random, root: Path, workdir: Path) -> Plan:
    vocab = iter(gen.words(rng, 48))
    chains = {
        k: gen.Chain(next(vocab), (next(vocab), next(vocab)), tuple(next(vocab) for _ in range(k)))
        for k in (2, 3, 4)
    }
    substs = {}
    for shape in ((3, 3), (2, 2, 2), (2, 3, 2)):
        substs[shape] = gen.SubstOnly(next(vocab), tuple(tuple(next(vocab) for _ in range(b)) for b in shape))
    # (label, grammar key, budget, expected yields, expected truncation)
    specs = [(f"chain k={k} ops={ops}", ("chain", k), ops, chains[k].yields(ops), True)
             for k, ops in ((2, 4), (2, 5), (3, 5), (4, 5))]
    specs += [(f"subst {'x'.join(map(str, s))} ops={2 * len(s) + 1}", ("subst", s), 2 * len(s) + 1,
               substs[s].yields(), False) for s in substs]
    texts = {("chain", k): c.text() for k, c in chains.items()}
    texts.update({("subst", s): g.text() for s, g in substs.items()})

    def setup(lstag):
        problems, grammars = [], {}
        for key, text in texts.items():
            doc = lstag.parse_grammar(text)
            _expect(problems, not lstag.validate_document(doc), f"{key}: unexpected diagnostics")
            grammars[key] = doc.tag_grammar()
        return grammars, problems

    def cases(lstag, grammars):
        def make(label, key, ops, yields, truncated):
            grammar, budget = grammars[key], lstag.EnumerationBudget(ops)

            def run():
                result = lstag.enumerate_derivations(grammar, budget)
                replayed = [lstag.yield_tokens(lstag.replay(grammar, it.left_derivation)) for it in result.items]
                return result, replayed

            def check(out):
                result, replayed = out
                problems = []
                got = [it.yield_text for it in result.items]
                _expect(problems, set(got) == yields, f"yield set differs: {sorted(set(got) ^ yields)[:4]}")
                _expect(problems, len(got) == len(yields), f"{len(got)} items for {len(yields)} strings")
                _expect(problems, result.truncated == truncated, f"truncated is {result.truncated}")
                bad = sum(r != it.left_yield for r, it in zip(replayed, result.items))
                _expect(problems, bad == 0, f"{bad} items do not replay to their yield")
                return problems

            return Case(label, run, check)

        return [make(*spec) for spec in specs]

    return Plan(setup, cases)


# --- cli-batch ----------------------------------------------------------------


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


ZERO_SCRIPTS = {
    # Addresses with a zero component; independent of the seed.  Each must
    # exit 2 as a parse error.
    "zero tag edge": ("cooked.tag", "root cooked\ncooked @ 0 <- john\n"),
    "zero left site": ("cooks_eats.lstag", "root cooks\nadjoin and_eats at 2.0 ~ ε\n"),
    "zero right site": ("cooks_eats.lstag", "root cooks\nadjoin and_eats at 2.1 ~ 0\n"),
}


def cli_batch(rng: random.Random, root: Path, workdir: Path) -> Plan:
    vocab = gen.words(rng, 110)
    coord = gen.Coordination(vocab[0], tuple(vocab[1:9]), (vocab[9],), (vocab[10],))
    chain = gen.Chain(vocab[11], (vocab[12], vocab[13]), tuple(vocab[14:104]))
    big = gen.big_grammar(rng, 120, 3)
    clean = gen.big_grammar(rng, 60, 0)

    files: dict[str, str] = {
        "big.lstag": big.text,
        "clean.lstag": clean.text,
        "coord.lstag": coord.text(),
        "chain.tag": chain.text(),
        "broken.lstag": clean.text + 'lspair tail { left: NP("unterminated) right: NP("x") delta: [] phi: [] }\n',
    }
    sentences = {}
    for n in (60, 45, 30):
        seq = tuple(coord.verbs[rng.randrange(len(coord.verbs))] for _ in range(n))
        files[f"coord{n}.script"] = coord.script(seq, coord.subjects[0], coord.objects[0])
        sentences[f"coord{n}"] = coord.sentence(coord.subjects[0], seq, coord.objects[0])
    files["coord_fail.script"] = files["coord30.script"] + f"substitute {coord.subjects[0]} at 1\n"
    files["coord_bad.script"] = files["coord30.script"] + f"adjoin and_{coord.verbs[0]} 2.1 ~ ε\n"
    for k in (90, 60, 45):
        files[f"chain{k}.script"], sentences[f"chain{k}"] = chain.script(k)
    files["chain_bad.script"] = files["chain45.script"] + f"mod_{chain.mods[44]} @ 1 <-\n"
    for label, (_, script) in ZERO_SCRIPTS.items():
        files[label.replace(" ", "_") + ".script"] = script
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")

    def path(name: str) -> str:
        return str(workdir / name)

    grammar_paths = [path(n) for n in ("big.lstag", "clean.lstag", "coord.lstag", "chain.tag")]
    grammar_paths += [str(root / "fixtures" / f) for f in ("cooked.tag", "cooks_eats.lstag")]

    def setup(lstag):
        docs, problems = {}, []
        for p in grammar_paths:
            doc = lstag.load_grammar(p)
            diags = lstag.validate_document(doc)
            lstag.usable_lstag_names(doc)
            docs[p] = doc
            want = list(big.diagnostics) if p == path("big.lstag") else []
            _expect(problems, sorted((d.code, d.where) for d in diags) == want, f"{p}: diagnostics differ")
        return docs, problems

    def cases(lstag, docs):
        cli = importlib.import_module("lstag.cli")
        out: list[Case] = []

        def add(label, argv, check):
            out.append(Case(label, lambda: call_cli(cli, argv), check))

        def expect_exit(code, want, problems, err):
            _expect(problems, code == want, f"exit {code}, expected {want}: {err[:120]!r}")

        def validate_big(res):
            code, stdout, stderr = res
            problems = []
            expect_exit(code, 1, problems, stderr)
            got = sorted((d["code"], d["where"]) for d in map(json.loads, stderr.splitlines()))
            _expect(problems, got == list(big.diagnostics), "planted diagnostics differ")
            _expect(problems, set(gen.PLANTED_CODES) <= {c for c, _ in got}, "a planted code is missing")
            return problems

        def validate_clean(res):
            problems = []
            expect_exit(res[0], 0, problems, res[2])
            _expect(problems, res[1] == res[2] == "", "clean grammar produced output")
            return problems

        doc = docs[path("big.lstag")]
        round_trip = lstag.parse_grammar(lstag.format_grammar(doc)) == doc

        def export_text(res):
            code, stdout, stderr = res
            problems = []
            expect_exit(code, 0, problems, stderr)
            _expect(problems, stdout == big.text, "export text is not the canonical source")
            _expect(problems, round_trip, "parse_grammar(format_grammar(doc)) != doc")
            return problems

        def export_json(res):
            code, stdout, stderr = res
            problems = []
            expect_exit(code, 0, problems, stderr)
            obj = json.loads(stdout)
            _expect(problems, [(t["name"], t["tree"]) for t in obj["trees"]] == list(big.trees), "json trees")
            _expect(problems, [(p["name"], p["left"], p["right"]) for p in obj["pairs"]] == list(big.pairs),
                    "json pairs")
            _expect(problems, [(p["name"], p["left"], p["right"]) for p in obj["lspairs"]] == list(big.lspairs),
                    "json lspairs")
            return problems

        def export_dot(res):
            code, stdout, stderr = res
            problems = []
            expect_exit(code, 0, problems, stderr)
            clusters = stdout.count("subgraph cluster_")
            want = len(big.trees) + 2 * (len(big.pairs) + len(big.lspairs))
            _expect(problems, stdout.startswith("digraph grammar {") and clusters == want,
                    f"{clusters} clusters, expected {want}")
            return problems

        def derive_coord(n, fmt):
            sentence = sentences[f"coord{n}"]

            def check(res):
                code, stdout, stderr = res
                problems = []
                expect_exit(code, 0, problems, stderr)
                if fmt == "text":
                    _expect(problems, stdout.startswith(f"yield: {sentence}\n"), "yield line differs")
                    _expect(problems, "\nlink " not in stdout, "live link groups remain")
                elif fmt == "json":
                    obj = json.loads(stdout)
                    _expect(problems, obj["yield"] == sentence, "json yield differs")
                    indeg = collections.Counter(e["to"] for e in obj["projections"]["right"]["edges"])
                    shared = [r["id"] for r in obj["history"] if r["operation"] == "shared-substitution"]
                    _expect(problems, len(shared) == 2 and all(indeg[i] == n + 1 for i in shared),
                            f"shared arguments' in-degree {[indeg[i] for i in shared]} != {n + 1}")
                else:
                    dashed = stdout.count("[style=dashed]")
                    _expect(problems, stdout.startswith("digraph derived {") and dashed == 2 * (n + 1),
                            f"{dashed} shared-fragment edges, expected {2 * (n + 1)}")
                return problems

            add(f"derive coord n={n} {fmt}", ["derive", path("coord.lstag"), path(f"coord{n}.script"),
                                              "--format", fmt], check)

        def derive_chain(k, fmt):
            sentence = sentences[f"chain{k}"]

            def check(res):
                code, stdout, stderr = res
                problems = []
                expect_exit(code, 0, problems, stderr)
                if fmt == "text":
                    _expect(problems, stdout.startswith(f"yield: {sentence}\n"), "yield line differs")
                elif fmt == "json":
                    _expect(problems, json.loads(stdout)["yield"] == sentence, "json yield differs")
                else:
                    edges = len(re.findall(r'" -> "d_', stdout))
                    _expect(problems, stdout.startswith("digraph derived {") and edges == k + 2,
                            f"{edges} derivation edges, expected {k + 2}")
                return problems

            add(f"derive chain k={k} {fmt}", ["derive", path("chain.tag"), path(f"chain{k}.script"),
                                              "--format", fmt], check)

        def exits(want, marker):
            def check(res):
                code, stdout, stderr = res
                problems = []
                expect_exit(code, want, problems, stderr)
                _expect(problems, marker in stderr, f"stderr lacks {marker!r}: {stderr[:120]!r}")
                return problems

            return check

        add("validate big --json", ["validate", path("big.lstag"), "--json"], validate_big)
        add("validate clean", ["validate", path("clean.lstag")], validate_clean)
        add("export text", ["export", path("big.lstag")], export_text)
        add("export json", ["export", path("big.lstag"), "--format", "json"], export_json)
        add("export dot", ["export", path("big.lstag"), "--format", "dot"], export_dot)
        for n, fmt in ((60, "text"), (45, "json"), (30, "dot")):
            derive_coord(n, fmt)
        for k, fmt in ((90, "text"), (60, "json"), (45, "dot")):
            derive_chain(k, fmt)
        add("derive failing step", ["derive", path("coord.lstag"), path("coord_fail.script")],
            exits(1, "DerivationFailed"))
        add("malformed lspair script", ["derive", path("coord.lstag"), path("coord_bad.script")],
            exits(2, "parse error"))
        add("malformed tag script", ["derive", path("chain.tag"), path("chain_bad.script")],
            exits(2, "parse error"))
        add("malformed grammar", ["validate", path("broken.lstag")], exits(2, "parse error"))
        for label, (grammar, _) in ZERO_SCRIPTS.items():
            add(label, ["derive", str(root / "fixtures" / grammar), path(label.replace(" ", "_") + ".script")],
                exits(2, "parse error"))
        return out

    return Plan(setup, cases)


WORKLOADS = {"coord-enum": coord_enum, "tag-enum": tag_enum, "cli-batch": cli_batch}
