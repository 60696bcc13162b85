"""The bulk builders run with CPython's cyclic collector paused, and build no reference cycle.

`enumerate_derivations`, `replay`, `parse_grammar` and `cli.main` switch the
collector off for the call (`trees.no_cycles`).  That is safe only because
nothing they build holds a cycle: with the collector off, a collection must
find nothing to free after each of them, and the collector must be left as
the caller had it, on or off, whether the call returns, raises or argparse
exits.
"""

import contextlib
import gc
import io
import random

import pytest

from lstag import (
    EnumerationBudget,
    enumerate_derivations,
    load_grammar,
    parse_grammar,
    replay,
    usable_lstag_names,
)
from lstag import cli, engine, grammarfile, tag
from lstag.errors import ParseError, UnknownTree
from lstag.tag import DerivationTree

from test_engine import GEN

FIXTURE_NAMES = ("cooked.tag", "cooks_eats.lstag", "degenerate.lstag", "excised.lstag", "topicalization.lstag")


@contextlib.contextmanager
def collector(enabled: bool):
    """The collector switched on or off for the block, and put back as it was after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def freed(call) -> int:
    """What the collector frees after `call()`, run with the collector off.

    Collecting the youngest generation first leaves it empty, and with the collector off nothing moves an
    object out of it, so it then holds every object the call built: collecting it alone finds any cycle they
    make, without walking the rest of the test session's heap.
    """
    with collector(False):
        gc.collect(0)
        call()
        return gc.collect(0)


def test_enumerating_and_replaying_the_fixtures_builds_no_cycle(fixtures_dir):
    """Every fixture, gated and ungated, at ops 1-4, and the replay of every item of the TAG fixture."""
    results = []
    for name in FIXTURE_NAMES:
        doc = load_grammar(str(fixtures_dir / name))
        for gated in (True, False):
            grammar = (
                doc.lstag_grammar(usable_lstag_names(doc, restrictions=gated)) if doc.lstag_pairs else doc.tag_grammar()
            )
            for ops in (1, 2, 3, 4):
                assert freed(lambda: results.append(enumerate_derivations(grammar, EnumerationBudget(ops)))) == 0
                if not doc.lstag_pairs:
                    derivations = [item.left_derivation for item in results[-1].items]
                    assert freed(lambda: [replay(grammar, d) for d in derivations]) == 0
    assert sum(len(result.items) for result in results) > 100  # or the test proves little


def test_parsing_builds_no_cycle(fixtures_dir):
    """Every fixture, and the 120-pair grammar with three broken pairs that the `cli-batch` workload validates."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(fixtures_dir.iterdir()) if p.is_file()]
    texts.append(GEN.big_grammar(random.Random(1), 120, 3).text)
    for text in texts:
        assert freed(lambda: parse_grammar(text)) == 0


def test_a_cli_run_builds_no_cycle_but_its_argument_parser(fixtures_dir, tmp_path):
    """argparse's parser holds cycles of its own, and each `main` call builds one; nothing else is left."""
    parser = freed(cli._build_parser)
    assert parser > 0  # or the comparison below proves nothing
    broken = tmp_path / "broken.lstag"
    broken.write_text('lspair tail { left: NP("unterminated) right: NP("x") delta: [] phi: [] }\n', encoding="utf-8")
    lstag, tag_grammar = str(fixtures_dir / "cooks_eats.lstag"), str(fixtures_dir / "cooked.tag")
    scripts = [(lstag, str(fixtures_dir / "scripts" / "cooks_eats.script"))]
    scripts.append((tag_grammar, str(fixtures_dir / "scripts" / "cooked_dried.script")))
    argvs = [["validate", lstag], ["validate", str(broken)]]
    argvs.append(["validate", str(fixtures_dir / "excised.lstag"), "--json"])
    argvs += [["export", str(fixtures_dir / "translation.stag"), "--format", f] for f in ("text", "json", "dot")]
    argvs += [["derive", g, s, "--format", f] for g, s in scripts for f in ("text", "json", "dot")]
    argvs += [["derive", tag_grammar, scripts[0][1]], ["derive", lstag, str(tmp_path / "missing.script")]]
    argvs += [["enumerate", g, "--max-ops", "3", *flags] for g in (lstag, tag_grammar)
              for flags in ((), ("--format", "json"), ("--strings-only",))]
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert freed(lambda: codes.append(cli.main(argv))) == parser, argv
    assert set(codes) == {0, 1, 2}


def _raises(error, fn, *args):
    def run():
        with pytest.raises(error):
            fn(*args)

    return run


def _calls(fixtures_dir, monkeypatch):
    """{call: (module, a function the call makes while it runs, [runs that return, raise or exit])}."""
    grammar = load_grammar(str(fixtures_dir / "cooked.tag")).tag_grammar()
    item = enumerate_derivations(grammar, EnumerationBudget(3)).items[-1]
    budget = EnumerationBudget(2)
    text = (fixtures_dir / "cooks_eats.lstag").read_text(encoding="utf-8")
    path = str(fixtures_dir / "cooks_eats.lstag")

    def failing_command(args):
        raise RuntimeError("a command that fails")

    def main_raises():
        monkeypatch.setitem(cli._COMMANDS, "export", failing_command)
        _raises(RuntimeError, cli.main, ["export", path])()

    return {
        "enumerate_derivations": (engine, "_search", [
            lambda: enumerate_derivations(grammar, budget),
            _raises(TypeError, enumerate_derivations, object(), budget),
        ]),
        "replay": (tag, "SyntaxTree", [
            lambda: replay(grammar, item.left_derivation),
            _raises(UnknownTree, replay, grammar, DerivationTree("nothing")),
        ]),
        "parse_grammar": (grammarfile, "lex", [
            lambda: parse_grammar(text),
            _raises(ParseError, parse_grammar, "lspair {"),
        ]),
        "main": (cli, "_build_parser", [
            lambda: cli.main(["validate", path]),
            lambda: cli.main(["--no-such-flag"]),  # argparse exits; `main` returns its status
            lambda: cli.main(["validate", "--help"]),
            main_raises,
        ]),
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("name", ["enumerate_derivations", "replay", "parse_grammar", "main"])
def test_a_bulk_call_pauses_the_collector_and_leaves_it_as_it_was(fixtures_dir, monkeypatch, capsys, name, enabled):
    module, inner, runs = _calls(fixtures_dir, monkeypatch)[name]
    during = []
    original = getattr(module, inner)
    monkeypatch.setattr(module, inner, lambda *args: during.append(gc.isenabled()) or original(*args))
    with collector(enabled):
        for run in runs:
            run()
            assert gc.isenabled() is enabled
    assert len(during) >= len(runs) - 1 and not any(during)  # one run may fail before the inner call
