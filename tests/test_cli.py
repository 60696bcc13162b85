import contextlib
import io
import json
import pathlib
import os
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import lstag
from lstag import load_grammar
from lstag._lex import read_script
from lstag.cli import main, run_lstag_script
from lstag.errors import ParseError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate -------------------------------------------------------------------


def test_validate_clean_grammar(capsys, fixtures_dir):
    code, out, err = run(capsys, "validate", str(fixtures_dir / "cooks_eats.lstag"))
    assert code == 0
    assert err == ""


def test_validate_reports_restriction_failures(capsys, fixtures_dir):
    code, out, err = run(capsys, "validate", str(fixtures_dir / "excised.lstag"))
    assert code == 1
    assert "Discontiguous" in err


def test_validate_json_lines(capsys, fixtures_dir):
    code, out, err = run(capsys, "validate", str(fixtures_dir / "excised.lstag"), "--json")
    assert code == 1
    payload = json.loads(err.strip().splitlines()[0])
    assert payload["code"] == "Discontiguous"
    assert payload["where"] == "likes_gapped"


def test_validate_no_restrictions_loads_discontiguous_pair(capsys, fixtures_dir):
    code, out, err = run(
        capsys, "validate", str(fixtures_dir / "excised.lstag"), "--no-restrictions"
    )
    assert code == 0
    assert err == ""


def test_color_switch_wraps_human_diagnostics_only(capsys, monkeypatch, fixtures_dir):
    grammar = str(fixtures_dir / "excised.lstag")
    monkeypatch.delenv("LSTAG_COLOR", raising=False)
    plain = run(capsys, "validate", grammar)
    json_lines = run(capsys, "validate", grammar, "--json")
    assert plain[2] and "\x1b" not in plain[2]
    monkeypatch.setenv("LSTAG_COLOR", "1")
    colored = "".join(f"\x1b[31m{line}\x1b[0m\n" for line in plain[2].splitlines())
    assert run(capsys, "validate", grammar) == (1, "", colored)
    assert run(capsys, "validate", grammar, "--json") == json_lines
    assert "\x1b" not in json_lines[2]


def test_validate_flags_non_reflexive_phi(capsys, tmp_path):
    bad = tmp_path / "bad.lstag"
    bad.write_text(
        'lspair b { left: NP("x") right: S(NP! VP(V("y"))) delta: [] phi: [1~2] }',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "NotReflexive" in err


_MIXED_CLASS = """\
lspair cooks { left: S(NP! VP(V("cooks") NP!)) right: S(NP! VP(V("cooks") NP!)) delta: [1~1, 2.2~2.2] phi: [] }
lspair m { left: VP(ADV("often") VP*) right: VP(ADV("oft") V("x")) delta: [] phi: [] }
"""


def test_validate_flags_a_pair_whose_trees_differ_in_class(capsys, tmp_path):
    grammar = tmp_path / "mixed.lstag"
    grammar.write_text(_MIXED_CLASS, encoding="utf-8")
    assert run(capsys, "validate", str(grammar)) == (
        1,
        "",
        "m: ClassMismatch: left tree is auxiliary but right tree is initial\n",
    )
    script = tmp_path / "mixed.script"
    script.write_text("root cooks\nadjoin m at 2 ~ 2\n", encoding="utf-8")
    assert run(capsys, "derive", str(grammar), str(script)) == (
        1,
        "",
        "DerivationFailed: step 2: pair 'm' is excluded by validation: ClassMismatch\n",
    )


_NEVER_COMPOSES = """\
lspair h { left: S(NP! VP(V("x") NP!)) right: S(NP! VP(V("x") NP!)) delta: [1~2, 2.2~2.2] phi: [] }
lspair n { left: NP(N("n")) right: NP(N("n")) delta: [] phi: [] }
"""
_SLOT_AND_INTERIOR = (
    "left site 1 is SubstitutionSlot(symbol='NP') while right site 2 is Interior(symbol='VP'); "
    "both sides must substitute or both must adjoin"
)


def test_validate_flags_a_delta_link_whose_ends_take_different_operations(capsys, tmp_path):
    grammar, script = tmp_path / "h.lstag", tmp_path / "h.script"
    grammar.write_text(_NEVER_COMPOSES, encoding="utf-8")
    script.write_text("root h\nsubstitute n at 1\n", encoding="utf-8")
    want = f"h: OperationMismatch: delta link 1~2: {_SLOT_AND_INTERIOR}\n"
    assert run(capsys, "validate", str(grammar)) == (1, "", want)
    assert run(capsys, "derive", str(grammar), str(script)) == (
        1,
        "",
        "DerivationFailed: pair 'h' is excluded by validation: OperationMismatch\n",
    )


_PHI_AT_A_TERMINAL = """\
lspair cooks { left: S(NP! VP(V("cooks") NP!)) right: S(NP! VP(V("cooks") NP!)) delta: [1~1, 2.2~2.2] phi: [] }
lspair john { left: NP("John") right: NP("John") delta: [] phi: [] }
lspair and_eats { left: VP(VP* CC("and") VP(V("eats") NP!)) right: S(S* CC("and") S(NP! VP(V("eats") NP!))) \
delta: [3.2~3.2.2] phi: [3.2.1.1, 3.2.2] }
"""


def test_validate_flags_a_phi_endpoint_that_hosts_no_operation(capsys, tmp_path):
    """A phi link at a terminal joins a host group to a node no guest can fill, so the pair is excluded."""
    grammar, script = tmp_path / "phi.lstag", tmp_path / "phi.script"
    grammar.write_text(_PHI_AT_A_TERMINAL, encoding="utf-8")
    script.write_text("root cooks\nadjoin and_eats at 2 ~ ε\nsubstitute john at 1\n", encoding="utf-8")
    want = "and_eats: OperationMismatch: phi endpoint 3.2.1.1 is Terminal(token='eats'), which hosts no operation\n"
    assert run(capsys, "validate", str(grammar)) == (1, "", want)
    assert run(capsys, "derive", str(grammar), str(script)) == (
        1,
        "",
        "DerivationFailed: step 2: pair 'and_eats' is excluded by validation: OperationMismatch\n",
    )


_REPEATED_DELTA = """\
lspair h { left: S(NP! VP(V("x"))) right: S(NP! VP(V("x"))) delta: [1~1, 1~1] phi: [] }
lspair n { left: NP(N("n")) right: NP(N("n")) delta: [] phi: [] }
"""


def test_validate_flags_a_repeated_link(capsys, tmp_path):
    """Each copy of a repeated delta link makes a group at the same two sites, and no step fills both at once,
    so no derivation through the pair could complete: it is excluded."""
    grammar, script = tmp_path / "h.lstag", tmp_path / "h.script"
    grammar.write_text(_REPEATED_DELTA, encoding="utf-8")
    message = "delta link 1~1 appears 2 times"
    assert run(capsys, "validate", str(grammar)) == (1, "", f"h: DuplicateLink: {message}\n")
    code, out, err = run(capsys, "validate", str(grammar), "--json")
    assert (code, out) == (1, "")
    assert [json.loads(line) for line in err.splitlines()] == [{"code": "DuplicateLink", "message": message, "where": "h"}]
    for step in ("substitute n at 1", "substitute n at 1 ~ 1"):
        script.write_text(f"root h\n{step}\n", encoding="utf-8")
        assert run(capsys, "derive", str(grammar), str(script)) == (
            1,
            "",
            "DerivationFailed: pair 'h' is excluded by validation: DuplicateLink\n",
        )
    assert run(capsys, "enumerate", str(grammar), "--max-ops", "2") == (0, "n ::\n", "")


_UNFILLABLE_GROUPS = """\
lspair h { left: S(NP! VP(V("x") NP!)) right: S(NP! VP(V("x") NP!)) delta: [1~1, 1~2.2] phi: [] }
lspair i { left: S(NP! VP(V("x") NP!)) right: S(NP! VP(V("x") NP!)) delta: [1~1, 2~2, 2.2~2.2] phi: [] }
lspair a { left: VP(VP* CC("and") VP(V("y") NP!)) right: S(S* CC("and") S(NP! VP(V("y") NP!))) \
delta: [3.2~3.2.2] phi: [3.1, 3.2] }
lspair n { left: NP(N("n")) right: NP(N("n")) delta: [] phi: [] }
"""


def test_validate_flags_links_that_make_a_group_nothing_fills(capsys, tmp_path):
    """Only a substitution fills a group, at slots no other group holds: h's two delta links share left slot 1,
    i's 2~2 joins two interior nodes and a's phi endpoint 3.2 is interior, so each pair is excluded."""
    grammar = tmp_path / "unfillable.lstag"
    grammar.write_text(_UNFILLABLE_GROUPS, encoding="utf-8")
    want = [
        ("SharedEndpoint", "delta links 1~1, 1~2.2 share left endpoint 1", "h"),
        ("NotASlot", "delta link 2~2 joins two interior nodes, and only a substitution fills a link group", "i"),
        ("NotASlot", "phi endpoint 3.2 is Interior(symbol='VP'), not a substitution slot", "a"),
    ]
    text = "".join(f"{where}: {code}: {message}\n" for code, message, where in want)
    assert run(capsys, "validate", str(grammar)) == (1, "", text)
    code, out, err = run(capsys, "validate", str(grammar), "--json")
    assert (code, out) == (1, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"code": code, "message": message, "where": where} for code, message, where in want
    ]
    assert run(capsys, "enumerate", str(grammar), "--max-ops", "3") == (0, "n ::\n", "")


def test_validate_flags_a_pair_link_whose_ends_take_different_operations(capsys, tmp_path):
    grammar = tmp_path / "p.stag"
    grammar.write_text(
        'pair p { left: S(NP! VP(V("x"))) right: S(NP! VP(V("x"))) links: [1~1, 1~2] }\n', encoding="utf-8"
    )
    assert run(capsys, "validate", str(grammar)) == (1, "", f"p: OperationMismatch: link 1~2: {_SLOT_AND_INTERIOR}\n")


def test_a_non_injective_correspondence_is_a_parse_error(capsys, tmp_path):
    grammar = tmp_path / "noninjective.lstag"
    grammar.write_text(
        'lspair g { left: S(NP! V("likes")) right: S(NP! V("likes")) delta: [1~1] phi: [] '
        "correspond: [1 -> 1, 2 -> 1] }\n",
        encoding="utf-8",
    )
    assert run(capsys, "validate", str(grammar)) == (
        2,
        "",
        "parse error: correspondence is not injective (line 1, column 94)\n",
    )


def test_parse_error_exits_with_usage_status(capsys, tmp_path):
    broken = tmp_path / "broken.tag"
    broken.write_text("tree a: S(", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('tree a: S("a")\n\n  tree x: NP!\n', "root node must be an interior node (line 3, column 11)"),
        ('tree x: S(A*\n   VP("v" B*))\n', "tree has more than one foot node (line 2, column 11)"),
    ],
)
def test_whole_tree_errors_give_their_location(capsys, tmp_path, text, message):
    path = tmp_path / "located.tag"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err == f"parse error: {message}\n"


def test_missing_file_exits_with_usage_status(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "nope.tag"))
    assert code == 2


def test_invalid_utf8_is_a_parse_error(capsys, fixtures_dir, tmp_path):
    grammar = tmp_path / "latin1.tag"
    grammar.write_bytes(b'tree t: S(NP("caf\xe9"))\n')
    code, out, err = run(capsys, "validate", str(grammar))
    assert (code, out) == (2, "")
    assert err == f"parse error: {grammar} is not valid UTF-8 (invalid continuation byte)\n"
    script = tmp_path / "latin1.script"
    script.write_bytes(b"root cooks\nadjoin and_eats at 2.1 ~ \xe9\n")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "grammar, script", [("cooks_eats.lstag", "cooks_eats.script"), ("cooked.tag", "cooked_dried.script")]
)
def test_a_leading_byte_order_mark_is_ignored(capsys, fixtures_dir, tmp_path, grammar, script):
    sources = [fixtures_dir / grammar, fixtures_dir / "scripts" / script]
    outcomes = []
    for mark in ("", "\ufeff"):
        paths = [str(tmp_path / f"{len(mark)}-{source.name}") for source in sources]
        for path, source in zip(paths, sources):
            pathlib.Path(path).write_text(mark + source.read_text(encoding="utf-8"), encoding="utf-8")
        outcomes.append([run(capsys, "validate", paths[0])[:2], run(capsys, "derive", *paths)[:2]])
    assert outcomes[1] == outcomes[0]
    assert [code for code, _ in outcomes[0]] == [0, 0]


@pytest.mark.parametrize("where", ["grammar", "script"])
def test_a_byte_order_mark_after_the_start_is_a_parse_error(capsys, fixtures_dir, tmp_path, where):
    grammar = (fixtures_dir / "cooks_eats.lstag").read_text(encoding="utf-8")
    script = (fixtures_dir / "scripts" / "cooks_eats.script").read_text(encoding="utf-8")
    if where == "grammar":
        grammar = "\ufeff\ufeff" + grammar
    else:
        script = script.replace("\n", "\n\ufeff", 1)
    paths = [tmp_path / "g.lstag", tmp_path / "s.script"]
    for path, text in zip(paths, (grammar, script)):
        path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "derive", *map(str, paths))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: unexpected character '\\ufeff'"), err


# --- derive ---------------------------------------------------------------------


def test_derive_plain_tag_script(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "derive",
        str(fixtures_dir / "cooked.tag"),
        str(fixtures_dir / "scripts" / "cooked_dried.script"),
    )
    assert code == 0
    assert "yield: John cooked dried beans" in out
    assert "beans @ 1 <- dried" in out


def test_derive_coordination_script(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "derive",
        str(fixtures_dir / "cooks_eats.lstag"),
        str(fixtures_dir / "scripts" / "cooks_eats.script"),
    )
    assert code == 0
    assert "yield: John cooks and eats beans" in out
    assert "fragment cooks/1:john" in out


def test_derive_structure_json_matches_golden(capsys, fixtures_dir, golden_dir):
    code, out, err = run(
        capsys,
        "derive",
        str(fixtures_dir / "cooks_eats.lstag"),
        str(fixtures_dir / "scripts" / "cooks_eats.script"),
        "--format",
        "json",
    )
    assert code == 0
    produced = json.loads(out)
    with open(golden_dir / "cooks_eats_structure.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    expected["yield"] = "John cooks and eats beans"
    assert produced == expected


def test_derive_dot_golden_bytes(capsys, fixtures_dir, golden_dir):
    code, out, err = run(
        capsys,
        "derive",
        str(fixtures_dir / "cooks_eats.lstag"),
        str(fixtures_dir / "scripts" / "cooks_eats.script"),
        "--format",
        "dot",
    )
    assert code == 0
    assert out == (golden_dir / "cooks_eats_derive.dot").read_text(encoding="utf-8")


def test_derive_tag_dot_golden_bytes(capsys, fixtures_dir, golden_dir):
    code, out, err = run(
        capsys,
        "derive",
        str(fixtures_dir / "cooked.tag"),
        str(fixtures_dir / "scripts" / "cooked_dried.script"),
        "--format",
        "dot",
    )
    assert code == 0
    assert out == (golden_dir / "cooked_dried_derive.dot").read_text(encoding="utf-8")


def test_derive_dot_ids_of_nested_edge_addresses_stay_distinct(capsys, fixtures_dir, tmp_path):
    # vpmod's child at 1 and cooked's child at 2.1 both spell d_2_1.
    grammar = tmp_path / "mods.tag"
    grammar.write_text(
        (fixtures_dir / "cooked.tag").read_text(encoding="utf-8")
        + 'tree vpmod: VP(ADV("quickly") VP*)\n'
        + 'tree advmod: ADV(ADV("very") ADV*)\n'
        + 'tree vmod: V(A("al") V*)\n',
        encoding="utf-8",
    )
    script = tmp_path / "mods.script"
    script.write_text(
        "root cooked\ncooked @ 1 <- john\ncooked @ 2 <- vpmod\nvpmod @ 1 <- advmod\n"
        "cooked @ 2.1 <- vmod\ncooked @ 2.2 <- beans\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "derive", str(grammar), str(script), "--format", "dot")
    assert (code, err) == (0, "")
    declared = [line.split('"')[1] for line in out.splitlines() if line.startswith('    "d') and "->" not in line]
    assert len(set(declared)) == len(declared) == 6
    assert '    "d" -> "d_2_1\'" [label="2.1"];' in out


def test_derive_dot_bytes_do_not_depend_on_the_stdout_encoding(fixtures_dir, golden_dir):
    src = str(pathlib.Path(lstag.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONIOENCODING="ascii",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "lstag.cli", "derive", str(fixtures_dir / "cooks_eats.lstag"),
         str(fixtures_dir / "scripts" / "cooks_eats.script"), "--format", "dot"],
        env=env, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (golden_dir / "cooks_eats_derive.dot").read_bytes()


def test_derive_root_only_script(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "just.script"
    script.write_text("root john\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooked.tag"), str(script))
    assert code == 0
    assert 'tree: NP("John")' in out


def test_derive_failing_step_reports_diagnostic(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "bad.script"
    script.write_text("root cooks\nsubstitute john at 9.9\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert code == 1
    assert "DerivationFailed" in err


@pytest.mark.parametrize(
    "steps, stderr",
    [
        (["substitute john at 9.9"], "step 2: no live link group with left address 9.9"),
        (["substitute john at 1", "substitute john at 1"], "step 3: no live link group with left address 1"),
        (["adjoin john at 1 ~ 1"], "step 2: sites 1 ~ 1 take substitution, not adjoin"),
        (["substitute and_eats at 2.1 ~ ε"], "step 2: sites 2.1 ~ ε take adjunction, not substitute"),
        (["adjoin and_eats at 2.1 ~ 9.9"], "step 2: no node at address 9.9"),
        (
            ["adjoin and_eats at 2.1.1 ~ ε"],
            "step 2: left site 2.1.1 is Terminal(token='cooks') while right site ε is Interior(symbol='S'); "
            "both sides must substitute or both must adjoin",
        ),
        (
            ["substitute john at 1 ~ 2.2"],
            "step 2: substitution at a shared link group must fill every linked site in one operation; "
            "use shared_substitute",
        ),
    ],
)
def test_each_failing_lstag_step_prints_its_exact_diagnostic(capsys, fixtures_dir, tmp_path, steps, stderr):
    script = tmp_path / "bad.script"
    script.write_text("\n".join(["root cooks", *steps]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert (code, out, err) == (1, "", f"DerivationFailed: {stderr}\n")


@pytest.mark.parametrize(
    "step, error, message",
    [
        ("adjoin and_eats at 2.1 ~ 9.9", lstag.AddressNotFound, "step 2: no node at address 9.9"),
        ("substitute nobody at 2.2", lstag.UnknownTree, "step 2: no pair named 'nobody'"),
        ("adjoin and_eats at 2.1.1 ~ ε", lstag.OperationMismatch, "step 2: left site 2.1.1 is Terminal"),
        ("substitute john at 1 ~ 2.2", lstag.GroupNotLive, "step 2: substitution at a shared link group"),
    ],
)
def test_a_failing_lstag_step_keeps_its_class_and_names_its_step(fixtures_dir, step, error, message):
    grammar = load_grammar(str(fixtures_dir / "cooks_eats.lstag")).lstag_grammar()
    with pytest.raises(error) as info:
        run_lstag_script(grammar, *read_script(f"root cooks\n{step}\n"))
    assert type(info.value) is error and str(info.value).startswith(message)
    assert getattr(info.value, "name", "nobody") == "nobody"  # an UnknownTree keeps the name it looked up


def test_an_adjoin_step_needs_a_site_pair(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "one_site.script"
    script.write_text("root cooks\nadjoin and_eats at 2.1\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert (code, out, err) == (2, "", "parse error: adjoin steps need a left ~ right site pair (line 2)\n")


def test_derive_json_before_the_substitutions_lists_the_live_links(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "half.script"
    script.write_text("root cooks\nadjoin and_eats at 2.1 ~ ε\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["liveLinks"] == [
        {"left": "1", "right": ["3.1", "1"]},
        {"left": "2.2", "right": ["3.2.2", "2.2"]},
    ]


@pytest.mark.parametrize("step", ["adjoin and_eats at 2.1 ~ ε", "substitute john at 1"])
def test_an_lspair_script_without_a_root_is_a_parse_error(capsys, fixtures_dir, tmp_path, step):
    script = tmp_path / "rootless.script"
    script.write_text(f"# no root\n\n{step}\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert (code, out, err) == (2, "", "parse error: script needs a root declaration first (line 3)\n")


def test_a_tag_script_may_start_with_an_edge_line(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "edges.script"
    script.write_text("cooked @ 1 <- john\ncooked @ 2.2 <- beans\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooked.tag"), str(script))
    assert (code, err) == (0, "")
    assert out.startswith("yield: John cooked beans\n")


def test_a_tag_edge_into_a_slot_of_another_symbol_prints_its_exact_diagnostic(capsys, tmp_path):
    grammar, script = tmp_path / "a.tag", tmp_path / "a.script"
    grammar.write_text("tree a: S(NP!)\n", encoding="utf-8")
    script.write_text("root a\na @ 1 <- a\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(grammar), str(script))
    assert (code, out, err) == (1, "", "DerivationFailed: root: slot at 1 expects 'NP', got root 'S'\n")


@pytest.mark.parametrize(
    "text, message",
    [("substitute john at 1\n", "script needs a root declaration first (line 1)"), ("", "empty derivation script")],
    ids=["step-first", "empty"],
)
def test_run_lstag_script_needs_a_root_line_first(fixtures_dir, text, message):
    grammar = load_grammar(str(fixtures_dir / "cooks_eats.lstag")).lstag_grammar()
    with pytest.raises(ParseError) as info:
        run_lstag_script(grammar, *read_script(text))
    assert str(info.value) == message


def test_each_lstag_step_walks_to_its_sites_once(fixtures_dir, monkeypatch):
    """A `~` line walks from a root twice, a `substitute ... at L` line once, and each builds one record.

    The two walks locate the step's left and right sites; no walk looks for a guest's foot.
    """
    grammar = load_grammar(str(fixtures_dir / "cooks_eats.lstag")).lstag_grammar()
    walks, records = [], []
    row_at, step_record = lstag.SyntaxTree.row_at, lstag.cli.step_record
    monkeypatch.setattr(lstag.SyntaxTree, "row_at", lambda tree, addr: walks.append(addr) or row_at(tree, addr))
    monkeypatch.setattr(lstag.cli, "step_record", lambda *a: records.append(a) or step_record(*a))
    depth = 16
    steps = ["root cooks"] + ["adjoin and_eats at 2.1 ~ ε"] * depth + ["substitute john at 1", "substitute beans at 2.2"]
    counts = []
    for n in range(1, len(steps) + 1):
        walks.clear()
        records.clear()
        run_lstag_script(grammar, *read_script("\n".join(steps[:n]) + "\n"))
        counts.append((len(walks), len(records)))
    per_line = [(w - pw, r - pr) for (w, r), (pw, pr) in zip(counts[1:], counts)]
    assert per_line[:depth] == [(2, 1)] * depth
    assert per_line[depth:] == [(1, 1), (1, 1)]


def test_derive_rejects_an_auxiliary_root_pair(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "aux.script"
    script.write_text("root and_eats\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert code == 1
    assert out == ""
    assert "DerivationFailed" in err


def test_derive_names_a_root_pair_that_validation_excluded(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "topic.script"
    script.write_text("root peanuts_likes\nsubstitute john at 2.1\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "topicalization.lstag"), str(script))
    assert (code, out) == (1, "")
    assert err == "DerivationFailed: pair 'peanuts_likes' is excluded by validation: LexicallyDiscontiguous\n"


def _wrap_everywhere(monkeypatch, name, original, calls):
    """Record the arguments of every call of `original` made through the name `name` in any lstag module."""
    wrapper = lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)
    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "lstag" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)


def test_derive_validates_once_for_an_excluded_root_pair(capsys, fixtures_dir, tmp_path, monkeypatch):
    script = tmp_path / "topic.script"
    script.write_text("root peanuts_likes\nsubstitute john at 2.1\n", encoding="utf-8")
    calls = []
    _wrap_everywhere(monkeypatch, "validate_document", lstag.grammarfile.validate_document, calls)
    code, out, err = run(capsys, "derive", str(fixtures_dir / "topicalization.lstag"), str(script))
    assert (code, out, len(calls)) == (1, "", 1)
    assert err == "DerivationFailed: pair 'peanuts_likes' is excluded by validation: LexicallyDiscontiguous\n"


@pytest.mark.parametrize(
    "grammar, script", [("cooks_eats.lstag", "cooks_eats.script"), ("cooked.tag", "cooked_dried.script")]
)
def test_derive_lexes_each_script_line_once(capsys, fixtures_dir, monkeypatch, grammar, script):
    calls = []
    _wrap_everywhere(monkeypatch, "lex", lstag._lex.lex, calls)
    code, _, err = run(capsys, "derive", str(fixtures_dir / grammar), str(fixtures_dir / "scripts" / script))
    assert (code, err) == (0, "")
    grammar_text, script_text = ((fixtures_dir / f).read_text(encoding="utf-8") for f in (grammar, "scripts/" + script))
    script_calls = [args for args in calls if args[0] != grammar_text]
    assert [args[1] for args in script_calls] == list(range(1, script_text.count("\n") + 2))
    assert [args[0] for args in script_calls] == script_text.split("\n")


_ONE_SITE_INTERIOR_GROUP = """\
lspair h { left: S(NP! VP(V("x"))) right: S(NP! VP(V("x"))) delta: [1~1, 2~2] phi: [] }
lspair a { left: VP(ADV("a") VP*) right: VP(ADV("a") VP*) delta: [] phi: [] }
lspair n { left: NP(N("n")) right: NP(N("n")) delta: [] phi: [] }
"""


@pytest.mark.parametrize("step", ["substitute a at 2", "substitute a at 2 ~ 2"])
def test_substitute_at_a_group_of_two_interior_nodes_is_a_verb_mismatch(capsys, tmp_path, monkeypatch, step):
    """A `delta` link between two interior nodes is a one-site group that no substitution fills: `derive` names
    the pair validation excludes, and over the unvalidated grammar both forms of `substitute` refuse it."""
    grammar, script = tmp_path / "h.lstag", tmp_path / "h.script"
    grammar.write_text(_ONE_SITE_INTERIOR_GROUP, encoding="utf-8")
    text = f"root h\n{step}\nsubstitute n at 1\n"
    script.write_text(text, encoding="utf-8")
    composed = []
    _wrap_everywhere(monkeypatch, "check_step", lstag.sharing.check_step, composed)
    assert run(capsys, "derive", str(grammar), str(script)) == (
        1,
        "",
        "DerivationFailed: pair 'h' is excluded by validation: NotASlot\n",
    )
    with pytest.raises(lstag.errors.OperationMismatch, match="^step 2: sites 2 ~ 2 take adjunction, not substitute$"):
        run_lstag_script(load_grammar(str(grammar)).lstag_grammar(), *read_script(text))
    assert composed == []


@pytest.mark.parametrize("step", ["substitute john at 1 junk", "adjoin and_eats at 2.1 ~ ε junk"])
def test_a_step_line_is_read_to_its_end_before_its_step_runs(capsys, fixtures_dir, tmp_path, monkeypatch, step):
    script = tmp_path / "junk.script"
    script.write_text(f"root cooks\n{step}\n", encoding="utf-8")
    composed = []
    _wrap_everywhere(monkeypatch, "check_step", lstag.sharing.check_step, composed)
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert (code, out, composed) == (2, "", [])
    assert err.startswith("parse error: trailing input on script line (line 2, ")


def test_derive_names_a_guest_pair_that_validation_excluded(capsys, tmp_path):
    grammar = tmp_path / "gapped.lstag"
    grammar.write_text(
        'lspair cooks { left: S(NP! VP(V("cooks") NP!)) right: S(NP! VP(V("cooks") NP!)) '
        "delta: [1~1, 2.2~2.2] phi: [] }\n"
        'lspair and_gapped { left: V(V* CC("and") ADV! V("eats")) right: S(NP! VP(V("eats") NP!) S*) '
        "delta: [] phi: [1, 2.2] }\n",
        encoding="utf-8",
    )
    script = tmp_path / "gapped.script"
    script.write_text("root cooks\nadjoin and_gapped at 2.1 ~ ε\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(grammar), str(script))
    assert (code, out) == (1, "")
    assert err == "DerivationFailed: step 2: pair 'and_gapped' is excluded by validation: LexicallyDiscontiguous\n"
    assert run(capsys, "derive", str(grammar), str(script), "--no-restrictions")[0] == 0


_WITH_A_BAD_TREE = """\
tree cooked: S(NP! VP(V("cooked") NP!))
tree john: NP("John")
tree bad: X(A("a") Y*)
"""


def test_derive_on_trees_leaves_out_a_tree_that_validation_excludes(capsys, tmp_path):
    """A tree that does not classify is left out of the grammar, as an excluded lspair is, so a script that does not name it derives."""
    grammar, script = tmp_path / "bad.tag", tmp_path / "john.script"
    grammar.write_text(_WITH_A_BAD_TREE, encoding="utf-8")
    script.write_text("root cooked\ncooked @ 1 <- john\n", encoding="utf-8")
    assert run(capsys, "derive", str(grammar), str(script)) == (
        0,
        "yield: John cooked ⟨NP↓⟩\n"
        'tree: S(NP("John") VP(V("cooked") NP!))\n'
        "derivation:\nroot cooked\ncooked @ 1 <- john\n",
        "",
    )


@pytest.mark.parametrize("text", ["root bad\n", "root cooked\ncooked @ 1 <- john\ncooked @ 2.2 <- bad\n"])
def test_derive_names_a_tree_that_validation_excluded(capsys, tmp_path, text):
    grammar, script = tmp_path / "bad.tag", tmp_path / "bad.script"
    grammar.write_text(_WITH_A_BAD_TREE, encoding="utf-8")
    script.write_text(text, encoding="utf-8")
    assert run(capsys, "derive", str(grammar), str(script)) == (
        1,
        "",
        "DerivationFailed: tree 'bad' is excluded by validation: ClassMismatch\n",
    )


_TWO_SLOTS_ONE_RIGHT = """\
lspair host { left: S(NP! VP(V("cooks") NP!)) right: S(NP! VP(V("cooks") NP!)) delta: [1~1, 2.2~1] phi: [] }
lspair and_w { left: V(V* CC("and") V("eats")) right: S(NP! VP(V("eats") NP!) S*) delta: [] phi: [1, 2.2] }
lspair john { left: NP("John") right: NP("John") delta: [] phi: [] }
lspair beans { left: NP("beans") right: NP("beans") delta: [] phi: [] }
"""


def test_derive_rejects_a_second_fragment_at_filled_right_slots(capsys, tmp_path):
    # Both left slots link to right slot 1, so after and_w spends its phi
    # links the groups name the spine slots [3.1, 1] and [3.1, 2.2]; john fills the first.
    # Validation excludes host for the shared endpoint; over the unvalidated grammar, the step check refuses.
    grammar = tmp_path / "two_slots.lstag"
    grammar.write_text(_TWO_SLOTS_ONE_RIGHT, encoding="utf-8")
    script = tmp_path / "two_fillers.script"
    text = "root host\nadjoin and_w at 2.1 ~ ε\nsubstitute john at 1\nsubstitute beans at 2.2\n"
    script.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "derive", str(grammar), str(script))
    assert (code, out) == (1, "")
    assert err == "DerivationFailed: pair 'host' is excluded by validation: SharedEndpoint\n"
    refused = "^step 4: right slot at 3.1 is already filled by a shared fragment$"
    with pytest.raises(lstag.errors.NotASlot, match=refused):
        run_lstag_script(load_grammar(str(grammar)).lstag_grammar(), *read_script(text))


@pytest.mark.parametrize(
    "step, code",
    [
        ("adjoin john at 1 ~ 1", 1),
        ("substitute and_eats at 2.1 ~ ε", 1),
        ("substitute john at 1 ~ 1", 0),
        ("adjoin and_eats at 2.1 ~ ε", 0),
    ],
)
def test_derive_site_pair_must_match_the_verb(capsys, fixtures_dir, tmp_path, step, code):
    script = tmp_path / "verb.script"
    script.write_text(f"root cooks\n{step}\n", encoding="utf-8")
    status, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert status == code
    if code:
        assert out == ""
        assert "DerivationFailed" in err
    else:
        assert out.startswith("yield: ")
        assert err == ""


@pytest.mark.parametrize(
    "grammar, script, position",
    [
        ("cooks_eats.lstag", "root cooks\n\nadjoin and_eats at 2.1 ~\n", "(line 3, column 25)"),
        ("cooked.tag", "root cooked\ncooked @ 1 <- john\n   cooked @ 2.2 <-\n", "(line 3, column 19)"),
        ("cooks_eats.lstag", "root cooks\nadjoin and_eats at 2.1 ~ ε ~\n",
         "trailing input on script line (line 2, column 28)"),
        ("cooked.tag", "root cooked\n\ncooked @ 1 <- john beans\n",
         "trailing input on script line (line 3, column 20)"),
        ("cooks_eats.lstag", "root cooks\nsubstitute john at 9.9 junk\n",
         "trailing input on script line (line 2, column 24)"),
        ("cooks_eats.lstag", "root cooks\nadjoin and_eats at 2.1 ~ ε junk\n",
         "trailing input on script line (line 2, column 28)"),
        ("cooked.tag", "cooked @ 1 <- john\nroot cooked\n", "root declaration must come before the edges (line 2)"),
        ("cooked.tag", "root cooked\nroot cooked\n", "duplicate root declaration (line 2)"),
        ("cooks_eats.lstag", "root cooks\nroot cooks\n", "duplicate root declaration (line 2)"),
        ("cooked.tag", "root cooked\ncooked @ 1 <- john\ncooked @ 1 <- john\n",
         "duplicate edge at address 1 under 'cooked' (line 3)"),
        # A script line's EOF is just past its last token, before blanks and a comment.
        ("cooks_eats.lstag", "root cooks\nadjoin and_eats at 2.1 ~   # c\n",
         "expected 'ADDR', found 'EOF' (line 2, column 25)"),
        # A lexical error anywhere stops the script before a step runs, a failing one too.
        ("cooks_eats.lstag", "root cooks\nsubstitute john at 9.9\n  $\n", "unexpected character '$' (line 3, column 3)"),
        ("cooked.tag", "root cooked\ncooked @ 9 <- john\ncooked @ 2.2 <- \"b\n",
         "unterminated string literal (line 3, column 17)"),
    ],
)
def test_derive_parse_error_reports_script_line_and_column(
    capsys, fixtures_dir, tmp_path, grammar, script, position
):
    path = tmp_path / "short.script"
    path.write_text(script, encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / grammar), str(path))
    assert code == 2
    assert position in err


def test_derive_unknown_root(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "odd.script"
    script.write_text("root mystery\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooked.tag"), str(script))
    assert code == 1
    assert "UnknownTree" in err


def test_derive_says_a_synchronous_pair_root_is_not_derived(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "sync.script"
    script.write_text("root cooked_sync\nsubstitute john_sync at 1\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "translation.stag"), str(script))
    assert (code, out) == (1, "")
    assert err == (
        "SynchronousPair: script root 'cooked_sync' is a synchronous pair; derive takes trees and lspairs only\n"
    )


def test_enumerate_refuses_a_grammar_of_synchronous_pairs_only(capsys, fixtures_dir):
    code, out, err = run(capsys, "enumerate", str(fixtures_dir / "translation.stag"))
    assert (code, out) == (1, "")
    assert err == "SynchronousPair: synchronous pairs are not enumerated\n"


_SKIPPED_PAIRS = "SynchronousPair: synchronous pairs are not enumerated\n"
_SKIPPED_TREES = "PlainTree: trees are not enumerated alongside lspairs\n"
_COOKED_TREE = 'tree cooked: S(NP! VP(V("cooked") NP!))\n'  # named apart from the lspairs of cooks_eats.lstag


@pytest.mark.parametrize(
    "enumerated, extras, skipped",
    [
        ("cooked.tag", ["translation.stag"], _SKIPPED_PAIRS),
        ("cooks_eats.lstag", [_COOKED_TREE], _SKIPPED_TREES),
        ("cooks_eats.lstag", [_COOKED_TREE, "translation.stag"], _SKIPPED_TREES + _SKIPPED_PAIRS),
    ],
    ids=["trees-and-pairs", "lspairs-and-trees", "all-three-kinds"],
)
def test_enumerate_reports_each_kind_of_declaration_it_leaves_out(
    capsys, fixtures_dir, tmp_path, enumerated, extras, skipped
):
    """Stdout and exit status are those of the enumerated file alone; stderr adds one line per kind left out."""
    sources = [x if x.startswith("tree ") else (fixtures_dir / x).read_text(encoding="utf-8") for x in extras]
    mixed = tmp_path / "mixed.txt"
    mixed.write_text((fixtures_dir / enumerated).read_text(encoding="utf-8") + "".join(sources), encoding="utf-8")
    alone = run(capsys, "enumerate", str(fixtures_dir / enumerated), "--max-ops", "2")
    code, out, err = run(capsys, "enumerate", str(mixed), "--max-ops", "2")
    assert alone[0] == 0 and (code, out) == alone[:2]
    assert err == skipped + alone[2]


@pytest.mark.parametrize(
    "grammar, script",
    [
        ("cooked.tag", "cooked @ 0 <- john\n"),
        ("cooks_eats.lstag", "root cooks\nadjoin and_eats at 2.0 ~ ε\n"),
        ("cooks_eats.lstag", "root cooks\nadjoin and_eats at 2.1 ~ 0\n"),
    ],
)
def test_derive_zero_address_component_is_a_parse_error(capsys, fixtures_dir, tmp_path, grammar, script):
    path = tmp_path / "zero.script"
    path.write_text(script, encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / grammar), str(path))
    assert code == 2
    assert err.startswith("parse error")
    assert "Traceback" not in err


_NAMES = st.sampled_from(["cooked", "john", "beans", "dried", "cooks", "and_eats", "mystery"])
_ADDRS = st.sampled_from(["ε", "0", "1", "2", "2.0", "2.1", "2.2", "0.1", "1.1", "9.9"])
_SCRIPT_LINES = st.one_of(
    st.builds("root {}".format, _NAMES),
    st.builds("{} @ {} <- {}".format, _NAMES, _ADDRS, _NAMES),
    st.builds("adjoin {} at {} ~ {}".format, _NAMES, _ADDRS, _ADDRS),
    st.builds("substitute {} at {}".format, _NAMES, _ADDRS),
    st.builds("substitute {} at {} ~ {}".format, _NAMES, _ADDRS, _ADDRS),
    st.lists(
        st.one_of(_NAMES, _ADDRS, st.sampled_from(["root", "adjoin", "substitute", "at", "~", "@", "<-"])),
        max_size=6,
    ).map(" ".join),
)


@settings(max_examples=150, deadline=None)
@given(
    grammar=st.sampled_from(["cooked.tag", "cooks_eats.lstag"]),
    lines=st.lists(_SCRIPT_LINES, min_size=1, max_size=5),
)
def test_derive_exit_status_holds_for_generated_scripts(grammar, lines):
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        script = pathlib.Path(tmp) / "fuzz.script"
        script.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["derive", str(fixtures / grammar), str(script)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def assert_derived(out: str, fmt: str, sentence: str, guest: str, count: int) -> None:
    """`out` is a text or JSON derive output that yields `sentence` and shows `count` instances of `guest`.

    The JSON of a deep derivation nests deeper than `json.loads` may
    recurse, so it is checked as text.
    """
    if fmt == "text":
        assert out.splitlines()[0] == f"yield: {sentence}"
        assert out.count(f"<- {guest}\n") == count
    else:
        # "yield" sorts last among the top-level keys.
        assert out.startswith("{\n") and out.endswith(f'\n  "yield": {json.dumps(sentence)}\n}}\n')
        assert out.count(f'"name": "{guest}"') == count


@pytest.mark.parametrize("depth, fmt", [(420, "json"), (600, "text")])
def test_derive_a_long_coordination_script(capsys, fixtures_dir, tmp_path, depth, fmt):
    # Stacked auxiliaries nest both trees and the derivation about `depth`
    # levels deep; 600 is deeper than Python's default recursion limit.
    steps = ["root cooks"] + ["adjoin and_eats at 2.1 ~ ε"] * depth
    script = tmp_path / "long.script"
    script.write_text("\n".join(steps + ["substitute john at 1", "substitute beans at 2.2"]) + "\n", encoding="utf-8")
    grammar = str(fixtures_dir / "cooks_eats.lstag")
    code, out, err = run(capsys, "derive", grammar, str(script), "--format", fmt)
    assert (code, err) == (0, "")
    assert_derived(out, fmt, "John cooks" + " and eats" * depth + " beans", "and_eats", depth)


def test_derive_a_long_modifier_chain(capsys, tmp_path):
    # Each modifier adjoins at the root of the one before it, so the
    # derivation is 402 levels deep; its JSON nests three times as deep.
    depth, fmt = 400, "json"
    trees = ['tree cooked: S(NP! VP(V("cooked") NP!))', 'tree john: NP("John")', 'tree beans: NP(N("beans"))']
    trees += [f'tree m{k}: N(A("a{k}") N*)' for k in range(1, depth + 1)]
    steps = ["root cooked", "cooked @ 1 <- john", "cooked @ 2.2 <- beans", "beans @ 1 <- m1"]
    steps += [f"m{k} @ ε <- m{k + 1}" for k in range(1, depth)]
    grammar, script = tmp_path / "chain.tag", tmp_path / "chain.script"
    grammar.write_text("\n".join(trees) + "\n", encoding="utf-8")
    script.write_text("\n".join(steps) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(grammar), str(script), "--format", fmt)
    assert (code, err) == (0, "")
    modifiers = " ".join(f"a{k}" for k in range(depth, 0, -1))
    assert_derived(out, fmt, f"John cooked {modifiers} beans", f"m{depth}", 1)


# --- enumerate ------------------------------------------------------------------


def test_enumerate_strings_only(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "enumerate",
        str(fixtures_dir / "cooked.tag"),
        "--max-ops",
        "3",
        "--strings-only",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == sorted(lines)
    assert "John cooked beans" in lines
    assert "John cooked dried beans" in lines


def test_enumerate_zero_budget_is_a_usage_error(capsys, fixtures_dir):
    code, out, err = run(capsys, "enumerate", str(fixtures_dir / "cooked.tag"), "--max-ops", "0")
    assert code == 2


def test_enumerate_budget_that_is_not_an_integer_is_a_usage_error(capsys, fixtures_dir):
    code, out, err = run(capsys, "enumerate", str(fixtures_dir / "cooked.tag"), "--max-ops", "abc")
    assert (code, out) == (2, "")
    assert "argument --max-ops: not an integer: 'abc'" in err


def test_enumerate_strings_only_takes_no_json_format(capsys, fixtures_dir):
    argv = ("enumerate", str(fixtures_dir / "cooks_eats.lstag"), "--strings-only", "--format", "json")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--strings-only prints text only" in err


def test_enumerate_leaves_out_a_tree_that_validation_excludes(capsys, tmp_path):
    """As with lspairs, the grammar holds the trees validation keeps: a tree that does not classify is left out."""
    good = 'tree cooked: S(NP! VP(V("cooked") NP!))\ntree john: NP("John")\n'
    texts = {"good": good, "bad": good + 'tree bad: X(A("a") Y*)\n', "odd": 'tree odd: S(A("x") NP*)\n'}
    outputs = {}
    for name, text in texts.items():
        (tmp_path / f"{name}.tag").write_text(text, encoding="utf-8")
        outputs[name] = run(capsys, "enumerate", str(tmp_path / f"{name}.tag"), "--max-ops", "2")
    listing = "John ::\nJohn cooked John :: substitution cooked/1:john; substitution cooked/2.2:john\n"
    assert outputs["good"] == (0, listing, "")
    assert outputs["bad"] == outputs["good"]
    assert outputs["odd"] == (0, "", "")


def test_enumerate_coordination_listing(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "enumerate",
        str(fixtures_dir / "cooks_eats.lstag"),
        "--max-ops",
        "4",
        "--strings-only",
    )
    assert code == 0
    assert "John cooks and eats beans" in out.splitlines()


@pytest.mark.parametrize(
    "fixture, stderr", [("cooks_eats.lstag", "(truncated)\n"), ("topicalization.lstag", "")]
)
def test_enumerate_strings_only_reports_truncation(capsys, fixtures_dir, fixture, stderr):
    path = str(fixtures_dir / fixture)
    code, out, err = run(capsys, "enumerate", path, "--max-ops", "3", "--strings-only")
    assert (code, err) == (0, stderr)
    code, listing, text_err = run(capsys, "enumerate", path, "--max-ops", "3")
    assert (code, text_err) == (0, stderr)
    assert out.splitlines() == sorted({line.split(" ::")[0] for line in listing.splitlines()})


def test_enumerate_json_is_deterministic(capsys, fixtures_dir):
    args = (
        "enumerate",
        str(fixtures_dir / "cooks_eats.lstag"),
        "--max-ops",
        "3",
        "--format",
        "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["truncated"] is True


def test_output_does_not_depend_on_the_hash_seed(fixtures_dir):
    commands = [
        ["enumerate", str(fixtures_dir / "cooks_eats.lstag"), "--format", "json", "--no-restrictions",
         "--max-ops", "3"],
        ["derive", str(fixtures_dir / "cooks_eats.lstag"), str(fixtures_dir / "scripts" / "cooks_eats.script"),
         "--format", "dot"],
        ["validate", "--json", str(fixtures_dir / "excised.lstag")],
        ["enumerate", str(fixtures_dir / "cooked.tag"), "--max-ops", "3", "--format", "json"],
    ]
    src = str(pathlib.Path(lstag.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # All eight runs at once, to keep the test's wall time near one interpreter start.
    runs = {
        (seed, i): subprocess.Popen(
            [sys.executable, "-m", "lstag.cli", *argv], env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for seed in ("0", "1")
        for i, argv in enumerate(commands)
    }
    outputs = {key: (*proc.communicate(timeout=60), proc.returncode) for key, proc in runs.items()}
    for i in range(len(commands)):
        assert outputs[("0", i)] == outputs[("1", i)]
        assert outputs[("0", i)][0] or outputs[("0", i)][1]


def test_the_parity_corpus_up_to_two_operations_matches_under_two_hash_seeds(fixtures_dir):
    """`tools/parity.py --check --max-ops 2`: every enumeration of at most two operations and every derive
    of the committed corpus, the coordination list included, and the seed-1 runs of the TAG list give the
    committed digests, under two hash seeds (CI checks the whole lists)."""
    tool = fixtures_dir.parent / "tools" / "parity.py"
    src = str(pathlib.Path(lstag.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [
        subprocess.Popen(
            [sys.executable, str(tool), "--check", "--max-ops", "2"], env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    ]
    for proc in runs:
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
        assert out == (
            "342 of 342 runs match tests/golden/parity.txt\n"
            "600 of 600 runs match tests/golden/parity_random.txt\n"
            "549 of 549 runs match tests/golden/parity_coord.txt\n"
            "35 of 35 runs match tests/golden/parity_tag.txt\n"
        )


def test_enumerate_respects_restrictions(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "enumerate",
        str(fixtures_dir / "topicalization.lstag"),
        "--max-ops",
        "3",
        "--strings-only",
    )
    assert code == 0
    assert "peanuts john likes and almonds hates" not in out.splitlines()
    code, out, err = run(
        capsys,
        "enumerate",
        str(fixtures_dir / "topicalization.lstag"),
        "--max-ops",
        "3",
        "--strings-only",
        "--no-restrictions",
    )
    assert code == 0
    assert "peanuts john likes and almonds hates" in out.splitlines()


# --- export ---------------------------------------------------------------------


def test_export_text_round_trips(capsys, fixtures_dir):
    path = str(fixtures_dir / "cooks_eats.lstag")
    code, out, err = run(capsys, "export", path)
    assert code == 0
    from lstag import load_grammar, parse_grammar

    assert parse_grammar(out) == load_grammar(path)


def test_export_json(capsys, fixtures_dir):
    code, out, err = run(
        capsys, "export", str(fixtures_dir / "translation.stag"), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"][0]["links"] == ["1~1", "2.2~2.2"]


def test_export_json_writes_the_correspondence(capsys, fixtures_dir):
    code, out, err = run(capsys, "export", str(fixtures_dir / "excised.lstag"), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["lspairs"][0]["correspond"] == [
        {"left": "ε", "right": "ε"},
        {"left": "1", "right": "1"},
        {"left": "2", "right": "2.2.1"},
    ]


def test_trees_deeper_than_the_recursion_limit(capsys, tmp_path):
    text = "tree deep: " + "S(" * 1200 + 'NP! "x"' + ")" * 1200 + "\n"
    path = tmp_path / "deep.tag"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "validate", str(path)) == (0, "", "")
    code, out, err = run(capsys, "export", str(path))
    assert (code, out, err) == (0, text, "")
    for fmt in ("json", "dot"):
        code, out, err = run(capsys, "export", str(path), "--format", fmt)
        assert (code, err) == (0, "")
    from lstag import format_grammar, load_grammar, parse_grammar

    doc = load_grammar(str(path))
    assert parse_grammar(format_grammar(doc)) == doc
    assert len(doc.trees[0][1]) == 1202


def test_export_dot_lists_every_entry(capsys, fixtures_dir):
    code, out, err = run(capsys, "export", str(fixtures_dir / "cooked.tag"), "--format", "dot")
    assert code == 0
    for name in ("cooked", "john", "beans", "dried"):
        assert f'label="tree {name}"' in out


# --- the exit contract on generated grammar text ----------------------------------

_SYMBOLS = st.sampled_from(["S", "NP", "VP", "V"])
_GRAMMAR_ADDRS = st.sampled_from(["ε", "1", "2", "1.1", "2.1", "2.2", "1.2.1", "3"])
_LEAVES = st.one_of(
    _SYMBOLS,
    st.builds("{}!".format, _SYMBOLS),
    st.builds("{}!".format, _SYMBOLS),
    st.builds("{}*".format, _SYMBOLS),
    st.sampled_from(['"a"', '"b"', '"and"']),
    st.sampled_from(['"a"', '"b"', '"and"']),
)
_SUBTREES = st.recursive(
    _LEAVES,
    lambda kids: st.builds("{}({})".format, _SYMBOLS, st.lists(kids, min_size=1, max_size=3).map(" ".join)),
    max_leaves=5,
)
_TREES = st.builds("{}({})".format, _SYMBOLS, st.lists(_SUBTREES, min_size=1, max_size=3).map(" ".join))
_LINKS = st.lists(st.builds("{}~{}".format, _GRAMMAR_ADDRS, _GRAMMAR_ADDRS), max_size=3).map(", ".join)
_PHI = st.lists(st.one_of(_GRAMMAR_ADDRS, st.builds("{}~{}".format, _GRAMMAR_ADDRS, _GRAMMAR_ADDRS)), max_size=3)
_CORRESPOND = st.one_of(
    st.just(""),
    st.lists(st.builds("{} -> {}".format, _GRAMMAR_ADDRS, _GRAMMAR_ADDRS), max_size=3)
    .map(", ".join)
    .map(" correspond: [{}]".format),
)
_DECL_NAMES = st.sampled_from(["a", "b", "and_b", "c"])
_DECLS = st.one_of(
    st.builds("tree {}: {}".format, _DECL_NAMES, _TREES),
    st.builds("pair {} {{ left: {} right: {} links: [{}] }}".format, _DECL_NAMES, _TREES, _TREES, _LINKS),
    st.builds(
        "lspair {} {{ left: {} right: {} delta: [{}] phi: [{}]{} }}".format,
        _DECL_NAMES, _TREES, _TREES, _LINKS, _PHI.map(", ".join), _CORRESPOND,
    ),
)
# Malformed tokens and addresses, spliced in at random places.
_JUNK = st.sampled_from(
    ["(", ")", "{", "]", ":", "~", "!", "*", "@", "->", '"open', "\\", "#", "$", "\f", "ε",
     "0", "1.0", "01", "1..2", "99999999999999999999"]
)


@st.composite
def _grammar_texts(draw):
    text = "\n".join(draw(st.lists(_DECLS, min_size=1, max_size=4))) + "\n"
    for junk in draw(st.lists(_JUNK, max_size=draw(st.integers(0, 2)))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + junk + text[at:]
    return text


_GRAMMAR_COMMANDS = [
    ["validate"],
    ["validate", "--json", "--no-restrictions"],
    ["enumerate", "--max-structures", "300"],
    ["enumerate", "--max-structures", "300", "--no-restrictions"],
    ["export", "--format", "dot"],
    ["export", "--format", "json"],
]


@settings(max_examples=40, deadline=None)
@given(text=_grammar_texts())
def test_grammar_commands_keep_the_exit_contract_on_generated_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.lstag"
        path.write_text(text, encoding="utf-8")
        for command in _GRAMMAR_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2), command
            assert "Traceback" not in err.getvalue()


# --- the documented commands --------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """The arguments of every `lstag ...` line in the README's "Command line" block."""
    section = (REPO / "README.md").read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("lstag ")]
    assert commands, "the README's command-line block lists no lstag commands"
    return commands


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_keep_their_documented_exit_status(capsys, monkeypatch, argv):
    monkeypatch.chdir(REPO)
    expected = 1 if argv == ["validate", "fixtures/excised.lstag", "--json"] else 0
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    assert "Traceback" not in err


def test_readme_library_block_imports():
    section = (REPO / "README.md").read_text(encoding="utf-8").split("\n## Library entry points\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
