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
from lstag.cli import main


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


def test_validate_flags_non_reflexive_phi(capsys, tmp_path):
    bad = tmp_path / "bad.lstag"
    bad.write_text(
        'lspair b { left: NP("x") right: S(NP! VP(V("y"))) delta: [] phi: [1~2] }',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "NotReflexive" in err


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


def test_derive_rejects_an_auxiliary_root_pair(capsys, fixtures_dir, tmp_path):
    script = tmp_path / "aux.script"
    script.write_text("root and_eats\n", encoding="utf-8")
    code, out, err = run(capsys, "derive", str(fixtures_dir / "cooks_eats.lstag"), str(script))
    assert code == 1
    assert out == ""
    assert "DerivationFailed" in err


_TWO_SLOTS_ONE_RIGHT = """\
lspair host { left: S(NP! VP(V("cooks") NP!)) right: S(NP! VP(V("cooks") NP!)) delta: [1~1, 2.2~1] phi: [] }
lspair and_w { left: V(V* CC("and") V("eats")) right: S(NP! VP(V("eats") NP!) S*) delta: [] phi: [1, 1] }
lspair john { left: NP("John") right: NP("John") delta: [] phi: [] }
lspair beans { left: NP("beans") right: NP("beans") delta: [] phi: [] }
"""


def test_derive_rejects_a_second_fragment_at_filled_right_slots(capsys, tmp_path):
    # Both left slots link to right slot 1, so after and_w spends its phi
    # links both groups name the spine slots [3.1, 1]; john fills them first.
    grammar = tmp_path / "two_slots.lstag"
    grammar.write_text(_TWO_SLOTS_ONE_RIGHT, encoding="utf-8")
    script = tmp_path / "two_fillers.script"
    script.write_text(
        "root host\nadjoin and_w at 2.1 ~ ε\nsubstitute john at 1\nsubstitute beans at 2.2\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "derive", str(grammar), str(script))
    assert (code, out) == (1, "")
    assert err == "DerivationFailed: right slot at 3.1 is already filled by a shared fragment\n"


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


def test_enumerate_over_a_broken_grammar_fails_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.tag"
    bad.write_text('tree odd: S(A("x") NP*)', encoding="utf-8")
    code, out, err = run(capsys, "enumerate", str(bad), "--max-ops", "2")
    assert code == 1
    assert "ClassMismatch" in err


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
    ]
    src = str(pathlib.Path(lstag.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # All six runs at once, to keep the test's wall time near one interpreter start.
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
