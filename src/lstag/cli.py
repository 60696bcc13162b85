"""Batch command line: validate grammar files, replay scripts, enumerate, export.

Exit status contract: 0 success, 1 validation or derivation failure,
2 usage or parse error.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._lex import script_lines
from .engine import EnumerationBudget, enumerate_derivations
from .errors import Diagnostic, LstagError, OperationMismatch, ParseError
from .grammarfile import (
    GrammarDocument,
    format_grammar,
    load_grammar,
    read_source,
    usable_lstag_names,
    validate_document,
)
from .render import (
    derived_tree_with_derivation_to_dot,
    grammar_to_dot,
    structure_to_dot,
    structure_to_json_obj,
    to_json_text,
)
from .sharing import (
    DerivedStructure,
    LstagGrammar,
    compose_record,
    shared_substitute,
    lstag_compose,
    structure_from_pair,
)
from .tag import (
    derivation_to_json_obj,
    format_derivation_script,
    parse_derivation_script,
    replay,
)
from .trees import format_tree, yield_string


def _color_enabled() -> bool:
    return os.environ.get("LSTAG_COLOR", "0") == "1"


def _print_diagnostics(diags: list[Diagnostic], as_json: bool) -> None:
    for d in diags:
        if as_json:
            print(d.to_json(), file=sys.stderr)
        elif _color_enabled():
            print(f"\x1b[31m{d}\x1b[0m", file=sys.stderr)
        else:
            print(str(d), file=sys.stderr)


# --- link-sharing derivation scripts -------------------------------------------
#
#     root cooks
#     adjoin and_eats at 2.1 ~ ε
#     substitute john at 1          # fills the live group with left address 1
#     substitute beans at 2.2 ~ 2.2 # explicit site pair


def run_lstag_script(grammar: LstagGrammar, text: str) -> DerivedStructure:
    structure: DerivedStructure | None = None
    step = 0
    for lineno, cur in script_lines(text):
        step += 1
        if cur.accept("NAME", "root"):
            if structure is not None:
                raise ParseError("duplicate root declaration", lineno)
            structure = structure_from_pair(grammar.get(cur.expect("NAME").text))
        elif cur.accept("NAME", "adjoin") or cur.accept("NAME", "substitute"):
            verb = cur.tokens[cur.pos - 1].text
            guest = grammar.get(cur.expect("NAME").text)
            cur.expect("NAME", "at")
            first = cur.address()
            if structure is None:
                raise ParseError("script needs a root declaration first", lineno)
            if cur.accept("PUNCT", "~"):
                second = cur.address()
                operation = compose_record(structure, first, second, guest.name).operation
                if (verb == "adjoin") != (operation == "adjunction"):
                    raise OperationMismatch(
                        f"step {step}: sites {first} ~ {second} take {operation}, not {verb}"
                    )
                structure = lstag_compose(structure, first, second, guest)
            else:
                if verb != "substitute":
                    raise ParseError("adjoin steps need a left ~ right site pair", lineno)
                for group in structure.live_links:
                    if structure.left_address(group.left_site) == first:
                        structure = shared_substitute(structure, group, guest)
                        break
                else:
                    raise LstagError(f"step {step}: no live link group with left address {first}")
        else:
            raise ParseError("expected 'root', 'adjoin' or 'substitute'", lineno)
        if cur.peek().kind != "EOF":
            raise cur.error("trailing input on script line")
    if structure is None:
        raise ParseError("empty derivation script")
    return structure


def _grammar_to_json_obj(doc: GrammarDocument) -> dict:
    return {
        "trees": [{"name": n, "tree": format_tree(t)} for n, t in doc.trees],
        "pairs": [
            {
                "name": p.name,
                "left": format_tree(p.left_tree),
                "right": format_tree(p.right_tree),
                "links": [str(l) for l in p.links],
            }
            for p in doc.stag_pairs
        ],
        "lspairs": [
            {
                "name": p.name,
                "left": format_tree(p.left_tree),
                "right": format_tree(p.right_tree),
                "delta": [str(l) for l in p.delta],
                "phi": [str(l.left) if l.is_reflexive else str(l) for l in p.phi],
                "correspond": [
                    {"left": str(l), "right": str(r)}
                    for l, r in (
                        doc.correspondence_map[p.name].pairs
                        if p.name in doc.correspondence_map
                        else ()
                    )
                ],
            }
            for p in doc.lstag_pairs
        ],
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("budget must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lstag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a grammar file")
    p_validate.add_argument("grammar")
    p_validate.add_argument("--json", action="store_true", dest="as_json")
    p_validate.add_argument("--no-restrictions", action="store_true")

    p_derive = sub.add_parser("derive", help="replay a derivation script")
    p_derive.add_argument("grammar")
    p_derive.add_argument("script")
    p_derive.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_derive.add_argument("--no-restrictions", action="store_true")

    p_enum = sub.add_parser("enumerate", help="enumerate derivations up to a budget")
    p_enum.add_argument("grammar")
    p_enum.add_argument("--max-ops", type=_positive_int, default=3)
    p_enum.add_argument("--max-structures", type=_positive_int, default=10000)
    p_enum.add_argument("--strings-only", action="store_true")
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.add_argument("--no-restrictions", action="store_true")

    p_export = sub.add_parser("export", help="re-emit a grammar in another format")
    p_export.add_argument("grammar")
    p_export.add_argument("--format", choices=("text", "json", "dot"), default="text")
    return parser


def _cmd_validate(args) -> int:
    doc = load_grammar(args.grammar)
    diags = validate_document(doc, restrictions=not args.no_restrictions)
    _print_diagnostics(diags, args.as_json)
    return 0 if not diags else 1


def _cmd_derive(args) -> int:
    doc = load_grammar(args.grammar)
    script = read_source(args.script)
    tree_names = {n for n, _ in doc.trees}
    ls_names = {p.name for p in doc.lstag_pairs}
    root = _script_root(script)
    if root in ls_names:
        usable = usable_lstag_names(doc, restrictions=not args.no_restrictions)
        grammar = doc.lstag_grammar(usable)
        try:
            structure = run_lstag_script(grammar, script)
        except LstagError as exc:
            if isinstance(exc, ParseError):
                raise
            _print_diagnostics([Diagnostic("DerivationFailed", str(exc))], False)
            return 1
        _emit_structure(structure, args.format)
        return 0
    if root in tree_names:
        grammar = doc.tag_grammar()
        derivation = parse_derivation_script(script)
        try:
            derived = replay(grammar, derivation)
        except LstagError as exc:
            _print_diagnostics([Diagnostic("DerivationFailed", str(exc))], False)
            return 1
        if args.format == "json":
            obj = {
                "yield": yield_string(derived, partial=True),
                "tree": format_tree(derived),
                "derivation": derivation_to_json_obj(derivation),
            }
            print(to_json_text(obj), end="")
        elif args.format == "dot":
            print(derived_tree_with_derivation_to_dot(derived, derivation), end="")
        else:
            print(f"yield: {yield_string(derived, partial=True)}")
            print(f"tree: {format_tree(derived)}")
            print("derivation:")
            print(format_derivation_script(derivation), end="")
        return 0
    _print_diagnostics(
        [Diagnostic("UnknownTree", f"script root {root!r} is not a tree or lspair in the grammar")],
        False,
    )
    return 1


def _script_root(script: str) -> str:
    for _, cur in script_lines(script):
        cur.accept("NAME", "root")
        return cur.expect("NAME").text
    raise ParseError("empty derivation script")


def _emit_structure(structure: DerivedStructure, fmt: str) -> None:
    if fmt == "json":
        obj = structure_to_json_obj(structure)
        obj["yield"] = " ".join(structure.left_yield(partial=True))
        print(to_json_text(obj), end="")
        return
    if fmt == "dot":
        print(structure_to_dot(structure), end="")
        return
    print(f"yield: {' '.join(structure.left_yield(partial=True))}")
    print(f"left: {format_tree(structure.left_tree)}")
    print(f"right: {format_tree(structure.right_spine)}")
    for frag in structure.fragments:
        parents = ", ".join(str(structure.right_address(p)) for p in frag.parents)
        print(f"fragment {frag.guest_id} = {format_tree(frag.tree)} at [{parents}]")
    for group in structure.live_links:
        rights = ", ".join(str(structure.right_address(site)) for site in group.right_sites)
        print(f"link {structure.left_address(group.left_site)} ~ [{rights}]")
    left_proj, right_proj = structure.projections()
    print("derivation[left]:")
    print(format_derivation_script(left_proj), end="")
    print("derivation[right]:")
    for parent, addr, child in right_proj.edges:
        print(f"{parent} -{addr}-> {child}")


def _cmd_enumerate(args) -> int:
    doc = load_grammar(args.grammar)
    budget = EnumerationBudget(args.max_ops, args.max_structures)
    if doc.lstag_pairs:
        usable = usable_lstag_names(doc, restrictions=not args.no_restrictions)
        grammar = doc.lstag_grammar(usable)
    else:
        grammar = doc.tag_grammar()
    result = enumerate_derivations(grammar, budget)
    if args.format == "json" and not args.strings_only:
        obj = {
            "truncated": result.truncated,
            "items": [
                {"root": item.root, "yield": item.yield_text, "records": list(item.record_lines())}
                for item in result.items
            ],
        }
        print(to_json_text(obj), end="")
        return 0
    if args.strings_only:
        for line in sorted({item.yield_text for item in result.items}):
            print(line)
    else:
        for item in result.items:
            records = "; ".join(item.record_lines())
            print(f"{item.yield_text} :: {records}" if records else f"{item.yield_text} ::")
    if result.truncated:
        print("(truncated)", file=sys.stderr)
    return 0


def _cmd_export(args) -> int:
    doc = load_grammar(args.grammar)
    if args.format == "json":
        print(to_json_text(_grammar_to_json_obj(doc)), end="")
    elif args.format == "dot":
        print(grammar_to_dot(doc), end="")
    else:
        print(format_grammar(doc), end="")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "enumerate": _cmd_enumerate,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except LstagError as exc:
        _print_diagnostics([Diagnostic(type(exc).__name__, str(exc))], False)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    # UTF-8 whatever the locale, so the output bytes (`↓`, `ε`) never depend on it.
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    run()
