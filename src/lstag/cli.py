"""Batch command line: validate grammar files, replay scripts, enumerate, export.

Exit status contract: 0 success, 1 validation or derivation failure,
2 usage or parse error.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._lex import LineCursor, read_script
from .engine import EnumerationBudget, enumerate_derivations
from .errors import AddressNotFound, Diagnostic, LstagError, OperationMismatch, ParseError, UnknownTree
from .grammarfile import (
    GrammarDocument,
    format_grammar,
    load_grammar,
    read_source,
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
    check_step,
    step_record,
    structure_from_pair,
)
from .tag import (
    derivation_to_json_obj,
    format_derivation_script,
    read_derivation_lines,
    replay,
)
from .trees import format_tree, no_cycles, row_address, site_operation, yield_string


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


def run_lstag_script(grammar: LstagGrammar, root: str, lines: list[tuple[int, LineCursor]]) -> DerivedStructure:
    """The structure a link-sharing script derives, each step checked as the enumerator checks its moves.

    `root` and the step `lines` are what `_lex.read_script` reads from the script:

        root cooks
        adjoin and_eats at 2.1 ~ ε      # walks to both sites once, builds one record, runs check_step
        substitute john at 1            # fills the first live group whose left site is the node at 1
        substitute beans at 2.2 ~ 2.2   # an explicit site pair

    Both forms give a left row and a tuple of right rows; a one-site step's verb must name its operation.
    A step that fails raises its error, of its own class, with the message prefixed `step N: `.
    """
    structure = structure_from_pair(grammar.get(root))
    for step, (lineno, cur) in enumerate(lines, 2):  # step 1 is the root line
        try:
            structure = _run_lstag_step(grammar, structure, lineno, cur)
        except ParseError:
            raise
        except LstagError as exc:
            exc.args = (f"step {step}: {exc}",)
            raise
    return structure


def _run_lstag_step(
    grammar: LstagGrammar, structure: DerivedStructure, lineno: int, cur: LineCursor
) -> DerivedStructure:
    """The structure one script line derives from `structure`."""
    if cur.peek() == "root":
        raise ParseError("duplicate root declaration", lineno)
    if cur.peek() not in ("adjoin", "substitute"):
        raise ParseError("expected 'root', 'adjoin' or 'substitute'", lineno)
    verb, name = cur.name(), cur.name()
    cur.expect("at")
    first = cur.address()
    second = cur.address() if cur.accept("~") else None
    cur.end()
    if second is None and verb != "substitute":
        raise ParseError("adjoin steps need a left ~ right site pair", lineno)
    guest = grammar.get(name)
    if second is not None:
        left, rights = structure.left_tree.row_at(first), (structure.right_spine.row_at(second),)
    else:
        try:
            left = structure.left_tree.row_at(first)
            group = next(g for g in structure.live_links if g.left_site == left[2].site)
        except (AddressNotFound, StopIteration):
            raise LstagError(f"no live link group with left address {first}") from None
        rights = tuple(map(structure.right_spine.locate, group.right_sites))
    record = step_record(left, rights, guest.name)
    if len(rights) == 1 and (verb == "adjoin") != (site_operation(left, rights[0]) == "adjunction"):
        sites = f"{first} ~ {row_address(rights[0])}"
        raise OperationMismatch(f"sites {sites} take {record.operation}, not {verb}")
    return check_step({}, structure, record, guest, left, rights)()


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


def _validated(doc: GrammarDocument, names: set[str], restrictions: bool) -> tuple[set[str], list[Diagnostic]]:
    """The declarations in `names` that validation keeps, and validation's diagnostics."""
    diags = validate_document(doc, restrictions=restrictions)
    return names - {d.where for d in diags}, diags


def _cmd_derive(args) -> int:
    doc = load_grammar(args.grammar)
    root, lines = read_script(read_source(args.script))
    ls_names = {p.name for p in doc.lstag_pairs}
    names = ls_names if root in ls_names else {name for name, _ in doc.trees}  # the root's kind of declaration
    if root not in names:
        code, what = "UnknownTree", "not a tree or lspair in the grammar"
        if any(p.name == root for p in doc.stag_pairs):
            code, what = "SynchronousPair", "a synchronous pair; derive takes trees and lspairs only"
        _print_diagnostics([Diagnostic(code, f"script root {root!r} is {what}")], False)
        return 1
    usable, diags = _validated(doc, names, not args.no_restrictions)
    try:
        if root in ls_names:
            structure = run_lstag_script(doc.lstag_grammar(usable), root, lines)
        else:
            derivation = read_derivation_lines(root, lines)
            derived = replay(doc.tag_grammar(usable), derivation)
    except ParseError:
        raise
    except LstagError as exc:
        message = str(exc)
        if isinstance(exc, UnknownTree) and exc.name in names - usable:
            codes = ", ".join(dict.fromkeys(d.code for d in diags if d.where == exc.name))
            what = f"{'pair' if root in ls_names else 'tree'} {exc.name!r} is excluded by validation: {codes}"
            step = message.partition("no pair")[0] if root in ls_names else ""  # a failing lspair step's `step N: `
            message = step + what
        _print_diagnostics([Diagnostic("DerivationFailed", message)], False)
        return 1
    if root in ls_names:
        _emit_structure(structure, args.format)
    elif args.format == "json":
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
    skipped = []  # one diagnostic per kind of declaration the enumeration leaves out
    if doc.trees and doc.lstag_pairs:
        skipped.append(Diagnostic("PlainTree", "trees are not enumerated alongside lspairs"))
    if doc.stag_pairs:
        skipped.append(Diagnostic("SynchronousPair", "synchronous pairs are not enumerated"))
    _print_diagnostics(skipped, False)
    if doc.stag_pairs and not (doc.trees or doc.lstag_pairs):
        return 1
    names = {p.name for p in doc.lstag_pairs} or {name for name, _ in doc.trees}
    usable = _validated(doc, names, not args.no_restrictions)[0]
    grammar = doc.lstag_grammar(usable) if doc.lstag_pairs else doc.tag_grammar(usable)
    result = enumerate_derivations(grammar, budget)
    if args.format == "json":
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


@no_cycles
def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "enumerate" and args.strings_only and args.format == "json":
            parser.error("--strings-only prints text only; it does not take --format json")
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
