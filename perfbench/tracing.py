"""Per-layer tracing by wrapping lstag's public functions from outside.

`Tracer.install()` replaces each traced function, in every lstag module that
binds it, with a wrapper that opens a span.  A span's self time is its
duration minus the time its child spans cover, so every nanosecond inside
a traced call is charged to exactly one layer.  Counters are taken at the
same boundaries.  The program's source is not touched; `uninstall()` puts
the originals back.

Only the outermost call of a group counts as a call (a `replay` that
recurses, or a `shared_substitute` that delegates to `lstag_compose`, is one
call), while self time is charged at every level.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable

SPAN_LIMIT = 200_000
"""Spans kept for the trace file; the hot gorn and tree layers are never kept."""

SELF_TIME_METRICS = {
    "gorn": "gorn.self_ms",
    "trees.build": "trees.build_self_ms",
    "trees.compose": "trees.compose_self_ms",
    "sharing.compose": "sharing.compose_self_ms",
    "engine": "engine.self_ms",
    "tag.replay": "tag.replay_self_ms",
    "grammarfile.parse": "grammarfile.parse_self_ms",
    "grammarfile.validate": "grammarfile.validate_self_ms",
    "grammarfile.format": "grammarfile.format_self_ms",
    "restrictions": "restrictions.self_ms",
    "render": "render.self_ms",
    "cli": "cli.self_ms",
}

COUNT_METRICS = (
    "gorn.addresses_built",
    "trees.trees_built",
    "trees.nodes_built",
    "trees.compose_calls",
    "sharing.compose_calls",
    "sharing.compose_ok",
    "sharing.rejected",
    "sharing.link_share_calls",
    "engine.states_built",
    "engine.states_distinct",
    "engine.discarded_at_budget",
    "engine.items",
    "tag.replay_calls",
    "grammarfile.tokens",
    "render.bytes",
)

_HOT_LAYERS = {"gorn", "trees.build", "trees.compose"}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = [["bench", "bench", 0]]  # [layer, group, child ns]
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.case = ""
        self._t0 = time.perf_counter_ns()
        self._patches: list[tuple[Any, str, Any]] = []
        self._budget_ops = 0
        self._keys: set = set()

    # --- wrapping --------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, group: str, before=None, after=None) -> Callable:
        stack, self_ns, spans, clock = self.stack, self.self_ns, self.spans, time.perf_counter_ns
        keep = layer not in _HOT_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            outer = parent[1] != group
            if outer and before is not None:
                before(args)
            frame = [layer, group, 0]
            stack.append(frame)
            result, ok = None, False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                self_ns[layer] += t1 - t0 - frame[2]
                if keep and outer:
                    if len(spans) < SPAN_LIMIT:
                        spans.append((self.case, layer, fn.__qualname__, t0 - self._t0, t1 - t0, len(stack)))
                    else:
                        self.dropped_spans += 1
                if outer and after is not None:
                    after(args, result, ok, parent[0])
                # Bookkeeping after t1 is charged to nobody.
                parent[2] += clock() - t0

        return wrapper

    def _patch_function(self, modules, module, name: str, layer: str, group: str | None = None, before=None,
                        after=None) -> None:
        original = getattr(module, name)
        wrapped = self._wrap(original, layer, group or layer, before, after)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapped)

    def _patch_method(self, cls, name: str, layer: str, group: str | None = None, after=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer, group or layer, None, after))
        elif isinstance(raw, property):
            new = property(self._wrap(raw.fget, layer, group or layer, None, after))
        else:
            new = self._wrap(raw, layer, group or layer, None, after)
        self._patches.append((cls, name, raw))
        setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- observers -------------------------------------------------------

    def _counter(self, name: str):
        """An observer that counts one for every call that returned."""

        def after(args, result, ok, parent) -> None:
            if ok:
                self.counts[name] += 1

        return after

    def _tokens(self, args, result, ok, parent) -> None:
        if ok:
            self.counts["grammarfile.tokens"] += len(result)

    def _engine_before(self, args) -> None:
        self._budget_ops = args[1].max_operations
        self._keys = set()

    def _engine_after(self, args, result, ok, parent) -> None:
        if ok and hasattr(result, "items"):
            self.counts["engine.items"] += len(result.items)
        self.counts["engine.states_distinct"] += len(self._keys)
        self._keys = set()

    def _sharing_after(self, args, result, ok, parent) -> None:
        c = self.counts
        c["sharing.compose_calls"] += 1
        c["sharing.compose_ok" if ok else "sharing.rejected"] += 1
        if ok and parent == "engine":
            c["engine.states_built"] += 1
            self._keys.add((result.root, frozenset(result.history)))
            if len(getattr(args[0], "history", ())) >= self._budget_ops:
                c["engine.discarded_at_budget"] += 1

    def _trees_after(self, terminal):
        def after(args, result, ok, parent) -> None:
            self.counts["trees.compose_calls"] += 1
            if ok and parent == "engine":
                # Plain TAG search.  Every elementary tree of the generated
                # TAG grammars has exactly one anchor, so a derived tree has
                # taken (anchors - 1) operations.
                self.counts["engine.states_built"] += 1
                tree = getattr(result, "tree", result)
                self._keys.add(tree.entries)
                host = args[0]
                if sum(isinstance(k, terminal) for _, k in host.entries) - 1 >= self._budget_ops:
                    self.counts["engine.discarded_at_budget"] += 1

        return after

    def _tree_built(self, args, result, ok, parent) -> None:
        if ok:
            self.counts["trees.trees_built"] += 1
            self.counts["trees.nodes_built"] += len(args[0].entries)

    def _render_after(self, args, result, ok, parent) -> None:
        if isinstance(result, str):
            self.counts["render.bytes"] += len(result.encode())
        elif isinstance(result, list):
            self.counts["render.bytes"] += sum(len(s.encode()) + 1 for s in result)

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        names = ("gorn", "trees", "sharing", "engine", "tag", "grammarfile", "restrictions", "render", "cli", "_lex")
        gorn, trees, sharing, engine, tag, grammarfile, restrictions, render, cli, lex = (
            importlib.import_module(f"lstag.{name}") for name in names
        )
        modules = [m for name, m in sorted(sys.modules.items()) if name == "lstag" or name.startswith("lstag.")]
        count = self._counter

        address = gorn.GornAddress
        self._patch_method(address, "__init__", "gorn", "gorn.init", after=count("gorn.addresses_built"))
        for name in ("parse", "child", "extend", "parent", "suffix_after", "is_prefix_of", "is_proper_prefix_of",
                     "__lt__"):
            self._patch_method(address, name, "gorn")
        self._patch_method(trees.SyntaxTree, "__init__", "trees.build", after=self._tree_built)
        self._patch_method(trees.SyntaxTree, "from_nodes", "trees.build", "trees.from_nodes")

        fn = self._patch_function
        trees_after = self._trees_after(trees.Terminal)
        for name in ("substitute_with_maps", "adjoin_with_maps", "substitute", "adjoin"):
            fn(modules, trees, name, "trees.compose", after=trees_after)
        for name in ("lstag_compose", "shared_substitute"):
            fn(modules, sharing, name, "sharing.compose", after=self._sharing_after)
        fn(modules, sharing, "link_share", "sharing.compose", "sharing.link",
           after=count("sharing.link_share_calls"))
        for name in ("enumerate_derivations", "language_sample"):
            fn(modules, engine, name, "engine", before=self._engine_before, after=self._engine_after)
        fn(modules, tag, "replay", "tag.replay", after=count("tag.replay_calls"))
        fn(modules, lex, "lex", "grammarfile.parse", "lex", after=self._tokens)
        for module, name in ((grammarfile, "parse_grammar"), (grammarfile, "load_grammar"),
                             (trees, "parse_tree"), (trees, "parse_tree_tokens"), (tag, "parse_derivation_script")):
            fn(modules, module, name, "grammarfile.parse")
        for name in ("validate_document", "usable_lstag_names"):
            fn(modules, grammarfile, name, "grammarfile.validate")
        fn(modules, sharing, "validate_pair", "grammarfile.validate")
        fn(modules, grammarfile, "format_grammar", "grammarfile.format")
        fn(modules, grammarfile, "restriction_diagnostics", "restrictions")
        for name in ("check_left_contiguity", "check_lexical_contiguity"):
            fn(modules, restrictions, name, "restrictions")
        for name in ("tree_dot_lines", "tree_to_dot", "derivation_tree_to_dot", "derivation_graph_to_dot",
                     "derivation_graph_to_json_obj", "structure_to_json_obj", "to_json_text", "structure_to_dot",
                     "derived_tree_with_derivation_to_dot"):
            fn(modules, render, name, "render", after=self._render_after)
        for name in ("main", "run_lstag_script"):
            fn(modules, cli, name, "cli")

    @staticmethod
    def unit(name: str) -> str:
        if name.endswith("_ms"):
            return "ms"
        return "bytes" if name == "render.bytes" else "count"

    def metrics(self, ref_per_wall: float) -> dict[str, float]:
        """Counts as they are; self times in reference milliseconds."""
        out: dict[str, float] = {name: self.counts[name] for name in COUNT_METRICS}
        for layer, name in SELF_TIME_METRICS.items():
            out[name] = self.self_ns[layer] * ref_per_wall / 1e6
        return out
