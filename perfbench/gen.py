"""Seeded input families for the lstag benchmark, with their expected results.

Every family is built from a few parameters, and its expected result is
worked out from that construction alone: yield sets and derivation counts
come from closed-form combinatorics, never from running the engine.  The
seed only picks the words; sizes, and so the work each case does, are the
same for every seed.  Everything here is pure text and arithmetic, so this
module imports nothing from `lstag`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def words(rng: random.Random, count: int) -> list[str]:
    """`count` distinct four-letter consonant-vowel words.

    A fixed length keeps the cost of every case independent of the seed.
    No keyword of the grammar or script formats has this shape.
    """
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        w = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(2))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _pair(name: str, left: str, right: str, delta: str = "", phi: str = "", corr: str | None = None) -> str:
    tail = f" correspond: [{corr}]" if corr is not None else ""
    return f"lspair {name} {{ left: {left} right: {right} delta: [{delta}] phi: [{phi}]{tail} }}"


# --- n-way verb coordination (link sharing) ---------------------------------


@dataclass(frozen=True)
class Coordination:
    """A host verb, n phi-bearing coordinating auxiliaries and argument nouns.

    The host `S(A! VP(V("host") B!))` links both argument slots (delta
    `1~1, 2.2~2.2`).  Each auxiliary `V(V* CC("and") V("w"))` pairs with a
    right clause `S(A! VP(V("w") B!) S*)` whose two phi links extend the
    host's subject and object groups, so after k adjunctions one subject
    and one object fill k + 1 right slots each.  `cats` are the subject and
    object slot symbols; when they are equal every noun fits both slots.
    """

    host: str
    verbs: tuple[str, ...]
    subjects: tuple[str, ...]
    objects: tuple[str, ...]
    cats: tuple[str, str] = ("NS", "NO")

    @staticmethod
    def noun_name(word: str) -> str:
        return word.lower()

    def nouns(self) -> list[tuple[str, str]]:
        """(word, category) of every noun pair, subjects first."""
        a, b = self.cats
        out = [(w, a) for w in self.subjects]
        out += [(w, b) for w in self.objects if (w, b) not in out]
        return out

    def text(self) -> str:
        a, b = self.cats
        clause = f'S({a}! VP(V("{{w}}") {b}!))'
        lines = [_pair(self.host, clause.format(w=self.host), clause.format(w=self.host), "1~1, 2.2~2.2")]
        for w in self.verbs:
            right = f'S({a}! VP(V("{w}") {b}!) S*)'
            lines.append(_pair(f"and_{w}", f'V(V* CC("and") V("{w}"))', right, "", "1, 2.2"))
        for w, cat in self.nouns():
            lines.append(_pair(self.noun_name(w), f'{cat}("{w}")', f'{cat}("{w}")'))
        return "\n".join(lines) + "\n"

    def sentence(self, subject: str, seq: tuple[str, ...], obj: str) -> str:
        return " ".join([subject, self.host] + [f"and {w}" for w in seq] + [obj])

    def yields(self, max_ops: int) -> set[str]:
        """Nouns on their own, plus every sentence with at most max_ops - 2 auxiliaries."""
        out = {w for w, _ in self.nouns()}
        for k in range(max_ops - 1):
            for seq in itertools.product(self.verbs, repeat=k):
                for s in self.subjects:
                    for o in self.objects:
                        out.add(self.sentence(s, seq, o))
        return out

    def sentences_by_verbs(self, max_ops: int) -> dict[int, int]:
        """Derivations per number k of auxiliaries: k! * n^k * |S| * |O|.

        The i-th adjunction can target any of the i coordinated V nodes not
        yet adjoined, and its record names the right-side clause it wraps,
        so every order is a distinct record set.  Both substitutions come
        last, because a guest's two phi links need two live groups.
        """
        n = len(self.verbs)
        pairs = len(self.subjects) * len(self.objects)
        return {k: math.factorial(k) * n**k * pairs for k in range(max_ops - 1)}

    def script(self, seq: tuple[str, ...], subject: str, obj: str) -> str:
        """A derive script that stacks the auxiliaries in `seq`, then fills both groups."""
        lines = [f"root {self.host}"]
        lines += [f"adjoin and_{w} at 2.1 ~ ε" for w in seq]
        lines += [f"substitute {self.noun_name(subject)} at 1", f"substitute {self.noun_name(obj)} at 2.2"]
        return "\n".join(lines) + "\n"


# --- k-deep modifier chains (plain TAG) ---------------------------------------


@dataclass(frozen=True)
class Chain:
    """A transitive verb, nouns `NP(X1("n"))` and k chained modifiers.

    Modifier i is `Xi(X{i+1}("wi") Xi*)`: it adjoins at an Xi node and
    offers an X{i+1} node, so modifier i + 1 can stack on it, giving
    derivation trees k deep.  Every elementary tree has one anchor, and a
    derived string has exactly one derivation.
    """

    verb: str
    nouns: tuple[str, ...]
    mods: tuple[str, ...]

    def text(self) -> str:
        lines = [f'tree {self.verb}: S(NP! VP(V("{self.verb}") NP!))']
        lines += [f'tree {n}: NP(X1("{n}"))' for n in self.nouns]
        for i, w in enumerate(self.mods, start=1):
            lines.append(f'tree mod_{w}: X{i}(X{i + 1}("{w}") X{i}*)')
        return "\n".join(lines) + "\n"

    def prefixes(self, length: int) -> list[tuple[str, ...]]:
        """Modifier strings of one noun, with `length` modifiers.

        At an Xi node the spelled prefix is (P_{i+1} wi)*, so a string over
        modifier levels 1..k is valid iff it is empty or ends in level 1
        and no step goes down by more than one level.
        """
        k = len(self.mods)
        out = []
        for levels in itertools.product(range(1, k + 1), repeat=length):
            if length and levels[-1] != 1:
                continue
            if any(b < a - 1 for a, b in zip(levels, levels[1:])):
                continue
            out.append(tuple(self.mods[i - 1] for i in levels))
        return out

    def yields(self, max_ops: int) -> set[str]:
        by_len = [[" ".join(p) for p in self.prefixes(j)] for j in range(max_ops + 1)]

        def np(prefix: str, noun: str) -> str:
            return f"{prefix} {noun}" if prefix else noun

        out = {np(p, n) for j in range(max_ops + 1) for p in by_len[j] for n in self.nouns}
        for j1 in range(max_ops - 1):
            for j2 in range(max_ops - 1 - j1):
                for p1, p2 in itertools.product(by_len[j1], by_len[j2]):
                    for n1, n2 in itertools.product(self.nouns, repeat=2):
                        out.add(f"{np(p1, n1)} {self.verb} {np(p2, n2)}")
        return out

    def script(self, depth: int) -> tuple[str, str]:
        """A derive script stacking the first `depth` modifiers on the subject.

        Returns the script and the sentence it derives.
        """
        subj, obj = self.nouns[0], self.nouns[1]
        lines = [f"root {self.verb}", f"{self.verb} @ 1 <- {subj}", f"{self.verb} @ 2.2 <- {obj}"]
        parent = subj
        for w in self.mods[:depth]:
            lines.append(f"{parent} @ 1 <- mod_{w}")
            parent = f"mod_{w}"
        sentence = " ".join(list(reversed(self.mods[:depth])) + [subj, self.verb, obj])
        return "\n".join(lines) + "\n", sentence


# --- substitution-only grammars (plain TAG) -----------------------------------


@dataclass(frozen=True)
class SubstOnly:
    """`S(C1! V("verb") C1!)` over levels of initial trees `Ci(W("w") C{i+1}!)`.

    The last level has no slot.  There is no auxiliary tree, so the search
    runs out of moves after 2 * depth operations, below any larger budget.
    """

    verb: str
    levels: tuple[tuple[str, ...], ...]

    def text(self) -> str:
        lines = [f'tree {self.verb}: S(C1! V("{self.verb}") C1!)']
        d = len(self.levels)
        for i, level in enumerate(self.levels, start=1):
            for w in level:
                tail = f" C{i + 1}!" if i < d else ""
                lines.append(f'tree l{i}_{w}: C{i}(W("{w}"){tail})')
        return "\n".join(lines) + "\n"

    def yields(self) -> set[str]:
        phrases = [" ".join(p) for p in itertools.product(*self.levels)]
        out = {f"{a} {self.verb} {b}" for a in phrases for b in phrases}
        for i in range(len(self.levels)):
            out |= {" ".join(p) for p in itertools.product(*self.levels[i:])}
        return out


# --- large grammars with planted diagnostics ----------------------------------

PLANTED_CODES = (
    "LexicallyDiscontiguous",
    "Discontiguous",
    "NotReflexive",
    "AddressNotFound",
    "NotDisjoint",
    "ClassMismatch",
)


def _planted(code: str, w: str, v: str) -> tuple[str, str, str, str, str | None]:
    """(left, right, delta, phi, correspond) of an lspair that draws exactly one `code`."""
    clause = f'S(NP! VP(V("{w}") NP!))'
    if code == "LexicallyDiscontiguous":
        topic = f'S(NP(N("{v}")) S(NP! VP(V("{w}"))))'
        return topic, topic, "2.1~2.1", "", None
    if code == "Discontiguous":
        return f'S(NP! V("{w}"))', f'S(NP! S(NP! VP(V("{w}"))))', "1~1", "", "ε -> ε, 1 -> 1, 2 -> 2.2.1"
    if code == "NotReflexive":
        return f'V(V* CC("and") V("{w}"))', f'S(NP! VP(V("{w}") NP!) S*)', "", "1~2.2", None
    if code == "AddressNotFound":
        return clause, clause, "1~1, 2.2~2.3", "", None
    if code == "NotDisjoint":
        return f'S(NP! VP(V("{w}")))', f'S(NP! VP(V("{w}")))', "1~1", "1", None
    if code == "ClassMismatch":
        return f'V(CC("and") V("{w}") N*)', f'V(CC("and") V("{w}"))', "", "", None
    raise ValueError(code)


@dataclass(frozen=True)
class BigGrammar:
    text: str
    trees: tuple[tuple[str, str], ...]  # (name, canonical tree text)
    pairs: tuple[tuple[str, str, str], ...]  # (name, left, right)
    lspairs: tuple[tuple[str, str, str], ...]
    diagnostics: tuple[tuple[str, str], ...]  # expected (code, where), sorted


def big_grammar(rng: random.Random, units: int, planted_per_code: int) -> BigGrammar:
    """`units` repetitions of a small clean block, plus planted faults at seeded places.

    Each block holds two plain trees, one synchronous pair and four clean
    lspairs; the text is in the canonical form `format_grammar` prints.
    """
    vocab = iter(words(rng, 4 * units + 2 * len(PLANTED_CODES) * planted_per_code))
    trees, pairs, lspairs = [], [], []
    for _ in range(units):
        v, n, a, c = next(vocab), next(vocab), next(vocab), next(vocab)
        clause = f'S(NP! VP(V("{v}") NP!))'
        trees += [(f"t_{v}", clause), (f"m_{a}", f'N(A("{a}") N*)')]
        pairs.append((f"p_{v}", clause, f'S(NP! VP(NP! V("{v}")))'))
        lspairs += [
            (f"h_{v}", clause, clause, "1~1, 2.2~2.2", "", None),
            (f"and_{c}", f'V(V* CC("and") V("{c}"))', f'S(NP! VP(V("{c}") NP!) S*)', "", "1, 2.2", None),
            (f"n_{n}", f'NP("{n}")', f'NP("{n}")', "", "", None),
            (f"np_{a}", f'NP(N("{a}"))', f'NP(N("{a}"))', "", "", None),
        ]
    planted = []
    for code in PLANTED_CODES:
        for _ in range(planted_per_code):
            w, v = next(vocab), next(vocab)
            planted.append((code, (f"bad_{w}",) + _planted(code, w, v)))
    rng.shuffle(planted)
    # Faults go among the first half of the lspairs.  `export --format dot`
    # numbers its clusters; for the 120-block grammar of cli-batch, every
    # cluster number in that half has three digits, so where a fault lands
    # does not change the output size.
    slots = set(rng.sample(range((len(lspairs) + len(planted)) // 2), len(planted)))
    clean, bad = iter(lspairs), iter(planted)
    merged = [next(bad)[1] if i in slots else next(clean) for i in range(len(lspairs) + len(planted))]
    lines = [f"tree {n}: {t}" for n, t in trees]
    lines += [f"pair {n} {{ left: {l} right: {r} links: [1~1, 2.2~2.1] }}" for n, l, r in pairs]
    lines += [_pair(*entry) for entry in merged]
    return BigGrammar(
        text="\n".join(lines) + "\n",
        trees=tuple(trees),
        pairs=tuple(pairs),
        lspairs=tuple(e[:3] for e in merged),
        diagnostics=tuple(sorted((code, entry[0]) for code, entry in planted)),
    )
