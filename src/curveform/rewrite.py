"""Reduction engine for oriented rules over the free algebra.

Implements deterministic single-step reduction, fuelled normal forms with a
word-level cache, overlap/inclusion ambiguity enumeration, diamond-lemma
checking, and pattern-guided Knuth-Bendix-style completion.

No global monomial order is assumed: termination is enforced by fuel, and
confluence is established a posteriori by the ambiguity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FuelExhausted, LimitExceeded, NonOrientable
from .freealg import NcPoly, accumulate, word_key
from .scalar import ONE

DEFAULT_FUEL = 100_000


class Rule:
    """An oriented monic rewrite rule lhs -> rhs."""

    __slots__ = ("lhs", "rhs", "origin")

    def __init__(self, lhs: str, rhs: NcPoly, origin: str = "given"):
        if not lhs:
            raise ValueError("rule lhs must be a nonempty word")
        if lhs in rhs.terms:
            raise ValueError(f"rule is not monic: lhs {lhs!r} occurs in rhs")
        if origin not in ("given", "folded", "completed"):
            raise ValueError(f"unknown rule origin {origin!r}")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "origin", origin)

    def __setattr__(self, name, value):
        raise AttributeError("Rule is immutable")

    def __repr__(self):
        return f"Rule({self.lhs!r} -> {self.rhs})"

    def to_json(self):
        return {"lhs": self.lhs, "rhs": self.rhs.to_json(), "origin": self.origin}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["lhs"], NcPoly.from_json(obj["rhs"]), obj["origin"])


@dataclass(frozen=True)
class Ambiguity:
    """A minimal word in which two rules both apply.

    overlap: a proper suffix of rules[left].lhs equals a proper prefix of
    rules[right].lhs; the witness is the fused word, with the left rule
    applying at position 0 and the right rule at pos_right.
    inclusion: rules[right].lhs is a proper subword of rules[left].lhs.
    """

    kind: str  # "overlap" | "inclusion"
    rule_left: int
    rule_right: int
    witness: str
    pos_right: int

    def to_json(self):
        return {"kind": self.kind, "rule_left": self.rule_left,
                "rule_right": self.rule_right, "witness": self.witness,
                "pos_right": self.pos_right}


class RuleSystem:
    """Ordered list of rules with reduction and ambiguity machinery.

    Immutable after construction; normal forms of words are cached.
    """

    def __init__(self, rules, fuel_default=DEFAULT_FUEL):
        rules = tuple(rules)
        seen = set()
        for r in rules:
            if r.lhs in seen:
                raise ValueError(f"duplicate rule lhs {r.lhs!r}")
            seen.add(r.lhs)
        self.rules = rules
        self.fuel_default = fuel_default
        # lhs lookup bucketed by first letter, longest lhs first, ties by rule order
        by_first = {}
        for idx, r in enumerate(rules):
            by_first.setdefault(r.lhs[0], []).append((-len(r.lhs), idx))
        self._by_first = {ch: sorted(v) for ch, v in by_first.items()}
        self._max_lhs = max((len(r.lhs) for r in rules), default=0)
        self._nf_cache = {}

    # -- matching --------------------------------------------------------

    def match(self, w: str):
        """Leftmost match; ties at a position broken by longest lhs then rule
        order.  Returns (position, rule_index) or None."""
        rules = self.rules
        by_first = self._by_first
        for i, ch in enumerate(w):
            for _, idx in by_first.get(ch, ()):
                lhs = rules[idx].lhs
                if w.startswith(lhs, i):
                    return (i, idx)
        return None

    def is_reducible_word(self, w: str) -> bool:
        return self.match(w) is not None

    def apply_at(self, w: str, pos: int, idx: int) -> NcPoly:
        """Substitute rules[idx].lhs -> rhs at the given position of w."""
        rule = self.rules[idx]
        pre, suf = w[:pos], w[pos + len(rule.lhs):]
        return NcPoly({pre + t + suf: c for t, c in rule.rhs.terms.items()})

    # -- reduction -------------------------------------------------------

    def reduce_once(self, f: NcPoly):
        """One deterministic step: scan stored words in graded-lex order and
        rewrite the first reducible one at its leftmost position.  Returns the
        new polynomial, or None if f is irreducible."""
        for w in sorted(f.terms, key=word_key):
            m = self.match(w)
            if m is None:
                continue
            pos, idx = m
            c = f.terms[w]
            rest = NcPoly({u: cu for u, cu in f.terms.items() if u != w})
            return rest + self.apply_at(w, pos, idx).scale(c)
        return None

    def nf_word(self, w: str, fuel=None) -> dict:
        """Normal form of a single word as a dict {word: Scalar}; cached."""
        cache = self._nf_cache
        hit = cache.get(w)
        if hit is not None:
            return hit
        budget = self.fuel_default if fuel is None else fuel
        steps = 0
        pending = {}
        stack = [w]
        while stack:
            steps += 1
            if steps > budget:
                raise FuelExhausted(NcPoly.word(w), steps - 1)
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            children = pending.get(cur)
            if children is None:
                m = self.match(cur)
                if m is None:
                    cache[cur] = {cur: ONE}
                    stack.pop()
                    continue
                pos, idx = m
                rule = self.rules[idx]
                pre, suf = cur[:pos], cur[pos + len(rule.lhs):]
                children = [(pre + t + suf, c) for t, c in rule.rhs.terms.items()]
                pending[cur] = children
            missing = [cw for cw, _ in children if cw not in cache]
            if missing:
                stack.extend(missing)
                continue
            cache[cur] = accumulate({}, ((w2, c * c2) for cw, c in children
                                         for w2, c2 in cache[cw].items()))
            del pending[cur]
            stack.pop()
        return cache[w]

    def normal_form(self, f: NcPoly, fuel=None) -> NcPoly:
        """Fully reduce f.  Deterministic; equals exhaustive reduce_once
        iteration whenever the system is confluent."""
        return f._new(accumulate({}, ((w2, c * c2) for w, c in f.terms.items()
                                      for w2, c2 in self.nf_word(w, fuel).items())))

    def normal_form_strategy(self, f: NcPoly, leftmost=True, fuel=None) -> NcPoly:
        """Uncached reduction applying, in every reducible word, the match at
        the leftmost (or rightmost) position.  Used for strategy-independence
        checks; no memoization so the chosen order is genuinely exercised."""
        budget = self.fuel_default if fuel is None else fuel
        steps = 0
        while True:
            target = None
            for w in sorted(f.terms, key=word_key):
                m = self._match_directional(w, leftmost)
                if m is not None:
                    target = (w, m)
                    break
            if target is None:
                return f
            steps += 1
            if steps > budget:
                raise FuelExhausted(f, steps - 1)
            w, (pos, idx) = target
            c = f.terms[w]
            rest = NcPoly({u: cu for u, cu in f.terms.items() if u != w})
            f = rest + self.apply_at(w, pos, idx).scale(c)

    def _match_directional(self, w, leftmost):
        if leftmost:
            return self.match(w)
        rules = self.rules
        for i in range(len(w) - 1, -1, -1):
            for _, idx in self._by_first.get(w[i], ()):
                if w.startswith(rules[idx].lhs, i):
                    return (i, idx)
        return None

    # -- ambiguities -----------------------------------------------------

    def find_ambiguities(self):
        """All overlap and inclusion ambiguities, in deterministic order."""
        out = []
        rules = self.rules
        for i, ri in enumerate(rules):
            for j, rj in enumerate(rules):
                li, lj = ri.lhs, rj.lhs
                for k in range(1, min(len(li), len(lj))):
                    if li.endswith(lj[:k]):
                        out.append(Ambiguity("overlap", i, j, li + lj[k:], len(li) - k))
                if i != j and len(lj) < len(li):
                    start = 0
                    while True:
                        pos = li.find(lj, start)
                        if pos < 0:
                            break
                        out.append(Ambiguity("inclusion", i, j, li, pos))
                        start = pos + 1
        out.sort(key=lambda amb: (word_key(amb.witness), amb.rule_left,
                                  amb.rule_right, amb.pos_right, amb.kind))
        return out

    def to_json(self):
        return [r.to_json() for r in self.rules]


@dataclass
class DiamondEntry:
    ambiguity: Ambiguity
    resolved: bool
    difference: NcPoly
    error: str | None = None

    def to_json(self):
        obj = self.ambiguity.to_json()
        obj["resolved"] = self.resolved
        obj["difference"] = self.difference.to_json()
        if self.error:
            obj["error"] = self.error
        return obj


@dataclass
class DiamondReport:
    entries: list
    ok: bool

    def to_json(self):
        return {"ok": self.ok,
                "ambiguities": len(self.entries),
                "unresolved": sum(1 for e in self.entries if not e.resolved),
                "entries": [e.to_json() for e in self.entries]}


def branch_difference(rs: RuleSystem, amb: Ambiguity, fuel=None):
    """NF(left branch) - NF(right branch) for an ambiguity's witness."""
    w = amb.witness
    left = rs.apply_at(w, 0, amb.rule_left)
    right = rs.apply_at(w, amb.pos_right, amb.rule_right)
    return rs.normal_form(left, fuel) - rs.normal_form(right, fuel)


def check_diamond(rs: RuleSystem, fuel=None) -> DiamondReport:
    """Reduce every ambiguity witness along both branches; the verdict is ok
    iff all differences vanish (local confluence)."""
    entries = []
    ok = True
    for amb in rs.find_ambiguities():
        try:
            diff = branch_difference(rs, amb, fuel)
            resolved = not diff
            entries.append(DiamondEntry(amb, resolved, diff))
        except FuelExhausted as exc:
            entries.append(DiamondEntry(amb, False, NcPoly.zero(), error=str(exc)))
            resolved = False
        ok = ok and resolved
    return DiamondReport(entries, ok)


class OrientationPolicy:
    """Chooses the lhs of a new rule from a difference polynomial.

    A word is eligible iff it is NOT a target normal-form word; among
    eligible words the maximum under (letter-weight sum, length, letter
    precedence b > y > a > x > g) wins.
    """

    WEIGHT = {"x": 2, "a": 2, "y": 3, "b": 3, "g": -2}
    PRECEDENCE = {"g": 0, "x": 1, "a": 2, "y": 3, "b": 4}

    def __init__(self, is_target):
        self.is_target = is_target

    def word_rank(self, w: str):
        return (sum(self.WEIGHT[ch] for ch in w), len(w),
                tuple(self.PRECEDENCE[ch] for ch in w))

    def orient(self, diff: NcPoly) -> Rule:
        candidates = [w for w in diff.terms if not self.is_target(w)]
        if not candidates:
            raise NonOrientable(diff)
        lhs = max(candidates, key=self.word_rank)
        inv = diff.terms[lhs].inverse()
        rhs = NcPoly.word(lhs) - diff.scale(inv)
        return Rule(lhs, rhs, origin="completed")


@dataclass
class CompletionLog:
    added: list = field(default_factory=list)  # (witness, Rule)
    rounds: int = 0

    def to_json(self):
        return {"rounds": self.rounds,
                "added": [{"witness": w, "rule": r.to_json()} for w, r in self.added]}


def complete(rs: RuleSystem, orient: OrientationPolicy, max_rules=64, fuel=None):
    """Knuth-Bendix-style completion.

    Each round reduces every ambiguity witness along both branches and
    collects the candidate rules oriented from the nonzero differences; the
    candidate with the smallest lhs under the policy order is added.  Adding
    small rules first keeps intermediate systems from spiralling into ever
    longer left-hand sides.  A witness whose reduction exhausts its fuel
    under the current (possibly non-terminating) intermediate system is
    skipped for the round and retried after the next rule lands.

    Returns (RuleSystem, CompletionLog).
    """
    rules = list(rs.rules)
    log = CompletionLog()
    while True:
        log.rounds += 1
        current = RuleSystem(rules, rs.fuel_default)
        candidates = []  # (lhs_rank, witness, Rule)
        stuck = []
        for amb in current.find_ambiguities():
            try:
                diff = branch_difference(current, amb, fuel)
            except FuelExhausted:
                stuck.append(amb)
                continue
            if diff:
                rule = orient.orient(diff)
                # Rules whose rhs stays inside the target span come first:
                # they are the ones the final system may keep (closure
                # invariant), and impure candidates usually become derivable
                # once the pure ones have landed.
                impure = any(not orient.is_target(w) for w in rule.rhs.terms)
                candidates.append(((impure, len(rule.lhs), orient.word_rank(rule.lhs)),
                                   amb.witness, rule))
        if not candidates:
            if stuck:
                raise FuelExhausted(NcPoly.word(stuck[0].witness), 0)
            return current, log
        if len(rules) >= max_rules:
            raise LimitExceeded(f"completion exceeded max_rules={max_rules}")
        candidates.sort(key=lambda c: (c[0], word_key(c[1])))
        _, witness, rule = candidates[0]
        log.added.append((witness, rule))
        rules.append(rule)
