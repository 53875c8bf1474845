"""Reduction engine for oriented rules over the free algebra.

Implements deterministic single-step reduction, fuelled normal forms with a
word-level cache, overlap/inclusion ambiguity enumeration, and
pattern-guided Knuth-Bendix-style completion whose last round is the
diamond-lemma check.

A rule applies at the leftmost position where some lhs occurs, and there
the longest such lhs wins.  The lhs of a system are distinct, so this
choice is unique; it is made by one compiled regular expression, the
alternation of the lhs ordered longest first.

Normal forms of words are computed prefix first: a word w = h.l reduces
through the normal form of its head h, as NF(h).l, and only a word whose
head is irreducible is matched, where every match ends at the last letter.
So the cache holds the prefixes of the reduced words and words of the form
"normal word times one letter", which products of normal forms share.  Any
reduction order gives a reduct; on a confluent system the normal form does
not depend on it.

Normal forms are K-linear in the reduced element, so the word-level
reduction runs over the field of definition of the rules: a rule
coefficient without an r-part is kept as its rational int or Fraction, and
K = Q(r) arithmetic enters only where an element's own Scalar coefficients
multiply the cached normal forms of its words.  A word rewritten by a rule
whose rhs is a single word with coefficient 1 shares that word's cached
normal form instead of a copy.  Every sum of c * NF(key), over words or
tensor legs, is made by one reducer, RuleSystem.nf_terms: normal forms of
elements, branch differences of ambiguities (only the difference itself
becomes an NcPoly of Scalars) and the word maps of the Hopf layer.

Completion and the diamond check are one computation: each completion
round makes the diamond report of the current system, and the last round,
where every difference vanishes, is the diamond report of the completed
system.  Rounds are incremental: when a rule with lhs L is added, the nf
cache drops in place the words that hold L or whose head or prefix-first
children were dropped.  Each ambiguity is one record for the whole build,
its sort key and branches made once; it keeps its entry unreduced, and the
rank of a nonzero difference, while its branch words stay cached.  So the
final report holds entries of earlier rounds, each equal to the one a fresh
system computes, and each new rule adds the records of its own pairs.

No global monomial order is assumed: termination is enforced by fuel, and
confluence is established a posteriori by the ambiguity checks.  The fuel
is a property of the rule system, fixed when it is built: every reduction
of a word that is not cached yet may take at most RuleSystem.fuel steps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import FuelExhausted, LimitExceeded, NonOrientable
from .freealg import NcPoly, accumulate, check_word, word_key
from .report import Entry, Report

DEFAULT_FUEL = 100_000


def _field_coeff(c):
    """A rule coefficient in its field of definition: the rational c0 (int
    or Fraction) when c has no r-part, else the Scalar c itself."""
    return c if c.c1 else c.c0


def _field_terms(sparse):
    """The terms of an NcPoly or TensorPoly with their coefficients in the
    field of definition, as (key, coefficient) pairs."""
    return [(k, _field_coeff(c)) for k, c in sparse.terms.items()]


class Rule:
    """An oriented monic rewrite rule lhs -> rhs."""

    __slots__ = ("lhs", "rhs", "origin")

    def __init__(self, lhs: str, rhs: NcPoly, origin: str = "given"):
        if not lhs:
            raise ValueError("rule lhs must be a nonempty word")
        check_word(lhs)
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

    @cached_property
    def key(self):  # the enumeration order, witnesses in graded-lex order
        return (word_key(self.witness), self.rule_left, self.rule_right, self.pos_right, self.kind)


class RuleSystem:
    """Ordered list of rules with reduction and ambiguity machinery.

    Immutable after construction; normal forms of words are cached.  fuel
    is the step budget of every reduction made with the system.
    """

    def __init__(self, rules, fuel=DEFAULT_FUEL):
        rules = tuple(rules)
        self._lhs_index = {}
        for idx, r in enumerate(rules):
            if self._lhs_index.setdefault(r.lhs, idx) != idx:
                raise ValueError(f"duplicate rule lhs {r.lhs!r}")
        self.rules = rules
        self.fuel = fuel
        # alternatives are tried in order, so longest first; (?!) never matches
        self._lhs_re = re.compile("|".join(sorted(self._lhs_index, key=len, reverse=True))
                                  or "(?!)")
        # each rule's rhs as (word, coefficient) pairs for nf_word
        self._rhs = [_field_terms(r.rhs) for r in rules]
        self._nf_cache = {"": {"": 1}}

    # -- matching --------------------------------------------------------

    def match(self, w: str):
        """Leftmost match, the longest lhs winning at that position.
        Returns (position, rule_index) or None."""
        m = self._lhs_re.search(w)
        return None if m is None else (m.start(), self._lhs_index[m.group()])

    def apply_at(self, w: str, pos: int, idx: int) -> NcPoly:
        """Substitute rules[idx].lhs -> rhs at the given position of w."""
        rule = self.rules[idx]
        pre, suf = w[:pos], w[pos + len(rule.lhs):]
        return NcPoly({pre + t + suf: c for t, c in rule.rhs.terms.items()})

    # -- reduction -------------------------------------------------------

    def reduce_once(self, f: NcPoly, leftmost=True):
        """One deterministic step: scan stored words in graded-lex order and
        rewrite the first reducible one at its leftmost (or rightmost)
        match.  Returns the new polynomial, or None if f is irreducible."""
        for w in sorted(f.terms, key=word_key):
            m = self._match_directional(w, leftmost)
            if m is None:
                continue
            pos, idx = m
            c = f.terms[w]
            rest = NcPoly({u: cu for u, cu in f.terms.items() if u != w})
            return rest + self.apply_at(w, pos, idx).scale(c)
        return None

    def nf_word(self, w: str) -> dict:
        """Normal form of a single word as a dict {word: coefficient}; cached.

        Prefix first: the normal form of w is that of its head w[:-1] times
        its last letter, each term reduced again; a word with an irreducible
        head is rewritten at its leftmost match.  Every prefix of w is
        cached on the way.
        Coefficients lie in the field of definition of the rules: int or
        Fraction, and a Scalar only where a rule coefficient with an r-part
        enters.
        A word that one step rewrites to a single word with coefficient 1
        is cached as that word's dict itself, not a copy.
        Cached dicts are therefore shared and must never be mutated once
        inserted; callers read them and build their own results.
        Reducing a word that is not cached yet may visit at most self.fuel
        words; the words cached on the way cost later calls nothing.
        """
        cache = self._nf_cache
        hit = cache.get(w)
        if hit is not None:
            return hit
        budget = self.fuel
        steps = 0
        pending = {}
        stack = [w]
        while stack:
            steps += 1
            if steps > budget:
                raise FuelExhausted(NcPoly.word(w), steps - 1, budget)
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            children = pending.get(cur)
            if children is None:
                head = cur[:-1]
                head_nf = cache.get(head)
                if head_nf is None:
                    stack.append(head)
                    continue
                if head in head_nf:
                    # only an irreducible word occurs in its own normal form;
                    # every match of cur then ends at its last letter
                    m = self.match(cur)
                    if m is None:
                        cache[cur] = {cur: 1}
                        stack.pop()
                        continue
                    pos, idx = m
                    children = [(cur[:pos] + t, c) for t, c in self._rhs[idx]]
                else:
                    last = cur[-1]
                    children = [(n + last, c) for n, c in head_nf.items()]
                pending[cur] = children
            missing = [cw for cw, _ in children if cw not in cache]
            if missing:
                stack.extend(missing)
                continue
            if len(children) == 1 and children[0][1] == 1:
                cache[cur] = cache[children[0][0]]
            else:
                cache[cur] = accumulate({}, ((w2, c * c2) for cw, c in children
                                             for w2, c2 in cache[cw].items()))
            del pending[cur]
            stack.pop()
        return cache[w]

    def nf_terms(self, pairs) -> dict:
        """The normal form of the sum of c * key over the (key, c) pairs as a
        new dict, in the field of the c and of the rules: a key is a word, or
        a tuple of words (tensor legs).  Each key is reduced when its pair is
        reached, its legs left to right, and the terms accumulate in that
        order."""
        nf_word = self.nf_word
        return accumulate({}, ((w, c * cw) for key, c in pairs
                               for w, cw in (nf_word(key) if type(key) is str
                                             else self._nf_legs(key)).items()))

    def _nf_legs(self, key) -> dict:
        """NF(u1) (x) ... (x) NF(uk) for a tuple key (u1, ..., uk)."""
        terms = {(): 1}
        for leg in [self.nf_word(u) for u in key]:
            terms = {done + (w,): cd * cw for done, cd in terms.items() for w, cw in leg.items()}
        return terms

    def normal_form(self, f: NcPoly) -> NcPoly:
        """Fully reduce f.  Deterministic; equals exhaustive reduce_once
        iteration whenever the system is confluent."""
        return f._new(self.nf_terms(f.terms.items()))

    def normal_form_strategy(self, f: NcPoly, leftmost=True) -> NcPoly:
        """Uncached reduction applying, in every reducible word, the match at
        the leftmost (or rightmost) position.  Used for strategy-independence
        checks; no memoization so the chosen order is genuinely exercised."""
        steps = 0
        while True:
            g = self.reduce_once(f, leftmost)
            if g is None:
                return f
            steps += 1
            if steps > self.fuel:
                raise FuelExhausted(f, steps - 1, self.fuel)
            f = g

    def _match_directional(self, w, leftmost):
        if leftmost:
            return self.match(w)
        at = self._lhs_re.match
        for i in range(len(w) - 1, -1, -1):
            m = at(w, i)
            if m is not None:
                return (i, self._lhs_index[m.group()])
        return None

    # -- ambiguities -----------------------------------------------------

    def find_ambiguities(self):
        """All overlap and inclusion ambiguities, in deterministic order."""
        rules = self.rules
        return sorted((amb for i in range(len(rules)) for j in range(len(rules))
                       for amb in _pair_ambiguities(rules, i, j)), key=lambda amb: amb.key)

    def to_json(self):
        return [r.to_json() for r in self.rules]


def _pair_ambiguities(rules, i, j):
    """The ambiguities of rules[i] on the left with rules[j] on the right:
    each proper suffix of rules[i].lhs that is a proper prefix of
    rules[j].lhs, and each occurrence of a shorter rules[j].lhs inside
    rules[i].lhs."""
    li, lj = rules[i].lhs, rules[j].lhs
    for k in range(1, min(len(li), len(lj))):
        if li.endswith(lj[:k]):
            yield Ambiguity("overlap", i, j, li + lj[k:], len(li) - k)
    if i != j and len(lj) < len(li):
        pos = li.find(lj)
        while pos >= 0:
            yield Ambiguity("inclusion", i, j, li, pos)
            pos = li.find(lj, pos + 1)


def _branches(rs: RuleSystem, amb: Ambiguity):
    """The left and right one-step reducts of an ambiguity's witness, each
    as (word, coefficient) pairs over the rules' field."""
    w = amb.witness
    return [[(w[:pos] + t + w[pos + len(rs.rules[idx].lhs):], c) for t, c in rs._rhs[idx]]
            for pos, idx in ((0, amb.rule_left), (amb.pos_right, amb.rule_right))]


def branch_difference(rs: RuleSystem, amb: Ambiguity, branches=None) -> NcPoly:
    """NF(left branch) - NF(right branch), the branches _branches(rs, amb).

    Both branches are reduced over the rules' field of definition, the left
    one first, and the difference becomes an NcPoly of Scalars only at the
    end; its terms come in the order of NF(left) - NF(right) on NcPolys."""
    left, right = (rs.nf_terms(branch) for branch in branches or _branches(rs, amb))
    return NcPoly(accumulate(left, ((w2, -c) for w2, c in right.items())))


class _Record:
    """An ambiguity with its branches, its entry (None until it is reduced,
    and again once it must be) and the rank of a nonzero difference."""

    __slots__ = ("amb", "branches", "entry", "rank")

    def __init__(self, rs: RuleSystem, amb: Ambiguity):
        self.amb, self.branches, self.entry, self.rank = amb, _branches(rs, amb), None, None


def _diamond(rs: RuleSystem, records) -> Report:
    """The diamond report of rs over the records, in their order.  A record
    without an entry gets one: its branch difference as the residual, or the
    FuelExhausted of a branch that ran out of fuel (a failing entry that
    prints the error message).  Every other record keeps its entry, the same
    object, without reducing anything."""
    rules = rs.rules
    for rec in records:
        if rec.entry is None:
            amb = rec.amb
            name = (f"{amb.kind} {amb.witness} ({rules[amb.rule_left].lhs}@0, "
                    f"{rules[amb.rule_right].lhs}@{amb.pos_right})")
            try:
                rec.entry = Entry(name, branch_difference(rs, amb, rec.branches))
            except FuelExhausted as exc:
                rec.entry = Entry(name, exc)
    entries = [rec.entry for rec in records]
    return Report("diamond", {"rules": len(rules), "ambiguities": len(entries),
                              "unresolved": sum(1 for e in entries if not e.ok),
                              "entries": entries})


def check_diamond(rs: RuleSystem) -> Report:
    """Reduce every ambiguity witness along both branches; the verdict is ok
    iff all differences vanish (local confluence).  Each entry is named by
    its ambiguity; one whose reduction runs out of fuel fails with the error
    message as its residual.  complete's last round makes the same report
    for the system it returns, partly from earlier rounds' entries, so
    build_algebra does not call this."""
    return _diamond(rs, [_Record(rs, amb) for amb in rs.find_ambiguities()])


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

    def rank(self, diff: NcPoly):
        """(impure, len(lhs), word_rank(lhs), lhs) of orient(diff), read off
        diff (NonOrientable if it has no eligible word): the rhs is diff less
        the lhs, so it leaves the target span iff diff has a second eligible
        word.  Pure rules rank first, as the ones the final system may keep
        (closure invariant); impure ones usually become derivable once the
        pure ones have landed."""
        candidates = [w for w in diff.terms if not self.is_target(w)]
        if not candidates:
            raise NonOrientable(diff)
        lhs = max(candidates, key=self.word_rank)
        return (len(candidates) > 1, len(lhs), self.word_rank(lhs), lhs)

    def orient(self, diff: NcPoly) -> Rule:
        lhs = self.rank(diff)[-1]
        rhs = NcPoly.word(lhs) - diff.scale(diff.terms[lhs].inverse())
        return Rule(lhs, rhs, origin="completed")


@dataclass
class CompletionLog:
    added: list = field(default_factory=list)  # (witness, Rule)
    rounds: int = 0
    diamond: Report = None  # the last round's report: that of the returned system
    # per round, kept out of to_json: (ambiguities, entries reduced, nf cache
    # words as the round starts, carried from the round before)
    counts: list = field(default_factory=list)

    def to_json(self):
        return {"rounds": self.rounds,
                "added": [{"witness": w, "rule": r.to_json()} for w, r in self.added]}


def _carry(rs: RuleSystem, cache: dict) -> dict:
    """Cuts cache, the nf cache of rs before its last rule was added, in
    place to what rs computes the same: a word is dropped when it holds the
    new lhs, or when its head or one of its prefix-first children was
    dropped.  A word is cached after its head and children, so one pass in
    insertion order finds them, children only once some word was dropped; a
    kept head holds no lhs, and when it is irreducible every match of the
    word ends at its last letter."""
    lhs, longest = rs.rules[-1].lhs, max(len(r.lhs) for r in rs.rules)
    search, index, rhs = rs._lhs_re.search, rs._lhs_index, rs._rhs
    dropped = set()
    for w, nf in cache.items():
        head = w[:-1]
        if w.endswith(lhs) or head in dropped:
            dropped.add(w)
        elif dropped and w not in nf:  # reducible
            head_nf = cache[head]
            if head in head_nf:
                m = search(w, max(0, len(w) - longest))
                children = [w[:m.start()] + t for t, _ in rhs[index[m.group()]]]
            else:
                children = [n + w[-1] for n in head_nf]
            if not dropped.isdisjoint(children):
                dropped.add(w)
    for w in dropped:
        del cache[w]
    return cache


def complete(rs: RuleSystem, orient: OrientationPolicy, max_rules=64):
    """Knuth-Bendix-style completion.

    Each round makes the diamond report of the current system and ranks its
    nonzero differences by the rule the policy would orient from each; only
    the rule with the smallest lhs under the policy order is made and
    added.  Adding small rules first keeps intermediate systems from
    spiralling into ever longer left-hand sides.  Each ambiguity is a record
    of its sort key and branches, made once, when it is enumerated.

    The next system starts from this one's nf cache, cut in place to the
    words the new rule leaves alone, and a record whose branch words all
    stayed keeps its entry, the same object, unreduced, and its rank.  A
    witness whose reduction exhausts its fuel under the current (possibly
    non-terminating) intermediate system is skipped for the round and
    reduced again after the next rule lands.  Every intermediate system,
    and the result, keeps the fuel of rs; carried words cost none.  If the
    rule cap is reached while witnesses are stuck, the LimitExceeded names
    how many and chains from the first FuelExhausted.

    The last round finds every difference zero: its report, kept as
    log.diamond, is the diamond check of the returned system.

    Returns (RuleSystem, CompletionLog).
    """
    rules = list(rs.rules)
    log = CompletionLog()
    current = RuleSystem(rules, rs.fuel)
    records = [_Record(current, amb) for amb in current.find_ambiguities()]
    while True:
        log.rounds += 1
        log.counts.append((len(records), sum(rec.entry is None for rec in records),
                           len(current._nf_cache)))
        report = _diamond(current, records)
        candidates = []  # records of nonzero differences
        stuck = []  # (witness, FuelExhausted)
        for rec in records:
            if isinstance(rec.entry.residual, FuelExhausted):
                stuck.append((rec.amb.witness, rec.entry.residual))
            elif not rec.entry.ok:
                rec.rank = rec.rank or orient.rank(rec.entry.residual)
                candidates.append(rec)
        if not candidates:
            if stuck:
                witness, exc = stuck[0]
                raise FuelExhausted(NcPoly.word(witness), exc.steps, exc.budget) from exc
            log.diamond = report
            return current, log
        if len(rules) >= max_rules:
            first = stuck[0][1] if stuck else None
            detail = f" with {len(stuck)} witnesses out of fuel, first: {first}" if stuck else ""
            raise LimitExceeded(f"completion exceeded max_rules={max_rules}{detail}") from first
        best = min(candidates, key=lambda rec: (rec.rank, rec.amb.key))
        rule = orient.orient(best.entry.residual)
        log.added.append((best.amb.witness, rule))
        rules.append(rule)
        current, old = RuleSystem(rules, rs.fuel), current
        current._nf_cache = cache = _carry(current, old._nf_cache)
        for rec in records:
            if isinstance(rec.entry.residual, FuelExhausted) or not all(
                    w in cache for branch in rec.branches for w, _ in branch):
                rec.entry = rec.rank = None
        new = len(rules) - 1
        records += [_Record(current, amb) for i in range(new + 1)
                    for pair in {(i, new), (new, i)} for amb in _pair_ambiguities(rules, *pair)]
        records.sort(key=lambda rec: rec.amb.key)
