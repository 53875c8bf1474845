"""Reduction engine for oriented rules over the free algebra.

Implements the termination order, normal forms with a word-level cache,
overlap/inclusion ambiguity enumeration, and Knuth-Bendix-style completion
under the order, whose last round is the diamond-lemma check.

A rule applies at the leftmost position where some lhs occurs, and there
the longest such lhs wins.  The lhs of a system are distinct, so this
choice is unique; it is made by one compiled regular expression, the
alternation of the lhs ordered longest first.  A rule is named by its lhs
alone: in matches, ambiguities, branches and diamond entries.

Normal forms of words are computed prefix first: a word w = h.l reduces
through the normal form of its head h, as NF(h).l, and only a word whose
head is irreducible is matched, where every match ends at the last letter.
So the cache holds the prefixes of the reduced words and words of the form
"normal word times one letter", which products of normal forms share.  Any
reduction order gives a reduct; on a confluent system the normal form does
not depend on it.

Normal forms are K-linear in the reduced element, so the word-level
reduction runs on the field form of scalar.field, which each Rule makes of
its rhs once: an int where a coefficient is integral, else a Scalar, so an
integral point reduces on ints alone, and an element's own Scalar
coefficients multiply the cached normal forms of its words.  The sharing
rule: a word that one step rewrites to one word with coefficient 1 is
cached as that word's dict, and a lone (word, int 1) pair in nf_terms is
that word's cached dict; both are only read.  Every other sum of c * NF(w)
(nf_word's cache fill, nf_terms, each letter of nf_times) is a new dict
made from the cached dicts with freealg.accumulate_scaled, so an
irreducible word, whose NF is {w: 1}, adds c itself, unmultiplied;
nf_times reads a cached NF(w) without calling nf_word.
The reducer only adds, multiplies, compares and tests the truth of
coefficients, so it runs unchanged over scalar.QPoly, the polynomial ring
Q[q, p], where nodal.build_algebra completes the seeds once.
nf_terms reduces normal forms of elements and the branches of ambiguities.
A resolved ambiguity costs one comparison of its two branch normal forms;
only a nonzero difference is summed and becomes an NcPoly of Scalars.  A
sum of normal forms times words, as the Hopf layer's antipode makes, is
reduced by nf_times one letter at a time, so that only words of the form
normal word times one letter are reduced and cached.

Completion and the diamond check are one computation: each completion
round makes the diamond report of the current system, and the last round,
where every difference vanishes, is the diamond report of the completed
system.  Rounds are incremental: when a rule with lhs L is added, the nf
cache drops in place the words that hold L or whose head or prefix-first
children, derived again under the new rules, were dropped.  Each
ambiguity is one record for the whole completion, its branches made once.
A resolved entry is kept for the rest of the completion: rules are only added,
never inter-reduced, so the reductions that resolved it stay reductions of
every later system, and an ambiguity resolvable under some rules stays so
under more (Bergman 1978).  An unresolved entry, with the rank of its
difference, is kept while its branch words stay cached.  So the final
report holds entries of earlier rounds, each equal to the one a fresh check
of the completed system computes, and each new rule adds the records of its
own pairs.  Five memos live as long as the process, as they read words
alone: word_matrix, _pair_ambiguities (with their sort keys), _ambiguities
of an lhs set, _added_ambiguities of a new lhs and _word_rank of a
difference's words.  No memo key or value holds a coefficient, so the
carry, the branches and the residuals stay per completion.  A completion
divides only by the coefficient of a difference's maximum word; over
Q[q, p] one that is not a nonzero constant raises NotAUnit.

Termination is proved by one well-founded order, a matrix interpretation
(Hofbauer & Waldmann 2006): a word maps to the product of its letters'
upper-triangular 3x3 matrices over N, LETTER_MATRICES, and u > v iff
[u] >= [v] entrywise with a larger top-right entry.  The diagonal entries
are at least 1, so u > v implies s.u.t > s.v.t, and the top-right entry
lies in N, so there is no infinite descending chain.  complete orients each
rule to the maximum word of its difference, so when the given rules
decrease too (each nodal seed lhs is the maximum of its relation), every
reduction terminates, and once every ambiguity resolves, normal forms are
unique (Bergman's diamond lemma).  The fuel is a guard only, fixed when
the rule system is built: every reduction of a word that is not cached yet
may take at most RuleSystem.fuel steps, so under a tight budget the
outcome can depend on what is already cached.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import ge

from .errors import FuelExhausted, LimitExceeded, NonOrientable, NotAUnit
from .freealg import NcPoly, _INT_ONE, accumulate, accumulate_scaled, check_word, word_key
from .report import Entry, Report, attempt

DEFAULT_FUEL = 100_000


class Rule:
    """An oriented monic rewrite rule lhs -> rhs; field_rhs is its field form."""

    __slots__ = ("lhs", "rhs", "origin", "field_rhs")

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
        object.__setattr__(self, "field_rhs", tuple(rhs.field_terms()))

    def __setattr__(self, name, value):
        raise AttributeError("Rule is immutable")

    def __repr__(self):
        return f"Rule({self.lhs!r} -> {self.rhs})"

    def to_json(self):
        return {"lhs": self.lhs, "rhs": self.rhs.to_json(), "origin": self.origin}


@dataclass(frozen=True)
class Ambiguity:
    """A minimal word in which two rules both apply, each named by its lhs.

    overlap: a proper suffix of left equals a proper prefix of right; the
    witness is the fused word, with the left rule applying at position 0
    and the right rule at pos_right.
    inclusion: right is a proper subword of left.
    """

    kind: str  # "overlap" | "inclusion"
    left: str
    right: str
    witness: str
    pos_right: int

    @cached_property
    def key(self):  # graded-lex in witnesses and in tied lhs, prefixes of one another
        return (word_key(self.witness), self.pos_right, self.kind, self.left, self.right)

    @cached_property
    def name(self):  # of its diamond entry
        return f"{self.kind} {self.witness} ({self.left}@0, {self.right}@{self.pos_right})"


class RuleSystem:
    """Ordered list of rules with reduction and ambiguity machinery.

    Immutable after construction; normal forms of words are cached.  fuel
    is the step budget of every reduction made with the system.
    """

    def __init__(self, rules, fuel=DEFAULT_FUEL):
        self.rules = tuple(rules)
        self.fuel = fuel
        # lhs -> its rhs as (word, coefficient) pairs, in rule order
        self._rhs = {}
        for r in self.rules:
            if r.lhs in self._rhs:
                raise ValueError(f"duplicate rule lhs {r.lhs!r}")
            self._rhs[r.lhs] = r.field_rhs
        # alternatives are tried in order, so longest first; (?!) never matches
        self._lhs_re = re.compile("|".join(sorted(self._rhs, key=len, reverse=True)) or "(?!)")
        self._nf_cache = {"": {"": 1}}

    # -- matching --------------------------------------------------------

    def match(self, w: str):
        """Leftmost match, the longest lhs winning at that position.
        Returns (position, lhs), the rule named by its lhs, or None."""
        m = self._lhs_re.search(w)
        return None if m is None else (m.start(), m.group())

    # -- reduction -------------------------------------------------------

    def nf_word(self, w: str) -> dict:
        """Normal form of a single word as a dict {word: coefficient} over the
        rules' field; cached, with every prefix of w.  A word's children are
        NF(head) times its last letter, else the word rewritten at its match.
        A word is cached as the sum of c * NF(child) over its children, or, by
        the sharing rule of the module docstring, as its one child's dict, so
        cached dicts are shared and must never be mutated once inserted.
        Reducing a word that is not cached yet may visit at most self.fuel
        words; the words cached on the way cost later calls nothing."""
        cache = self._nf_cache
        hit = cache.get(w)
        if hit is not None:
            return hit
        budget, lookup = self.fuel, cache.get
        match, rhs = self.match, self._rhs
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
            children = pending.pop(cur, None)
            if children is None:
                head = cur[:-1]
                head_nf = lookup(head)
                if head_nf is None:
                    stack.append(head)
                    continue
                if head not in head_nf:  # the head is reducible
                    last = cur[-1]
                    children = [(n + last, c) for n, c in head_nf.items()]
                elif (m := match(cur)) is None:
                    cache[cur] = {cur: 1}
                    stack.pop()
                    continue
                else:  # the match ends at the last letter
                    children = [(cur[:m[0]] + t, c) for t, c in rhs[m[1]]]
            missing = [cw for cw, _ in children if cw not in cache]
            if missing:
                pending[cur] = children
                stack.extend(missing)
                continue
            if len(children) == 1 and children[0][1] == 1:
                cache[cur] = cache[children[0][0]]
            else:
                nf = {}
                for cw, c in children:
                    accumulate_scaled(nf, c, cache[cw])
                cache[cur] = nf
            stack.pop()
        return cache[w]

    def nf_terms(self, pairs) -> dict:
        """The normal form of the sum of c * w over the (word, c) pairs, in
        the field of the c and of the rules.  A lone pair (w, int 1) is
        NF(w), the cached dict, by the sharing rule of the module docstring;
        any other sum is a new dict, each word reduced when its pair is
        reached and the terms accumulated in that order.  The int 1 is told
        by identity, so a Scalar 1, as a public NcPoly holds, still gets a
        new dict of Scalars."""
        pairs, nf_word, acc = list(pairs), self.nf_word, {}
        if len(pairs) == 1 and pairs[0][1] is _INT_ONE:
            return nf_word(pairs[0][0])
        for w, c in pairs:
            accumulate_scaled(acc, c, nf_word(w))
        return acc

    def nf_times(self, groups) -> dict:
        """The normal form of the sum of P_v * v over groups = {v: P_v} as a
        new dict, each P_v a dict over normal words, by Horner's scheme on the
        suffixes of the v: longest v first, in insertion order, P_v times the
        first letter of v is reduced and added after the terms of the group of
        the rest of v: NF(n + letter) for each word n, read from the cache
        without a call, by nf_word only on a miss (fuel counts only words not
        cached yet, so no fuel outcome moves).  So only a normal word times
        one letter is reduced, and groups that share a suffix merge before
        their next letter, a finished group into a copy of the group it
        joins: no P_v or cached dict is written into."""
        lookup, nf_word, groups = self._nf_cache.get, self.nf_word, dict(groups)
        for size in range(max(map(len, groups), default=0), 0, -1):
            for v in [v for v in groups if len(v) == size]:
                prod, first, rest = {}, v[0], v[1:]
                for n, c in groups.pop(v).items():
                    w = n + first
                    accumulate_scaled(prod, c, lookup(w) or nf_word(w))
                old = groups.get(rest)
                groups[rest] = prod if old is None else accumulate(dict(old), prod.items())
        return dict(groups.get("", {}))

    def normal_form(self, f: NcPoly) -> NcPoly:
        """Fully reduce the NcPoly f: the sum of c * NF(w) over its terms c * w."""
        return f._new(self.nf_terms(f.terms.items()))

    # -- ambiguities -----------------------------------------------------

    def find_ambiguities(self):
        """All overlap and inclusion ambiguities, in deterministic order."""
        return list(_ambiguities(frozenset(self._rhs)))

    def to_json(self):
        return [r.to_json() for r in self.rules]


@cache
def _pair_ambiguities(li: str, lj: str) -> tuple:
    """The ambiguities of the rule with lhs li on the left and the one with
    lhs lj on the right: each proper suffix of li that is a proper prefix of
    lj, and each occurrence of a shorter lj inside li; memoised."""
    return (*(Ambiguity("overlap", li, lj, li + lj[k:], len(li) - k)
              for k in range(1, min(len(li), len(lj))) if li.endswith(lj[:k])),
            *(Ambiguity("inclusion", li, lj, li, pos) for pos in range(len(li) - len(lj) + 1)
              if len(lj) < len(li) and li.startswith(lj, pos)))


@cache
def _ambiguities(lhs: frozenset) -> tuple:
    """The ambiguities of the rules with these lhs, sorted by key; memoised."""
    return tuple(sorted((amb for li in lhs for lj in lhs for amb in _pair_ambiguities(li, lj)),
                        key=lambda amb: amb.key))


@cache
def _added_ambiguities(lhs: frozenset, new: str) -> tuple:
    """The ambiguities of the lhs set that involve its member new; memoised."""
    return tuple(amb for li in lhs for pair in {(li, new), (new, li)}
                 for amb in _pair_ambiguities(*pair))


def _branches(rs: RuleSystem, amb: Ambiguity):
    """The left and right one-step reducts of an ambiguity's witness, each
    as (word, coefficient) pairs over the rules' field."""
    w = amb.witness
    return [[(w[:pos] + t + w[pos + len(lhs):], c) for t, c in rs._rhs[lhs]]
            for pos, lhs in ((0, amb.left), (amb.pos_right, amb.right))]


def branch_difference(rs: RuleSystem, amb: Ambiguity, branches=None) -> NcPoly:
    """NF(left branch) - NF(right branch), the branches _branches(rs, amb).

    Both branches are reduced by nf_terms over the rules' field of
    definition, the left one first, so a branch that is one word with
    coefficient 1 is that word's cached dict.  Equal normal forms, a
    resolved entry, cost one comparison of the two dicts; only a nonzero
    difference is summed, on a copy, and becomes an NcPoly of Scalars, its
    terms in the order of NF(left) - NF(right) on NcPolys."""
    left, right = (rs.nf_terms(branch) for branch in branches or _branches(rs, amb))
    if left == right:
        return NcPoly.zero()
    return NcPoly(accumulate(dict(left), ((w2, -c) for w2, c in right.items())))


class _Record:
    """An ambiguity with its branches, its entry (None until it is reduced,
    and again once it must be) and the rank of a nonzero difference."""

    __slots__ = ("amb", "branches", "entry", "rank")

    def __init__(self, rs: RuleSystem, amb: Ambiguity):
        self.amb, self.branches, self.entry, self.rank = amb, _branches(rs, amb), None, None


def _diamond(rs: RuleSystem, records) -> Report:
    """The diamond report of rs over the records, in their order.  A record
    without an entry gets one: its branch difference as the residual, or,
    when a branch cannot finish (report.attempt), the error, a failing
    entry that prints the error message.  Every other record keeps its
    entry, the same object, without reducing anything."""
    for rec in records:
        if rec.entry is None:
            diff, error = attempt(lambda: branch_difference(rs, rec.amb, rec.branches))
            rec.entry = Entry(rec.amb.name, error or diff)
    entries = [rec.entry for rec in records]
    return Report("diamond", {"rules": len(rs.rules), "ambiguities": len(entries),
                              "unresolved": sum(1 for e in entries if not e.ok),
                              "entries": entries})


def check_diamond(rs: RuleSystem) -> Report:
    """Reduce every ambiguity witness along both branches; the verdict is ok
    iff all differences vanish (local confluence).  Each entry is named by
    its ambiguity; one whose reduction cannot finish fails with the error
    as its residual.  complete's last round makes the same report
    for the system it returns, partly from earlier rounds' entries; on a
    confluent system its only round is this check, the one build_algebra
    makes at each point."""
    return _diamond(rs, [_Record(rs, amb) for amb in rs.find_ambiguities()])


# -- the termination order ------------------------------------------------

# each letter's upper-triangular 3x3 matrix over N as its entries
# (m00, m01, m02, m11, m12, m22)
LETTER_MATRICES = {
    "x": (1, 0, 0, 2, 1, 2),
    "y": (2, 0, 1, 3, 3, 3),
    "a": (1, 0, 1, 1, 0, 1),
    "g": (1, 3, 2, 1, 0, 1),
    "b": (3, 2, 3, 2, 1, 1),
}


@cache
def word_matrix(w: str):
    """The matrix of w, the product of its letters' matrices read left to
    right (the identity for the empty word), in the layout of
    LETTER_MATRICES; memoised, and made in a loop: no recursion depth."""
    a00, a01, a02, a11, a12, a22 = 1, 0, 0, 1, 0, 1
    for letter in w:
        b00, b01, b02, b11, b12, b22 = LETTER_MATRICES[letter]
        a00, a01, a02, a11, a12, a22 = (
            a00 * b00, a00 * b01 + a01 * b11, a00 * b02 + a01 * b12 + a02 * b22,
            a11 * b11, a11 * b12 + a12 * b22, a22 * b22)
    return a00, a01, a02, a11, a12, a22


def greater(u: str, v: str) -> bool:
    """u > v in the termination order: [u] >= [v] entrywise, and the
    top-right entry of [u] is larger."""
    mu, mv = word_matrix(u), word_matrix(v)
    return mu[2] > mv[2] and all(map(ge, mu, mv))


def maximum(words):
    """The word of words above every other one in the order, or None when no
    word is: the one with the largest top-right entry, if it dominates."""
    top = max(words, key=lambda w: word_matrix(w)[2], default=None)
    return top if all(w == top or greater(top, w) for w in words) else None


def rank(diff: NcPoly, is_target, witness=None):
    """(impure, len(lhs), lhs) of orient(diff, is_target), read off diff:
    lhs is the maximum word of diff, and NonOrientable, naming the witness
    diff came from, is raised when there is none, or it is the empty word
    or a target word.
    The rule is impure iff its rhs leaves the target span.  Pure rules rank
    first, as the ones the final system may keep; impure ones usually
    become derivable once the pure ones have landed."""
    ranked = _word_rank(frozenset(diff.terms), is_target)
    if ranked is None:
        raise NonOrientable(diff, witness)
    return ranked


@cache
def _word_rank(words: frozenset, is_target):
    """rank of a difference with these words, None if it has none; memoised."""
    lhs = maximum(words)
    if not lhs or is_target(lhs):
        return None
    return (any(not is_target(w) for w in words if w != lhs), len(lhs), lhs)


def orient(diff: NcPoly, is_target) -> Rule:
    """The monic rule lhs -> rhs with lhs - rhs a multiple of diff, lhs the
    maximum word of diff (see rank)."""
    return _monic(diff, rank(diff, is_target)[-1])


def _monic(diff: NcPoly, lhs: str, witness=None) -> Rule:
    """The completed rule lhs -> rhs with lhs - rhs a multiple of diff;
    NotAUnit, naming the witness diff came from, when the coefficient of
    lhs has no inverse (a QPoly that is not constant)."""
    try:
        inverse = diff.terms[lhs].inverse()
    except NotAUnit as exc:
        raise NotAUnit(exc.value, witness) from None
    return Rule(lhs, NcPoly.word(lhs) - diff.scale(inverse), origin="completed")


@dataclass
class CompletionLog:
    added: list = field(default_factory=list)  # (witness, Rule)
    diamond: Report = None  # the last round's report: that of the returned system
    # per round, kept out of to_json: (ambiguities, entries reduced, nf cache
    # words as the round starts, carried from the round before)
    counts: list = field(default_factory=list)

    @property
    def rounds(self):
        return len(self.counts)

    def to_json(self):
        return {"rounds": self.rounds,
                "added": [{"witness": w, "rule": r.to_json()} for w, r in self.added]}


def _carry(rs: RuleSystem, cache: dict) -> dict:
    """Cuts cache, the nf cache of rs before its last rule was added, in
    place to what rs computes the same: a word is dropped when it holds the
    new lhs, or when its head or one of its prefix-first children, as rs
    makes them (see nf_word), was dropped.  Words are cached after their
    head and children, so one pass in insertion order finds them, and no
    word before the first one that ends with the new lhs is dropped, so the
    scan tests only that up to it.  A kept word holds no new lhs, so rs
    matches it where the system before did."""
    lhs = rs.rules[-1].lhs
    dropped, words = set(), iter(cache.items())
    for w, _ in words:
        if w.endswith(lhs):
            dropped.add(w)
            break
    for w, nf in words:  # the rest, after the first drop
        if w.endswith(lhs) or w[:-1] in dropped:
            dropped.add(w)
        elif w not in nf:  # w reducible: its children are NF(head).last, else its match's
            head_nf = cache[w[:-1]]
            if w[:-1] not in head_nf:
                children = [n + w[-1] for n in head_nf]
            else:
                pos, match = rs.match(w)
                children = [w[:pos] + t for t, _ in rs._rhs[match]]
            if not dropped.isdisjoint(children):
                dropped.add(w)
    for w in dropped:
        del cache[w]
    return cache


def complete(rs: RuleSystem, is_target, max_rules=64):
    """Knuth-Bendix-style completion under the termination order.

    Each round makes the diamond report of the current system and ranks its
    nonzero differences by the rule orient makes of each, its lhs the
    maximum word of the difference (NonOrientable, with the witness, when
    there is none, or when it is a target word); only the smallest rule,
    ties broken by the ambiguity key, is made from its rank and added,
    monic (NotAUnit, with the witness, when the coefficient of its lhs has
    no inverse).  So
    every rule added decreases under the order, and when the rules of rs do
    too, every intermediate system terminates.  Rounds are incremental, as
    the module docstring says: a resolved entry is never reduced again, and
    an unresolved one is reduced again once one of its branch words leaves
    the carried cache.  Keeping resolved entries assumes that the rules only
    grow: a change that removes rules (ROADMAP item 6, inter-reduction) must
    revisit them, since a resolution may use a removed rule.  The last round
    is still the diamond check of the result: each kept entry resolves by
    reductions the result still makes, and every other one vanishes under
    the result itself.  Every intermediate system, and the result,
    keeps the fuel of rs; carried words cost none.  A branch that runs out
    of fuel ends completion: the first such record in key order raises
    FuelExhausted on its witness, from the branch's error.

    complete returns only from a round that finds every difference zero:
    its report, log.diamond, passes and is the diamond check of the result.
    So on a system that is already confluent it returns after its first
    round, which reduces every ambiguity from a cold cache, as check_diamond
    does: a build checks its point that way (nodal.build_algebra).

    Returns (RuleSystem, CompletionLog).
    """
    log = CompletionLog()
    current = RuleSystem(rs.rules, rs.fuel)
    records = [_Record(current, amb) for amb in current.find_ambiguities()]
    while True:
        log.counts.append((len(records), sum(rec.entry is None for rec in records),
                           len(current._nf_cache)))
        report = _diamond(current, records)
        candidates = []  # records of nonzero differences
        for rec in records:
            residual = rec.entry.residual
            if isinstance(residual, FuelExhausted):
                raise FuelExhausted(NcPoly.word(rec.amb.witness), residual.steps,
                                    residual.budget) from residual
            if not rec.entry.ok:
                rec.rank = rec.rank or rank(residual, is_target, rec.amb.witness)
                candidates.append(rec)
        if not candidates:
            log.diamond = report
            return current, log
        if len(current.rules) >= max_rules:
            raise LimitExceeded(f"completion exceeded max_rules={max_rules}")
        best = min(candidates, key=lambda rec: (rec.rank, rec.amb.key))
        rule = _monic(best.entry.residual, best.rank[-1], best.amb.witness)
        log.added.append((best.amb.witness, rule))
        current, old = RuleSystem((*current.rules, rule), rs.fuel), current
        current._nf_cache = carried = _carry(current, old._nf_cache)
        for rec in records:
            if not rec.entry.ok and not all(w in carried for branch in rec.branches
                                            for w, _ in branch):
                rec.entry = rec.rank = None
        records += [_Record(current, amb)
                    for amb in _added_ambiguities(frozenset(current._rhs), rule.lhs)]
        records.sort(key=lambda rec: rec.amb.key)
