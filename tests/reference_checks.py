"""Unoptimised references that the tests compare the package's checks with.

census_by_scan is the basis census over all 5^L words of each length, with
no pruning.  pattern_words_by_index lists the pattern words from their
index tuples (i, j, l, m, n), the words x^i y^j (ax)^l a^m b^n.  solve_gauss_jordan is the sparse Gauss-Jordan elimination over
the field of the coefficients, written apart from hopf._solve_sparse
with the same pivots: every pivot row is normalised to a leading 1, so
its entries are Fractions, where hopf._solve_sparse keeps the pivot row
as it is and divides by its pivot.  pair_ambiguities_by_scan
enumerates the ambiguities of two lhs afresh on every call, the unmemoised
reference for rewrite._pair_ambiguities, and carry_by_step cuts a
completion round's nf cache by deriving each word's children again from
the new system, the reference for rewrite._carry, which tests only the
new lhs up to the first word it drops.  complete_redropping_resolved is completion that reduces
a record again whenever a new rule drops one of its branch words from the
carried cache, resolved or not, the reference for rewrite.complete, which
keeps every resolved entry.  complete_at is the completion of the seeds
at a point in its own coordinates, the pointwise reference for
nodal.build_algebra, which substitutes the point into one completion over
Q[q, p].  trivial_coaction is the value 1-bar (x) NF(f)
that galois._is_trivial compares the coaction with, as a TensorPoly.
GeneratorFedSystem is the RuleSystem whose three sums of scaled normal
forms (nf_word's cache fill, nf_terms and the Horner step of nf_times) each
feed accumulate a generator of (word, c * c') pairs, every word's normal
form multiplied out, an irreducible word's {w: 1} too, and whose nf_times
merges a group into a copy of the one it joins: the reference for the
scaled sums of rewrite.RuleSystem.
units_bounded_check searches for an inverse supported on the pattern
words up to a length bound, as an exact linear system solved by
hopf._solve_sparse; units_by_search is the units report with every
verdict and witness found by that search, the cross-check of the proofs
hopf.units_suite settles its candidates by.
"""

from fractions import Fraction
from itertools import product

from curveform.freealg import ALPHABET, NcPoly, TensorPoly, accumulate, concat_product, word_key
from curveform.hopf import EXPECTED_UNITS, _solve_sparse, alt_generators
from curveform.nodal import count_basis_words, is_basis_word, pattern_words, seed_rules
from curveform.errors import FuelExhausted, LimitExceeded
from curveform.rewrite import (DEFAULT_FUEL, Ambiguity, CompletionLog, RuleSystem, _carry,
                               _diamond, _monic, _pair_ambiguities, _Record, complete, rank)
from curveform.parser import parse_expr
from curveform.report import Report, attempt
from curveform.scalar import Scalar


def census_by_scan(alg, max_len: int) -> Report:
    """basis_census(alg, max_len), computed by scanning every word."""
    match = alg.system.match
    irr_counts, scan_counts, enum_counts, mismatches = [], [], [], []
    for length in range(max_len + 1):
        irr = 0
        pat = 0
        for tup in product(ALPHABET, repeat=length):
            w = "".join(tup)
            reducible = match(w) is not None
            pattern = is_basis_word(w)
            if not reducible:
                irr += 1
            if pattern:
                pat += 1
            if reducible == pattern:
                mismatches.append(w)
        irr_counts.append(irr)
        scan_counts.append(pat)
        enum_counts.append(count_basis_words(length))
    ok = not mismatches and irr_counts == scan_counts == enum_counts
    return Report("census", {"max_len": max_len, "irreducible_counts": irr_counts,
                             "pattern_scan_counts": scan_counts,
                             "pattern_enum_counts": enum_counts,
                             "mismatches": mismatches[:20],
                             "mismatch_count": len(mismatches)}, ok)


def index_word(i, j, l, m, n) -> str:
    """The pattern word x^i y^j (ax)^l a^m b^n, a^m meaning g^-m for m < 0."""
    mid = "a" * m if m >= 0 else "g" * (-m)
    return "x" * i + "y" * j + "ax" * l + mid + "b" * n


def pattern_words_by_index(max_len: int, keep=lambda i, j, l, m, n: True) -> list:
    """The pattern words of length <= max_len whose index satisfies keep, in
    graded-lex order, listed by looping over the indices."""
    out = []
    for i in range(max_len + 1):
        for j in (0, 1):
            for l in range((max_len - i - j) // 2 + 1):
                for n in (0, 1):
                    rem = max_len - i - j - 2 * l - n
                    for m in range(-rem, rem + 1):
                        if keep(i, j, l, m, n):
                            out.append(index_word(i, j, l, m, n))
    return sorted(out, key=word_key)


def _inverse(c):
    """1/c in the field of c; a unit int stays an int."""
    return c.inverse() if type(c) is Scalar else c if c in (1, -1) else Fraction(1, c)


def solve_gauss_jordan(columns, target):
    """The solution list of sum_j u_j * columns[j] = target, or None if the
    system is infeasible; the pivot choice is that of hopf._solve_sparse,
    and each pivot row is scaled to a leading 1 before it eliminates."""
    keyed = {}
    for j, col in enumerate(columns):
        for key, val in col.items():
            keyed.setdefault(key, {})[j] = val
    keys = [*keyed, *(key for key in target if key not in keyed)]
    rows = [keyed.get(key, {}) for key in keys]
    rhs = [target.get(key, 0) for key in keys]
    holding = [set() for _ in columns]  # column -> rows that have held it
    for i, row in enumerate(rows):
        for j in row:
            holding[j].add(i)
    eliminated = []
    for j in range(len(columns)):
        live = [i for i in holding[j] if rows[i] is not None and j in rows[i]]
        if not live:
            continue
        p = min(live, key=lambda i: (len(rows[i]), i))
        inv = _inverse(rows[p][j])
        prow = {k: v * inv for k, v in rows[p].items()}
        prhs = rhs[p] * inv
        rows[p] = None
        for i in live:
            if i != p:
                factor = rows[i][j]
                accumulate(rows[i], ((k, -factor * v) for k, v in prow.items()))
                rhs[i] = rhs[i] - factor * prhs
                for k in prow:
                    holding[k].add(i)
        eliminated.append((j, prow, prhs))
    if any(row == {} and rhs[i] for i, row in enumerate(rows)):
        return None  # inconsistent
    assignments = [0] * len(columns)
    for j, prow, prhs in reversed(eliminated):
        assignments[j] = prhs - sum(v * assignments[k] for k, v in prow.items() if k != j)
    return assignments


def pair_ambiguities_by_scan(li: str, lj: str) -> list:
    """The ambiguities of the rule with lhs li on the left and the one with
    lhs lj on the right: each proper suffix of li that is a proper prefix of
    lj, and each occurrence of a shorter lj inside li."""
    out = []
    for k in range(1, min(len(li), len(lj))):
        if li.endswith(lj[:k]):
            out.append(Ambiguity("overlap", li, lj, li + lj[k:], len(li) - k))
    if len(lj) < len(li):
        out.extend(Ambiguity("inclusion", li, lj, li, pos)
                   for pos in range(len(li) - len(lj) + 1) if li.startswith(lj, pos))
    return out


def step_children(rs, w: str, head_nf: dict):
    """The prefix-first children of w as (word, coefficient) pairs, None
    when w is irreducible: head_nf, the normal form of the head w[:-1],
    times the last letter when the head is reducible (not in head_nf),
    else w rewritten at its match, which ends at the last letter."""
    head = w[:-1]
    if head not in head_nf:
        return [(n + w[-1], c) for n, c in head_nf.items()]
    m = rs.match(w)
    if m is None:
        return None
    pos, lhs = m
    return [(w[:pos] + t, c) for t, c in rs._rhs[lhs]]


def carry_by_step(rs, cache: dict) -> dict:
    """cache, the nf cache of rs before its last rule was added, cut in
    place to what rs computes the same: a word is dropped when it holds the
    new lhs, or when its head or one of its children, from step_children,
    was dropped."""
    lhs = rs.rules[-1].lhs
    dropped = set()
    for w, nf in cache.items():
        head = w[:-1]
        if w.endswith(lhs) or head in dropped:
            dropped.add(w)
        elif dropped and w not in nf and not dropped.isdisjoint(
                cw for cw, _ in step_children(rs, w, cache[head])):
            dropped.add(w)
    for w in dropped:
        del cache[w]
    return cache


def complete_redropping_resolved(rs, is_target, max_rules=64):
    """rewrite.complete with an entry reduced again whenever one of its
    branch words leaves the carried cache, resolved or not; returns
    (RuleSystem, CompletionLog) as complete does."""
    log = CompletionLog()
    current = RuleSystem(rs.rules, rs.fuel)
    records = [_Record(current, amb) for amb in current.find_ambiguities()]
    while True:
        log.counts.append((len(records), sum(rec.entry is None for rec in records),
                           len(current._nf_cache)))
        report = _diamond(current, records)
        candidates = []
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
        rule = _monic(best.entry.residual, best.rank[-1])
        log.added.append((best.amb.witness, rule))
        current, old = RuleSystem((*current.rules, rule), rs.fuel), current
        current._nf_cache = carried = _carry(current, old._nf_cache)
        for rec in records:
            if not all(w in carried for branch in rec.branches for w, _ in branch):
                rec.entry = rec.rank = None
        records += [_Record(current, amb) for lhs in current._rhs for pair in
                    {(lhs, rule.lhs), (rule.lhs, lhs)} for amb in _pair_ambiguities(*pair)]
        records.sort(key=lambda rec: rec.amb.key)


def complete_at(point, fuel=DEFAULT_FUEL):
    """(RuleSystem, CompletionLog) of the completion of seed_rules(point) in
    the point's own coordinates, at fuel."""
    return complete(RuleSystem(seed_rules(point), fuel), is_basis_word)


class GeneratorFedSystem(RuleSystem):
    """RuleSystem with nf_word, nf_terms and nf_times summing generators of
    products, each word reduced in the same order."""

    def nf_word(self, w: str) -> dict:
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
                if head not in head_nf:  # the head is reducible
                    last = cur[-1]
                    children = [(n + last, c) for n, c in head_nf.items()]
                elif (m := self.match(cur)) is None:
                    cache[cur] = {cur: 1}
                    stack.pop()
                    continue
                else:  # the match ends at the last letter
                    children = [(cur[:m[0]] + t, c) for t, c in self._rhs[m[1]]]
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
        nf_word = self.nf_word
        return accumulate({}, ((w, c * cw) for word, c in pairs
                               for w, cw in nf_word(word).items()))

    def nf_times(self, groups) -> dict:
        nf_word, groups = self.nf_word, dict(groups)
        for size in range(max(map(len, groups), default=0), 0, -1):
            for v in [v for v in groups if len(v) == size]:
                prod = accumulate({}, ((w, c * cw) for n, c in groups.pop(v).items()
                                       for w, cw in nf_word(n + v[0]).items()))
                old = groups.get(v[1:])
                groups[v[1:]] = prod if old is None else accumulate(dict(old), prod.items())
        return dict(groups.get("", {}))


def trivial_coaction(f, alg) -> TensorPoly:
    """The value 1-bar (x) f that characterizes membership in B."""
    return TensorPoly(2, {("", w): c for w, c in alg.nf(f).terms.items()})


def units_bounded_check(alg, f, max_len=6):
    """Search for u with f*u = 1 supported on basis words of length <=
    max_len, as an exact linear system; return u, or None if there is none.
    Absence of a solution is evidence of non-invertibility at the chosen
    bound, not a proof."""
    if not f:
        raise ValueError("cannot invert the zero element")
    nf_terms = alg.system.nf_terms
    terms = f.field_terms()
    support = pattern_words(max_len)
    columns = [nf_terms((u + w, c) for u, c in terms) for w in support]
    solution = _solve_sparse(columns, {"": 1})
    if solution is None:
        return None
    witness = [(w, c) for w, c in zip(support, solution) if c]
    # elimination can return a least-squares-like artifact only if the system
    # was inconsistent, which _solve_sparse already rejects; verify anyway
    return NcPoly(witness) if nf_terms(concat_product(terms, witness).items()) == {"": 1} else None


def units_by_search(maps, max_len=6) -> Report:
    """The units report of the bounded search: each candidate inverted by
    units_bounded_check(alg, f, max_len), so a non-unit only at that bound."""
    alg = maps.alg
    c = alt_generators(alg)[0]
    entries = []
    for name in EXPECTED_UNITS:
        f = c if name == "c" else parse_expr(name, alg.point)
        inv, error = attempt(lambda: units_bounded_check(alg, f, max_len))
        entry = {"element": name, "invertible": inv is not None, "witness": inv}
        entries.append({**entry, "invertible": None, "error": error} if error else entry)
    ok = all(e["invertible"] == EXPECTED_UNITS[e["element"]] for e in entries)
    return Report("units", {"point": alg.point, "max_len": max_len,
                            "note": "non-invertibility is bounded evidence only "
                                    f"(inverse support searched up to length {max_len})",
                            "entries": entries}, ok)
