"""Exact Schubert calculus for marginal-inequality coefficients.

Permutations in one-line notation, integer multivariate polynomials as
{exponent tuple: int} dicts, divided differences, Schubert polynomials,
the structure coefficients attached to a pair of test spectra (two-sided
and fermionic), and inequality generation from extremal edges.

Schubert polynomials come from the Lascoux–Schützenberger transition
recursion, memoized in a bounded cache on w without its trailing fixed
points; divided differences remain for the coefficient chains, whose
integer values on monomials are cached (bounded) too.

All arithmetic is exact; no floating point enters coefficient computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import itemgetter

from .records import InequalityRecord
from .rational import to_fractions


class SchubertError(ValueError):
    """Raised for malformed permutations or polynomial-calculus misuse."""


class TieError(SchubertError):
    """A test spectrum lies on a cubicle wall: two combined sums tie."""


# ---------------------------------------------------------------------------
# Permutations (one-line notation, values 1..n)

def check_perm(w) -> tuple:
    word = tuple(int(x) for x in w)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise SchubertError(f"not a permutation of 1..{len(word)}: {w}")
    return word


def identity_perm(n: int) -> tuple:
    return tuple(range(1, n + 1))


def length(w) -> int:
    """Number of inversions."""
    w = check_perm(w)
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def _perms_up_to_length(n: int, max_length: int) -> list:
    """(w, l(w)) for every permutation of 1..n with l(w) <= max_length, in
    lexicographic order.

    Walks up the weak order from the identity: swapping an ascent
    w(i) < w(i+1) adds exactly one inversion, so each level is generated
    from the previous one without visiting the longer permutations.
    """
    level = [identity_perm(n)]
    found = {}
    for lw in range(max_length + 1):
        if not level:
            break
        found.update((w, lw) for w in level)
        nxt = {}
        for w in level:
            for i in range(n - 1):
                if w[i] < w[i + 1]:
                    up = list(w)
                    up[i], up[i + 1] = up[i + 1], up[i]
                    nxt[tuple(up)] = None
        level = list(nxt)
    return sorted(found.items())


def minimal_word(w) -> tuple:
    """A reduced word (i_1, ..., i_l) with w = s_{i_1} ... s_{i_l}.

    Uses the lexicographically first descent at each step; recomposing the
    word reproduces w.
    """
    w = list(check_perm(w))
    collected = []
    while True:
        i = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
        if i is None:
            break
        w[i], w[i + 1] = w[i + 1], w[i]
        collected.append(i + 1)
    return tuple(reversed(collected))


# ---------------------------------------------------------------------------
# Exact integer polynomials, as {exponent tuple: coefficient} dicts: the
# tuples have no trailing zeros and every coefficient is a nonzero int

def _strip(exp: tuple) -> tuple:
    """An integer exponent tuple without its trailing zeros."""
    end = len(exp)
    while end and exp[end - 1] == 0:
        end -= 1
    return exp if end == len(exp) else exp[:end]


def divided_difference(i: int, p: dict) -> dict:
    """The finite-difference operator (f - s_i f) / (x_i - x_{i+1}).

    The quotient is always an exact polynomial; 1-based variable index.
    Each monomial x_i^a x_{i+1}^b with a != b contributes the |a - b|
    monomials between them, all accumulated into one term dict.
    """
    if i < 1:
        raise SchubertError(f"divided difference index must be >= 1, got {i}")
    out = {}
    for exp, coeff in p.items():
        size = len(exp)
        a = exp[i - 1] if i <= size else 0
        b = exp[i] if i < size else 0
        if a == b:
            continue
        if a < b:
            a, b, coeff = b, a, -coeff
        base = list(exp) + [0] * (i + 1 - size)
        for e in range(b, a):
            base[i - 1] = e
            base[i] = a + b - 1 - e
            key = _strip(tuple(base))
            val = out.get(key, 0) + coeff
            if val:
                out[key] = val
            else:
                del out[key]
    return out


def apply_chain(word, p: dict, offset: int = 0) -> dict:
    """Apply the divided-difference chain of a reduced word.

    The operator for w = s_{i_1} ... s_{i_l} applies the last letter first.
    ``offset`` shifts variable indices (for a second variable block).
    """
    for i in reversed(word):
        p = divided_difference(offset + i, p)
        if not p:
            break
    return p


def schubert_poly(w) -> dict:
    """Schubert polynomial of the permutation w (any sequence of 1..n).

    Built by the transition recursion (``_transition``), at a cost that
    follows the size of S_w rather than a chain down from the staircase
    monomial.  Homogeneous of degree l(w), nonnegative integer
    coefficients, and stable: appending fixed points to w leaves S_w
    unchanged.  Each call returns a new dict, so changing it never reaches
    the memo that later S_w are built from.
    """
    return dict(_transition(_drop_fixed_tail(check_perm(w))))


def _drop_fixed_tail(w) -> tuple:
    """w without its trailing fixed points, the memo key of S_w."""
    n = len(w)
    while n and w[n - 1] == n:
        n -= 1
    return tuple(w[:n])


@lru_cache(maxsize=1024)
def _transition(w: tuple) -> dict:
    """The terms of S_w, for w without trailing fixed points; shared with
    the memo, so never mutated.

    Lascoux–Schützenberger transition: with r the last descent of w, s the
    largest j > r with w(j) < w(r) and v = w t_{rs},
    S_w = x_r S_v + sum S_{v t_{qr}} over the q < r with
    l(v t_{qr}) = l(w), and S_id = 1.  Every call on the right is of length
    l(w) - 1, or of length l(w) and lexicographically larger, so the
    recursion ends and visits only permutations no longer than w.  No
    coefficient cancels: every summand is nonnegative.
    """
    if not w:
        return {(): 1}
    r = len(w) - 2   # 0-based; w(n) != n, so w has a descent
    while w[r] < w[r + 1]:
        r -= 1
    s = max(j for j in range(r + 1, len(w)) if w[j] < w[r])
    v = list(w)
    v[r], v[s] = v[s], v[r]
    out = {}
    for exp, c in _transition(_drop_fixed_tail(v)).items():
        if len(exp) > r:
            exp = exp[:r] + (exp[r] + 1,) + exp[r + 1:]
        else:
            exp = exp + (0,) * (r - len(exp)) + (1,)
        out[exp] = c
    # l(v t_{qr}) = l(v) + 1 iff v(q) < v(r) and no v(j), q < j < r, lies
    # between them: walking q down, v(q) must beat the last one taken
    vr, top = v[r], 0
    for q in range(r - 1, -1, -1):
        if top < v[q] < vr:
            top = v[q]
            u = list(v)
            u[q], u[r] = u[r], u[q]
            for exp, c in _transition(_drop_fixed_tail(u)).items():
                out[exp] = out.get(exp, 0) + c
    return out


# ---------------------------------------------------------------------------
# Test spectra and combined-sum orders

def check_test_spectrum(a) -> tuple:
    vals = to_fractions(a)
    if any(x < y for x, y in zip(vals, vals[1:])):
        raise SchubertError(f"test spectrum must be nonincreasing: {a}")
    if sum(vals, Fraction(0)) != 0:
        raise SchubertError(f"test spectrum must have zero sum: {a}")
    return vals


def _ordered_sums(blocks, picks, ties: bool = False) -> list:
    """(sum, pick) for every pick, by decreasing sum; exact comparison.

    A pick holds one 1-based index into each block, and its sum is the sum
    of the picked entries.  This is every combined sum: a_i + b_j is the
    pick (i, j) from the blocks (a, b), an n-subset sum of a is an
    increasing pick from n copies of a, and a qubit sign sum picks one of
    (a_i, -a_i) per site.  Two equal sums mean the test spectra lie on a
    cubicle wall and raise TieError, unless ``ties`` allows them.
    """
    sums = [(sum((blk[i - 1] for blk, i in zip(blocks, pick)), Fraction(0)), pick)
            for pick in picks]
    sums.sort(key=itemgetter(0), reverse=True)
    if not ties:
        for (v1, p1), (v2, p2) in zip(sums, sums[1:]):
            if v1 == v2:
                raise TieError(f"combined sums tie at {v1} for {p1}, {p2}")
    return sums


def _pair_sums(a, b, ties: bool = False) -> list:
    """The sums a_i + b_j with their pairs (i, j), by decreasing sum."""
    return _ordered_sums((a, b), product(range(1, len(a) + 1), range(1, len(b) + 1)),
                         ties)


def _subset_sums(a, n: int, ties: bool = False) -> list:
    """The n-subset sums of a with their subsets, by decreasing sum."""
    return _ordered_sums((a,) * n, combinations(range(1, len(a) + 1), n), ties)


def sum_order(a, b) -> tuple:
    """Pairs (i, j), 1-based, listing a_i + b_j in decreasing order.

    Exact rational comparison.  A tie between two distinct pairs means the
    point lies on a cubicle wall and raises TieError; callers should use an
    interior point of a chamber.
    """
    return tuple(p for _, p in _pair_sums(check_test_spectrum(a), check_test_spectrum(b)))


def fermi_sum_order(a, n: int) -> tuple:
    """n-subsets of {1..r} listed by decreasing sum of a-entries, exact."""
    return tuple(s for _, s in _subset_sums(check_test_spectrum(a), n))


# ---------------------------------------------------------------------------
# Structure coefficients
#
# Every coefficient is a divided-difference chain per variable block applied
# to a substituted Schubert polynomial P.  The chains are linear and act on
# separate blocks, so on a monomial they factor:
# d_u d_v x^alpha = d_u(x^alpha_A) * d_v(x^alpha_B).  Each chain lowers the
# degree in its block by its length, so only the monomials whose block
# degrees equal the chain lengths leave a constant, and the coefficient is
# sum_alpha P[alpha] * prod_b d_{word_b}(x^alpha_b) over those monomials.


class _Substitution:
    """z_k -> the sum of x_i over the k-th pick of a combined-sum order.

    The x variables form blocks of ``sizes``; x monomials are exponent
    tuples of fixed length sum(sizes), and a pick's 1-based indices are
    shifted by their block's offset.  A chain on a block of k variables has
    length at most k(k-1)/2, so monomials of higher degree in a block never
    contribute and are dropped as the images are built.  The image of each
    z monomial beta is built once, from the image of beta - e_k for its last
    variable k, and kept: one table serves every polynomial substituted
    with this order (every w of a scan).
    """

    def __init__(self, order, offsets, sizes):
        self.picks = [tuple(o + i - 1 for o, i in zip(offsets, pick)) for pick in order]
        cuts = [0]
        for size in sizes:
            cuts.append(cuts[-1] + size)
        self.blocks = tuple(zip(cuts, cuts[1:]))
        self.block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
        self.caps = tuple(k * (k - 1) // 2 for k in sizes)
        self.images = {(): {((0,) * cuts[-1], (0,) * len(sizes)): 1}}

    def image(self, beta: tuple) -> dict:
        """{(x exponents, block degrees): coefficient} of the z monomial beta."""
        got = self.images.get(beta)
        if got is None:
            k = len(beta) - 1   # a stripped exponent ends in a nonzero entry
            got = {}
            for (alpha, degs), c in self.image(_strip(beta[:k] + (beta[k] - 1,))).items():
                for i in self.picks[k]:
                    b = self.block_of[i]
                    if degs[b] == self.caps[b]:
                        continue
                    key = (alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:],
                           degs[:b] + (degs[b] + 1,) + degs[b + 1:])
                    got[key] = got.get(key, 0) + c
            self.images[beta] = got
        return got

    def by_block_degree(self, poly: dict) -> dict:
        """The substituted poly as {block degrees: [(block exponents,
        coefficient), ...]}, without the monomials no chain can reach."""
        sub = {}
        for beta, c in poly.items():
            for key, d in self.image(beta).items():
                sub[key] = sub.get(key, 0) + c * d
        groups = {}
        for (alpha, degs), c in sub.items():
            if c:
                groups.setdefault(degs, []).append(
                    (tuple(alpha[lo:hi] for lo, hi in self.blocks), c))
        return groups


@lru_cache(maxsize=1 << 14)
def _chain_on_monomial(word: tuple, exp: tuple) -> int:
    """The integer d_word(x^exp) of a monomial of degree len(word); a block
    slice keeps its trailing zeros, so its key is stripped first."""
    return apply_chain(word, {_strip(exp): 1}).get((), 0)


def _chain_coefficient(groups: dict, words) -> int:
    """sum_alpha P[alpha] * prod_b d_{words[b]}(x^alpha_b) over the monomials
    of P (grouped by ``_Substitution.by_block_degree``) whose block degrees
    are the word lengths; every other monomial contributes zero."""
    total = 0
    for blocks, c in groups.get(tuple(map(len, words)), ()):
        for word, exp in zip(words, blocks):
            c *= _chain_on_monomial(word, exp)
            if not c:
                break
        total += c
    return total


def _check_order(order, picks, what: str) -> None:
    """Refuse a combined-sum order that does not list each of ``picks``
    (in lexicographic order) exactly once."""
    if sorted(map(tuple, order)) != list(picks):
        raise SchubertError(f"order must list {what} once each")


def coeff_two(u, v, w, order) -> int:
    """Coefficient activating the two-sided inequality for (u, v, w).

    Substitutes z_k = x^A_i + x^B_j per the combined-sum order, then applies
    the divided-difference chains for u in the A block and v in the B block.
    Zero when l(w) != l(u) + l(v); the surviving polynomial must be a
    constant, and that integer is returned.  The order must list the pairs
    (i, j) of 1..len(u) x 1..len(v), each once.
    """
    u, v, w = check_perm(u), check_perm(v), check_perm(w)
    m, n = len(u), len(v)
    if len(w) != m * n or len(order) != m * n:
        raise SchubertError(
            f"need w and order of size {m * n}, got {len(w)}, {len(order)}"
        )
    _check_order(order, product(range(1, m + 1), range(1, n + 1)),
                 f"the pairs (i, j) of 1..{m} x 1..{n}")
    if length(w) != length(u) + length(v):
        return 0
    groups = _Substitution(order, (0, m), (m, n)).by_block_degree(schubert_poly(w))
    return _chain_coefficient(groups, (minimal_word(u), minimal_word(v)))


def coeff_fermi(v, w, order) -> int:
    """Fermionic coefficient: substitute z_k = sum of x over the k-th
    subset, then apply the chain for v.  The order must list the n-subsets
    of 1..len(v), each once.
    """
    v, w = check_perm(v), check_perm(w)
    if len(w) != len(order):
        raise SchubertError(f"need order of size {len(w)}, got {len(order)}")
    r, n = len(v), len(order[0]) if len(order) else 0
    _check_order(order, combinations(range(1, r + 1), n), f"the {n}-subsets of 1..{r}")
    if length(w) != length(v):
        return 0
    # every subset indexes the one block x_1..x_r (an n-subset has n < r entries)
    groups = _Substitution(order, (0,) * r, (r,)).by_block_degree(schubert_poly(w))
    return _chain_coefficient(groups, (minimal_word(v),))


# ---------------------------------------------------------------------------
# Inequality generation

def generate_inequality(a, b, u, v, w) -> InequalityRecord:
    """Two-sided marginal inequality for test spectra (a, b) and the
    permutation triple (u, v, w); rejected when the coefficient vanishes.
    """
    a, b = check_test_spectrum(a), check_test_spectrum(b)
    u, v, w = check_perm(u), check_perm(v), check_perm(w)
    m, n = len(a), len(b)
    if (len(u), len(v), len(w)) != (m, n, m * n):
        raise SchubertError("permutation sizes do not match the test spectra")
    trivial = (
        u == identity_perm(m) and v == identity_perm(n) and w == identity_perm(m * n)
    )
    # the identity triple has c = 1 on walls too: its record needs no order
    sums = _pair_sums(a, b, ties=trivial)
    coeff = 1 if trivial else coeff_two(u, v, w, [p for _, p in sums])
    if coeff == 0:
        raise SchubertError(f"vanishing coefficient for {(u, v, w)}")
    return _two_sided_record(a, b, u, v, w, coeff, [-x for x, _ in sums])


def enumerate_inequalities(a, b, max_length: int = 6, coeff_filter: str = "unit"):
    """All inequality records of one cubicle, by permutation-triple scan.

    Triples (u, v, w) with l(w) = l(u) + l(v) <= max_length are kept when
    the structure coefficient passes the filter: "unit" keeps c == 1 (the
    array theorem), "odd" keeps odd c, "nonzero" keeps everything active.
    The cap controls the combinatorial blow-up at desk scale; a negative
    cap raises SchubertError.
    """
    if coeff_filter not in ("unit", "odd", "nonzero"):
        raise SchubertError(f"unknown coefficient filter {coeff_filter!r}")
    if max_length < 0:
        raise SchubertError(f"max_length must be >= 0, got {max_length}")
    a, b = check_test_spectrum(a), check_test_spectrum(b)
    sums = _pair_sums(a, b)
    # the joint coefficients of every record: the pair sums, negated once
    order, neg_sums = [p for _, p in sums], [-x for x, _ in sums]
    m, n = len(a), len(b)
    us = {}
    for u, lu in _perms_up_to_length(m, m * (m - 1) // 2):
        us.setdefault(lu, []).append(u)
    vs = {}
    for v, lv in _perms_up_to_length(n, n * (n - 1) // 2):
        vs.setdefault(lv, []).append(v)
    words = {p: minimal_word(p) for group in (*us.values(), *vs.values()) for p in group}
    substitution = _Substitution(order, (0, m), (m, n))
    records = []
    for w, lw in _perms_up_to_length(m * n, max_length):
        groups = None   # S_w substituted once, on the first (u, v) of its degree
        for lu, ulist in us.items():
            for v in vs.get(lw - lu, ()):
                for u in ulist:
                    if groups is None:
                        groups = substitution.by_block_degree(schubert_poly(w))
                    c = _chain_coefficient(groups, (words[u], words[v]))
                    if c == 0:
                        continue
                    if coeff_filter == "unit" and c != 1:
                        continue
                    if coeff_filter == "odd" and c % 2 == 0:
                        continue
                    records.append(_two_sided_record(a, b, u, v, w, c, neg_sums))
    return records


def _edge_record(prefix, slots, spectra, perms, w, neg_sums, coeff) -> InequalityRecord:
    """The record sum_s <a_s placed by perm_s, lambda_s> <= <sums placed by w, nu>.

    ``slots`` names the one-body slots and then the joint slot; ``spectra``
    and ``perms`` map the meta keys of the test spectra and of their
    permutations, in slot order; ``neg_sums`` are the decreasing combined
    sums of the test spectra, negated.  Placing x by p puts x_i at position
    p(i).
    """
    terms = []
    for slot, a, perm in zip(slots, spectra.values(), perms.values()):
        coef = [Fraction(0)] * len(a)
        for i, x in enumerate(a):
            coef[perm[i] - 1] = x
        terms.append((slot, tuple(coef)))
    joint = [None] * len(w)   # w is a permutation: every slot is set once
    for k, x in enumerate(neg_sums):
        joint[w[k] - 1] = x
    terms.append((slots[-1], tuple(joint)))
    words = [f"{key}={_fmt(a)}" for key, a in spectra.items()]
    words += [f"{key}={p}" for key, p in perms.items()]
    return InequalityRecord(
        terms=tuple(terms),
        relation="<=",
        bound=Fraction(0),
        label=" ".join([prefix, *words, f"w={w}", f"c={coeff}"]),
        meta={**spectra, **perms, "w": w, "coeff": coeff},
    )


def _two_sided_record(a, b, u, v, w, coeff, neg_sums) -> InequalityRecord:
    """Record of the triple (u, v, w); ``neg_sums`` are the decreasing pair
    sums of (a, b), negated."""
    return _edge_record("edge", ("A", "B", "AB"), {"a": a, "b": b}, {"u": u, "v": v},
                        w, neg_sums, coeff)


def _fmt(vals):
    return "(" + ",".join(str(v) for v in vals) + ")"


def generate_fermi_inequality(a, n: int, v, w) -> InequalityRecord:
    """Fermionic mixed-state inequality of n particles for the test spectrum
    a and the permutation pair (v, w); lambda is the one-particle spectrum
    and nu the state spectrum, so w permutes the C(r, n) subset sums.
    """
    a = check_test_spectrum(a)
    v, w = check_perm(v), check_perm(w)
    r = len(a)
    if not 0 < n < r or comb(r, n) != len(w):
        raise SchubertError(f"need 0 < n < r and C(r, n) = |w|; "
                            f"got r={r}, n={n}, |w|={len(w)}")
    trivial = v == identity_perm(r) and w == identity_perm(len(w))
    sums = _subset_sums(a, n, ties=trivial)
    coeff = 1 if trivial else coeff_fermi(v, w, [s for _, s in sums])
    if coeff == 0:
        raise SchubertError(f"vanishing coefficient for {(v, w)}")
    return _edge_record("fermi edge", ("lam", "nu"), {"a": a}, {"v": v},
                        w, [-x for x, _ in sums], coeff)


# ---------------------------------------------------------------------------
# Qubit arrays

@dataclass(frozen=True)
class QubitArrayGroup:
    """One extremal edge's inequality group for an array of qubits."""

    edge: tuple
    records: tuple


def _qubit_record(delta_coeffs, rhs_coeffs, edge) -> InequalityRecord:
    return InequalityRecord(
        terms=(
            ("delta", tuple(delta_coeffs)),
            ("joint", tuple(-c for c in rhs_coeffs)),
        ),
        relation="<=",
        bound=Fraction(0),
        label=f"qubit edge {_fmt(edge)}",
        meta={"edge": tuple(edge)},
    )


def generate_qubit_array(a, irredundant: bool = True) -> QubitArrayGroup:
    """Inequality group of one qubit-array extremal edge.

    The basic record bounds sum_i a_i (site gap i) by the sign-sum spectrum
    combination; modified records flip one summand's sign and transpose one
    odd-position pair on the right.  Trivial transpositions are skipped,
    exact duplicates removed, and (by default) records implied by the rest
    of the group under the gap/spectrum ordering ambience are dropped.

    Site values must be nonnegative, not all zero, and sorted increasing to
    match gaps arranged in increasing order.
    """
    a = tuple(Fraction(x) for x in a)
    if any(x < 0 for x in a):
        raise SchubertError(f"per-site test values must be nonnegative: {_fmt(a)}")
    if any(x > y for x, y in zip(a, a[1:])):
        raise SchubertError(f"qubit edge {_fmt(a)} must be sorted increasing")
    if not any(a):
        raise SchubertError(f"qubit edge {_fmt(a)} is zero and bounds nothing")
    n = len(a)
    rhs = tuple(x for x, _ in _ordered_sums([(x, -x) for x in a],
                                            product((1, 2), repeat=n), ties=True))
    records = [_qubit_record(a, rhs, a)]
    for site in range(n):
        if a[site] == 0:
            continue
        flipped = list(a)
        flipped[site] = -flipped[site]
        for k in range(1, 2 ** n, 2):
            if rhs[k - 1] == rhs[k]:
                continue
            swapped = list(rhs)
            swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
            records.append(_qubit_record(flipped, swapped, a))
    records = list(dict.fromkeys(records))
    if irredundant and len(records) > 1:
        records = _filter_qubit_group(records, n)
    return QubitArrayGroup(a, tuple(records))


def _filter_qubit_group(records, n):
    """Redundancy filter over independent (gaps, spectrum) variables, within
    the sorted cones of the gaps and of the reversed spectrum at unit trace."""
    from .chambers import canon_inequality, redundancy_filter, sorted_nonneg_cone

    size = 2 ** n
    gaps = [(tuple(-x for x in row) + (0,) * size, 0)
            for row in sorted_nonneg_cone(n).ineqs]
    spectrum = [((0,) * n + tuple(-x for x in reversed(row)), 0)
                for row in reversed(sorted_nonneg_cone(size).ineqs)]
    trace = [((0,) * n + (1,) * size, 1)]
    flats = [canon_inequality(tuple(x for _, c in r.terms for x in c), r.bound)
             for r in records]
    kept = set(redundancy_filter(flats, gaps + spectrum, trace))
    return [r for r, f in zip(records, flats) if f in kept]
