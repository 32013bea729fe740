"""Invariants of a nilpotent algebra: series, annihilators, characteristic
sequence, the associated graded algebra and the isomorphism fingerprint.

Both chains the classification reads come from linalg.image_chain: the
central series is the chain of right operators from L^2 on, and each
characteristic-sequence candidate x gives the Jordan type of R_x from
the sparse columns core.operator_columns builds, with no dense matrix in
between; a candidate's lazy chain stops once its ranks prove that it
cannot beat the best so far, and the search stops once the best reaches
the ceiling that the support of the R_{e_j} proves, or, when the first
candidate stays below that, the sharper ceiling that the kernel vectors of
degree one of the pencil R_x prove (see characteristic_sequence).  Both
chains, the annihilators, those kernel vectors and the L^2 that
candidates are drawn outside of (core.square_span, kept on the algebra)
read the algebra's Gaussian-integer table, and the candidates are drawn as
Gaussian integers, so all of it runs on the integer rows that linalg's
elimination takes and clears no Scalar; only the witness, and the series
bases when read, are made Scalars, through linalg.scalar_vector.

The series on a generating set.  Let L be Leibniz and G a set whose
left-normed words span L, as core.generating_set certifies.  Then L^k is
spanned by the words in G of length >= k, so L^{k+1} = sum_{g in G} R_g(L^k).
Proof: let W_k be the span of the words of length >= k; [W_k, u] lies in
W_{k+1} for every word u, by induction on the length of u for all k at
once, the step being [w, [u', g]] = [[w, u'], g] - [[w, g], u'].  So once
core.is_leibniz says yes, deciding from the residual triples whose third
index lies in G alone, and G is smaller than the basis, the chain runs on
the R_g alone, from the kept echelon of L^2 (the span of all products);
otherwise (not Leibniz, or G fell back to every index) it runs on every
R_{e_j} from L.  Each level is kept as its sparse integer RREF rows.

The annihilators on G.  On the same L, Ann_l = {x : [x, L] = 0} is the
common kernel of the R_g, g in G: [x, [u', g]] = [[x, u'], g] - [[x, g], u']
vanishes by induction on the length of the word.  And R(L) = {x : [L, x]
= 0} is that of the L_g: [[u', g], x] = [u', [g, x]] + [[u', x], g]
vanishes likewise.  So the echelons of both take the equations of the
generators' operators alone, when core.generator_operators gives them
(the same condition as the series), else those of every operator; each
equation is a coordinate of a product, so only L^2's pivot coordinates
are taken.  Both echelons are kept through core.memo; the center is their
intersection, and the kernel maps read C off Ann_l's.

fingerprint checks its input with core.require_leibniz, the guard Der and
Inn share, and calls them through the cohomology module, which imports
nothing from here."""

from __future__ import annotations

import random
from itertools import combinations
from math import lcm
from typing import NamedTuple

from . import cohomology
from .core import (
    from_table,
    generator_operators,
    memo,
    operator_columns,
    require_leibniz,
    sparse_bracket,
    square_span,
    transport,
)
from .linalg import (
    NotNilpotentError,
    SparseEchelon,
    gaussian_combination,
    image_chain,
    partition_of_ranks,
    scalar_vector,
)
from .scalars import Echo


class SeriesReport(NamedTuple):
    """Descending central sequence L^1 >= L^2 >= ... with echelonized bases.

    On a Leibniz algebra with a certified generating set G the levels come
    from L^{k+1} = sum_{g in G} R_g(L^k), started at L^2; on any other
    algebra (the fallback) from all the R_{e_j}, started at L (see the
    module docstring).  Each level is kept sparse, as
    linalg.SparseEchelon.gaussian_rows gives its RREF: one tuple of
    (column, (re, im)) int pairs per basis vector, in pivot order, the lead
    first; subspace_bases builds the dense Scalar vectors on each read.
    Immutable, down to the rows: central_series hands the same report to
    every caller for one algebra.
    """

    levels: tuple          # per L^k, its sparse pivot rows
    dims: tuple
    nilindex: int | None   # None when the algebra is not nilpotent

    @property
    def subspace_bases(self):
        """Per L^k, a tuple of dense basis vectors (tuples of Scalars): the
        RREF rows, built on each read."""
        n = len(self.levels[0])   # L^1 = L has one row per basis vector
        return tuple(tuple(tuple(scalar_vector(row, row[0][1][0], n)) for row in level)
                     for level in self.levels)

    @property
    def is_nilpotent(self):
        return self.nilindex is not None

    def __repr__(self):
        tail = self.nilindex if self.nilindex is not None else "not nilpotent"
        return "SeriesReport(dims=%s, nilindex=%s)" % (list(self.dims), tail)


def central_series(algebra):
    """L^1 = L, L^{k+1} = [L^k, L]; stops at zero or at stabilization.

    Computed once per algebra and kept through core.memo; characteristic_sequence,
    natural_graded and fingerprint share the one report.
    """
    return memo(algebra, _series)


def _series(algebra):
    # L^{k+1} = [L^k, L] = sum_j R_{e_j}(L^k): the image chain of the right
    # operators, whose last level is 0 or the stabilized L^k; on a Leibniz
    # algebra whose generating set G is certified, the R_g with g in G
    # suffice, from the kept L^2 on (see the module docstring)
    n = algebra.dim
    operators = generator_operators(algebra, algebra.by_right)
    start = square_span(algebra) if len(operators) < n else None
    levels = [level.gaussian_rows() for level in image_chain(n, operators, start)]
    if start is not None:
        levels.insert(0, tuple(((c, (1, 0)),) for c in range(n)))   # L^1 = L
    last = levels.pop()
    return SeriesReport(tuple(levels), tuple(map(len, levels)), None if last else len(levels))


def right_annihilator(algebra):
    """Echelonized basis of R(L) = {x : [y, x] = 0 for all y}."""
    return memo(algebra, _annihilators)[1].kernel_basis()


def center(algebra):
    """Echelonized basis of Cent(L) = {z : [x, z] = [z, x] = 0 for all x},
    the intersection of Ann_l and R(L): the kernel of both kept echelons."""
    left, right = memo(algebra, _annihilators)
    ech = left.copy()
    for row in right.gaussian_rows():
        ech.add_gaussian(dict(row))
    return ech.kernel_basis()


def _annihilators(algebra):
    # the echelons of Ann_l = {x : [x, L] = 0} and R(L) = {x : [L, x] = 0}:
    # the kernels of the R_{e_a} and of the L_{e_a} generator_operators gives
    keep = frozenset(square_span(algebra).pivots())
    return tuple(_annihilator(algebra.dim, generator_operators(algebra, index), keep)
                 for index in (algebra.by_right, algebra.by_left))


def _annihilator(n, operators, keep):
    # one equation per (operator, e_k), k in keep: the e_k coordinate of
    # the operator's image of x must vanish; the images are products, so
    # in L^2, and keep holds L^2's pivot columns, which decide them.  Read
    # off the table D * gamma, the equations are D times these, same
    # solutions; the annihilator is the kernel of the echelon returned
    ech = SparseEchelon(n)
    for products in operators:
        rows = {}
        for c, terms in products.items():
            for k, g in terms:
                if k in keep:
                    rows.setdefault(k, {})[c] = g
        for row in rows.values():
            ech.add_gaussian(row)
    return ech


class CharSeq(NamedTuple):
    """Characteristic sequence with the vector that attained the maximum."""

    parts: tuple
    witness: tuple

    def render(self):
        return "(%s)" % ",".join(str(p) for p in self.parts)


def characteristic_sequence(algebra, trials=20, seed=1):
    """Lexicographic maximum of C(x) = Jordan type of R_x over x outside L^2.

    The maximum is taken over a deterministic candidate set (basis vectors
    outside L^2 and their pairwise sums) plus `trials` seeded random small
    Q(i)-combinations, trials an exact int (TypeError otherwise); the
    witness makes the reported maximum auditable.

    Ceiling, exact: R_x = sum_j x_j R_{e_j}, so the support of R_x^j lies in
    the Boolean power S^j of the support S of all the R_{e_j} together, and
    r_j = rank R_x^j <= b_j = min(dim L^{j+1}, term rank of S^j), as rank is
    at most term rank (Frobenius-König; Brualdi & Ryser, Combinatorial
    Matrix Theory, 1991).  No type is lex above mu, the lex-greatest
    partition of dim L with ranks <= b, so once the best reaches mu the
    search stops and no further candidate is drawn.

    Dominance cut, exact: r_j <= b_j (0 past the nilindex), and
    r_j <= max(r_k - (j - k), 0) for j > k, as R_x is nilpotent.  Once
    r_0..r_k and these bounds are all <= the best's ranks, R_x's type is
    dominated, so not lex above the best.

    Sharpened b_1, exact, at each new best x_0 that stays below mu, so never
    when the first candidate meets it: Ann_l = {v : [v, L] = 0} lies in
    every ker R_x, and span(e_C), C the pivot columns of its echelon, is a
    complement of it, so rank R_x = |C| - dim(ker R_x & span(e_C)).  A linear V : L -> span(e_C)
    with [V e_j, e_k] + [V e_k, e_j] = 0 for all j <= k has [V x, x] = 0, so
    V x lies in ker R_x for every x: a kernel vector of the pencil R_x of
    degree one (Forney, SIAM J. Control 13, 1975).  If the V x_0 of a basis
    of these V have rank k, a k x k minor is a nonzero polynomial in x, so
    rank R_x <= |C| - k off its zeros, and everywhere as rank is lower
    semicontinuous.  min(b_1, |C| - k) replaces b_1 in mu and in the cut,
    and the search goes on to the sharper mu; the bound uses no Leibniz
    identity (Ann_l's kept echelon may, with the same RREF: see the module
    docstring).
    The V are solved for once per algebra and kept through core.memo; each
    x_0 costs only the rank of the V x_0.
    """
    if type(trials) is not int:
        raise TypeError("trials must be an int, got %r" % (Echo(trials),))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    series = central_series(algebra)
    if not series.is_nilpotent:
        raise NotNilpotentError("characteristic sequence needs a nilpotent algebra")
    n = algebra.dim
    if n == 0:
        return CharSeq((), ())
    bound = _rank_bound(algebra)
    ceiling = _ceiling(n, bound)
    best = witness = None
    for x in _candidates(algebra, trials, seed):
        ranks = []
        for k, level in enumerate(image_chain(n, (operator_columns(algebra.by_right, x),))):
            ranks.append(len(level))
            # the cut: r_j <= rho_j for j <= k, and min(b_j, r_k - (j - k)) <= rho_j beyond
            if best is not None and all(r <= p for r, p in zip(ranks, rho)) and all(
                    min(bound[j], ranks[k] - (j - k)) <= rho[j] for j in range(k + 1, len(bound))):
                break
        else:
            parts = partition_of_ranks(ranks)
            if best is None or parts > best:
                if parts != ceiling:   # a new best below the ceiling
                    bound[1] = min(bound[1], _kernel_bound(algebra, x))
                    ceiling = _ceiling(n, bound)
                best, rho = parts, ranks + [0] * (len(bound) + 1 - len(ranks))  # 0 to the nilindex
                witness = tuple(scalar_vector(x.items(), 1, n))
                if best == ceiling:
                    break
    return CharSeq(best, witness)


def _kernel_bound(algebra, x):
    """|C| - k, an upper bound on rank R_y for every y: k the rank of the
    V x, V in the basis _kernel_maps gives (see characteristic_sequence)."""
    pivots, maps = memo(algebra, _kernel_maps)
    span = SparseEchelon(algebra.dim)
    for images in maps:
        span.add_gaussian(gaussian_combination(images, x))
    return len(pivots) - len(span)


def _kernel_maps(algebra):
    """(C, maps): C and a basis of the V of characteristic_sequence, each V a
    multiple of it given by its images V e_j, {c: (re, im)} maps of ints.
    The pairs j = k say V e_j lies in the kernel of R_{e_j} on span(e_C), so
    V is solved for in bases of those kernels, one small echelon per j, and
    the pairs j < k go into one echelon in those unknowns."""
    n = algebra.dim
    pivots = memo(algebra, _annihilators)[0].pivots()
    keep = frozenset(square_span(algebra).pivots())
    ws, blocks = [], []   # one unknown per kernel vector w of R_{e_j}; blocks[j] their range
    for products in algebra.by_right:
        on_c = {t: products[c] for t, c in enumerate(pivots) if c in products}
        kernel = _annihilator(len(pivots), (on_c,), keep).gaussian_kernel()
        blocks.append(range(len(ws), len(ws) + len(kernel)))
        ws += [{pivots[t]: v for t, v in terms} for _, terms in kernel]
    # [w, e_k] for w of block j is read only with k != j
    brackets = [{k: sparse_bracket(algebra, ws[u], {k: (1, 0)}) for k in range(n) if k != j}
                for j, block in enumerate(blocks) for u in block]
    ech = SparseEchelon(len(ws))
    for k in range(n):
        for j in range(k):
            rows = {}   # the e_r coordinate of [V e_j, e_k] + [V e_k, e_j], times D
            for u, other in [(u, k) for u in blocks[j]] + [(u, j) for u in blocks[k]]:
                for r, g in brackets[u][other].items():
                    if r in keep:
                        rows.setdefault(r, {})[u] = g
            for row in rows.values():
                ech.add_gaussian(row)
    return tuple(pivots), tuple(tuple(gaussian_combination(ws, {u: v for u, v in terms if u in block})
                                      for block in blocks) for _, terms in ech.gaussian_kernel())


def _candidates(algebra, trials, seed):
    """The candidates in order, drawn lazily as sparse {index: (re, im)} maps
    of ints: basis vectors outside L^2, their pairwise sums, then `trials`
    seeded draws outside L^2."""
    n = algebra.dim
    l2 = square_span(algebra)   # kept on the algebra: only read here
    outside = [i for i in range(n) if not l2.contains_gaussian({i: (1, 0)})]
    yield from ({i: (1, 0)} for i in outside)
    yield from ({a: (1, 0), b: (1, 0)} for a, b in combinations(outside, 2))
    rng = random.Random(seed)
    while trials:
        v = {c: z for c in range(n) if (z := (rng.randint(-3, 3), rng.randint(-1, 1))) != (0, 0)}
        if not l2.contains_gaussian(v):
            trials -= 1
            yield v


def _rank_bound(algebra):
    """b_j = min(dim L^{j+1}, term rank of S^j) for j below the nilindex of a
    nilpotent algebra, S the support of all the R_{e_j} together: each
    rank R_x^j is at most b_j.  Column c of S, as a bitmask of rows, holds
    the result indices of every product [e_c, e_j]."""
    s = [0] * algebra.dim
    for c, row in enumerate(algebra.by_left):
        for terms in row.values():
            for k, _ in terms:
                s[c] |= 1 << k
    power = [1 << c for c in range(algebra.dim)]   # S^0
    bound = []
    for d in central_series(algebra).dims:
        bound.append(_term_rank(power, d))
        power = [_union(s, col) for col in power]
    return bound


def _union(s, mask):
    # column of S times a column bitmask: the union of the columns it selects
    out = 0
    while mask:
        low = mask & -mask
        out |= s[low.bit_length() - 1]
        mask ^= low
    return out


def _term_rank(cols, cap):
    """min(cap, size of a maximum matching of the columns to the rows their
    bitmasks hold): the term rank of the pattern, counted up to cap."""
    row_of, col_of = {}, {}   # the matching, both ways
    for c in range(len(cols)):
        if len(row_of) == cap:
            break
        r, parent = _alternating_path(cols, c, col_of)
        while r is not None:   # flip the path: one more column matched
            a = parent[r]
            col_of[r] = a
            row_of[a], r = r, row_of.get(a)
    return len(row_of)


def _alternating_path(cols, c, col_of):
    """(r, parent): an unmatched row r that a breadth-first search over the
    alternating paths from column c reaches, or None, with parent[row] the
    column each row was reached from."""
    parent, frontier, seen = {}, [c], 0
    while frontier:
        following = []
        for a in frontier:
            new = cols[a] & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                r = low.bit_length() - 1
                parent[r] = a
                if r not in col_of:
                    return r, parent
                following.append(col_of[r])
        frontier = following
    return None, parent


def _ceiling(n, bound):
    """The lex-greatest partition of n whose ranks sum_p max(p - j, 0) are
    all <= bound[j], 0 past its end, for bound[0] >= n: each part, no larger
    than the one before, as large as the parts so far completed by ones allow."""
    parts, ranks, p, left = [], [0] * len(bound), n, n
    while left:
        p = min(p, left)
        while p > 1 and (p > len(bound) or any(ranks[j] + p - j > bound[j] for j in range(1, p))):
            p -= 1
        parts.append(p)
        left -= p
        for j in range(1, p):
            ranks[j] += p - j
    return tuple(parts)


def p_filiform_class(cs):
    """p such that the CharSeq's parts read (dim - p, 1, ..., 1); None otherwise."""
    parts = cs.parts
    if not parts or any(p != 1 for p in parts[1:]):
        return None
    return len(parts) - 1


def natural_graded(algebra):
    """The associated graded algebra gr L and its component dimensions.

    A complement of L^{i+1} in L^i is read off the sparse RREF rows the
    series keeps: the rows of L^i whose pivot column is no pivot of
    L^{i+1}, lowest pivot first.  The lifts, layer by layer, are the
    columns of a basis P of L, each row over its lead; core.transport runs
    on M = d_P * P, d_P the lcm of the leads, and gives d_P times the
    brackets of the lifts over D * d_inv, so the brackets over
    D * d_P * d_inv.  The lifts have n distinct pivots, so
    linalg.gaussian_inverse inverts M by substitution.  gr L keeps of each
    [u_a, u_b] only its projection onto the layer of degree deg a + deg b.
    """
    series = central_series(algebra)
    if not series.is_nilpotent:
        raise NotNilpotentError("natural gradation needs a nilpotent algebra")
    lifts, layer_of, dims = [], [], []   # layer_of: layer index (1-based) per new basis position
    levels = series.levels + ((),)
    for i, level in enumerate(series.levels):
        deeper = {row[0][0] for row in levels[i + 1]}
        layer = [row for row in level if row[0][0] not in deeper]
        dims.append(len(layer))
        lifts += layer
        layer_of += [i + 1] * len(layer)
    d_p = lcm(*(row[0][1][0] for row in lifts))
    cols = [{r: (x * s, y * s) for r, (x, y) in row} for row in lifts for s in (d_p // row[0][1][0],)]
    d, table = transport(algebra, cols)
    graded = {(a, b): {k: v for k, v in cell.items() if layer_of[k] == layer_of[a] + layer_of[b]}
              for (a, b), cell in table.items()}
    labels = [algebra.labels[row[0][0]] for row in lifts]
    return from_table(labels, graded, d * d_p), tuple(dims)


class Fingerprint(NamedTuple):
    """Isomorphism-invariant tuple; equality is necessary, never sufficient."""

    dim: int
    series_dims: tuple
    nilindex: int
    dim_center: int
    dim_right_annihilator: int
    char_seq: tuple
    dim_der: int
    dim_inn: int
    dim_h1: int

    def record(self):
        """Canonical single-line text form for golden-file comparisons."""
        return (
            "dim=%d;series=%s;nilindex=%d;center=%d;rann=%d;charseq=%s;der=%d;inn=%d;h1=%d"
            % (
                self.dim,
                ",".join(str(d) for d in self.series_dims),
                self.nilindex,
                self.dim_center,
                self.dim_right_annihilator,
                ",".join(str(p) for p in self.char_seq),
                self.dim_der,
                self.dim_inn,
                self.dim_h1,
            )
        )


def fingerprint(algebra, trials=20, seed=1):
    """Aggregate the separating invariants of a Leibniz algebra."""
    require_leibniz(algebra)
    series = central_series(algebra)
    if not series.is_nilpotent:
        raise NotNilpotentError("fingerprint expects a nilpotent algebra")
    cs = characteristic_sequence(algebra, trials=trials, seed=seed)
    der = cohomology.derivation_space(algebra)
    inn = cohomology.inner_derivation_space(algebra)
    h1 = cohomology.h1_dimension(algebra, der=der, inn=inn)
    return Fingerprint(
        dim=algebra.dim,
        series_dims=series.dims,
        nilindex=series.nilindex,
        dim_center=len(center(algebra)),
        dim_right_annihilator=len(right_annihilator(algebra)),
        char_seq=cs.parts,
        dim_der=der.dim,
        dim_inn=inn.dim,
        dim_h1=h1,
    )
