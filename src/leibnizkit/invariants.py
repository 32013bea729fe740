"""Invariants of a nilpotent algebra: series, annihilators, characteristic
sequence, the associated graded algebra and the isomorphism fingerprint.

Both chains the classification reads come from linalg.image_chain: the
central series is the chain of the right operators R_{e_j}, and each
characteristic-sequence candidate x gives the Jordan type of R_x from
its sparse columns, with no dense matrix in between; a candidate's lazy
chain stops once its ranks prove that it cannot beat the best so far,
and the search stops once the best reaches the ceiling that the support
of the R_{e_j} proves.  Both chains and the annihilators read
core.gaussian_table, and the candidates are drawn as Gaussian integers, so
all of it runs in ints; only the series bases and the witness are made
Scalars.

fingerprint checks its input with core.require_leibniz, the guard Der and
Inn share, and calls them through the cohomology module, which imports
nothing from here."""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from . import cohomology
from .core import change_of_basis, from_terms, gaussian_table, require_leibniz
from .linalg import (
    Matrix,
    NotNilpotentError,
    SparseEchelon,
    dense_vec,
    image_chain,
    partition_of_ranks,
    span_echelon,
)
from .scalars import from_gaussian


class SeriesReport(NamedTuple):
    """Descending central sequence L^1 >= L^2 >= ... with echelonized bases.

    Immutable, down to the basis vectors: central_series hands the same
    report to every caller for one algebra.
    """

    subspace_bases: tuple  # per L^k, a tuple of dense basis vectors (tuples)
    dims: tuple
    nilindex: int | None   # None when the algebra is not nilpotent

    @property
    def is_nilpotent(self):
        return self.nilindex is not None

    def __repr__(self):
        tail = self.nilindex if self.nilindex is not None else "not nilpotent"
        return "SeriesReport(dims=%s, nilindex=%s)" % (list(self.dims), tail)


def central_series(algebra):
    """L^1 = L, L^{k+1} = [L^k, L]; stops at zero or at stabilization.

    Computed once per algebra and memoized on it; characteristic_sequence,
    natural_graded and fingerprint share the one report.
    """
    if algebra._series is None:
        algebra._series = _series(algebra)
    return algebra._series


def _series(algebra):
    # L^{k+1} = [L^k, L] = sum_j R_{e_j}(L^k): the image chain of the right
    # operators, whose last level is 0 or the stabilized L^k
    _, _, by_right = gaussian_table(algebra)
    levels = list(image_chain(algebra.dim, by_right))
    last = levels.pop()
    bases = tuple(tuple(tuple(dense_vec(row, algebra.dim)) for row in level) for level in levels)
    dims = tuple(len(level) for level in levels)
    return SeriesReport(bases, dims, None if last else len(levels))


def right_annihilator(algebra):
    """Echelonized basis of R(L) = {x : [y, x] = 0 for all y}."""
    _, by_left, _ = gaussian_table(algebra)
    return _annihilator(algebra.dim, (by_left,))


def center(algebra):
    """Echelonized basis of Cent(L) = {z : [x, z] = [z, x] = 0 for all x}."""
    _, by_left, by_right = gaussian_table(algebra)
    return _annihilator(algebra.dim, (by_left, by_right))


def _annihilator(n, adjacencies):
    # one equation per (e_a, e_k): the e_k coordinate of the product of
    # e_a with x, on the side the adjacency names, must vanish; read off
    # core.gaussian_table, the equations are D times these, same solutions
    ech = SparseEchelon(n)
    for adjacency in adjacencies:
        for products in adjacency:
            rows = {}
            for c, terms in products.items():
                for k, g in terms:
                    rows.setdefault(k, {})[c] = g
            for row in rows.values():
                ech.add_gaussian(row)
    return ech.kernel_basis()


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
    Q(i)-combinations; the witness makes the reported maximum auditable.

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
    """
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
    _, _, by_right = gaussian_table(algebra)
    for x in _candidates(series, n, trials, seed):
        ranks = []
        for k, level in enumerate(image_chain(n, (_right_multiple(by_right, x),))):
            ranks.append(len(level))
            # the cut: r_j <= rho_j for j <= k, and min(b_j, r_k - (j - k)) <= rho_j beyond
            if best is not None and all(r <= p for r, p in zip(ranks, rho)) and all(
                    min(bound[j], ranks[k] - (j - k)) <= rho[j] for j in range(k + 1, len(bound))):
                break
        else:
            parts = partition_of_ranks(ranks)
            if best is None or parts > best:
                best, rho = parts, ranks + [0] * (len(bound) + 1 - len(ranks))  # 0 to the nilindex
                witness = tuple(dense_vec({c: from_gaussian(re, im, 1) for c, (re, im) in x.items()}, n))
                if best == ceiling:
                    break
    return CharSeq(best, witness)


def _candidates(series, n, trials, seed):
    """The candidates in order, drawn lazily as sparse {index: (re, im)} maps
    of ints: basis vectors outside L^2, their pairwise sums, then `trials`
    seeded draws outside L^2."""
    l2 = span_echelon(series.subspace_bases[1], n) if len(series.subspace_bases) > 1 else SparseEchelon(n)
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
    _, by_left, _ = gaussian_table(algebra)
    s = [0] * algebra.dim
    for c, row in enumerate(by_left):
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


def _right_multiple(by_right, x):
    """Columns {c: ((row, (re, im)), ...)} of D * R_x = sum_j x_j D * R_{e_j},
    x an {index: (re, im)} map of ints, in O(nnz) from the Gaussian-integer
    table by_right: column c is D * [e_c, x].  Scaling keeps the Jordan type."""
    op = {}
    for j, (xr, xi) in x.items():
        for c, terms in by_right[j].items():
            col = op.setdefault(c, {})
            for k, (gr, gi) in terms:
                o = col.get(k, (0, 0))
                col[k] = (o[0] + xr * gr - xi * gi, o[1] + xr * gi + xi * gr)
    return {c: tuple((k, v) for k, v in col.items() if v[0] or v[1]) for c, col in op.items()}


def p_filiform_class(cs):
    """p such that the parts read (dim - p, 1, ..., 1); None otherwise."""
    parts = tuple(cs.parts) if isinstance(cs, CharSeq) else tuple(cs)
    if not parts:
        return None
    if any(p != 1 for p in parts[1:]):
        return None
    return len(parts) - 1


def natural_graded(algebra):
    """The associated graded algebra gr L and its component dimensions.

    Complements of L^{i+1} in L^i are picked greedily from echelon bases
    (lowest pivot first).  The lifts, layer by layer, form a basis P of L;
    change_of_basis(algebra, P) gives the brackets of the lifts in that
    basis, and gr L keeps of each [u_a, u_b] only its projection onto the
    layer of degree deg a + deg b.
    """
    series = central_series(algebra)
    if not series.is_nilpotent:
        raise NotNilpotentError("natural gradation needs a nilpotent algebra")
    n = algebra.dim
    layer_vectors = []   # new basis, grouped by layer
    layer_of = []        # layer index (1-based) per new basis position
    labels = []
    dims = []
    pivots = [[_pivot(v) for v in basis] for basis in series.subspace_bases] + [[]]
    for i, basis in enumerate(series.subspace_bases):
        deeper_pivots = set(pivots[i + 1])
        layer = [(v, k) for v, k in zip(basis, pivots[i]) if k not in deeper_pivots]
        dims.append(len(layer))
        for v, k in layer:
            layer_vectors.append(v)
            layer_of.append(i + 1)
            labels.append(algebra.labels[k])
    p = Matrix(n, n, [[layer_vectors[c][r] for c in range(n)] for r in range(n)])
    moved = change_of_basis(algebra, p)
    terms = [(a, b, k, c) for a, b, product in moved.products() for k, c in product
             if layer_of[k] == layer_of[a] + layer_of[b]]
    return from_terms(labels, terms), tuple(dims)


def _pivot(v):
    for k, c in enumerate(v):
        if c:
            return k
    return None


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
