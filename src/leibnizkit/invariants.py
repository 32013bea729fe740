"""Invariants of a nilpotent algebra: series, annihilators, characteristic
sequence, the associated graded algebra and the isomorphism fingerprint."""

from __future__ import annotations

import random
from typing import NamedTuple

from .core import Algebra, change_of_basis, leibniz_residual, right_operator, sparse_bracket
from .linalg import (
    Matrix,
    NotNilpotentError,
    SparseEchelon,
    basis_vec,
    nilpotent_partition,
    span_echelon,
    sparse_vec,
    zero_vec,
)
from .scalars import ONE, ZERO, Scalar


class NotLeibnizError(ValueError):
    """The operation requires an algebra with empty Leibniz residual."""


class SeriesReport:
    """Descending central sequence L^1 >= L^2 >= ... with echelonized bases."""

    __slots__ = ("subspace_bases", "dims", "nilindex")

    def __init__(self, subspace_bases, dims, nilindex):
        self.subspace_bases = subspace_bases
        self.dims = tuple(dims)
        self.nilindex = nilindex  # None when the algebra is not nilpotent

    @property
    def is_nilpotent(self):
        return self.nilindex is not None

    def __repr__(self):
        tail = self.nilindex if self.nilindex is not None else "not nilpotent"
        return "SeriesReport(dims=%s, nilindex=%s)" % (list(self.dims), tail)


def central_series(algebra):
    """L^1 = L, L^{k+1} = [L^k, L]; stops at zero or at stabilization."""
    n = algebra.dim
    current = [basis_vec(n, i) for i in range(n)]
    bases = [current]
    dims = [n]
    while True:
        ech = SparseEchelon(n)
        for u in bases[-1]:
            u = sparse_vec(u)
            for j in range(n):
                ech.add(sparse_bracket(algebra, u, {j: ONE}))
        d = ech.rank
        if d == 0:
            return SeriesReport(bases, dims, len(bases))
        if d == dims[-1]:
            # [L^k, L] = L^k != 0: the sequence stabilized, not nilpotent
            return SeriesReport(bases, dims, None)
        bases.append(ech.basis_rows())
        dims.append(d)


def right_annihilator(algebra):
    """Echelonized basis of R(L) = {x : [y, x] = 0 for all y}."""
    return _annihilator(algebra, (algebra.by_left,))


def center(algebra):
    """Echelonized basis of Cent(L) = {z : [x, z] = [z, x] = 0 for all x}."""
    return _annihilator(algebra, (algebra.by_left, algebra.by_right))


def _annihilator(algebra, adjacencies):
    # one equation per (e_a, e_k): the e_k coordinate of the product of
    # e_a with x, on the side the adjacency names, must vanish
    ech = SparseEchelon(algebra.dim)
    for adjacency in adjacencies:
        for products in adjacency:
            rows = {}
            for c, terms in products.items():
                for k, g in terms:
                    rows.setdefault(k, {})[c] = g
            for row in rows.values():
                ech.add(row)
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
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    series = central_series(algebra)
    if not series.is_nilpotent:
        raise NotNilpotentError("characteristic sequence needs a nilpotent algebra")
    n = algebra.dim
    if n == 0:
        return CharSeq((), ())
    l2 = span_echelon(series.subspace_bases[1], n) if len(series.subspace_bases) > 1 else SparseEchelon(n)
    outside = [i for i in range(n) if not l2.contains({i: ONE})]

    candidates = [basis_vec(n, i) for i in outside]
    for a in range(len(outside)):
        for b in range(a + 1, len(outside)):
            v = zero_vec(n)
            v[outside[a]] = ONE
            v[outside[b]] = ONE
            candidates.append(v)
    rng = random.Random(seed)
    produced = 0
    while produced < trials:
        v = [Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)]
        if l2.contains(sparse_vec(v)):
            continue
        candidates.append(v)
        produced += 1

    best = None
    witness = None
    for x in candidates:
        parts = nilpotent_partition(right_operator(algebra, x))
        if best is None or parts > best:
            best = parts
            witness = tuple(x)
    return CharSeq(best, witness)


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
    for i, basis in enumerate(series.subspace_bases):
        deeper = series.subspace_bases[i + 1] if i + 1 < len(series.subspace_bases) else []
        deeper_pivots = {_pivot(v) for v in deeper}
        layer = [v for v in basis if _pivot(v) not in deeper_pivots]
        dims.append(len(layer))
        for v in layer:
            layer_vectors.append(v)
            layer_of.append(i + 1)
            labels.append(algebra.labels[_pivot(v)])
    p = Matrix(n, n, [[layer_vectors[c][r] for c in range(n)] for r in range(n)])
    gamma = {}
    for (a, b), coords in change_of_basis(algebra, p).gamma.items():
        target = layer_of[a] + layer_of[b]
        proj = tuple(c if layer_of[k] == target else ZERO for k, c in enumerate(coords))
        if any(proj):
            gamma[(a, b)] = proj
    return Algebra(labels, gamma), tuple(dims)


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
    from .cohomology import derivation_space, h1_dimension, inner_derivation_space

    if leibniz_residual(algebra):
        raise NotLeibnizError("fingerprint is only defined for Leibniz algebras")
    series = central_series(algebra)
    if not series.is_nilpotent:
        raise NotNilpotentError("fingerprint expects a nilpotent algebra")
    cs = characteristic_sequence(algebra, trials=trials, seed=seed)
    der = derivation_space(algebra)
    inn = inner_derivation_space(algebra)
    h1 = h1_dimension(algebra, der=der, inn=inn)
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
