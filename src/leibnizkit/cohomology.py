"""Derivation spaces and the first cohomology dimension H^1 = dim Der - dim Inn.

Two theorems stand in for checks.  Every R_z of a Leibniz algebra is a
derivation (the right-Leibniz identity), so Inn is a subspace of Der once
core.require_leibniz, the guard both spaces start with, has passed.  For a
valid Z-gradation the derivation identity is homogeneous, so each weight
component of a derivation is a derivation.

A third theorem trims the Der system.  For a linear map d of a Leibniz
algebra, the y with d([x,y]) = [d(x),y] + [x,d(y)] for all x form a
subalgebra: expand [x,[y,z]] by the identity and apply d.  So the
derivation identity need only hold on the pairs (e_i, e_g) with g in
core.generating_set, whose left-normed words span L; when no smaller
generating set is certified, that set is the whole basis.  The identity is
a homogeneous linear system in the dim^2 matrix entries; it is assembled
sparsely and eliminated incrementally (SparseEchelon drops zero entries
and empty rows itself).  The RREF of the kernel is unique, so the Der
basis is the one all dim^2 pairs would give.  is_derivation still checks
every pair, through core.first_non_derivation, the one yes/no derivation
check.  Both the Der and the Inn rows are read off the algebra's
Gaussian-integer table and eliminated without a Scalar; the bases are made
Scalars only when the kernel and the RREF are read, and each basis Matrix
takes those Scalar rows as they are (linalg's Matrix._of_scalars), with
no second per-entry check.
"""

from __future__ import annotations

from .core import first_non_derivation, generating_set, require_leibniz
from .linalg import Matrix, SparseEchelon


class DerivationSpace:
    """An echelonized basis of derivation matrices."""

    __slots__ = ("basis", "dim")

    def __init__(self, basis):
        self.basis = list(basis)
        self.dim = len(self.basis)

    def __repr__(self):
        return "DerivationSpace(dim=%d)" % self.dim


def is_derivation(algebra, m):
    """Exact check of d([e_i,e_j]) = [d e_i, e_j] + [e_i, d e_j] on all pairs,
    on Gaussian integers, by core.first_non_derivation on d_m * m's columns."""
    _, cols = m.gaussian_columns()
    return first_non_derivation(algebra, [{c: col.items() for c, col in enumerate(cols)}]) is None


def derivation_space(algebra):
    """Solve the derivation identity for Der(L); dim = dim^2 - rank.

    The identity is imposed on the pairs (e_i, e_g) with g in
    core.generating_set only; the other pairs follow (see the module
    docstring).  The equations are read off the algebra's table, D * gamma
    as (re, im) int pairs: the identity is linear in gamma, so the
    solutions are Der(L)'s.
    """
    require_leibniz(algebra)
    n = algebra.dim
    by_left, by_right = algebra.by_left, algebra.by_right
    generators = generating_set(algebra)
    ech = SparseEchelon(n * n)
    for i in range(n):
        for j in generators:
            # (equation k, unknown d[a][b] as a * n + b, re, im) terms:
            # d([e_i, e_j]), where d[k][r] multiplies the e_r coordinate,
            # then -[d e_i, e_j], where d[r][i] multiplies [e_r, e_j],
            # then -[e_i, d e_j], where d[r][j] multiplies [e_i, e_r]
            terms = []
            for r, (cr, ci) in by_left[i].get(j, ()):
                terms += [(k, k * n + r, cr, ci) for k in range(n)]
            for r, product in by_right[j].items():
                terms += [(k, r * n + i, -cr, -ci) for k, (cr, ci) in product]
            for r, product in by_left[i].items():
                terms += [(k, r * n + j, -cr, -ci) for k, (cr, ci) in product]
            rows = {}
            for k, key, re, im in terms:
                row = rows.setdefault(k, {})
                o = row.get(key)
                row[key] = (re, im) if o is None else (o[0] + re, o[1] + im)
            for k in sorted(rows):
                ech.add_gaussian(rows[k])
    return DerivationSpace(Matrix._of_scalars(n, n, vec) for vec in ech.kernel_basis())


def inner_derivation_space(algebra):
    """Echelonized span of the right operators R_{e_k}, each a derivation
    once core.require_leibniz passes, so Inn(L) is a subspace of Der(L).
    The rows come from the table D * gamma, so they span D * Inn = Inn."""
    require_leibniz(algebra)
    n = algebra.dim
    ech = SparseEchelon(n * n)
    for column in algebra.by_right:
        # entry (k, r) of R_{e_i} is the e_k coordinate of [e_r, e_i]
        ech.add_gaussian({k * n + r: g for r, terms in column.items() for k, g in terms})
    return DerivationSpace(Matrix._of_scalars(n, n, row) for row in ech.basis_rows())


def h1_dimension(algebra, der=None, inn=None):
    """dim H^1 = dim Der - dim Inn: every R_z is a derivation, so Der contains Inn.

    Spaces passed in as der=/inn= are trusted to be those of this algebra;
    nothing is re-eliminated.
    """
    if der is None:
        der = derivation_space(algebra)
    if inn is None:
        inn = inner_derivation_space(algebra)
    return der.dim - inn.dim
