"""Derivation spaces and the first cohomology dimension H^1 = dim Der - dim Inn.

Two theorems stand in for checks.  Every R_z of a Leibniz algebra is a
derivation (the right-Leibniz identity), so Inn is a subspace of Der once
core.require_leibniz, the guard both spaces start with, has passed.  For a
valid Z-gradation the derivation identity is homogeneous, so each weight
component of a derivation is a derivation.

The derivation identity d([x,y]) = [d(x),y] + [x,d(y)] over all basis pairs
is a homogeneous linear system in the dim^2 matrix entries; it is assembled
sparsely and eliminated incrementally (SparseEchelon drops zero entries
and empty rows itself), which keeps the dim^3 equations cheap at the
dimensions the catalog uses.  Both the Der and the Inn rows are read off
core.gaussian_table as Gaussian integers and eliminated without a Scalar;
the bases are made Scalars only when the kernel and the RREF are read.
"""

from __future__ import annotations

from .core import gaussian_table, require_leibniz, sparse_bracket
from .linalg import Matrix, SparseEchelon, gaussian_combination


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
    on Gaussian integers: the table D * gamma and the columns of d_m * m scale
    all three terms by D * d_m."""
    n = algebra.dim
    _, by_left, _ = gaussian_table(algebra)
    _, cols = m.gaussian_columns()
    for i in range(n):
        for j in range(n):
            defect = gaussian_combination(cols, dict(by_left[i].get(j, ())))
            for side in (sparse_bracket(algebra, cols[i], {j: (1, 0)}),
                         sparse_bracket(algebra, {i: (1, 0)}, cols[j])):
                for r, (x, y) in side.items():
                    o = defect.get(r, (0, 0))
                    defect[r] = (o[0] - x, o[1] - y)
            if any(x or y for x, y in defect.values()):
                return False
    return True


def derivation_space(algebra):
    """Solve the derivation identity for Der(L); dim = dim^2 - rank.

    The equations are read off core.gaussian_table, D * gamma as (re, im)
    int pairs: the identity is linear in gamma, so the solutions are Der(L)'s.
    """
    require_leibniz(algebra)
    n = algebra.dim
    _, by_left, by_right = gaussian_table(algebra)
    ech = SparseEchelon(n * n)
    for i in range(n):
        for j in range(n):
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
    basis = [Matrix(n, n, vec) for vec in ech.kernel_basis()]
    return DerivationSpace(basis)


def inner_derivation_space(algebra):
    """Echelonized span of the right operators R_{e_k}, each a derivation
    once core.require_leibniz passes, so Inn(L) is a subspace of Der(L).
    The rows come from core.gaussian_table, so they span D * Inn = Inn."""
    require_leibniz(algebra)
    n = algebra.dim
    _, _, by_right = gaussian_table(algebra)
    ech = SparseEchelon(n * n)
    for column in by_right:
        # entry (k, r) of R_{e_i} is the e_k coordinate of [e_r, e_i]
        ech.add_gaussian({k * n + r: g for r, terms in column.items() for k, g in terms})
    basis = [Matrix(n, n, row) for row in ech.basis_rows()]
    return DerivationSpace(basis)


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
