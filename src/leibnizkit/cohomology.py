"""Derivation spaces and the first cohomology dimension H^1 = dim Der - dim Inn.

Two theorems stand in for checks.  Every R_z of a Leibniz algebra is a
derivation (the right-Leibniz identity), so Inn is a subspace of Der once
core.require_leibniz, the guard both spaces start with, has passed.  For a
valid Z-gradation the derivation identity is homogeneous, so each weight
component of a derivation is a derivation.

The derivation identity d([x,y]) = [d(x),y] + [x,d(y)] over all basis pairs
is a homogeneous linear system in the dim^2 matrix entries; it is assembled
sparsely and eliminated incrementally (SparseEchelon.add drops zero entries
and empty rows itself), which keeps the dim^3 equations cheap at the
dimensions the catalog uses.
"""

from __future__ import annotations

from .core import require_leibniz, sparse_bracket
from .linalg import Matrix, SparseEchelon, sparse_vec
from .scalars import ONE, ZERO


class DerivationSpace:
    """An echelonized basis of derivation matrices."""

    __slots__ = ("basis", "dim")

    def __init__(self, basis):
        self.basis = list(basis)
        self.dim = len(self.basis)

    def __repr__(self):
        return "DerivationSpace(dim=%d)" % self.dim


def is_derivation(algebra, m):
    """Exact check of d([e_i,e_j]) = [d e_i, e_j] + [e_i, d e_j] on all pairs."""
    n = algebra.dim
    cols = [sparse_vec(m.column(c)) for c in range(n)]
    for i in range(n):
        for j in range(n):
            defect = {}
            for k, c in algebra.by_left[i].get(j, ()):
                for r, v in cols[k].items():
                    defect[r] = defect.get(r, ZERO) + c * v
            for side in (sparse_bracket(algebra, cols[i], {j: ONE}),
                         sparse_bracket(algebra, {i: ONE}, cols[j])):
                for r, v in side.items():
                    defect[r] = defect.get(r, ZERO) - v
            if any(defect.values()):
                return False
    return True


def derivation_space(algebra):
    """Solve the derivation identity for Der(L); dim = dim^2 - rank."""
    require_leibniz(algebra)
    n = algebra.dim
    ech = SparseEchelon(n * n)
    for i in range(n):
        for j in range(n):
            rows = {}
            for r, coeff in algebra.by_left[i].get(j, ()):
                for k in range(n):
                    key = k * n + r  # unknown d[k][r]
                    row = rows.setdefault(k, {})
                    row[key] = row.get(key, ZERO) + coeff
            for r, terms in algebra.by_right[j].items():
                # -[d e_i, e_j]: d[r][i] multiplies [e_r, e_j]
                for k, coeff in terms:
                    key = r * n + i
                    row = rows.setdefault(k, {})
                    row[key] = row.get(key, ZERO) - coeff
            for r, terms in algebra.by_left[i].items():
                # -[e_i, d e_j]: d[r][j] multiplies [e_i, e_r]
                for k, coeff in terms:
                    key = r * n + j
                    row = rows.setdefault(k, {})
                    row[key] = row.get(key, ZERO) - coeff
            for k in sorted(rows):
                ech.add(rows[k])
    basis = [Matrix(n, n, vec) for vec in ech.kernel_basis()]
    return DerivationSpace(basis)


def inner_derivation_space(algebra):
    """Echelonized span of the right operators R_{e_k}, each a derivation
    once core.require_leibniz passes, so Inn(L) is a subspace of Der(L)."""
    require_leibniz(algebra)
    n = algebra.dim
    ech = SparseEchelon(n * n)
    for column in algebra.by_right:
        # entry (k, r) of R_{e_i} is the e_k coordinate of [e_r, e_i]
        ech.add({k * n + r: g for r, terms in column.items() for k, g in terms})
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
