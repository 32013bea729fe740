"""Derivation spaces and the first cohomology dimension H^1 = dim Der - dim Inn.

Two theorems stand in for checks.  Every R_z of a Leibniz algebra is a
derivation (the right-Leibniz identity), so Inn is a subspace of Der once
core.require_leibniz, the guard both spaces start with, has passed.  For a
valid Z-gradation the derivation identity is homogeneous, so each weight
component of a derivation is a derivation.

A third theorem trims the Der system.  For a linear map d of a Leibniz
algebra, the y with d([x,y]) = [d(x),y] + [x,d(y)] for all x form a
subalgebra: expand [x,[y,z]] by the identity and apply d.  So the
derivation identity need only hold with y = e_g, g in
core.generating_set, whose left-normed words span L; when no smaller
generating set is certified, that set is the whole basis.

A derivation is fixed by its values on G, so derivation_space solves for
u = (d(e_g)), g in G: |G| * dim unknowns, not dim^2.  The words of
core.generating_words are a basis of L, each w = D * [w_p, e_g] of an
earlier word, so d(w) = D * ([d w_p, e_g] + [w_p, d e_g]) is a linear form
in u per coordinate, and the inverse of the words' matrix gives every
d(e_i).  That defines a linear map u -> d_u, injective since d_u(e_g) =
u_g.  d_u is a derivation iff E(x, g) = d([x, e_g]) - [d x, e_g] -
[x, d e_g] vanishes for every x and every g in G, by the theorem above,
and every derivation d is d_u for u = (d(e_g)), since it obeys the same
rule along the words: so Der is the image of the system's kernel.

The relation rule.  E(x, g) is linear in x and the words are a basis, so
x runs over the words w_k.  A pair (w_k, e_g) that made the word
w = D * [w_k, e_g] holds by construction, since d(w) is defined by it;
so the system is E(w_k, g) on the n * |G| - (n - |G|) pairs that made no
word, and a coordinate equation that cancels to nothing is dropped.  The
kernel is unchanged.  Der's basis is the RREF, with the column order
reversed, of the kernel vectors' images (linalg.reversed_rref); the RREF
of a span is unique, so that is the kernel_basis the system on all dim^2
basis pairs in all dim^2 entries would give.  When G is every index the
words are the e_g, no pair made a word, and the system is the one on the
pairs (e_i, e_g).  is_derivation still checks every pair, through
core.first_non_derivation, the one yes/no derivation check.

The early stop.  dim Der is an isomorphism invariant, so the table
core.sparser_source gives, its dim Der kept through core.memo, fixes the
system's rank r = |G| * n - dim Der.  Once the echelon reaches r, the
kernel of the equations so far contains the system's kernel and has its
dimension, so the two are equal and no further equation is assembled;
the RREF of a span is unique, so reversed_rref gives the same rows.

The dimension without the basis.  u -> d_u is injective, so dim Der is
the kernel's dimension, |G| * n - rank, and needs no image.  So Der's
DerivationSpace keeps the kernel and builds its rows, the images and
their reversed_rref, on their first read.  dim Der and H^1 build none:
the h1 verb, der without --dump, replicate's section 3, fingerprint and
the early stop's source.

Both the Der and the Inn rows are read off the algebra's Gaussian-integer
table and eliminated without a Scalar.  A DerivationSpace keeps its basis
as those sparse integer rows; its basis Matrices are built only when
basis is read, each taking its Scalar rows as they are (linalg's
Matrix._of_scalars), with no second per-entry check.  So dimensions, H^1,
the dump of the cli's der verb and the weight split
(gradations.graded_derivation_split, which reads the rows) build no Matrix.
"""

from __future__ import annotations

from .core import (
    first_non_derivation,
    generating_set,
    generating_words,
    memo,
    operator_columns,
    require_leibniz,
    sparser_source,
)
from .linalg import (
    Matrix,
    SparseEchelon,
    add_multiple,
    gaussian_combination,
    gaussian_inverse,
    reversed_rref,
    scalar_vector,
)


class DerivationSpace:
    """A basis of derivation matrices of size n, kept as sparse Gaussian-
    integer rows: each (l, terms), terms the (r * n + c, (re, im)) int pairs
    of l times the matrix, sorted by index, l > 0.  rows may be given as a
    function that builds them, with their number dim: rows calls it on the
    first read.  basis builds the Matrices on its first read."""

    __slots__ = ("n", "dim", "_rows", "_build", "_basis")

    def __init__(self, n, rows, dim=None):
        self.n = n
        if dim is None:
            self._rows, self._build = tuple(rows), None
            dim = len(self._rows)
        else:
            self._rows, self._build = None, rows
        self.dim = dim
        self._basis = None

    @property
    def rows(self):
        """The rows, built on the first read and kept."""
        rows = self._rows
        if rows is None:
            self._rows = rows = tuple(self._build())
            self._build = None
        return rows

    @property
    def basis(self):
        """The basis as a list of n x n Matrices of Scalars, built on the
        first read and kept."""
        basis = self._basis
        if basis is None:
            n = self.n
            self._basis = basis = [Matrix._of_scalars(n, n, scalar_vector(terms, l, n * n))
                                   for l, terms in self.rows]
        return basis

    def __repr__(self):
        return "DerivationSpace(dim=%d)" % self.dim


def is_derivation(algebra, m):
    """Exact check of d([e_i,e_j]) = [d e_i, e_j] + [e_i, d e_j] on all pairs,
    on Gaussian integers, by core.first_non_derivation on d_m * m's columns."""
    _, cols = m.gaussian_columns()
    return first_non_derivation(algebra, [{c: col.items() for c, col in enumerate(cols)}]) is None


def derivation_space(algebra):
    """Solve the derivation identity for Der(L) in the unknowns u = (d(e_g)),
    g in core.generating_set (see the module docstring).

    u_{g, r}, the e_r coordinate of d(e_g), is unknown r * |G| + (g's place
    in G): d[r][g] at r * dim + g when G is every index.  Each d(w) along
    the words, and d_inv * d(e_i) by the inverse d_inv * W^-1 of the
    words' matrix W, is a vector of linear forms in u, {coordinate:
    {unknown: (re, im)}}.  The identity is imposed on the pairs (w_k, e_g)
    that made no word, by the relation rule, times D * d_inv, on the
    algebra's table D * gamma: it is linear in gamma, so the solutions are
    Der(L)'s.  One D * L_{w_k} per word gives both D [w_k, e_g], its
    column g, and D [w_k, d e_g].  The equations end at the early stop.
    """
    require_leibniz(algebra)
    n = algebra.dim
    by_left = algebra.by_left
    generators = generating_set(algebra)
    m = len(generators)
    place = {g: s for s, g in enumerate(generators)}
    words = generating_words(algebra)

    def add_forms(out, cr, ci, vector):
        # out += (cr + ci*i) * vector, for vectors of forms
        for k, form in vector.items():
            add_multiple(out.setdefault(k, {}), cr, ci, form.items())

    def add_bracket(out, sign, vector, g):
        # out += sign * D [vector, e_g], for a vector of forms
        for t, form in vector.items():
            for k, (cr, ci) in by_left[t].get(g, ()):
                add_multiple(out.setdefault(k, {}), sign * cr, sign * ci, form.items())

    def add_unknowns(out, scale, columns, g):
        # out += scale * D [x, d e_g], for the columns r: D [x, e_r] of D * L_x
        s = place[g]
        for r, column in columns:
            unknown = ((r * m + s, (scale, 0)),)
            for k, (cr, ci) in column:
                add_multiple(out.setdefault(k, {}), cr, ci, unknown)

    lefts = [operator_columns(by_left, w) for _, _, w in words]   # D * L_w per word
    forms = []   # d(w) per word
    for parent, g, _ in words:
        if parent is None:   # d(e_g) = u_g
            forms.append({r: {r * m + place[g]: (1, 0)} for r in range(n)})
            continue
        out = {}
        add_bracket(out, 1, forms[parent], g)                        # D [d w_p, e_g]
        add_unknowns(out, 1, lefts[parent].items(), g)               # D [w_p, d e_g]
        forms.append({k: form for k, form in out.items() if form})
    d_inv, inverse = gaussian_inverse([w for _, _, w in words])
    images = []   # d_inv * d(e_i)
    for column in inverse:
        out = {}
        for k, (cr, ci) in column.items():
            add_forms(out, cr, ci, forms[k])
        images.append({k: form for k, form in out.items() if form})
    made = {(parent, g) for parent, g, _ in words if parent is not None}
    source = sparser_source(algebra)
    target = None if source is None else n * m - memo(source, _dimension)   # the early stop
    ech = SparseEchelon(n * m)
    for k, columns in enumerate(lefts):
        for g in generators:
            if (k, g) in made or len(ech) == target:   # made: d(D [w_k, e_g]) is that word's form
                continue
            eq = {}
            for t, (cr, ci) in columns.get(g, ()):
                add_forms(eq, cr, ci, images[t])                 # D d([w_k, e_g])
            add_bracket(eq, -d_inv, forms[k], g)                 # - D [d w_k, e_g]
            add_unknowns(eq, -d_inv, columns.items(), g)         # - D [w_k, d e_g]
            for form in eq.values():
                if form and ech.add_gaussian(form) and len(ech) == target:
                    break
    kernel = ech.gaussian_kernel()

    def rows():
        # column j of the map u -> d_inv * d, entry (r, c) at r * n + c
        columns = [{} for _ in range(n * m)]
        for c, image in enumerate(images):
            for r, form in image.items():
                for j, v in form.items():
                    columns[j][r * n + c] = v
        return reversed_rref((gaussian_combination(columns, dict(terms)) for _, terms in kernel), n * n)
    return DerivationSpace(n, rows, len(kernel))


def _dimension(algebra):
    return derivation_space(algebra).dim


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
    return DerivationSpace(n, ((row[0][1][0], row) for row in ech.gaussian_rows()))


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
