"""Algebras presented by structure constants, and the bracket machinery.

An Algebra is an ordered basis of labels plus its nonzero products
[e_i, e_j]; no operation modifies one.  The bracket convention is
right-Leibniz throughout: the left argument indexes the rows, the right
argument the columns, and the identity checked by leibniz_residual is

    [x, [y, z]] = [[x, y], z] - [[x, z], y].

is_leibniz is the package's one Leibniz decision and require_leibniz its
one guard.  The products are stored once, as Gaussian integers:
denominator is D, the lcm of the reduced denominators of the structure
constants, and each nonzero product of D * gamma is a tuple of
(k, (re, im)) terms of ints, not both zero, sorted by k, reachable by its
left factor (by_left[i][j]) and by its right factor (by_right[j][i]).
Every bracket loop goes through this index, so its cost follows the
nonzero products: the residual, the Der and Inn systems, the annihilators,
every image chain and sparse_bracket, the one bracket kernel, run on it
and make Scalars only of their results, through linalg.scalar_vector.  On
it, square_span is the one echelon of L^2, operator_columns the one
builder of the columns of R_x and L_x, and derivation_defects the one loop
that checks the derivation identity, behind the residual and the one
yes/no derivation check, first_non_derivation.  These kernels and
transport sum their terms through linalg.add_multiple, the one Gaussian
multiply-accumulate, which deletes each entry that cancels: no {index:
(re, im)} map they return holds a zero entry, so an empty map is zero.

Every Algebra goes through the one table store, Algebra._store.  from_table
hands it ints: change_of_basis and gr L through transport, the one
transport of structure constants, and direct_sum.  from_terms and the
dense adapter Algebra(labels, gamma) hand Scalar terms to the accumulator,
Algebra._accumulate, which sums and clears them for the store: one of the
three places that clear Scalars, beside linalg.gaussian_row and
Matrix.gaussian_columns.  products() and gamma are Scalar views made on
each read.

Since the tables never change, each algebra has one memo, which memo()
alone reads and fills: derive(algebra) is computed once and kept under
derive.  is_leibniz keeps its decision, a yes or a no (leibniz_residual
still forms every triple of a no, so every caller gets its own list);
invariants.central_series its immutable SeriesReport (each level's sparse
integer RREF rows); generating_words the closure words, which
cohomology.derivation_space runs along, and generating_set the G read off
them; square_span the one SparseEchelon of L^2, which the closure (on a
copy it extends), the central series (as its level L^2) and the
characteristic-sequence candidates read and never change (every product
lies in L^2, and a vector of L^2 is zero iff its entries at the pivots,
SparseEchelon.pivots, are, so the annihilators, the kernel maps and Der
keep only those coordinates); invariants._annihilators the echelons of
Ann_l and R(L) on the operators generator_operators gives, which the
center intersects and the kernel maps read C off;
invariants._kernel_maps the maps that sharpen the characteristic
sequence's rank bound; and cohomology._dimension the dim Der of a linked
table.  Equality,
hashing and key() ignore the memo; they compare the labels, D and the
table.  Concurrent use needs no locking: threads that race to fill an
entry compute equal values and all get the first one stored.

Beside the memo an algebra keeps one link, _source, which change_of_basis
alone writes and sparser_source alone reads: the sparsest known isomorphic
table (fewest stored terms), the algebra it moved or that one's own link,
so a link is one hop.  Every other constructor leaves it None, and
equality, hashing and key() ignore it too.

The right-Leibniz identity and the derivation identity need checking only
with their last argument in a generating set G.  In any algebra,
R_[u, g] = [R_g, R_u] once R_g is a derivation, so {z : R_z is a
derivation} is a subalgebra; and in a Leibniz algebra the y on which a
linear map d satisfies the derivation identity for every x form one too.
generating_set picks G greedily among the basis vectors independent modulo
L^2 and keeps it only if the closure of span G under the R_g is all of L,
which holds for every nilpotent Leibniz algebra; otherwise G is the whole
basis, and nothing is skipped.  The one closure loop keeps its words: the
e_g, then each image D * [w_p, e_g] of an earlier word that enlarged the
closure, with its parent p and generator g, n words that form a basis of
L (the e_g alone when G is the whole basis).  The closure stops
bracketing at the word that fills L.  By the same induction the central
series and the annihilators need only the R_g (and the L_g) on a Leibniz
algebra (invariants module docstring); generator_operators is the one
place that decides when they suffice.
"""

from __future__ import annotations

import json
from math import gcd, lcm
from types import MappingProxyType

from .linalg import (
    Matrix,
    SparseEchelon,
    add_multiple,
    as_vector,
    gaussian_combination,
    gaussian_inverse,
    gaussian_row,
    scalar_vector,
)
from .scalars import (
    Echo,
    ScalarParseError,
    as_scalar,
    common_denominator,
    from_gaussian,
    gaussian_parts,
    parse_scalar,
)


class FormatError(ValueError):
    """An algebra / weights / certificate file failed to parse."""


class NotLeibnizError(ValueError):
    """The operation requires an algebra with empty Leibniz residual."""


class Algebra:
    """Finite-dimensional algebra over Q(i) given by structure constants."""

    __slots__ = ("dim", "labels", "denominator", "by_left", "by_right", "_memo", "_source")

    def __init__(self, labels, gamma):
        """Adapter for a dense table: gamma[(i, j)] = coordinates of [e_i, e_j]."""
        labels = tuple(labels)
        dim = len(labels)
        terms = []
        for (i, j), vec in gamma.items():
            if len(vec) != dim:
                raise ValueError("product (%d,%d) has %d coordinates, need %d" % (i, j, len(vec), dim))
            terms.extend((i, j, k, c) for k, c in enumerate(vec))   # zeros too: each index is checked
        self._accumulate(labels, terms)

    def _accumulate(self, labels, terms):
        """Sum the (i, j, k, c) terms and clear the sums to Gaussian integers
        over their common denominator, for _store."""
        dim = len(labels)
        sums = {}
        for i, j, k, c in terms:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError("term index (%d,%d,%d) out of range for dim %d" % (i, j, k, dim))
            if c:
                row = sums.get((i, j))
                if row is None:
                    row = sums[(i, j)] = {}
                row[k] = row[k] + c if k in row else as_scalar(c)
        d = common_denominator([c for row in sums.values() for c in row.values()])
        self._store(labels, {key: {k: gaussian_parts(c, d) for k, c in row.items()}
                             for key, row in sums.items()}, d)

    def _store(self, labels, table, d):
        """Index table {(i, j): {k: (re, im)}} of ints over d > 0 divided once by
        the gcd of d and every part, which leaves D: the one table store."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        dim = len(labels)
        g = d if d == 1 else gcd(d, *(x for row in table.values() for v in row.values() for x in v))
        by_left, by_right = [{} for _ in range(dim)], [{} for _ in range(dim)]
        for (i, j), row in table.items():
            prod = tuple((k, (x // g, y // g)) for k, (x, y) in sorted(row.items()) if x or y)
            if prod:
                by_left[i][j] = by_right[j][i] = prod
        self.dim = dim
        self.labels = labels
        self.denominator = d // g
        self.by_left = tuple(by_left)
        self.by_right = tuple(by_right)
        self._memo = {}   # derive -> derive(self), filled by memo() alone
        self._source = None   # change_of_basis's link, read by sparser_source alone

    @property
    def gamma(self):
        """Read-only dense view (i, j) -> coordinates of [e_i, e_j], built on each read."""
        return MappingProxyType({(i, j): tuple(scalar_vector(terms, self.denominator, self.dim))
                                 for i, j, terms in self._table()})

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError("unknown basis label %r" % (label,)) from None

    def products(self):
        """(i, j, terms) per nonzero product, in lexicographic (i, j) order,
        each term a (k, Scalar) pair: a view made on each read."""
        d = self.denominator
        return [(i, j, tuple((k, from_gaussian(re, im, d)) for k, (re, im) in terms))
                for i, j, terms in self._table()]

    def _table(self):
        return [(i, j, row[j]) for i, row in enumerate(self.by_left) for j in sorted(row)]

    def key(self):
        """Hashable canonical form, for caching in tests and tools."""
        return (self.labels, self.denominator, tuple(self._table()))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return (self.labels == other.labels and self.denominator == other.denominator
                and self.by_left == other.by_left)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Algebra(dim=%d, products=%d)" % (self.dim, sum(map(len, self.by_left)))


def from_terms(labels, terms):
    """The algebra whose products are sums of (left, right, result, c) terms.

    Indices are basis positions and c a scalar: [e_left, e_right] gains
    c * e_result.  Terms of one product add up, and a product whose terms
    cancel is absent.  The one builder from Scalar terms (the catalog
    tables, the file loader); it clears them for the one table store.
    """
    algebra = Algebra.__new__(Algebra)
    algebra._accumulate(labels, terms)
    return algebra


def from_table(labels, table, d):
    """The algebra with [e_i, e_j] = table[(i, j)] / d, {k: (re, im)} maps of
    ints over an int d > 0, zeros allowed: the store's Gaussian-integer entry."""
    algebra = Algebra.__new__(Algebra)
    algebra._store(labels, table, d)
    return algebra


def memo(algebra, derive):
    """derive(algebra), computed once per algebra and kept in its memo under
    derive: the one memo of what is derived from the table.  A missing key
    means not computed, so a false value (a no, an empty echelon, no words)
    stays kept too.  Racing threads may each compute; all get the first
    value stored."""
    try:
        return algebra._memo[derive]
    except KeyError:
        return algebra._memo.setdefault(derive, derive(algebra))


# -- bracket -------------------------------------------------------------

def sparse_bracket(algebra, x, y):
    """D * [x, y] for x, y given as {index: (re, im)} maps of ints with no
    zero entry; same form out.

    The single bracket kernel.  It runs on the Gaussian-integer table D * gamma,
    so for x and y cleared of denominators dx and dy it gives D * dx * dy
    times the true bracket.  It walks the products adjacent to the smaller
    argument, so brackets with a basis vector touch one row or column of the
    table only.
    """
    # [e_i, e_j] is by_left[i][j] = by_right[j][i], and Z[i] is commutative
    outer, inner, index = (x, y, algebra.by_left) if len(x) <= len(y) else (y, x, algebra.by_right)
    out = {}
    for i, (ar, ai) in outer.items():
        for j, terms in index[i].items():
            b = inner.get(j)
            if b is not None:
                add_multiple(out, ar * b[0] - ai * b[1], ar * b[1] + ai * b[0], terms)
    return out


def _cleared(vector, n):
    """(d, d * vector as an {index: (re, im)} map) for a dense Scalar vector."""
    return gaussian_row(dict(enumerate(as_vector(vector, n))))


def bracket(algebra, x, y):
    """Bilinear extension of gamma: the product [x, y]."""
    (dx, x), (dy, y) = _cleared(x, algebra.dim), _cleared(y, algebra.dim)
    d = algebra.denominator * dx * dy
    return scalar_vector(sparse_bracket(algebra, x, y).items(), d, algebra.dim)


def leibniz_residual(algebra):
    """All basis triples violating the right-Leibniz identity.

    Returns (i, j, k, residual) in lexicographic order, with residual =
    [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j] as a dense vector;
    an empty list means the algebra is a Leibniz algebra.  is_leibniz
    decides; only on a no is the residual, at (i, j, k) the derivation
    defect of R_{e_k} on (e_i, e_j), formed for every k, afresh, over D^2.
    """
    if is_leibniz(algebra):
        return []
    n, dd = algebra.dim, algebra.denominator ** 2
    return sorted(((i, j, k, scalar_vector(acc.items(), dd, n))
                   for k, defects in enumerate(derivation_defects(algebra, algebra.by_right))
                   for (i, j), acc in defects.items() if acc), key=lambda triple: triple[:3])


def is_leibniz(algebra):
    """Whether the right-Leibniz identity holds: the one Leibniz decision.

    It asks first_non_derivation about the R_g, g in generating_set, and
    stops at the first that fails; if none does, every R_z is a derivation
    (see the module docstring), or takes its sparser_source's.  The
    decision, a yes or a no, is memoized on the algebra.
    """
    return memo(algebra, _decide_leibniz)


def _decide_leibniz(algebra):
    source = sparser_source(algebra)
    if source is not None:   # being Leibniz is an isomorphism invariant
        return is_leibniz(source)
    return first_non_derivation(algebra, (algebra.by_right[g] for g in generating_set(algebra))) is None


def sparser_source(algebra):
    """The table change_of_basis linked the algebra to, if it has strictly
    fewer terms than the algebra's own, else None: an exact isomorph, so
    being Leibniz and dim Der are the same on it."""
    source = algebra._source
    return source if source is not None and _terms(source) < _terms(algebra) else None


def _terms(algebra):
    return sum(len(terms) for row in algebra.by_left for terms in row.values())


def first_non_derivation(algebra, maps):
    """The position of the first map in maps that is not a derivation, or
    None: the one yes/no derivation check.  maps is any iterable of columns
    as derivation_defects takes them; it is walked lazily, so no map past
    the first failure is pulled."""
    for position, defects in enumerate(derivation_defects(algebra, maps)):
        if any(defects.values()):
            return position
    return None


def derivation_defects(algebra, maps):
    """For each map d in maps, {(i, j): {m: (re, im)}}, the defect
    [e_i, d e_j] + [d e_i, e_j] - d[e_i, e_j]; d is a derivation iff every
    defect is empty.

    Each map is given by columns {c: ((row, (re, im)), ...)} of ints, as
    by_right[k] gives D * R_{e_k}; zero columns may be absent.  Terms are
    accumulated only from products that exist: [e_i, d e_j] from by_right,
    [d e_i, e_j] from by_left, and d[e_i, e_j] from each product's result
    terms e_t with column t of d nonzero; a map is read only when its defect
    is asked for.  On D * gamma and the columns of d_m * d, each defect is
    D * d_m times the true one.  The
    terms are summed by linalg.add_multiple, so no zero entry is kept: a
    pair absent has defect zero, and a pair whose terms cancel may map to
    an empty dict.
    """
    by_left, by_right = algebra.by_left, algebra.by_right
    for columns in maps:
        acc = {}
        for j, d_j in columns.items():
            for t, (cr, ci) in d_j:
                for i, g_it in by_right[t].items():
                    add_multiple(acc.setdefault((i, j), {}), cr, ci, g_it)     # + [e_i, d e_j]
        for i, d_i in columns.items():
            for t, (cr, ci) in d_i:
                for j, g_tj in by_left[t].items():
                    add_multiple(acc.setdefault((i, j), {}), cr, ci, g_tj)     # + [d e_i, e_j]
        for i, row in enumerate(by_left):
            for j, g_ij in row.items():
                for t, (cr, ci) in g_ij:
                    d_t = columns.get(t)
                    if d_t:
                        add_multiple(acc.setdefault((i, j), {}), -cr, -ci, d_t)   # - d[e_i, e_j]
        yield acc


def generating_set(algebra):
    """Basis indices G whose left-normed words [..[[g_1, g_2], g_3].., g_r]
    span L, or every index.  Memoized on the algebra.

    G is picked greedily among the basis vectors, each independent of L^2
    (the span of all products) and of those picked before; it is kept only
    if the closure of span G under the operators R_g, g in G, is all of L.
    A complement of L^2 always passes for a nilpotent Leibniz algebra; any
    other algebra may fall back to every index.  G is read off the closure
    words, the g of those with no parent.
    """
    return memo(algebra, _generators)


def _generators(algebra):
    return tuple(g for p, g, _ in generating_words(algebra) if p is None)


def generating_words(algebra):
    """The closure words behind generating_set: a basis of L, as a tuple of
    n words (parent, g, w), each w a read-only {index: (re, im)} map of ints.
    The first words are the e_g, g in G, with parent None; every later one
    is w = D * [w_parent, e_g], the image that enlarged the closure, with
    parent the position of an earlier word.  When G is every index the
    words are the e_g alone.  Memoized on the algebra."""
    return memo(algebra, _close)


def _close(algebra):
    # the one closure of span G under the R_g, which returns its words
    n = algebra.dim
    span = square_span(algebra).copy()   # the kept L^2 is shared and must not grow
    generators = tuple(g for g in range(n) if span.add_gaussian({g: (1, 0)}))
    closure = SparseEchelon(n)
    words = [(None, g, {g: (1, 0)}) for g in generators]
    for _, _, w in words:
        closure.add_gaussian(w)
    frontier = range(len(words))
    while frontier and len(closure) < n:
        # the images [w, e_g] of the words that last enlarged the closure,
        # up to the one that fills L
        start = len(words)
        for p, g in ((p, g) for p in frontier for g in generators):
            w = sparse_bracket(algebra, words[p][2], {g: (1, 0)})
            if closure.add_gaussian(w):
                words.append((p, g, w))
                if len(closure) == n:
                    break
        frontier = range(start, len(words))
    if len(closure) < n:
        generators = tuple(range(n))
        words = [(None, g, {g: (1, 0)}) for g in generators]
    return tuple((p, g, MappingProxyType(w)) for p, g, w in words)


def generator_operators(algebra, index):
    """index[g] for g in generating_set when the algebra is Leibniz and G is
    smaller than the basis, else index itself, for index the algebra's
    by_right or by_left: the operators that suffice for the central series
    and the annihilators (invariants module docstring)."""
    generators = generating_set(algebra)
    if len(generators) < algebra.dim and is_leibniz(algebra):
        return tuple(index[g] for g in generators)
    return index


def square_span(algebra):
    """L^2, the span of all products, as a SparseEchelon of the
    Gaussian-integer products.  Memoized on the algebra and shared by
    generating_set, the central series (as its level L^2) and the
    characteristic-sequence candidates: read it, or add to a copy()."""
    return memo(algebra, _square)


def _square(algebra):
    span = SparseEchelon(algebra.dim)
    for row in algebra.by_left:
        for product in row.values():
            span.add_gaussian(dict(product))
    return span


def require_leibniz(algebra):
    """NotLeibnizError unless is_leibniz, naming the least k whose R_{e_k}
    is not a derivation: the residual at (i, j, k) is R_{e_k}'s failure on
    (e_i, e_j).  first_non_derivation checks no map past that k."""
    if not is_leibniz(algebra):
        k = first_non_derivation(algebra, algebra.by_right)
        raise NotLeibnizError("R_%s is not a derivation; the algebra is not Leibniz" % algebra.labels[k])


def operator_columns(index, x):
    """Columns {c: ((k, (re, im)), ...)} of sum_j x_j index[j], none empty
    and none with a zero entry, for x an {index: (re, im)} map of ints with
    no zero entry, in O(nnz): the one operator builder.  index is an
    algebra's by_right or by_left, whose [j][c] is column c of D * R_{e_j}
    or of D * L_{e_j}, so the sum is D * R_x or D * L_x, in the form
    linalg.image_chain takes."""
    op = {}
    for j, (xr, xi) in x.items():
        for c, terms in index[j].items():
            add_multiple(op.setdefault(c, {}), xr, xi, terms)
    return {c: tuple(col.items()) for c, col in op.items() if col}


def right_operator(algebra, x):
    """Matrix of R_x : y -> [y, x] in the algebra's basis."""
    return _operator(algebra, x, algebra.by_right)


def left_operator(algebra, x):
    """Matrix of L_x : y -> [x, y] in the algebra's basis."""
    return _operator(algebra, x, algebra.by_left)


def _operator(algebra, x, index):
    # the columns operator_columns gives for d * x are D * d times the operator's
    n = algebra.dim
    d, x = _cleared(x, n)
    columns = operator_columns(index, x)
    dense = [scalar_vector(columns.get(c, ()), algebra.denominator * d, n) for c in range(n)]
    return Matrix(n, n, list(zip(*dense)))   # its rows: the columns transposed


def change_of_basis(algebra, p):
    """Transport the algebra along an invertible matrix P.

    Column j of P holds the old coordinates of the new basis vector u_j;
    the new constants satisfy [u, v]_new = P^-1 [P u, P v].  transport runs
    on M = d_P * P, whose constants are d_P times those along P, so these
    are formed in Gaussian integers over D * d_P * d_inv, d_inv that of M^-1.
    """
    if p.rows != algebra.dim or p.cols != algebra.dim:
        raise ValueError("change of basis matrix must be %d x %d" % (algebra.dim, algebra.dim))
    d_p, cols = p.gaussian_columns()
    d, table = transport(algebra, cols)   # SingularMatrixError when P is singular
    moved = from_table(algebra.labels, table, d * d_p)
    moved._source = sparser_source(algebra) or algebra   # one hop to the sparsest known
    return moved


def transport(algebra, cols):
    """(d, table): table {(i, j): {k: (re, im)}} of ints is d times the
    constants M^-1 [M u_i, M u_j], for M given by its columns u_j as
    {row: (re, im)} maps of ints; SingularMatrixError when M is singular.
    Only the nonzero products of D * gamma are walked, through the columns
    of D * L_{M u_i}; gaussian_inverse, which picks its own method, gives
    d_inv * M^-1, so d = D * d_inv.
    """
    d_inv, inv_cols = gaussian_inverse(cols)
    rows = [{} for _ in cols]   # row b of M: {j: M[b][j]}
    for j, col in enumerate(cols):
        for b, v in col.items():
            rows[b][j] = v
    cells = {}
    for i, x in enumerate(cols):
        # column b of D * L_{M u_i} is D * [M u_i, e_b]; cell (i, j) gains M[b][j] times it
        for b, terms in operator_columns(algebra.by_left, x).items():
            for j, (yr, yi) in rows[b].items():
                add_multiple(cells.setdefault((i, j), {}), yr, yi, terms)
    return algebra.denominator * d_inv, {key: gaussian_combination(inv_cols, cell)
                                         for key, cell in cells.items()}


def direct_sum(a, b):
    """Block-diagonal sum; colliding labels from b get primes appended."""
    labels = list(a.labels)
    used = set(labels)
    for lb in b.labels:
        new = lb
        while new in used:
            new += "'"
        labels.append(new)
        used.add(new)
    d = lcm(a.denominator, b.denominator)
    return from_table(labels, {(i + shift, j + shift): {k + shift: (x * s, y * s) for k, (x, y) in terms}
                               for shift, summand in ((0, a), (a.dim, b)) for s in (d // summand.denominator,)
                               for i, j, terms in summand._table()}, d)


# -- interchange format ----------------------------------------------------

def to_json_dict(algebra):
    labels = algebra.labels
    products = [{"left": labels[i], "right": labels[j],
                 "result": [[labels[k], c.render()] for k, c in terms]}
                for i, j, terms in algebra.products()]
    return {"dim": algebra.dim, "basis": list(labels), "products": products}


def from_json_dict(doc, where="<algebra>"):
    if not isinstance(doc, dict):
        raise FormatError("%s: expected a JSON object" % where)
    for field in ("dim", "basis"):
        if field not in doc:
            raise FormatError("%s: missing field '%s'" % (where, field))
    labels = doc["basis"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError("%s: 'basis' must be a list of labels" % where)
    if len(set(labels)) != len(labels):
        raise FormatError("%s: duplicate basis label" % where)
    if type(doc["dim"]) is not int:
        raise FormatError("%s: dim must be an integer, got %r" % (where, Echo(doc["dim"])))
    if doc["dim"] != len(labels):
        raise FormatError("%s: dim %r does not match %d basis labels"
                          % (where, Echo(doc["dim"]), len(labels)))
    index = {lb: k for k, lb in enumerate(labels)}
    products = doc.get("products", [])
    if not isinstance(products, list):
        raise FormatError("%s: 'products' must be a list" % where)

    def lookup(ctx, label):
        if not isinstance(label, str):
            raise FormatError("%s: labels must be strings, got %r" % (ctx, Echo(label)))
        if label not in index:
            raise FormatError("%s: unknown label '%s'" % (ctx, Echo(label)))
        return index[label]

    seen = set()
    terms = []
    for pos, prod in enumerate(products):
        ctx = "%s: products[%d]" % (where, pos)
        if not isinstance(prod, dict):
            raise FormatError("%s: expected an object" % ctx)
        for field in ("left", "right", "result"):
            if field not in prod:
                raise FormatError("%s: missing field '%s'" % (ctx, field))
        i = lookup(ctx, prod["left"])
        j = lookup(ctx, prod["right"])
        if (i, j) in seen:
            raise FormatError("%s: duplicate product (%s, %s)" % (ctx, Echo(labels[i]), Echo(labels[j])))
        seen.add((i, j))
        if not isinstance(prod["result"], list):
            raise FormatError("%s: 'result' must be a list of terms" % ctx)
        for term in prod["result"]:
            if not (isinstance(term, (list, tuple)) and len(term) == 2):
                raise FormatError("%s: result terms must be [label, coefficient] pairs" % ctx)
            label, coeff = term
            k = lookup(ctx, label)
            try:
                terms.append((i, j, k, parse_scalar(coeff)))
            except ScalarParseError as exc:
                raise FormatError("%s: %s" % (ctx, exc)) from None
    return from_terms(labels, terms)


def dumps(algebra):
    """Canonical byte-stable JSON text for the interchange format."""
    return json.dumps(to_json_dict(algebra), indent=2) + "\n"


def decode_json(text, where):
    """The JSON document in a file's text; FormatError on a decode error.

    Every interchange file (algebra, weights, certificate, map) is read
    through here, so all of them report a syntax error, a nesting too deep
    for the decoder and an integer literal too long for int() the same way.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("%s: line %d: %s" % (where, exc.lineno, exc.msg)) from None
    except RecursionError:
        raise FormatError("%s: JSON nested too deeply" % where) from None
    except ValueError as exc:  # more digits than int() converts
        raise FormatError("%s: %s" % (where, exc)) from None


def loads(text, where="<algebra>"):
    return from_json_dict(decode_json(text, where), where)


def read_text(path):
    """A file's text as UTF-8; FormatError naming the path if it is not."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError("%s: not valid UTF-8 text (%s at byte %d)"
                              % (path, exc.reason, exc.start)) from None


def load(path):
    return loads(read_text(path), where=str(path))


def save(algebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(algebra))
