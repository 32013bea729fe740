"""Algebras presented by structure constants, and the bracket machinery.

An Algebra is an ordered basis of labels plus its nonzero products
[e_i, e_j]; no operation modifies one.  The bracket convention is
right-Leibniz throughout: the left argument indexes the rows, the right
argument the columns, and the identity checked by leibniz_residual is

    [x, [y, z]] = [[x, y], z] - [[x, z], y].

require_leibniz is the package's one Leibniz guard.  The products are
stored once, as sparse terms: each nonzero product is a tuple of (k, c)
terms with c != 0, sorted by k, reachable by its left factor
(by_left[i][j]) and by its right factor (by_right[j][i]).  Every bracket
loop goes through this index, so its cost follows the nonzero products.

Only from_terms and the dense adapter Algebra(labels, gamma) build an
Algebra, and both run the one term accumulator.  The catalog builders,
the file loader, change_of_basis, direct_sum and gr L all write terms
through from_terms; gamma is a dense read-only view built on each read.

Since the tables never change, three results are memoized on the
algebra: leibniz_residual remembers that the residual is empty (a
non-empty one is recomputed, so every caller gets its own list),
invariants.central_series keeps its immutable SeriesReport, and
gaussian_table keeps D times the structure constants as (re, im) int
pairs, D the lcm of their denominators.  The residual, the Der and Inn
systems, the annihilators, every image chain and sparse_bracket, the one
bracket kernel, run on that table, and its callers make Scalars only of
their results.  Equality, hashing and key() ignore all three slots.
Concurrent use needs no locking: threads that race to fill a slot compute
and store equal values.
"""

from __future__ import annotations

import json
from types import MappingProxyType

from .linalg import Matrix, as_vector, dense_vec, gaussian_combination, gaussian_row, inverse
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

    __slots__ = ("dim", "labels", "by_left", "by_right", "_leibniz", "_series", "_gaussian")

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
        """Index the sums of (i, j, k, c) terms: the one table builder."""
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
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
        by_left = [{} for _ in range(dim)]
        by_right = [{} for _ in range(dim)]
        for (i, j), row in sums.items():
            prod = tuple(sorted((k, c) for k, c in row.items() if c))
            if prod:
                by_left[i][j] = by_right[j][i] = prod
        self.dim = dim
        self.labels = labels
        self.by_left = tuple(by_left)
        self.by_right = tuple(by_right)
        self._leibniz = False   # memo: the residual was found empty
        self._series = None     # memo: invariants.central_series
        self._gaussian = None   # memo: gaussian_table

    @property
    def gamma(self):
        """Read-only dense view (i, j) -> coordinates of [e_i, e_j], built on each read."""
        return MappingProxyType({(i, j): tuple(dense_vec(dict(terms), self.dim))
                                 for i, j, terms in self.products()})

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError("unknown basis label %r" % (label,)) from None

    def products(self):
        """(i, j, terms) per nonzero product, in lexicographic (i, j) order."""
        return [(i, j, row[j]) for i, row in enumerate(self.by_left) for j in sorted(row)]

    def key(self):
        """Hashable canonical form, for caching in tests and tools."""
        return (self.labels, tuple(self.products()))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.labels == other.labels and self.by_left == other.by_left

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Algebra(dim=%d, products=%d)" % (self.dim, len(self.products()))


def from_terms(labels, terms):
    """The algebra whose products are sums of (left, right, result, c) terms.

    Indices are basis positions and c a scalar: [e_left, e_right] gains
    c * e_result.  Terms of one product add up, and a product whose terms
    cancel is absent.  This is the one builder of structure constants from
    terms: the catalog tables, the file loader, change_of_basis, direct_sum
    and gr L all hand their products to it.
    """
    algebra = Algebra.__new__(Algebra)
    algebra._accumulate(labels, terms)
    return algebra


# -- bracket -------------------------------------------------------------

def sparse_bracket(algebra, x, y):
    """D * [x, y] for x, y given as {index: (re, im)} maps of ints; same form out.

    The single bracket kernel.  It runs on the Gaussian-integer table D * gamma
    of gaussian_table, so for x and y cleared of denominators dx and dy it
    gives D * dx * dy times the true bracket.  It walks the products adjacent
    to the smaller argument, so brackets with a basis vector touch one row or
    column of the table only.
    """
    _, by_left, by_right = gaussian_table(algebra)
    # [e_i, e_j] is by_left[i][j] = by_right[j][i], and Z[i] is commutative
    outer, inner, index = (x, y, by_left) if len(x) <= len(y) else (y, x, by_right)
    out = {}
    for i, (ar, ai) in outer.items():
        for j, terms in index[i].items():
            b = inner.get(j)
            if b is not None:
                cr, ci = ar * b[0] - ai * b[1], ar * b[1] + ai * b[0]
                for k, (gr, gi) in terms:
                    o = out.get(k, (0, 0))
                    out[k] = (o[0] + cr * gr - ci * gi, o[1] + cr * gi + ci * gr)
    return {k: v for k, v in out.items() if v[0] or v[1]}


def _cleared(vector, n):
    """(d, d * vector as an {index: (re, im)} map) for a dense Scalar vector."""
    return gaussian_row(dict(enumerate(as_vector(vector, n))))


def _scalars(terms, d):
    """{index: Scalar} from Gaussian-integer terms over a common denominator d."""
    return {k: from_gaussian(re, im, d) for k, (re, im) in terms.items()}


def bracket(algebra, x, y):
    """Bilinear extension of gamma: the product [x, y]."""
    (dx, x), (dy, y) = _cleared(x, algebra.dim), _cleared(y, algebra.dim)
    d = gaussian_table(algebra)[0] * dx * dy
    return dense_vec(_scalars(sparse_bracket(algebra, x, y), d), algebra.dim)


def leibniz_residual(algebra):
    """All basis triples violating the right-Leibniz identity.

    Returns (i, j, k, residual) in lexicographic order, with residual =
    [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j] as a dense vector;
    an empty list means the algebra is a Leibniz algebra.  An empty result
    is memoized on the algebra; a non-empty one is computed afresh.
    """
    if algebra._leibniz:
        return []
    residual = _residual(algebra)
    if not residual:
        algebra._leibniz = True
    return residual


def _residual(algebra):
    """The residual triples of leibniz_residual, always computed.  Terms are
    accumulated only from products that exist: [e_i, [e_j, e_k]] from
    gamma_jk and by_right, and [[e_i, e_j], e_k] from gamma_ij and by_left,
    where it is the second term of (i, j, k) and the third of (i, k, j).
    The sums run on the Gaussian-integer table D * gamma; the residual is
    quadratic in gamma, so each nonzero entry is a Scalar over D^2.
    """
    d, by_left, by_right = gaussian_table(algebra)
    acc = {}
    for j, row in enumerate(by_left):
        for k, g_jk in row.items():
            for t, (cr, ci) in g_jk:
                for i, g_it in by_right[t].items():
                    res = acc.setdefault((i, j, k), {})      # + [e_i, [e_j, e_k]]
                    for m, (wr, wi) in g_it:
                        o = res.get(m, (0, 0))
                        res[m] = (o[0] + cr * wr - ci * wi, o[1] + cr * wi + ci * wr)
    for i, row in enumerate(by_left):
        for j, g_ij in row.items():
            for t, (cr, ci) in g_ij:
                for k, g_tk in by_left[t].items():
                    minus = acc.setdefault((i, j, k), {})    # - [[e_i, e_j], e_k]
                    plus = acc.setdefault((i, k, j), {})     # + [[e_i, e_j], e_k] at (i, k, j)
                    for m, (wr, wi) in g_tk:
                        pr, pi = cr * wr - ci * wi, cr * wi + ci * wr
                        o = minus.get(m, (0, 0))
                        minus[m] = (o[0] - pr, o[1] - pi)
                        o = plus.get(m, (0, 0))
                        plus[m] = (o[0] + pr, o[1] + pi)
    n, dd = algebra.dim, d * d
    out = []
    for key in sorted(acc):
        terms = {m: from_gaussian(x, y, dd) for m, (x, y) in acc[key].items() if x or y}
        if terms:
            out.append(key + (dense_vec(terms, n),))
    return out


def gaussian_table(algebra):
    """(D, by_left, by_right): D times the structure constants, D the lcm of
    their denominators, indexed as the algebra's by_left and by_right with
    each coefficient an (re, im) pair of ints.  Built once and memoized.

    The Der system is linear in gamma, so D * gamma has the same solutions;
    the series and the Jordan types read images only, which scaling keeps.
    """
    table = algebra._gaussian
    if table is None:
        d = common_denominator([c for row in algebra.by_left for terms in row.values() for _, c in terms])
        by_left = tuple({j: tuple((k, gaussian_parts(c, d)) for k, c in terms) for j, terms in row.items()}
                        for row in algebra.by_left)
        by_right = tuple({i: by_left[i][j] for i in column} for j, column in enumerate(algebra.by_right))
        algebra._gaussian = table = (d, by_left, by_right)
    return table


def require_leibniz(algebra):
    """NotLeibnizError unless the residual is empty, naming the least k whose
    R_{e_k} is not a derivation: the residual at (i, j, k) is R_{e_k}'s
    failure on (e_i, e_j)."""
    residual = leibniz_residual(algebra)
    if residual:
        k = min(t[2] for t in residual)
        raise NotLeibnizError("R_%s is not a derivation; the algebra is not Leibniz" % algebra.labels[k])


def right_operator(algebra, x):
    """Matrix of R_x : y -> [y, x] in the algebra's basis."""
    d, x = _cleared(x, algebra.dim)
    return _from_columns(algebra, d, [sparse_bracket(algebra, {c: (1, 0)}, x) for c in range(algebra.dim)])


def left_operator(algebra, x):
    """Matrix of L_x : y -> [x, y] in the algebra's basis."""
    d, x = _cleared(x, algebra.dim)
    return _from_columns(algebra, d, [sparse_bracket(algebra, x, {c: (1, 0)}) for c in range(algebra.dim)])


def _from_columns(algebra, d, cols):
    # cols are D * d times the operator's columns
    d *= gaussian_table(algebra)[0]
    return Matrix(algebra.dim, algebra.dim, [[from_gaussian(*col.get(k, (0, 0)), d) for col in cols]
                                             for k in range(algebra.dim)])


def change_of_basis(algebra, p):
    """Transport the algebra along an invertible matrix P.

    Column j of P holds the old coordinates of the new basis vector u_j;
    the new constants satisfy [u, v]_new = P^-1 [P u, P v].  P and P^-1 are
    cleared of their denominators d_P and d_inv once each, and every
    coefficient is formed in Gaussian integers over D * d_P^2 * d_inv.
    """
    if p.rows != algebra.dim or p.cols != algebra.dim:
        raise ValueError("change of basis matrix must be %d x %d" % (algebra.dim, algebra.dim))
    d_inv, inv_cols = inverse(p).gaussian_columns()  # SingularMatrixError when P is singular
    d_p, cols = p.gaussian_columns()
    d = gaussian_table(algebra)[0] * d_p * d_p * d_inv
    n = algebra.dim
    terms = []
    for i in range(n):
        for j in range(n):
            w = sparse_bracket(algebra, cols[i], cols[j])
            if w:
                w = _scalars(gaussian_combination(inv_cols, w), d)
                terms.extend((i, j, k, w[k]) for k in sorted(w))
    return from_terms(algebra.labels, terms)


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
    return from_terms(labels, [(i + shift, j + shift, k + shift, c)
                               for shift, summand in ((0, a), (a.dim, b))
                               for i, j, terms in summand.products() for k, c in terms])


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
