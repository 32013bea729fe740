"""Algebras presented by structure constants, and the bracket machinery.

An Algebra is an ordered basis of labels plus a sparse read-only map
gamma[(i, j)] -> coordinates of [e_i, e_j]; no operation modifies one.  The
bracket convention is right-Leibniz throughout: gamma rows index the left
argument, columns the right argument, and the identity checked by
leibniz_residual is

    [x, [y, z]] = [[x, y], z] - [[x, z], y].

require_leibniz is the package's one Leibniz guard.  The constructor also
indexes gamma once: each nonzero product becomes a tuple of (k, c) terms
with c != 0, reachable by its left factor (by_left[i][j]) and by its right
factor (by_right[j][i]).  Every bracket loop in the package goes through
this index, so its cost follows the nonzero products rather than dim^3.

Only this module builds gamma's dense coordinate tuples.  Everything else
writes a table as (left, right, result, coefficient) terms through
from_terms (the catalog builders, the file loader, direct_sum and gr L)
and reads one through by_left or products(); iso.verify_certificate alone
reads gamma_vec, to stay independent of change_of_basis.

Since the tables never change, two results are memoized on the algebra:
leibniz_residual remembers that the residual is empty (a non-empty one is
recomputed, so every caller gets its own list), and
invariants.central_series keeps its immutable SeriesReport.  Equality,
hashing and key() ignore both slots.  Concurrent use needs no locking:
threads that race to fill a slot compute and store equal values.
"""

from __future__ import annotations

import json
from types import MappingProxyType

from .linalg import Matrix, as_vector, dense_vec, inverse, sparse_vec
from .scalars import ONE, ZERO, Echo, ScalarParseError, as_scalar, parse_scalar


class FormatError(ValueError):
    """An algebra / weights / certificate file failed to parse."""


class NotLeibnizError(ValueError):
    """The operation requires an algebra with empty Leibniz residual."""


class Algebra:
    """Finite-dimensional algebra over Q(i) given by structure constants."""

    __slots__ = ("dim", "labels", "gamma", "by_left", "by_right", "_leibniz", "_series")

    def __init__(self, labels, gamma):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        dim = len(labels)
        clean = {}
        by_left = [{} for _ in range(dim)]
        by_right = [{} for _ in range(dim)]
        for (i, j), vec in gamma.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("product index (%d,%d) out of range for dim %d" % (i, j, dim))
            v = tuple(as_scalar(x) for x in vec)
            if len(v) != dim:
                raise ValueError("product (%d,%d) has %d coordinates, need %d" % (i, j, len(v), dim))
            terms = tuple((k, c) for k, c in enumerate(v) if c)
            if terms:
                clean[(i, j)] = v
                by_left[i][j] = by_right[j][i] = terms
        self.dim = dim
        self.labels = labels
        self.gamma = MappingProxyType(clean)
        self.by_left = tuple(by_left)
        self.by_right = tuple(by_right)
        self._leibniz = False   # memo: the residual was found empty
        self._series = None     # memo: invariants.central_series

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError("unknown basis label %r" % (label,)) from None

    def gamma_vec(self, i, j):
        """Coordinates of [e_i, e_j]; a zero tuple when the product is absent."""
        v = self.gamma.get((i, j))
        if v is None:
            return (ZERO,) * self.dim
        return v

    def products(self):
        """(i, j, terms) per nonzero product, in lexicographic (i, j) order."""
        return [(i, j, row[j]) for i, row in enumerate(self.by_left) for j in sorted(row)]

    def key(self):
        """Hashable canonical form, for caching in tests and tools."""
        return (self.labels, tuple(sorted(self.gamma.items())))

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.labels == other.labels and self.gamma == other.gamma

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Algebra(dim=%d, products=%d)" % (self.dim, len(self.gamma))


def from_terms(labels, terms):
    """The algebra whose products are sums of (left, right, result, c) terms.

    Indices are basis positions and c a scalar: [e_left, e_right] gains
    c * e_result.  Terms of one product add up, and a product whose terms
    cancel is absent.  This is the one builder of structure constants from
    terms: the catalog tables, the file loader, direct_sum and gr L all
    hand their products to it.
    """
    dim = len(labels)
    gamma = {}
    for i, j, k, c in terms:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError("term index (%d,%d,%d) out of range for dim %d" % (i, j, k, dim))
        if c:
            vec = gamma.get((i, j))
            if vec is None:
                vec = gamma[(i, j)] = [ZERO] * dim
            vec[k] = vec[k] + c
    return Algebra(labels, gamma)


# -- bracket -------------------------------------------------------------

def sparse_bracket(algebra, x, y):
    """[x, y] for x, y given as {index: coefficient} maps; same form out.

    The single bracket kernel: it walks the products adjacent to the
    smaller argument, so brackets with a basis vector touch one row or
    column of gamma only.
    """
    out = {}
    if len(x) <= len(y):
        for i, a in x.items():
            for j, terms in algebra.by_left[i].items():
                b = y.get(j)
                if b:
                    c = a * b
                    for k, g in terms:
                        out[k] = out.get(k, ZERO) + c * g
    else:
        for j, b in y.items():
            for i, terms in algebra.by_right[j].items():
                a = x.get(i)
                if a:
                    c = a * b
                    for k, g in terms:
                        out[k] = out.get(k, ZERO) + c * g
    return {k: v for k, v in out.items() if v}


def bracket(algebra, x, y):
    """Bilinear extension of gamma: the product [x, y]."""
    x = as_vector(x, algebra.dim)
    y = as_vector(y, algebra.dim)
    return dense_vec(sparse_bracket(algebra, sparse_vec(x), sparse_vec(y)), algebra.dim)


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
    """
    acc = {}
    for j, row in enumerate(algebra.by_left):
        for k, g_jk in row.items():
            for t, c in g_jk:
                for i, g_it in algebra.by_right[t].items():
                    res = acc.setdefault((i, j, k), {})      # + [e_i, [e_j, e_k]]
                    for m, w in g_it:
                        res[m] = res.get(m, ZERO) + c * w
    for i, row in enumerate(algebra.by_left):
        for j, g_ij in row.items():
            for t, c in g_ij:
                for k, g_tk in algebra.by_left[t].items():
                    minus = acc.setdefault((i, j, k), {})    # - [[e_i, e_j], e_k]
                    plus = acc.setdefault((i, k, j), {})     # + [[e_i, e_j], e_k] at (i, k, j)
                    for m, w in g_tk:
                        p = c * w
                        minus[m] = minus.get(m, ZERO) - p
                        plus[m] = plus.get(m, ZERO) + p
    n = algebra.dim
    return [key + (dense_vec(acc[key], n),) for key in sorted(acc) if any(acc[key].values())]


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
    x = sparse_vec(as_vector(x, algebra.dim))
    return _from_columns([sparse_bracket(algebra, {c: ONE}, x) for c in range(algebra.dim)])


def left_operator(algebra, x):
    """Matrix of L_x : y -> [x, y] in the algebra's basis."""
    x = sparse_vec(as_vector(x, algebra.dim))
    return _from_columns([sparse_bracket(algebra, x, {c: ONE}) for c in range(algebra.dim)])


def _from_columns(cols):
    m = Matrix.zero(len(cols))
    for c, col in enumerate(cols):
        for k, v in col.items():
            m.data[k][c] = v
    return m


def change_of_basis(algebra, p):
    """Transport the algebra along an invertible matrix P.

    Column j of P holds the old coordinates of the new basis vector u_j;
    the new constants satisfy [u, v]_new = P^-1 [P u, P v].
    """
    if p.rows != algebra.dim or p.cols != algebra.dim:
        raise ValueError("change of basis matrix must be %d x %d" % (algebra.dim, algebra.dim))
    p_inv = inverse(p)  # raises SingularMatrixError when P is singular
    n = algebra.dim
    cols = [sparse_vec(p.column(j)) for j in range(n)]
    gamma = {}
    for i in range(n):
        for j in range(n):
            w = sparse_bracket(algebra, cols[i], cols[j])
            if not w:
                continue
            coords = p_inv.mul_vec(dense_vec(w, n))
            if any(coords):
                gamma[(i, j)] = tuple(coords)
    return Algebra(algebra.labels, gamma)


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
