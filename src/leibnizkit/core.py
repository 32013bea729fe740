"""Algebras presented by structure constants, and the bracket machinery.

An Algebra is an immutable value: an ordered basis of labels plus a sparse
map gamma[(i, j)] -> coordinates of [e_i, e_j].  The bracket convention is
right-Leibniz throughout: gamma rows index the left argument, columns the
right argument, and the identity checked by leibniz_residual is

    [x, [y, z]] = [[x, y], z] - [[x, z], y].

The constructor also indexes gamma once: each nonzero product becomes a
tuple of (k, c) terms with c != 0, reachable by its left factor
(by_left[i][j]) and by its right factor (by_right[j][i]).  Every bracket
loop in the package goes through this index, so its cost follows the
nonzero products rather than dim^3.
"""

from __future__ import annotations

import json

from .linalg import Matrix, as_vector, dense_vec, inverse, sparse_vec, zero_vec
from .scalars import ONE, ZERO, ScalarParseError, as_scalar, parse_scalar


class FormatError(ValueError):
    """An algebra / weights / certificate file failed to parse."""


class Algebra:
    """Finite-dimensional algebra over Q(i) given by structure constants."""

    __slots__ = ("dim", "labels", "gamma", "by_left", "by_right")

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
        self.gamma = clean
        self.by_left = by_left
        self.by_right = by_right

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
        """Nonzero basis products in lexicographic (i, j) order."""
        return sorted(self.gamma.items())

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
    an empty list means the algebra is a Leibniz algebra.  Terms are
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
    n = a.dim + b.dim
    gamma = {}
    for (i, j), vec in a.gamma.items():
        gamma[(i, j)] = tuple(vec) + (ZERO,) * b.dim
    for (i, j), vec in b.gamma.items():
        gamma[(i + a.dim, j + a.dim)] = (ZERO,) * a.dim + tuple(vec)
    return Algebra(labels, gamma)


# -- interchange format ----------------------------------------------------

def to_json_dict(algebra):
    products = []
    for (i, j), vec in algebra.products():
        terms = [[algebra.labels[k], c.render()] for k, c in enumerate(vec) if c]
        products.append({
            "left": algebra.labels[i],
            "right": algebra.labels[j],
            "result": terms,
        })
    return {"dim": algebra.dim, "basis": list(algebra.labels), "products": products}


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
        raise FormatError("%s: dim must be an integer, got %r" % (where, doc["dim"]))
    if doc["dim"] != len(labels):
        raise FormatError("%s: dim %r does not match %d basis labels" % (where, doc["dim"], len(labels)))
    index = {lb: k for k, lb in enumerate(labels)}
    dim = len(labels)
    products = doc.get("products", [])
    if not isinstance(products, list):
        raise FormatError("%s: 'products' must be a list" % where)

    def lookup(ctx, label):
        if not isinstance(label, str):
            raise FormatError("%s: labels must be strings, got %r" % (ctx, label))
        if label not in index:
            raise FormatError("%s: unknown label '%s'" % (ctx, label))
        return index[label]

    gamma = {}
    for pos, prod in enumerate(products):
        ctx = "%s: products[%d]" % (where, pos)
        if not isinstance(prod, dict):
            raise FormatError("%s: expected an object" % ctx)
        for field in ("left", "right", "result"):
            if field not in prod:
                raise FormatError("%s: missing field '%s'" % (ctx, field))
        i = lookup(ctx, prod["left"])
        j = lookup(ctx, prod["right"])
        if (i, j) in gamma:
            raise FormatError("%s: duplicate product (%s, %s)" % (ctx, prod["left"], prod["right"]))
        if not isinstance(prod["result"], list):
            raise FormatError("%s: 'result' must be a list of terms" % ctx)
        vec = zero_vec(dim)
        for term in prod["result"]:
            if not (isinstance(term, (list, tuple)) and len(term) == 2):
                raise FormatError("%s: result terms must be [label, coefficient] pairs" % ctx)
            label, coeff = term
            k = lookup(ctx, label)
            try:
                c = parse_scalar(coeff)
            except ScalarParseError as exc:
                raise FormatError("%s: %s" % (ctx, exc)) from None
            vec[k] = vec[k] + c
        gamma[(i, j)] = tuple(vec)
    return Algebra(labels, gamma)


def dumps(algebra):
    """Canonical byte-stable JSON text for the interchange format."""
    return json.dumps(to_json_dict(algebra), indent=2) + "\n"


def decode_json(text, where):
    """The JSON document in a file's text; FormatError on a decode error.

    Every interchange file (algebra, weights, certificate, map) is read
    through here, so all of them report a syntax error the same way.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("%s: line %d: %s" % (where, exc.lineno, exc.msg)) from None


def loads(text, where="<algebra>"):
    return from_json_dict(decode_json(text, where), where)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), where=str(path))


def save(algebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(algebra))
