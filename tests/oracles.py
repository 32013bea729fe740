"""Independent reference computations used to pin expected values.

Everything here but oracle_inner_outside_der deliberately avoids the
package's elimination engine: plain dense Gaussian elimination over
Scalars, explicit matrix powers, and a finite-difference assembly of the
derivation constraints.  oracle_inner_outside_der tests the assembly of
derivation_space, so it may use SparseEchelon for span membership.
OracleQi is Q(i) arithmetic on a pair of Fractions, independent of the
integer representation inside Scalar.  oracle_diagonal_gradation is the
plain backtracking gradation search, without forward checking.
"""

from fractions import Fraction

from leibnizkit.core import bracket
from leibnizkit.gradations import WeightAssignment
from leibnizkit.linalg import Matrix, SparseEchelon, basis_vec, sparse_vec
from leibnizkit.scalars import Scalar, ZERO


class OracleQi:
    """re + im*i with re, im reduced Fractions; + - * / straight from the definitions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def of(cls, value):
        if isinstance(value, OracleQi):
            return value
        if isinstance(value, Scalar):
            return cls(value.re, value.im)
        return cls(value)

    def __add__(self, other):
        other = OracleQi.of(other)
        return OracleQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = OracleQi.of(other)
        return OracleQi(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return OracleQi(-self.re, -self.im)

    def __mul__(self, other):
        other = OracleQi.of(other)
        return OracleQi(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = OracleQi.of(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        return OracleQi((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)

    def __eq__(self, other):
        other = OracleQi.of(other)
        return self.re == other.re and self.im == other.im

    def __repr__(self):
        return "OracleQi(%s, %s)" % (self.re, self.im)


def oracle_rank(rows):
    """Dense row reduction, full scan per column."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for r in range(nrows):
            if r == rank or not m[r][col]:
                continue
            f = m[r][col] / lead
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def oracle_matrix_rank(m):
    return oracle_rank(m.data)


def oracle_partition(m):
    """Jordan type of a nilpotent matrix from the rank chain of its powers."""
    n = m.rows
    ranks = [n]
    power = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        power[i][i] = Scalar(1)
    while ranks[-1] > 0:
        nxt = [[ZERO] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                acc = ZERO
                for k in range(n):
                    acc = acc + power[r][k] * m.data[k][c]
                nxt[r][c] = acc
        power = nxt
        ranks.append(oracle_rank(power))
        assert len(ranks) <= n + 2, "matrix is not nilpotent"
    ranks.extend([0] * (n + 2 - len(ranks)))
    parts = []
    for k in range(1, n + 1):
        parts.extend([k] * (ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]))
    return tuple(sorted(parts, reverse=True))


def oracle_residual(algebra):
    """Right-Leibniz residual triples straight from the definition.

    Entry m of the residual at (i, j, k) is
    sum_t g(j,k,t) g(i,t,m) - g(i,j,t) g(t,k,m) + g(i,k,t) g(t,j,m), with
    g(a,b,c) the e_c coordinate of [e_a, e_b] read from gamma; every
    triple is visited, in lexicographic order.
    """
    n = algebra.dim

    def g(a, b, c):
        vec = algebra.gamma.get((a, b))
        return ZERO if vec is None else vec[c]

    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = []
                for m in range(n):
                    acc = ZERO
                    for t in range(n):
                        acc = acc + g(j, k, t) * g(i, t, m) - g(i, j, t) * g(t, k, m) \
                            + g(i, k, t) * g(t, j, m)
                    res.append(acc)
                if any(res):
                    out.append((i, j, k, res))
    return out


def oracle_series_dims(algebra):
    """Dimensions of the descending central sequence by brute-force spans."""
    n = algebra.dim
    current = [basis_vec(n, i) for i in range(n)]
    dims = [n]
    while True:
        products = []
        for u in current:
            for j in range(n):
                products.append(bracket(algebra, u, basis_vec(n, j)))
        d = oracle_rank(products) if products else 0
        if d == 0 or d == dims[-1]:
            return tuple(dims) if d == 0 else tuple(dims) + ("stuck",)
        dims.append(d)
        # re-span: keep an explicit generating set for the next level
        current = [p for p in products if any(p)]


def oracle_der_dim(algebra):
    """dim Der via residual columns of the elementary matrices."""
    n = algebra.dim
    cols = []
    for r in range(n):
        for c in range(n):
            e = Matrix.zero(n, n)
            e.data[r][c] = Scalar(1)
            ecols = [e.column(j) for j in range(n)]
            resid = []
            for i in range(n):
                for j in range(n):
                    lhs = e.mul_vec(list(algebra.gamma_vec(i, j)))
                    t1 = bracket(algebra, ecols[i], basis_vec(n, j))
                    t2 = bracket(algebra, basis_vec(n, i), ecols[j])
                    resid.extend(a - b - d for a, b, d in zip(lhs, t1, t2))
            cols.append(resid)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(len(cols[0]))]
    return n * n - oracle_rank(rows)


def oracle_inner_dim(algebra):
    """dim of the span of the right operators, by dense elimination."""
    from leibnizkit.core import right_operator

    n = algebra.dim
    rows = [right_operator(algebra, basis_vec(n, i)).flat() for i in range(n)]
    return oracle_rank(rows)


def oracle_inner_outside_der(algebra, der):
    """Labels e_k whose R_{e_k} lies outside the span of der's basis.

    Empty whenever der is Der(L) of a Leibniz algebra, as every R_z is then
    a derivation.  R_{e_k} is read straight from gamma: its entry (r, c) is
    the e_r coordinate of [e_c, e_k].
    """
    n = algebra.dim
    span = SparseEchelon(n * n)
    for m in der.basis:
        span.add(sparse_vec(m.flat()))
    outside = []
    for k in range(n):
        r_k = {}
        for c in range(n):
            for r, v in enumerate(algebra.gamma_vec(c, k)):
                if v:
                    r_k[r * n + c] = v
        if not span.contains(r_k):
            outside.append(algebra.labels[k])
    return outside


def oracle_diagonal_gradation(algebra, max_abs=None):
    """The plain backtracking search for a diagonal maximum-length gradation.

    Same contract as gradations.search_diagonal_gradation (intervals in the
    offset order |a-1|, ties toward a >= 1; values ascending per position),
    but a product is checked only once its last index has a weight, with no
    forward checking, so the first hit is the reference answer.
    """
    d = algebra.dim
    if max_abs is None:
        max_abs = 2 * d
    if max_abs < 1:
        raise ValueError("max_abs must be >= 1")
    if d == 0 or d > 2 * max_abs + 1:
        return None
    constraints = []
    for i, row in enumerate(algebra.by_left):
        for j, terms in row.items():
            if len(terms) > 1:
                return None
            constraints.append((i, j, terms[0][0]))
    # constraints checked at the position where their last index is placed
    by_position = [[] for _ in range(d)]
    for (i, j, k) in constraints:
        by_position[max(i, j, k)].append((i, j, k))

    offsets = sorted(range(-max_abs, max_abs - d + 2),
                     key=lambda a: (abs(a - 1), 0 if a >= 1 else 1))
    for a in offsets:
        values = list(range(a, a + d))
        found = _oracle_search_interval(by_position, d, values)
        if found is not None:
            return WeightAssignment(found)
    return None


def _oracle_search_interval(by_position, d, values):
    w = [None] * d
    used = [False] * d

    def place(pos):
        for vi, value in enumerate(values):
            if used[vi]:
                continue
            w[pos] = value
            ok = all(w[i] + w[j] == w[k] for (i, j, k) in by_position[pos])
            if ok:
                used[vi] = True
                if pos + 1 == d:
                    return True
                if place(pos + 1):
                    return True
                used[vi] = False
        w[pos] = None
        return False

    if place(0):
        return list(w)
    return None
