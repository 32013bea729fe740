"""Independent reference computations used to pin expected values.

Everything here deliberately avoids the package's elimination engine:
plain dense Gaussian elimination over Scalars, explicit matrix powers,
and a finite-difference assembly of the derivation constraints.
"""

from leibnizkit.core import bracket
from leibnizkit.linalg import Matrix, basis_vec
from leibnizkit.scalars import Scalar, ZERO


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
