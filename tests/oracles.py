"""Independent reference computations used to pin expected values.

Everything here but oracle_inner_outside_der, oracle_residual
and oracle_derivation_space deliberately avoids the package's elimination
engine: plain dense Gaussian elimination over Scalars, explicit matrix
powers, and a finite-difference assembly of the derivation constraints.
oracle_inner_outside_der tests the assembly of derivation_space, so it
may use SparseEchelon for span membership.  oracle_residual and
oracle_derivation_space are the loops over every basis triple and every
basis pair that core.is_leibniz and cohomology.derivation_space trim to a
generating set (derivation_space also solves only for the d(e_g)); they
read the algebra's Gaussian-integer table (denominator, by_left,
by_right), and the Der system is eliminated by SparseEchelon.
oracle_word_relations forms the identity E(w_k, g) on every closure word
and generator in derivation_space's unknowns, on Scalars, with the maps
d_u built along the words and moved to the basis by the dense inverse.
oracle_is_derivation checks the derivation identity pair by pair with two
core.sparse_bracket calls each, where cohomology.is_derivation asks the one
yes/no derivation check, core.first_non_derivation.  oracle_residual_by_definition sums the
residual from gamma over every index, with no sparse table at all.
OracleQi is Q(i) arithmetic on a pair of Fractions, independent of the
integer representation inside Scalar.  oracle_diagonal_gradation is the
plain backtracking gradation search, without forward checking.
inverse is dense Gauss-Jordan elimination on Scalars, the reference for
linalg.gaussian_inverse, the round-trip tests and the Scalar transport below.
oracle_series is the central series as the image chain of every right
operator R_{e_j} from Q(i)^n, with dense bases: the loop that
invariants._series replaces, on a Leibniz algebra with a certified
generating set G, by the R_g with g in G from L^2 on.
oracle_right_annihilator and oracle_center eliminate all n^2 equations of
each side, the coordinates of [e_a, x] and [x, e_a], on Scalars, where
invariants imposes only the generators' operators at L^2's pivot columns
(oracle_square_pivots); oracle_kernel_maps solves for the maps of
invariants._kernel_maps in the same way, with every equation in all n
coordinates.
oracle_characteristic_sequence is the characteristic-sequence loop without
the dominance cut and the ceiling: it runs nilpotent_partition to the end
on every candidate that oracle_charseq_candidates draws.
OracleEchelon is the incremental RREF on Scalars, with a leading 1 per
pivot row and a scan of every pivot row on back-substitution: the engine
that linalg.SparseEchelon's fraction-free Gaussian-integer rows replace.
oracle_bracket sums the product terms on Scalars, without the
Gaussian-integer kernel core.sparse_bracket; oracle_change_of_basis and
oracle_verify_certificate are the Scalar transport and certificate check
that core.change_of_basis and iso.verify_certificate replace, and
oracle_natural_graded is gr L moved along a dense Scalar P of lifts read off
oracle_series by oracle_change_of_basis, where invariants.natural_graded
runs core.transport on Gaussian-integer columns.
add_row and in_span hand a sparse row of Scalars to a SparseEchelon, which
takes Gaussian-integer rows only, through linalg.gaussian_row.  dense_vec
places the Scalars of an {index: Scalar} map in a dense vector, without
linalg.scalar_vector's read-out of integer rows; unit is the dense basis
vector e_i.  oracle_graded_derivation_split is the weight split of Der
on its basis Matrices, each weight's components ranked by dense
elimination, where gradations.graded_derivation_split splits the sparse
integer rows of a DerivationSpace into one SparseEchelon per weight.
"""

import random
from fractions import Fraction
from itertools import combinations

from leibnizkit.cohomology import DerivationSpace
from leibnizkit.core import (
    bracket,
    from_terms,
    generating_set,
    generating_words,
    require_leibniz,
    sparse_bracket,
)
from leibnizkit.gradations import WeightAssignment
from leibnizkit.invariants import CharSeq, central_series
from leibnizkit.iso import CertificateReport
from leibnizkit.linalg import (
    Matrix,
    NotNilpotentError,
    SingularMatrixError,
    SparseEchelon,
    gaussian_combination,
    gaussian_row,
    image_chain,
    nilpotent_partition,
    sparse_vec,
)
from leibnizkit.scalars import ONE, Scalar, ZERO, from_gaussian


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


def unit(n, i):
    """The basis vector e_i of Q(i)^n, a dense list of Scalars."""
    v = [ZERO] * n
    v[i] = ONE
    return v


def dense_vec(terms, n):
    """Dense length-n vector from an {index: entry} map."""
    out = [ZERO] * n
    for c, x in terms.items():
        out[c] = x
    return out


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


def oracle_graded_derivation_split(assignment, matrices):
    """{weight: dim} of the span of the weight components of n x n
    Matrices, entry (r, c) of weight w[r] - w[c], sorted by weight."""
    w = assignment.weights
    parts = {}
    for m in matrices:
        components = {}
        for r, row in enumerate(m.data):
            for c, v in enumerate(row):
                if v:
                    components.setdefault(w[r] - w[c], {})[r * m.cols + c] = v
        for weight, comp in components.items():
            parts.setdefault(weight, []).append(dense_vec(comp, m.rows * m.cols))
    return {weight: oracle_rank(rows) for weight, rows in sorted(parts.items())}


def mul_vec(m, vec):
    """The product of a Matrix and a dense vector, entry by entry on Scalars."""
    if len(vec) != m.cols:
        raise ValueError("vector length %d != cols %d" % (len(vec), m.cols))
    out = [ZERO] * m.rows
    for c, v in enumerate(vec):
        if not v:
            continue
        for r in range(m.rows):
            w = m.data[r][c]
            if w:
                out[r] = out[r] + w * v
    return out


def inverse(m):
    """Inverse of a square matrix as a Matrix of Scalars, by dense
    Gauss-Jordan elimination of [m | I]; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    n = m.rows
    aug = [list(row) + unit(n, r) for r, row in enumerate(m.data)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return Matrix(n, n, [row[n:] for row in aug])


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


def oracle_residual_by_definition(algebra):
    """Right-Leibniz residual triples straight from the definition.

    Entry m of the residual at (i, j, k) is
    sum_t g(j,k,t) g(i,t,m) - g(i,j,t) g(t,k,m) + g(i,k,t) g(t,j,m), with
    g(a,b,c) the e_c coordinate of [e_a, e_b] read from gamma; every
    triple is visited, in lexicographic order.
    """
    n = algebra.dim
    gamma = algebra.gamma

    def g(a, b, c):
        vec = gamma.get((a, b))
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
    current = [unit(n, i) for i in range(n)]
    dims = [n]
    while True:
        products = []
        for u in current:
            for j in range(n):
                products.append(bracket(algebra, u, unit(n, j)))
        d = oracle_rank(products) if products else 0
        if d == 0 or d == dims[-1]:
            return tuple(dims) if d == 0 else tuple(dims) + ("stuck",)
        dims.append(d)
        # re-span: keep an explicit generating set for the next level
        current = [p for p in products if any(p)]


def oracle_series(algebra):
    """(subspace_bases, dims, nilindex) of the central series from the image
    chain of all the right operators R_{e_j}, started at Q(i)^n, whatever
    the generating set: every level's RREF as dense tuples of Scalars."""
    levels = list(image_chain(algebra.dim, algebra.by_right))
    last = levels.pop()
    bases = tuple(tuple(tuple(dense_vec(row, algebra.dim)) for row in level) for level in levels)
    return bases, tuple(len(level) for level in levels), None if last else len(levels)


def oracle_der_dim(algebra):
    """dim Der via residual columns of the elementary matrices."""
    n = algebra.dim
    gamma, zero = algebra.gamma, [ZERO] * n
    cols = []
    for r in range(n):
        for c in range(n):
            e = Matrix.zero(n, n)
            e.data[r][c] = Scalar(1)
            ecols = [e.column(j) for j in range(n)]
            resid = []
            for i in range(n):
                for j in range(n):
                    lhs = mul_vec(e, list(gamma.get((i, j), zero)))
                    t1 = bracket(algebra, ecols[i], unit(n, j))
                    t2 = bracket(algebra, unit(n, i), ecols[j])
                    resid.extend(a - b - d for a, b, d in zip(lhs, t1, t2))
            cols.append(resid)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(len(cols[0]))]
    return n * n - oracle_rank(rows)


def oracle_inner_dim(algebra):
    """dim of the span of the right operators, by dense elimination."""
    from leibnizkit.core import right_operator

    n = algebra.dim
    rows = [right_operator(algebra, unit(n, i)).flat() for i in range(n)]
    return oracle_rank(rows)


def oracle_inner_outside_der(algebra, der):
    """Labels e_k whose R_{e_k} lies outside the span of der's basis.

    Empty whenever der is Der(L) of a Leibniz algebra, as every R_z is then
    a derivation.  R_{e_k} is read straight from gamma: its entry (r, c) is
    the e_r coordinate of [e_c, e_k].
    """
    n = algebra.dim
    gamma = algebra.gamma
    span = SparseEchelon(n * n)
    for m in der.basis:
        add_row(span, sparse_vec(m.flat()))
    outside = []
    for k in range(n):
        r_k = {}
        for c in range(n):
            for r, v in enumerate(gamma.get((c, k), ())):
                if v:
                    r_k[r * n + c] = v
        if not in_span(span, r_k):
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


def oracle_characteristic_sequence(algebra, trials=20, seed=1, right_type=None):
    """invariants.characteristic_sequence without the dominance cut and the
    ceiling: the same candidates in the same order, the full Jordan type of
    every R_x, and the first lexicographic maximum with its witness.
    right_type(x), if given, is oracle_right_type(algebra, x) kept."""
    best = None
    witness = None
    for x in oracle_charseq_candidates(algebra, trials, seed):
        parts = right_type(x) if right_type else oracle_right_type(algebra, x)
        if best is None or parts > best:
            best = parts
            witness = tuple(dense_vec(x, algebra.dim))
    return CharSeq(best or (), witness or ())


def oracle_charseq_candidates(algebra, trials=20, seed=1):
    """Every candidate of the characteristic-sequence search, in order, as
    sparse {index: Scalar} maps: basis vectors outside L^2, their pairwise
    sums, then `trials` seeded draws outside L^2."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    series = central_series(algebra)
    if not series.is_nilpotent:
        raise NotNilpotentError("characteristic sequence needs a nilpotent algebra")
    n = algebra.dim
    if n == 0:
        return []
    l2 = OracleEchelon(n)
    for v in series.subspace_bases[1] if len(series.subspace_bases) > 1 else ():
        l2.add(sparse_vec(v))
    outside = [i for i in range(n) if not l2.contains({i: ONE})]

    candidates = [{i: ONE} for i in outside]
    candidates += [{a: ONE, b: ONE} for a, b in combinations(outside, 2)]
    rng = random.Random(seed)
    wanted = len(candidates) + trials
    while len(candidates) < wanted:
        v = sparse_vec([Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)])
        if not l2.contains(v):
            candidates.append(v)
    return candidates


def oracle_right_type(algebra, x):
    """Jordan type of R_x, x a sparse {index: Scalar} map, from its columns
    [e_c, x] summed on Scalars."""
    n = algebra.dim
    cols = [oracle_bracket(algebra, unit(n, c), dense_vec(x, n)) for c in range(n)]
    return nilpotent_partition(Matrix(n, n, [[col[r] for col in cols] for r in range(n)]))


def _oracle_apply(images, x, n):
    """V x as a dense Scalar vector, for the linear map V with the images
    V e_j, {index: (re, im)} maps of ints, and x an {index: Scalar} map."""
    out = [ZERO] * n
    for j, xj in x.items():
        for c, (re, im) in images[j].items():
            out[c] = out[c] + xj * Scalar(re, im)
    return out


def oracle_kernel_map_holds(algebra, images, seed, samples=3):
    """Whether [V x, x] = 0, V x in the kernel of R_x, at `samples` seeded
    random x of small Gaussian integers, on dense Scalars through
    oracle_bracket; V as _oracle_apply takes it."""
    n = algebra.dim
    rng = random.Random(seed)
    for _ in range(samples):
        x = {c: Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for c in range(n)}
        if any(oracle_bracket(algebra, _oracle_apply(images, x, n), dense_vec(x, n))):
            return False
    return True


def oracle_kernel_rank(maps, x, n):
    """Rank of the V x, V over maps, by dense Scalar row reduction."""
    return oracle_rank([_oracle_apply(images, x, n) for images in maps])


def oracle_square_pivots(algebra):
    """The pivot columns of L^2, the span of every product, by OracleEchelon
    on the Scalar products."""
    ech = OracleEchelon(algebra.dim)
    for _, _, terms in algebra.products():
        ech.add(dict(terms))
    return sorted(ech.pivot_rows)


def _oracle_annihilator_echelon(algebra, sides):
    """OracleEchelon of all n^2 equations per side: for each basis vector
    e_a and coordinate k, the e_k coordinate of [e_a, x] (side "left") or
    of [x, e_a] (side "right") in the unknown x, from oracle_bracket."""
    n = algebra.dim
    ech = OracleEchelon(n)
    for side in sides:
        for a in range(n):
            images = [oracle_bracket(algebra, *((unit(n, a), unit(n, c)) if side == "left"
                                                else (unit(n, c), unit(n, a)))) for c in range(n)]
            for k in range(n):
                ech.add({c: image[k] for c, image in enumerate(images)})
    return ech


def oracle_right_annihilator(algebra):
    """R(L) = {x : [y, x] = 0 for all y}: the kernel_basis of the n^2
    equations [e_a, x] = 0, coordinate by coordinate, on Scalars."""
    return _oracle_annihilator_echelon(algebra, ("left",)).kernel_basis()


def oracle_center(algebra):
    """Cent(L) = {z : [x, z] = [z, x] = 0 for all x}: the kernel_basis of
    the 2 n^2 equations of both sides, on Scalars."""
    return _oracle_annihilator_echelon(algebra, ("left", "right")).kernel_basis()


def oracle_kernel_maps(algebra):
    """(C, maps) of invariants._kernel_maps on Scalars, every equation in all
    n coordinates: C the pivot columns of Ann_l = {v : [v, e_a] = 0 for all
    a}; per j a kernel_basis of R_{e_j} on span(e_C); then one kernel
    vector per map V of the pair equations [V e_j, e_k] + [V e_k, e_j] = 0,
    j < k, in those kernel vectors.  Each map is the tuple of its images
    V e_j as dense Scalar vectors."""
    n = algebra.dim
    pivots = sorted(_oracle_annihilator_echelon(algebra, ("right",)).pivot_rows)
    ws, blocks = [], []
    for j in range(n):
        images = [oracle_bracket(algebra, unit(n, c), unit(n, j)) for c in pivots]
        ech = OracleEchelon(len(pivots))
        for k in range(n):
            ech.add({t: image[k] for t, image in enumerate(images)})
        kernel = ech.kernel_basis()
        blocks.append(range(len(ws), len(ws) + len(kernel)))
        ws += [dense_vec({pivots[t]: v for t, v in enumerate(vec)}, n) for vec in kernel]
    brackets = [[oracle_bracket(algebra, w, unit(n, k)) for k in range(n)] for w in ws]
    ech = OracleEchelon(len(ws))
    for k in range(n):
        for j in range(k):
            for r in range(n):
                row = {u: brackets[u][k][r] for u in blocks[j]}
                row.update({u: brackets[u][j][r] for u in blocks[k]})
                ech.add(row)
    maps = [tuple([sum((c[u] * ws[u][i] for u in block), ZERO) for i in range(n)] for block in blocks)
            for c in ech.kernel_basis()]
    return pivots, maps


_viewed = [None, ()]   # the last algebra oracle_bracket read, and its products()


def oracle_bracket(algebra, x, y):
    """[x, y] of dense Scalar vectors, summed over every product term of the
    algebra on Scalars: no Gaussian-integer table, no bracket kernel.  Each
    products() call makes its Scalar view afresh, and the oracles bracket
    on one table many times in a row, so the last one's view is kept."""
    if _viewed[0] is not algebra:
        _viewed[:] = algebra, algebra.products()
    out = [ZERO] * algebra.dim
    for i, j, terms in _viewed[1]:
        c = x[i] * y[j]
        if c:
            for k, g in terms:
                out[k] = out[k] + c * g
    return out


def oracle_change_of_basis(algebra, p):
    """core.change_of_basis on Scalars: [u, v]_new = P^-1 [P u, P v] with
    every bracket and every product by P^-1 formed entry by entry."""
    if p.rows != algebra.dim or p.cols != algebra.dim:
        raise ValueError("change of basis matrix must be %d x %d" % (algebra.dim, algebra.dim))
    p_inv = inverse(p)
    n = algebra.dim
    cols = [p.column(j) for j in range(n)]
    terms = []
    for i in range(n):
        for j in range(n):
            w = oracle_bracket(algebra, cols[i], cols[j])
            if any(w):
                terms.extend((i, j, k, x) for k, x in enumerate(mul_vec(p_inv, w)) if x)
    return from_terms(algebra.labels, terms)


def oracle_natural_graded(algebra):
    """invariants.natural_graded on Scalars: the lifts are the rows of each
    oracle_series level whose pivot is no pivot of the next, as the columns
    of a dense Scalar P; oracle_change_of_basis moves the algebra along P,
    and gr L keeps the terms of degree deg a + deg b."""
    bases, _, nilindex = oracle_series(algebra)
    if nilindex is None:
        raise NotNilpotentError("natural gradation needs a nilpotent algebra")
    n = algebra.dim

    def pivot(v):
        return next(c for c, x in enumerate(v) if x)

    lifts, layer_of, dims = [], [], []
    for i, level in enumerate(bases):
        deeper = {pivot(v) for v in (bases[i + 1] if i + 1 < len(bases) else ())}
        layer = [v for v in level if pivot(v) not in deeper]
        dims.append(len(layer))
        lifts += layer
        layer_of += [i + 1] * len(layer)
    moved = oracle_change_of_basis(algebra, Matrix(n, n, [[v[r] for v in lifts] for r in range(n)]))
    terms = [(a, b, k, c) for a, b, product in moved.products() for k, c in product
             if layer_of[k] == layer_of[a] + layer_of[b]]
    return from_terms([algebra.labels[pivot(v)] for v in lifts], terms), tuple(dims)


def oracle_verify_certificate(cert):
    """iso.verify_certificate on Scalars: P gamma_a(i, j) against
    [P e_i, P e_j]_b as dense vectors, the first mismatch in (i, j) order."""
    a, b, p = cert.source, cert.target, cert.map
    n = a.dim
    if oracle_matrix_rank(p) != n:
        return CertificateReport(False, "singular map")
    cols = [p.column(j) for j in range(n)]
    gamma = a.gamma
    for i in range(n):
        for j in range(n):
            lhs = mul_vec(p, gamma.get((i, j), (ZERO,) * n))
            rhs = oracle_bracket(b, cols[i], cols[j])
            if any(x - y for x, y in zip(lhs, rhs)):
                reason = "bracket mismatch at (%s, %s)" % (a.labels[i], a.labels[j])
                return CertificateReport(False, reason, pair=(i, j))
    return CertificateReport(True)


def add_row(ech, row):
    """SparseEchelon.add_gaussian of a sparse {column: Scalar} row."""
    return ech.add_gaussian(gaussian_row(row)[1])


def in_span(ech, row):
    """Whether a sparse {column: Scalar} row lies in a SparseEchelon's span."""
    return ech.contains_gaussian(gaussian_row(row)[1])


class OracleEchelon:
    """Incrementally maintained reduced row echelon form over Q(i), on Scalars.

    Rows are sparse {column: Scalar} dicts; add() drops zero entries and
    ignores a row that reduces to nothing.  Pivot rows keep a leading 1 and
    no entry in any other pivot column, so reduce() is a one-pass
    membership test and kernel_basis() reads straight off the free columns.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivot_rows = {}  # pivot column -> reduced row dict

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, row):
        """The residual of row after eliminating all pivot columns."""
        out = {c: v for c, v in row.items() if v}
        for c in [c for c in out if c in self.pivot_rows]:
            f = out.pop(c)
            for pc, pv in self.pivot_rows[c].items():
                if pc == c:
                    continue
                nv = out.get(pc, ZERO) - f * pv
                if nv:
                    out[pc] = nv
                else:
                    out.pop(pc, None)
        return out

    def add(self, row):
        """Insert a row; returns True when it enlarged the span."""
        res = self.reduce(row)
        if not res:
            return False
        lead = min(res)
        inv = ONE / res[lead]
        new_row = {c: inv * v for c, v in res.items()}
        new_row[lead] = ONE
        for prow in self.pivot_rows.values():
            f = prow.get(lead)
            if f is None:
                continue
            del prow[lead]
            for c, v in new_row.items():
                if c == lead:
                    continue
                nv = prow.get(c, ZERO) - f * v
                if nv:
                    prow[c] = nv
                else:
                    prow.pop(c, None)
        self.pivot_rows[lead] = new_row
        return True

    def contains(self, row):
        return not self.reduce(row)

    def basis_rows(self):
        """Dense RREF rows, sorted by pivot column."""
        return [dense_vec(self.pivot_rows[pc], self.ncols) for pc in sorted(self.pivot_rows)]

    def kernel_basis(self):
        """One kernel vector per free column, in column order."""
        vecs = []
        for f in range(self.ncols):
            if f in self.pivot_rows:
                continue
            v = [ZERO] * self.ncols
            v[f] = ONE
            for pc, prow in self.pivot_rows.items():
                w = prow.get(f)
                if w is not None:
                    v[pc] = -w
            vecs.append(v)
        return vecs


def oracle_residual(algebra):
    """The full residual loop, every triple summed, where core.is_leibniz
    asks core.first_non_derivation about the R_g, g in the generating set,
    and core.leibniz_residual runs core.derivation_defects on every R_{e_k}.
    Terms come only from products that exist, [e_i, [e_j, e_k]] from
    gamma_jk and by_right and [[e_i, e_j], e_k] from gamma_ij and by_left,
    where it is the second term of (i, j, k) and the third of (i, k, j), on
    D * gamma; each nonzero entry is a Scalar over D^2."""
    d, by_left, by_right = algebra.denominator, algebra.by_left, algebra.by_right
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


def oracle_derivation_space(algebra):
    """The Der system that cohomology.derivation_space reparametrizes: the
    derivation identity imposed on all dim^2 basis pairs in all dim^2
    matrix entries, read off the algebra's Gaussian-integer table and
    eliminated by SparseEchelon, whose kernel vectors are the basis."""
    require_leibniz(algebra)
    n = algebra.dim
    by_left, by_right = algebra.by_left, algebra.by_right
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
    return DerivationSpace(n, ech.gaussian_kernel())


def oracle_word_relations(algebra):
    """The derivation identity E(w_k, g) = d([w_k, e_g]) - [d w_k, e_g] -
    [w_k, d e_g] on every closure word w_k and generator g, as its nonzero
    coordinate forms in the unknowns of cohomology.derivation_space, dense
    Scalar vectors: {(k, g): {coordinate: form}}.  The unknown r * |G| + s is the
    e_r coordinate of d(e_g), g the s-th generator.  For each unit u, d_u
    is built on Scalars along the words, d(w) = D * ([d w_p, e_g] +
    [w_p, d e_g]) for w = D * [w_p, e_g], and moved to the basis by the
    inverse of the words' matrix; every bracket is oracle_bracket's."""
    n = algebra.dim
    generators = generating_set(algebra)
    m = len(generators)
    big_d = Scalar(algebra.denominator)
    words = generating_words(algebra)
    w_vecs = [dense_vec({c: Scalar(*v) for c, v in w.items()}, n) for _, _, w in words]
    w_inv = inverse(Matrix(n, n, [[w[r] for w in w_vecs] for r in range(n)]))
    zero = [ZERO] * n
    maps = []   # per unknown: (d of each word, d of each basis vector)
    for j in range(n * m):
        r, s = divmod(j, m)
        d_gen = {g: (unit(n, r) if t == s else zero) for t, g in enumerate(generators)}
        d_words = []
        for p, g, _ in words:
            if p is None:
                d_words.append(d_gen[g])
                continue
            a = oracle_bracket(algebra, d_words[p], unit(n, g))
            b = oracle_bracket(algebra, w_vecs[p], d_gen[g])
            d_words.append([big_d * (x + y) for x, y in zip(a, b)])
        d_basis = [[sum((d_words[k][c] * w_inv.data[k][i] for k in range(n)), ZERO) for c in range(n)]
                   for i in range(n)]
        maps.append((d_words, d_basis))
    relations = {}
    for k, w in enumerate(w_vecs):
        for g in generators:
            wg = oracle_bracket(algebra, w, unit(n, g))
            values = []   # per unknown, E(w_k, g) as a dense vector
            for d_words, d_basis in maps:
                d_wg = [sum((d_basis[i][c] * x for i, x in enumerate(wg) if x), ZERO) for c in range(n)]
                a = oracle_bracket(algebra, d_words[k], unit(n, g))
                b = oracle_bracket(algebra, w, d_basis[g])
                values.append([x - y - z for x, y, z in zip(d_wg, a, b)])
            forms = {c: [v[c] for v in values] for c in range(n)}
            relations[(k, g)] = {c: f for c, f in forms.items() if any(f)}
    return relations


def oracle_is_derivation(algebra, m):
    """Exact check of d([e_i,e_j]) = [d e_i, e_j] + [e_i, d e_j] on all pairs,
    on Gaussian integers: the table D * gamma and the columns of d_m * m scale
    all three terms by D * d_m."""
    n = algebra.dim
    by_left = algebra.by_left
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
