"""Exact dense matrices and the elimination engine behind every dimension count.

SparseEchelon is the package's one elimination: ranks, kernels, spans,
Jordan types and gaussian_inverse all insert sparse rows into it.  It
keeps the reduced row echelon form of the rows so far, pivoting on the
lowest column a reduced row still has; the RREF of a span is unique, so
no result depends on the order in which rows arrive.  Its row operations run
fraction-free on Gaussian integers, (re, im) pairs of plain ints, with
each pivot row stored over a positive int lead (Bareiss, Math. Comp. 22,
1968, without the determinant bookkeeping); Scalars are made only when a
caller reads rows, a kernel or a residual.  The transport and the
certificate check apply maps in ints: gaussian_columns, gaussian_inverse,
gaussian_combination.

image_chain is the one descending-image loop, behind both the central
series and every Jordan type.  It is lazy: it yields each level before it
computes the next, so a caller that needs only the first ranks stops the
elimination there.  It hands each level's integer rows to the next.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import (
    ONE,
    ZERO,
    Scalar,
    as_scalar,
    common_denominator,
    from_gaussian,
    gaussian_parts,
)


class SingularMatrixError(ValueError):
    """Inversion was requested for a singular matrix."""


class NotNilpotentError(ValueError):
    """A nilpotent operator (or algebra) was required."""


class Matrix:
    """A rows x cols matrix of Scalars, stored as a list of row lists."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, entries):
        """entries: row-major flat sequence or nested rows; ints allowed."""
        if entries and not isinstance(entries[0], (list, tuple)):
            if len(entries) != rows * cols:
                raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
            nested = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
        else:
            nested = list(entries)
        if len(nested) != rows or any(len(row) != cols for row in nested):
            raise ValueError("matrix shape mismatch")
        self.rows = rows
        self.cols = cols
        self.data = [[v if type(v) is Scalar else as_scalar(v) for v in row] for row in nested]

    @classmethod
    def zero(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    def column(self, c):
        return [self.data[r][c] for r in range(self.rows)]

    def is_zero(self):
        return all(not v for row in self.data for v in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(row) for row in self.data)))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch in addition")
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch in subtraction")
        return Matrix(self.rows, self.cols,
                      [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def scale(self, factor):
        factor = as_scalar(factor)
        return Matrix(self.rows, self.cols, [[factor * v for v in row] for row in self.data])

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        out = Matrix.zero(self.rows, other.cols)
        for r in range(self.rows):
            row = self.data[r]
            orow = out.data[r]
            for k in range(self.cols):
                v = row[k]
                if not v:
                    continue
                brow = other.data[k]
                for c in range(other.cols):
                    w = brow[c]
                    if w:
                        orow[c] = orow[c] + v * w
        return out

    def flat(self):
        return [v for row in self.data for v in row]

    def gaussian_columns(self):
        """(d, columns): d the lcm of the denominators, and column c of d times
        the matrix as a {row: (re, im)} map of ints, zeros dropped."""
        d = common_denominator(self.flat())
        return d, [{r: gaussian_parts(row[c], d) for r, row in enumerate(self.data) if row[c]}
                   for c in range(self.cols)]

    def __repr__(self):
        body = "; ".join(" ".join(v.render() for v in row) for row in self.data)
        return "Matrix(%dx%d: %s)" % (self.rows, self.cols, body)


# -- vectors (plain lists of Scalars) -----------------------------------

def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


def as_vector(seq, n=None):
    v = [as_scalar(x) for x in seq]
    if n is not None and len(v) != n:
        raise ValueError("vector length %d != %d" % (len(v), n))
    return v


def sparse_vec(v):
    """{index: entry} map of the nonzero entries of a dense vector."""
    return {c: x for c, x in enumerate(v) if x}


def dense_vec(terms, n):
    """Dense length-n vector from an {index: entry} map."""
    out = [ZERO] * n
    for c, x in terms.items():
        out[c] = x
    return out


# -- elimination ---------------------------------------------------------

class SparseEchelon:
    """Incrementally maintained reduced row echelon form over Q(i), kept
    fraction-free on Gaussian integers.

    Rows go in as sparse {column: Scalar} dicts (add) or as sparse
    {column: (re, im)} dicts of ints (add_gaussian); zero entries are
    dropped and a row that reduces to nothing is ignored, so callers need
    not filter.  Each pivot row is stored as a positive multiple of its
    RREF row: (re, im) int pairs with no common factor, over a positive
    int lead, which fixes it uniquely.  So no row operation makes a Scalar
    or takes a gcd per entry.  A column index maps each non-pivot column
    to the pivot rows that hold it: add back-substitutes only into those
    rows, and kernel_basis reads them off.  pivot_rows, basis_rows,
    kernel_basis and reduce give exact Scalars, built when read; iterating
    an echelon gives its sparse RREF rows in pivot order, and len() is its
    rank.
    """

    __slots__ = ("ncols", "_rows", "_index")

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}   # pivot column -> {column: (re, im)}, lead entry (l, 0) with l > 0
        self._index = {}  # non-pivot column -> set of the pivot columns whose rows hold it

    @property
    def rank(self):
        return len(self._rows)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        rows = self._rows
        for pc in sorted(rows):
            row = rows[pc]
            lead = row[pc][0]
            yield {c: from_gaussian(x, y, lead) for c, (x, y) in row.items()}

    @property
    def pivot_rows(self):
        """{pivot column: sparse RREF row of Scalars}, built on each read."""
        return dict(zip(sorted(self._rows), self))

    def _reduce(self, row):
        """(m, m * row minus multiples of pivot rows) for a Gaussian-integer
        row: its residual times m, the least m > 0 that keeps every step in
        Z[i].  A pivot row has no other pivot column, so the row's entries
        in the pivot columns it hits fix every multiplier up front."""
        rows = self._rows
        out = {c: v for c, v in row.items() if v[0] or v[1]}
        hits = [c for c in out if c in rows]
        m = 1
        for c in hits:
            lead = rows[c][c][0]
            if lead != 1:
                fr, fi = out[c]
                m = lcm(m, lead // gcd(lead, fr, fi))
        if m != 1:
            out = {c: (x * m, y * m) for c, (x, y) in out.items()}
        for c in hits:
            prow = rows[c]
            fr, fi = out[c]
            lead = prow[c][0]
            if lead != 1:
                fr, fi = fr // lead, fi // lead
            _subtract_multiple(out, fr, fi, prow)
        return m, out

    def add_gaussian(self, row):
        """Insert a row of (re, im) int pairs; True when it enlarged the span."""
        res = self._reduce(row)[1]
        if not res:
            return False
        lead = min(res)
        a, b = res[lead]
        if b or a < 0:
            # times the conjugate of the lead, which becomes a^2 + b^2 > 0
            res = {c: (x * a + y * b, y * a - x * b) for c, (x, y) in res.items()}
        res = _primitive(res, lead)
        rows, index = self._rows, self._index
        for c in res:
            if c != lead:
                index.setdefault(c, set()).add(lead)
        top = res[lead][0]
        for pc in index.pop(lead, ()):
            # prow <- (top/g) prow - (f/g) res clears prow's entry f at lead
            prow = rows[pc]
            fr, fi = prow[lead]
            if top != 1:
                g = gcd(top, fr, fi)
                fr, fi, s = fr // g, fi // g, top // g
                if s != 1:
                    prow = rows[pc] = {c: (x * s, y * s) for c, (x, y) in prow.items()}
            _subtract_multiple(prow, fr, fi, res)
            for c in res:
                if c in prow:
                    index[c].add(pc)
                elif c != lead:
                    index[c].discard(pc)
            if prow[pc][0] != 1:
                rows[pc] = _primitive(prow, pc)
        rows[lead] = res
        return True

    def add(self, row):
        """Insert a row of Scalars; True when it enlarged the span."""
        return self.add_gaussian(gaussian_row(row)[1])

    def reduce(self, row):
        """The residual of a row of Scalars after eliminating every pivot
        column: the row minus its RREF combination, as a sparse dict."""
        d, row = gaussian_row(row)
        m, out = self._reduce(row)
        d *= m
        return {c: from_gaussian(x, y, d) for c, (x, y) in out.items()}

    def contains(self, row):
        return self.contains_gaussian(gaussian_row(row)[1])

    def contains_gaussian(self, row):
        """Whether a row of (re, im) int pairs lies in the span."""
        return not self._reduce(row)[1]

    def basis_rows(self):
        """Dense RREF rows, sorted by pivot column."""
        return [dense_vec(row, self.ncols) for row in self]

    def kernel_basis(self):
        """One kernel vector per free column, in column order."""
        rows, index = self._rows, self._index
        vecs = []
        for f in range(self.ncols):
            if f in rows:
                continue
            v = [ZERO] * self.ncols
            v[f] = ONE
            for pc in index.get(f, ()):
                x, y = rows[pc][f]
                v[pc] = from_gaussian(-x, -y, rows[pc][pc][0])
            vecs.append(v)
        return vecs


def gaussian_row(row):
    """(d, d * row as (re, im) int pairs) for a sparse row of Scalars, d the
    lcm of its denominators; zero entries are dropped."""
    row = {c: v for c, v in row.items() if v}
    d = common_denominator(row.values())
    return d, {c: gaussian_parts(v, d) for c, v in row.items()}


def gaussian_combination(columns, coefficients):
    """sum_c coefficients[c] * columns[c] as an {index: (re, im)} map, zeros
    dropped: columns are those of a square matrix as {row: (re, im)} maps,
    and coefficients a {c: (re, im)} map, all of ints."""
    if not coefficients:
        return {}
    re, im = [0] * len(columns), [0] * len(columns)
    for c, (ar, ai) in coefficients.items():
        for r, (br, bi) in columns[c].items():
            re[r] += ar * br - ai * bi
            im[r] += ar * bi + ai * br
    return {r: (x, y) for r, (x, y) in enumerate(zip(re, im)) if x or y}


def _subtract_multiple(out, fr, fi, row):
    """out -= (fr + fi*i) * row in place, dropping the entries that cancel."""
    get = out.get
    for c, (x, y) in row.items():
        pr, pi = fr * x - fi * y, fr * y + fi * x
        o = get(c)
        if o is None:
            out[c] = (-pr, -pi)
        else:
            nr, ni = o[0] - pr, o[1] - pi
            if nr or ni:
                out[c] = (nr, ni)
            else:
                del out[c]


def _primitive(row, lead):
    """row divided by the gcd of all its parts; a lead entry (1, 0) at
    column lead settles it at once."""
    g = row[lead][0]
    if g == 1:
        return row
    for x, y in row.values():
        g = gcd(g, x, y)
        if g == 1:
            return row
    return {c: (x // g, y // g) for c, (x, y) in row.items()}


def span_echelon(vectors, ncols):
    ech = SparseEchelon(ncols)
    for v in vectors:
        ech.add(sparse_vec(v))
    return ech


def rank(m):
    """Exact rank by incremental elimination."""
    return span_echelon(m.data, m.cols).rank


def kernel_basis(m):
    """Echelonized basis of {v : m.v = 0}; size is cols - rank."""
    return span_echelon(m.data, m.cols).kernel_basis()


def gaussian_inverse(m):
    """(d, columns) of d * m^-1 as gaussian_columns gives them, read off the
    Gaussian-integer pivot rows of the RREF of [m | I]; raises
    SingularMatrixError.

    The rows of [m | I] are independent, so the RREF has n rows; m is
    invertible iff their pivots are the n left columns, and then the right
    half is m^-1.  Pivot row r is primitive over its lead l_r, so l_r is the
    least denominator of row r of m^-1 and d = lcm(l_r) that of all of it.
    """
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    n = m.rows
    rows = span_echelon([row + basis_vec(n, r) for r, row in enumerate(m.data)], 2 * n)._rows
    if any(c not in rows for c in range(n)):
        raise SingularMatrixError("matrix is singular")
    d = lcm(*(rows[r][r][0] for r in range(n)))
    cols = [{} for _ in range(n)]
    for r in range(n):
        s = d // rows[r][r][0]
        for c, (x, y) in rows[r].items():
            if c >= n:
                cols[c - n][r] = (x * s, y * s)
    return d, cols


def image_chain(n, operators):
    """Levels V_0 = Q(i)^n, V_{k+1} = sum_T T(V_k), each a SparseEchelon
    yielded before the next is computed, ending with the first level of
    rank 0 or of the rank before it.  An operator maps a column to the terms
    of its image, {column: ((row, entry), ...)}, the form of
    Algebra.by_right[j]; its entries are all Scalars or all (re, im) int
    pairs.  Scaling an operator leaves every T(V) unchanged, so a Scalar
    operator is cleared of its denominators once, and each level is formed
    from the Gaussian-integer pivot rows of the last: no Scalar is made
    until a caller reads a level's rows.
    """
    operators = [_gaussian_operator(op) for op in operators]
    level = SparseEchelon(n)
    level._rows = {c: {c: (1, 0)} for c in range(n)}
    yield level
    while True:
        ech = SparseEchelon(n)
        add = ech.add_gaussian
        for v in level._rows.values():
            for op in operators:
                w = {}
                get = w.get
                for c, (ar, ai) in v.items():
                    for r, (br, bi) in op.get(c, ()):
                        pr, pi = ar * br - ai * bi, ar * bi + ai * br
                        o = get(r)
                        w[r] = (pr, pi) if o is None else (o[0] + pr, o[1] + pi)
                if w:
                    add(w)
        before = len(level)
        level = ech
        yield level
        if not level or len(level) == before:
            return


def _gaussian_operator(op):
    """op with (re, im) int entries: a Scalar operator times the lcm of its denominators."""
    entries = [b for terms in op.values() for _, b in terms]
    if not entries or not isinstance(entries[0], Scalar):
        return op
    d = common_denominator(entries)
    return {c: tuple((r, gaussian_parts(b, d)) for r, b in terms) for c, terms in op.items()}


def partition_of_ranks(ranks):
    """Jordan block sizes, weakly decreasing, from the ranks r_k = dim im(T^k)
    as image_chain ends them: r_{k-1} - 2 r_k + r_{k+1} blocks of size k.  A
    last rank above 0 is rank(T^n), and T is rejected as not nilpotent.
    """
    if ranks[-1]:
        raise NotNilpotentError("matrix is not nilpotent: rank(m^%d) = %d" % (ranks[0], ranks[-1]))
    ranks = list(ranks) + [0]  # r_{m+1} = 0 past the nilindex m, now len(ranks) - 2
    parts = []
    for k in range(len(ranks) - 2, 0, -1):
        parts.extend([k] * (ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]))
    return tuple(parts)


def jordan_type(columns):
    """Jordan type of the nilpotent operator with sparse columns {row: entry}."""
    op = {c: tuple(col.items()) for c, col in enumerate(columns) if col}
    return partition_of_ranks([len(level) for level in image_chain(len(columns), (op,))])


def nilpotent_partition(m):
    """Jordan block sizes of a nilpotent matrix; no power of m is formed."""
    if m.rows != m.cols:
        raise NotNilpotentError("nilpotent_partition needs a square matrix")
    return jordan_type([sparse_vec(m.column(c)) for c in range(m.cols)])
