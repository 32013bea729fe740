"""Exact dense matrices and the elimination engine behind every dimension count.

SparseEchelon is the package's one elimination: ranks, kernels, spans,
Jordan types and gaussian_inverse's elimination insert rows into it.  It
keeps the reduced row echelon form of the rows so far, pivoting on the
lowest column a reduced row still has; the RREF of a span is unique, so
no result depends on the order in which rows arrive.  It takes Gaussian-
integer rows only, (re, im) pairs of plain ints, and runs fraction-free,
with each pivot row stored over a positive int lead (Bareiss, Math. Comp.
22, 1968, without the determinant bookkeeping); Scalars are made only when
a caller reads rows or a kernel.  Scalars are cleared in three places:
gaussian_row for a sparse row, Matrix.gaussian_columns for a matrix, and
core.Algebra._accumulate for structure constants; scalar_vector, their
inverse, is the one read-out of an integer row as a dense Scalar vector.
span_echelon is the one entry point for dense Scalar vectors, behind rank
and kernel_basis.  A kernel_basis is the RREF of the kernel with the column
order reversed, so reversed_rref gives it from any basis of the kernel.
gaussian_inverse, the one inverse, takes a matrix's Gaussian-integer
columns, as gaussian_columns gives them.  It picks its method from them:
columns with distinct pivots (gr L's lifts, most closure words) are solved
by substitution, any other matrix by elimination.  The transport and the
certificate check apply maps in ints: gaussian_columns, gaussian_inverse,
gaussian_combination.

add_multiple is the one Gaussian multiply-accumulate behind every sparse
integer loop, here, in core and in cohomology.  Its loop takes one of
two paths by coefficient, general (ai != 0) or real (ai == 0), each with
the same arithmetic and one contract: it walks the terms once, stores
only (re, im) int pairs and deletes each entry that cancels, so no
sparse map those loops return holds a zero entry.

image_chain is the one descending-image loop, behind both the central
series and every Jordan type.  It is lazy: it yields each level before it
computes the next, so a caller that needs only the first ranks stops the
elimination there.  It hands each level's integer rows to the next, and
it starts at the whole space or at a level the caller already holds (the
central series starts at L^2).
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
    def _of_scalars(cls, rows, cols, flat):
        """The matrix of a flat row-major list of Scalars, taken as they are:
        the per-entry check of __init__ is skipped, so the caller vouches
        that every entry is a Scalar."""
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.data = [flat[r * cols:(r + 1) * cols] for r in range(rows)]
        return m

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


def scalar_vector(terms, d, n):
    """The dense length-n list of Scalars (re + im*i)/d for (index, (re, im))
    terms of ints over an int d > 0, ZERO elsewhere: the one read-out of an
    integer row as Scalars, the inverse of gaussian_row."""
    out = [ZERO] * n
    for c, (re, im) in terms:
        out[c] = from_gaussian(re, im, d)
    return out


def add_multiple(out, ar, ai, terms):
    """out += (ar + ai*i) * terms in place, for an {index: (re, im)} map out
    and (index, (re, im)) terms of ints, deleting each entry that cancels:
    the one Gaussian multiply-accumulate.  With a nonzero coefficient and
    nonzero terms, an out that holds no zero entry keeps holding none.

    The loop takes one of two paths by coefficient, with the same
    arithmetic: the general one (ai != 0) takes the full complex product
    and the real one (ai == 0) takes (ar * x, ar * y).  Both walk terms
    once, store only (re, im) tuples of ints and delete each entry that
    cancels.  Most term updates have a real coefficient, even in a dense
    basis, where 72 % are real, so the real path skips half the products."""
    get = out.get
    if ai:
        for c, (x, y) in terms:
            pr, pi = ar * x - ai * y, ar * y + ai * x
            o = get(c)
            if o is None:
                out[c] = (pr, pi)
            else:
                nr, ni = o[0] + pr, o[1] + pi
                if nr or ni:
                    out[c] = (nr, ni)
                else:
                    del out[c]
    else:
        for c, (x, y) in terms:
            o = get(c)
            if o is None:
                out[c] = (ar * x, ar * y)
            else:
                nr, ni = o[0] + ar * x, o[1] + ar * y
                if nr or ni:
                    out[c] = (nr, ni)
                else:
                    del out[c]


# -- elimination ---------------------------------------------------------

class SparseEchelon:
    """Incrementally maintained reduced row echelon form over Q(i), kept
    fraction-free on Gaussian integers.

    Rows go in as sparse {column: (re, im)} dicts of ints (add_gaussian);
    zero entries are dropped and a row that reduces to nothing is ignored,
    so callers need not filter.  Each pivot row is stored as a positive
    multiple of its RREF row: (re, im) int pairs with no common factor,
    over a positive int lead, which fixes it uniquely.  So no row operation
    makes a Scalar or takes a gcd per entry.  A column index maps each
    non-pivot column to the pivot rows that hold it: add_gaussian
    back-substitutes only into those rows, and gaussian_kernel reads them
    off as integer rows.  basis_rows and kernel_basis give exact Scalars,
    built when read;
    iterating an echelon gives its sparse RREF rows in pivot order, and
    len() is its rank.
    """

    __slots__ = ("ncols", "_rows", "_index")

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}   # pivot column -> {column: (re, im)}, lead entry (l, 0) with l > 0
        self._index = {}  # non-pivot column -> set of the pivot columns whose rows hold it

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        rows = self._rows
        for pc in sorted(rows):
            row = rows[pc]
            lead = row[pc][0]
            yield {c: from_gaussian(x, y, lead) for c, (x, y) in row.items()}

    def _reduce(self, row):
        """m * row minus multiples of pivot rows, for a Gaussian-integer row:
        its residual times m, the least m > 0 that keeps every step in Z[i].
        A pivot row has no other pivot column, so the row's entries in the
        pivot columns it hits fix every multiplier up front."""
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
            add_multiple(out, -fr, -fi, prow.items())
        return out

    def add_gaussian(self, row):
        """Insert a row of (re, im) int pairs; True when it enlarged the span."""
        res = self._reduce(row)
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
            add_multiple(prow, -fr, -fi, res.items())
            for c in res:
                if c in prow:
                    index[c].add(pc)
                elif c != lead:
                    index[c].discard(pc)
            if prow[pc][0] != 1:
                rows[pc] = _primitive(prow, pc)
        rows[lead] = res
        return True

    def copy(self):
        """An echelon of the same span that can grow on its own: add_gaussian
        back-substitutes into the pivot rows in place, so they are copied."""
        new = SparseEchelon(self.ncols)
        new._rows = {pc: dict(row) for pc, row in self._rows.items()}
        new._index = {c: set(pcs) for c, pcs in self._index.items()}
        return new

    def gaussian_rows(self):
        """The pivot rows in pivot order, each a tuple of (column, (re, im))
        int pairs sorted by column: its lead (l, 0), l > 0, first, at its
        pivot column.  Row / l is the RREF row."""
        rows = self._rows
        return tuple(tuple(sorted(rows[pc].items())) for pc in sorted(rows))

    def contains_gaussian(self, row):
        """Whether a row of (re, im) int pairs lies in the span."""
        return not self._reduce(row)

    def basis_rows(self):
        """Dense RREF rows, sorted by pivot column."""
        rows = self._rows
        return [scalar_vector(rows[pc].items(), rows[pc][pc][0], self.ncols) for pc in sorted(rows)]

    def gaussian_kernel(self):
        """One kernel vector per free column f, in column order, as (d,
        terms): terms the (column, (re, im)) int pairs of d times the vector,
        sorted by column, with d > 0 and the entry at f (d, 0).  The
        vector is 1 at f, 0 at every other free column, and at a pivot
        column minus that pivot row's entry at f."""
        rows, index = self._rows, self._index
        out = []
        for f in range(self.ncols):
            if f in rows:
                continue
            pcs = sorted(index.get(f, ()))   # each below f: a row holds no column left of its pivot
            d = lcm(*(rows[pc][pc][0] for pc in pcs))
            terms = []
            for pc in pcs:
                x, y = rows[pc][f]
                s = d // rows[pc][pc][0]
                terms.append((pc, (-x * s, -y * s)))
            terms.append((f, (d, 0)))
            out.append((d, tuple(terms)))
        return out

    def kernel_basis(self):
        """One dense kernel vector per free column, in column order: the
        vectors of gaussian_kernel read out as Scalars."""
        return [scalar_vector(terms, d, self.ncols) for d, terms in self.gaussian_kernel()]


def reversed_rref(rows, ncols):
    """The RREF, with the column order reversed, of the span of rows given
    as {column: (re, im)} maps of ints: each row (l, terms), terms its
    (column, (re, im)) int pairs sorted by column and ending at its pivot,
    the last column it holds, with entry (l, 0), l > 0; terms / l is the
    RREF row.  The rows come by pivot ascending.  For a basis of a kernel
    they are the vectors of gaussian_kernel, the kernel_basis, of any
    echelon of that kernel's equations: the RREF of a span is unique."""
    last = ncols - 1
    ech = SparseEchelon(ncols)
    for row in rows:
        ech.add_gaussian({last - c: v for c, v in row.items()})
    return [(row[0][1][0], tuple((last - c, v) for c, v in reversed(row)))
            for row in reversed(ech.gaussian_rows())]


def gaussian_row(row):
    """(d, d * row as (re, im) int pairs) for a sparse row of Scalars, d the
    lcm of its denominators; zero entries are dropped."""
    row = {c: v for c, v in row.items() if v}
    d = common_denominator(row.values())
    return d, {c: gaussian_parts(v, d) for c, v in row.items()}


def gaussian_combination(columns, coefficients):
    """sum_c coefficients[c] * columns[c] as an {index: (re, im)} map with no
    zero entry: columns are those of a square matrix as {row: (re, im)}
    maps, and coefficients a {c: (re, im)} map, all of ints and none zero."""
    out = {}
    for c, (ar, ai) in coefficients.items():
        add_multiple(out, ar, ai, columns[c].items())
    return out


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
    """The SparseEchelon of dense Scalar vectors, each cleared by gaussian_row."""
    ech = SparseEchelon(ncols)
    for v in vectors:
        ech.add_gaussian(gaussian_row(sparse_vec(v))[1])
    return ech


def rank(m):
    """Exact rank by incremental elimination."""
    return len(span_echelon(m.data, m.cols))


def kernel_basis(m):
    """Echelonized basis of {v : m.v = 0}; size is cols - rank."""
    return span_echelon(m.data, m.cols).kernel_basis()


def gaussian_inverse(columns):
    """(d, columns of d * M^-1), d > 0 least, for the square matrix M with the
    given columns, {row: (re, im)} maps of ints as gaussian_columns gives
    them; raises SingularMatrixError.

    Columns with n distinct pivots, the lowest row each holds, make M lower
    triangular once ordered by pivot, and are solved by substitution: with
    m_j = p e_r + sum_{c > r} a_c e_c the column of pivot r, e_r =
    (m_j - sum a_c e_c) / p, from the last pivot up, each e_r over its own
    least denominator.  Any other M is eliminated: the RREF of the rows of
    [M^T | I] (column c of M beside e_c) has n rows, pivoted on the left
    columns iff M is invertible; then its right half is (M^T)^-1, whose row
    r is column r of M^-1.  Pivot row r is primitive over its lead l_r, so
    d = lcm(l_r) is the least denominator of M^-1.
    """
    n = len(columns)
    by_pivot = {min(col): j for j, col in enumerate(columns) if col}
    if len(by_pivot) < n:
        ech = SparseEchelon(2 * n)
        for c, col in enumerate(columns):
            ech.add_gaussian({**col, n + c: (1, 0)})
        rows = ech._rows
        if any(c not in rows for c in range(n)):
            raise SingularMatrixError("matrix is singular")
        d = lcm(*(rows[r][r][0] for r in range(n)))
        return d, [{c - n: (x * s, y * s) for c, (x, y) in rows[r].items() if c >= n}
                   for r in range(n) for s in (d // rows[r][r][0],)]
    # e_r as (den, {j: (re, im)}): den times it in the columns; an int pivot
    # is kept as den, so den may be negative until d = lcm(den) is taken
    solved = [None] * n
    for r in range(n - 1, -1, -1):
        j = by_pivot[r]
        col = columns[j]
        a, b = col[r]   # the pivot
        if len(col) == 1 and not b:   # m_j = a e_r
            solved[r] = (a, {j: (1, 0)})
            continue
        den = lcm(*(solved[c][0] for c in col if c != r))
        vec = {j: (den, 0)}
        for c, (x, y) in col.items():
            if c != r:
                dc, vc = solved[c]
                s = den // dc
                add_multiple(vec, -x * s, -y * s, vc.items())
        if b:   # 1 / (a + bi) = (a - bi) / (a^2 + b^2)
            vec = {k: (x * a + y * b, y * a - x * b) for k, (x, y) in vec.items()}
            den *= a * a + b * b
        else:
            den *= a
        g = gcd(den, *(p for v in vec.values() for p in v))
        solved[r] = (den // g, vec if g == 1 else {k: (x // g, y // g) for k, (x, y) in vec.items()})
    d = lcm(*(den for den, _ in solved))
    return d, [vec if den == d else {k: (x * s, y * s) for k, (x, y) in vec.items()}
               for den, vec in solved for s in (d // den,)]


def image_chain(n, operators, level=None):
    """Levels V_0, V_{k+1} = sum_T T(V_k), each a SparseEchelon yielded
    before the next is computed, ending with the first level after V_0 of
    rank 0 or of the rank before it.  V_0 is the echelon level, read and
    never changed, or Q(i)^n by default.  An operator maps a column to the
    terms of its image, {column: ((row, (re, im)), ...)} with int parts, the
    form of an Algebra's by_right[j].  Each level is formed from the
    Gaussian-integer pivot rows of the last: no Scalar is made until a
    caller reads a level's rows.
    """
    if level is None:
        level = SparseEchelon(n)
        level._rows = {c: {c: (1, 0)} for c in range(n)}
    yield level
    while True:
        ech = SparseEchelon(n)
        add = ech.add_gaussian
        for v in level._rows.values():
            for op in operators:
                w = {}
                for c, (ar, ai) in v.items():
                    add_multiple(w, ar, ai, op.get(c, ()))
                if w:
                    add(w)
        before = len(level)
        level = ech
        yield level
        if not level or len(level) == before:
            return


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
    """Jordan type of the nilpotent operator with sparse columns {row: (re, im)}
    of ints; scaling an operator keeps its type."""
    op = {c: tuple(col.items()) for c, col in enumerate(columns) if col}
    return partition_of_ranks([len(level) for level in image_chain(len(columns), (op,))])


def nilpotent_partition(m):
    """Jordan block sizes of a nilpotent matrix; no power of m is formed."""
    if m.rows != m.cols:
        raise NotNilpotentError("nilpotent_partition needs a square matrix")
    return jordan_type(m.gaussian_columns()[1])
