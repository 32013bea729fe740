"""Exact dense matrices and the elimination engine behind every dimension count.

SparseEchelon is the package's one elimination: ranks, kernels, spans,
Jordan types and the inverse all insert sparse rows into it.  It keeps the
reduced row echelon form of the rows so far, pivoting on the lowest column
a reduced row still has; the RREF of a span is unique, so no result
depends on the order in which rows arrive.

image_chain is the one descending-image loop, behind both the central
series and every Jordan type.  It is lazy: it yields each level before it
computes the next, so a caller that needs only the first ranks stops the
elimination there.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, as_scalar


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
        self.data = [[as_scalar(v) for v in row] for row in nested]

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

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(vec), self.cols))
        out = [ZERO] * self.rows
        for c, v in enumerate(vec):
            if not v:
                continue
            for r in range(self.rows):
                w = self.data[r][c]
                if w:
                    out[r] = out[r] + w * v
        return out

    def flat(self):
        return [v for row in self.data for v in row]

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
    """Incrementally maintained reduced row echelon form over Q(i).

    Rows are sparse {column: Scalar} dicts; add() drops zero entries and
    ignores a row that reduces to nothing, so callers need not filter.
    Pivot rows keep a leading 1 and no entry in any other pivot column, so
    reduce() is a one-pass membership test and kernel_basis() reads
    straight off the free columns.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivot_rows = {}  # pivot column -> reduced row dict

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, row):
        """Return the residual of row after eliminating all pivot columns:
        a pivot row has no other pivot column, so one pass over the pivots
        the row hits suffices."""
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


def inverse(m):
    """Inverse read off the RREF of [m | I]; raises SingularMatrixError.

    The rows of [m | I] are independent, so the RREF has n rows; m is
    invertible iff their pivots are the n left columns, and then the right
    half is m^-1.
    """
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    n = m.rows
    ech = span_echelon([row + basis_vec(n, r) for r, row in enumerate(m.data)], 2 * n)
    if any(c not in ech.pivot_rows for c in range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(n, n, [row[n:] for row in ech.basis_rows()])


def image_chain(n, operators):
    """Levels V_0 = Q(i)^n, V_{k+1} = sum_T T(V_k), each as its sparse RREF
    rows in pivot order and yielded before the next is computed, ending with
    the first level of rank 0 or of the rank before it.  An operator maps a
    column to the terms of its image, {column: ((row, entry), ...)}, the
    form of Algebra.by_right[j].
    """
    level = [{c: ONE} for c in range(n)]
    yield level
    while True:
        ech = SparseEchelon(n)
        for v in level:
            for op in operators:
                w = {}
                for c, a in v.items():
                    for r, b in op.get(c, ()):
                        w[r] = w.get(r, ZERO) + a * b
                ech.add(w)
        before = len(level)
        level = [ech.pivot_rows[c] for c in sorted(ech.pivot_rows)]
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
    """Jordan type of the nilpotent operator with sparse columns {row: entry}."""
    op = {c: tuple(col.items()) for c, col in enumerate(columns) if col}
    return partition_of_ranks([len(level) for level in image_chain(len(columns), (op,))])


def nilpotent_partition(m):
    """Jordan block sizes of a nilpotent matrix; no power of m is formed."""
    if m.rows != m.cols:
        raise NotNilpotentError("nilpotent_partition needs a square matrix")
    return jordan_type([sparse_vec(m.column(c)) for c in range(m.cols)])
