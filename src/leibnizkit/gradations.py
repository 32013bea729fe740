"""Z-gradation machinery for a fixed basis: verification of weight
assignments, connectedness and length, maximum-length certificates, and an
exhaustive search for diagonal maximum-length gradations.

A weight assignment puts basis vector k in the component V_{w[k]}; the
gradation is valid when every product [e_i, e_j] lands in V_{w[i]+w[j]}.
"""

from __future__ import annotations

import json

from .cohomology import is_derivation
from .core import FormatError, decode_json
from .linalg import Matrix, SparseEchelon, sparse_vec


class WeightAssignment:
    """Integer weight per basis vector, in basis order."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(int(w) for w in weights)
        self.weights = ws

    def __eq__(self, other):
        if not isinstance(other, WeightAssignment):
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return "WeightAssignment(%s)" % (list(self.weights),)

    def to_json_dict(self, algebra):
        return {"weights": {lb: w for lb, w in zip(algebra.labels, self.weights)}}

    @classmethod
    def from_json_dict(cls, doc, algebra, where="<weights>"):
        if not isinstance(doc, dict) or "weights" not in doc:
            raise FormatError("%s: expected an object with a 'weights' field" % where)
        table = doc["weights"]
        if not isinstance(table, dict):
            raise FormatError("%s: 'weights' must map labels to integers" % where)
        ws = []
        for lb in algebra.labels:
            if lb not in table:
                raise FormatError("%s: missing weight for basis label '%s'" % (where, lb))
            w = table[lb]
            if type(w) is not int:
                raise FormatError("%s: weight of '%s' must be an integer, got %r" % (where, lb, w))
            ws.append(w)
        for lb in table:
            if lb not in algebra.labels:
                raise FormatError("%s: unknown basis label '%s'" % (where, lb))
        return cls(ws)


class GradationReport:
    """Outcome of verify_gradation; length is None when not connected."""

    __slots__ = ("valid", "occupied", "component_dims", "connected", "length",
                 "maximum_length", "violations")

    def __init__(self, valid, occupied, component_dims, connected, length,
                 maximum_length, violations):
        self.valid = valid
        self.occupied = tuple(occupied)
        self.component_dims = dict(component_dims)
        self.connected = connected
        self.length = length
        self.maximum_length = maximum_length
        self.violations = list(violations)

    def render(self, algebra=None):
        """Structured text with the occupied-interval picture."""
        lines = []
        lines.append("valid: %s" % ("yes" if self.valid else "no"))
        if self.violations:
            for i, j in self.violations:
                if algebra is not None:
                    lines.append("  violated: [%s,%s] leaves its component"
                                 % (algebra.labels[i], algebra.labels[j]))
                else:
                    lines.append("  violated: product (%d,%d)" % (i, j))
        if self.occupied:
            picture = " ".join(
                "V_%d:%d" % (w, self.component_dims[w]) for w in self.occupied
            )
            lines.append("occupied: %s" % picture)
        else:
            lines.append("occupied: (none)")
        lines.append("connected: %s" % ("yes" if self.connected else "no"))
        if self.length is not None:
            lines.append("length: %d" % self.length)
        else:
            lines.append("length: undefined (gradation not connected)")
        lines.append("maximum length: %s" % ("yes" if self.maximum_length else "no"))
        return "\n".join(lines)

    def __repr__(self):
        return ("GradationReport(valid=%s, connected=%s, length=%s, maximum_length=%s)"
                % (self.valid, self.connected, self.length, self.maximum_length))


def verify_gradation(algebra, assignment):
    """Check homogeneity of every product against the weight assignment."""
    w = assignment.weights if isinstance(assignment, WeightAssignment) else tuple(assignment)
    if len(w) != algebra.dim:
        raise ValueError("weight assignment has %d entries, algebra dim is %d"
                         % (len(w), algebra.dim))
    violations = []
    for (i, j), vec in algebra.products():
        target = w[i] + w[j]
        if any(c and w[k] != target for k, c in enumerate(vec)):
            violations.append((i, j))
    occupied = sorted(set(w))
    component_dims = {weight: 0 for weight in occupied}
    for weight in w:
        component_dims[weight] += 1
    connected = (not occupied) or (occupied[-1] - occupied[0] + 1 == len(occupied))
    length = len(occupied) if connected else None
    valid = not violations
    maximum_length = bool(valid and connected and length == algebra.dim and algebra.dim > 0)
    return GradationReport(valid, occupied, component_dims, connected, length,
                           maximum_length, violations)


def _homogeneity_constraints(algebra):
    """Products as (i, j, k) with single result coordinate k, or None when
    some product has two or more result coordinates (then no gradation with
    pairwise-distinct weights can be homogeneous)."""
    constraints = []
    for (i, j), vec in algebra.products():
        support = [k for k, c in enumerate(vec) if c]
        if len(support) > 1:
            return None
        constraints.append((i, j, support[0]))
    return constraints


def search_diagonal_gradation(algebra, max_abs=None):
    """Exhaustive search for a maximum-length gradation diagonal in the basis.

    A maximum-length assignment gives every basis vector a distinct weight
    and the weights fill an integer interval, so the search enumerates, for
    each admissible interval inside [-max_abs, max_abs], the bijections
    basis -> interval by backtracking (values ascending, homogeneity checked
    as soon as a product's three indices are weighted).  Intervals are tried
    nearest-to-positive first (offset key |a-1|, ties resolved toward a>=1),
    and the first hit is returned, so the result is the lexicographically
    least assignment of the first feasible interval.  Returns None when the
    space is exhausted; that is evidence restricted to diagonal gradations,
    not a proof that no maximum-length gradation exists.
    """
    d = algebra.dim
    if max_abs is None:
        max_abs = 2 * d
    if max_abs < 1:
        raise ValueError("max_abs must be >= 1")
    if d == 0 or d > 2 * max_abs + 1:
        return None
    constraints = _homogeneity_constraints(algebra)
    if constraints is None:
        return None
    # constraints checked at the position where their last index is placed
    by_position = [[] for _ in range(d)]
    for (i, j, k) in constraints:
        by_position[max(i, j, k)].append((i, j, k))

    offsets = sorted(range(-max_abs, max_abs - d + 2),
                     key=lambda a: (abs(a - 1), 0 if a >= 1 else 1))
    for a in offsets:
        values = list(range(a, a + d))
        found = _search_interval(by_position, d, values)
        if found is not None:
            return WeightAssignment(found)
    return None


def _search_interval(by_position, d, values):
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


def graded_derivation_split(algebra, assignment, der_basis):
    """Split Der(L) along a valid gradation: dim of each weight component.

    Matrix entry (r, c) carries weight w[r] - w[c]; every derivation is the
    sum of its weight-homogeneous components, each of which must itself be
    a derivation.  Returns {weight: dim W_weight} with dims summing to the
    dimension of the span of der_basis.
    """
    w = assignment.weights if isinstance(assignment, WeightAssignment) else tuple(assignment)
    report = verify_gradation(algebra, WeightAssignment(w))
    if not report.valid:
        raise ValueError("weight assignment is not a gradation for this algebra")
    n = algebra.dim
    spans = {}
    for m in der_basis:
        if not is_derivation(algebra, m):
            raise ValueError("der_basis contains a matrix violating the derivation identity")
        components = {}
        for r in range(n):
            for c in range(n):
                v = m.data[r][c]
                if not v:
                    continue
                weight = w[r] - w[c]
                comp = components.setdefault(weight, Matrix.zero(n, n))
                comp.data[r][c] = v
        for weight, comp in components.items():
            if not is_derivation(algebra, comp):
                raise ValueError("a weight-%d component of a derivation is not a derivation"
                                 % weight)
            span = spans.setdefault(weight, SparseEchelon(n * n))
            span.add(sparse_vec(comp.flat()))
    return {weight: span.rank for weight, span in sorted(spans.items())}


def weights_dumps(algebra, assignment):
    return json.dumps(assignment.to_json_dict(algebra), indent=2) + "\n"


def weights_loads(text, algebra, where="<weights>"):
    return WeightAssignment.from_json_dict(decode_json(text, where), algebra, where)


def weights_load(path, algebra):
    with open(path, "r", encoding="utf-8") as fh:
        return weights_loads(fh.read(), algebra, where=str(path))
