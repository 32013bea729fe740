"""Z-gradation machinery for a fixed basis: verification of weight
assignments, connectedness and length, maximum-length certificates, and an
exhaustive search with forward checking for diagonal maximum-length
gradations: a product that fixes a weight which cannot be taken cuts the
branch at once, and the first hit is the plain backtracking search's.
The search backtracks without recursion and makes its interval offsets
one at a time, so only time bounds the dimension it takes.

The offsets are bounded too.  Let the weights of a maximum-length
gradation fill [a, a + d - 1], and let a product [e_i, e_j] have a nonzero
e_k coordinate, so w_k = w_i + w_j.  Then 2a <= w_k <= a + d - 1 gives
a <= d - 1, and a <= w_k <= 2a + 2d - 2 gives a >= 2 - 2d.  So an algebra
with a product is searched only at the offsets in [2 - 2d, d - 1], and a
max_abs above 2d changes no answer; an algebra with no product takes the
first offset the bound allows.

A weight assignment puts basis vector k in the component V_{w[k]}; the
gradation is valid when every product [e_i, e_j] lands in V_{w[i]+w[j]}.
"""

from __future__ import annotations

import json

from .core import FormatError, decode_json, first_non_derivation, read_text
from .linalg import SparseEchelon
from .scalars import Echo


class WeightAssignment:
    """Integer weight per basis vector, in basis order.

    Weights must be exact ints (type int, so not bool, float or str), the
    rule from_json_dict applies to files; anything else raises TypeError.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(weights)
        for w in ws:
            if type(w) is not int:
                raise TypeError("a weight must be an int, got %r" % (Echo(w),))
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
                raise FormatError("%s: missing weight for basis label '%s'" % (where, Echo(lb)))
            w = table[lb]
            if type(w) is not int:
                raise FormatError("%s: weight of '%s' must be an integer, got %r"
                                  % (where, Echo(lb), Echo(w)))
            ws.append(w)
        for lb in table:
            if lb not in algebra.labels:
                raise FormatError("%s: unknown basis label '%s'" % (where, Echo(lb)))
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

    def render(self, algebra):
        """Structured text with the occupied-interval picture."""
        lines = []
        lines.append("valid: %s" % ("yes" if self.valid else "no"))
        for i, j in self.violations:
            lines.append("  violated: [%s,%s] leaves its component"
                         % (algebra.labels[i], algebra.labels[j]))
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
    """Check homogeneity of every product against a WeightAssignment."""
    w = assignment.weights
    if len(w) != algebra.dim:
        raise ValueError("weight assignment has %d entries, algebra dim is %d"
                         % (len(w), algebra.dim))
    violations = [(i, j) for i, row in enumerate(algebra.by_left) for j in sorted(row)
                  if any(w[k] != w[i] + w[j] for k, _ in row[j])]
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


def _homogeneity_forms(algebra):
    """Each product [e_i, e_j] = c e_k as the form w_i + w_j - w_k = 0, a
    sorted tuple of (position, coefficient) with repeated indices collapsed
    (a square gives 2, i = k leaves w_j = 0) and duplicates dropped.  None
    when no gradation with pairwise-distinct weights can be homogeneous:
    some product has two or more result coordinates, or two forms differ
    only in one position each, a and b, with the same coefficient there,
    which forces w_a = w_b."""
    forms = set()
    for i, row in enumerate(algebra.by_left):
        for j, terms in row.items():
            if len(terms) > 1:
                return None
            coeffs = {}
            for pos, c in ((i, 1), (j, 1), (terms[0][0], -1)):
                coeffs[pos] = coeffs.get(pos, 0) + c
            forms.add(tuple((pos, c) for pos, c in sorted(coeffs.items()) if c))
    seen = {}  # (form without one entry, that entry's coefficient) -> position
    for form in forms:
        for t, (pos, c) in enumerate(form):
            if seen.setdefault((form[:t] + form[t + 1:], c), pos) != pos:
                return None
    return sorted(forms)


def default_max_abs(dim):
    """The search bound when none is given: 2 * dim, and at least 1."""
    return max(2 * dim, 1)


def search_diagonal_gradation(algebra, max_abs=None):
    """Exhaustive search with forward checking for a maximum-length
    gradation diagonal in the basis.

    A maximum-length assignment gives every basis vector a distinct weight
    and the weights fill an integer interval, so the search enumerates, for
    each admissible interval inside [-max_abs, max_abs], the bijections
    basis -> interval by backtracking, positions in basis order and values
    ascending.  Forward checking: once a placement leaves a product's form
    w_i + w_j - w_k = 0 one unplaced position, that position's value is
    forced, and the branch is cut at once if the value is not an integer,
    lies outside the interval, is held or reserved by another position, or
    differs from a value already forced there.  A forced position tries only
    its value; the others skip reserved values.  Only subtrees without a
    solution are cut and the order is unchanged, so the first hit is the
    plain backtracking search's; forms that force two weights equal end it
    before any interval is tried.  Intervals are tried nearest-to-positive
    first (offset key |a-1|, ties resolved toward a>=1), and the first hit
    is returned, so the result is the lexicographically least assignment of
    the first feasible interval.  Returns None when the space is exhausted;
    that is evidence restricted to diagonal gradations, not a proof that no
    maximum-length gradation exists.  max_abs is an exact int (TypeError
    otherwise) and defaults to default_max_abs(dim).
    """
    d = algebra.dim
    if max_abs is None:
        max_abs = default_max_abs(d)
    elif type(max_abs) is not int:
        raise TypeError("max_abs must be an int, got %r" % (Echo(max_abs),))
    if max_abs < 1:
        raise ValueError("max_abs must be >= 1")
    if d == 0 or d > 2 * max_abs + 1:
        return None
    forms = _homogeneity_forms(algebra)
    if forms is None:
        return None
    triggers = _triggers(forms, d)
    # the intervals [a, a + d) inside [-max_abs, max_abs]; with a product,
    # only offsets in [2 - 2d, d - 1] can succeed (module docstring)
    lo, hi = -max_abs, max_abs - d + 1
    if forms:
        lo, hi = max(lo, 2 - 2 * d), min(hi, d - 1)
    for delta in range(max(0, 1 - hi), max(hi - 1, 1 - lo) + 1):
        for a in (1 + delta, 1 - delta) if delta else (1,):
            if lo <= a <= hi:
                found = _search_interval(triggers, d, a)
                if found is not None:
                    return WeightAssignment(found)
    return None


def _triggers(forms, d):
    """The homogeneity forms by the position that fires them: a form fires
    when its second-to-last position is placed and forces its last one, so
    triggers[p + 1] holds the forms that fire at position p, and
    triggers[0] those of one position, which fire before position 0."""
    triggers = [[] for _ in range(d + 1)]
    for form in forms:
        (target, c), rest = form[-1], form[:-1]
        triggers[rest[-1][0] + 1 if rest else 0].append((target, c, rest))
    return triggers


def _search_interval(triggers, d, a):
    """Least bijection positions -> [a, a + d) in basis order, or None.
    Values are indices into the interval: forced[p] is the one a form fixed
    for position p, owner[v] the position v is reserved for, held[v]
    whether a placed position has v, and fixed[p] the positions the
    placement at p forced: the backtracking state, kept off the call stack."""
    w = [None] * d
    forced = [None] * d
    owner = [None] * d
    held = [False] * d
    fixed = [None] * d

    def fire(target, c, rest, placed):
        num = -sum(cp * w[p] for p, cp in rest)
        if num % c:
            return False
        vi = num // c - a
        if forced[target] is not None:
            return forced[target] == vi
        if not 0 <= vi < d or held[vi] or owner[vi] is not None:
            return False
        forced[target] = vi
        owner[vi] = target
        placed.append(target)
        return True

    if not all(fire(t, c, rest, []) for t, c, rest in triggers[0]):
        return None
    pos, vi = 0, 0   # vi: the least value index pos may still try
    while True:
        f = forced[pos]
        if f is None:
            while vi < d and (held[vi] or owner[vi] is not None):
                vi += 1
        else:
            vi = f if vi <= f and not held[f] else d
        if vi < d:
            w[pos] = a + vi
            held[vi] = True
            placed = fixed[pos] = []
            if all(fire(t, c, rest, placed) for t, c, rest in triggers[pos + 1]):
                pos += 1
                if pos == d:
                    return w
                vi = 0
                continue
        else:
            pos -= 1   # every value failed at pos: take back the placement before it
            if pos < 0:
                return None
            vi = w[pos] - a
        for t in fixed[pos]:
            owner[forced[t]] = None
            forced[t] = None
        held[vi] = False
        vi += 1


def graded_derivation_split(algebra, assignment, der_basis):
    """Split Der(L) along a valid gradation: dim of each weight component.

    assignment is a WeightAssignment; matrix entry (r, c) carries weight
    w[r] - w[c].  The derivation identity is homogeneous for a valid
    gradation, so every weight component of a derivation is a derivation;
    only the der_basis input is checked.
    Returns {weight: dim W_weight}, W_weight the span of the weight
    components of der_basis.  The dims sum to the dimension of the
    smallest graded subspace that contains the span of der_basis, which is
    dim Der(L) when der_basis spans Der(L), but may exceed the dimension of
    the span itself: d1 + d2 with d1, d2 of two weights gives 1 + 1.
    """
    if not verify_gradation(algebra, assignment).valid:
        raise ValueError("weight assignment is not a gradation for this algebra")
    w = assignment.weights
    n = algebra.dim
    cleared = [m.gaussian_columns()[1] for m in der_basis]   # the columns of d_m * m
    if first_non_derivation(algebra, ({c: col.items() for c, col in enumerate(cols)}
                                      for cols in cleared)) is not None:
        raise ValueError("der_basis contains a matrix violating the derivation identity")
    spans = {}
    for cols in cleared:
        components = {}  # weight -> {flat index r * n + c: (re, im)}, d_m times m's
        for c, column in enumerate(cols):
            for r, v in column.items():
                components.setdefault(w[r] - w[c], {})[r * n + c] = v
        for weight, comp in components.items():
            spans.setdefault(weight, SparseEchelon(n * n)).add_gaussian(comp)
    return {weight: len(span) for weight, span in sorted(spans.items())}


def weights_dumps(algebra, assignment):
    return json.dumps(assignment.to_json_dict(algebra), indent=2) + "\n"


def weights_loads(text, algebra, where="<weights>"):
    return WeightAssignment.from_json_dict(decode_json(text, where), algebra, where)


def weights_load(path, algebra):
    return weights_loads(read_text(path), algebra, where=str(path))
