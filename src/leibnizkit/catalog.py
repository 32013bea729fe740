"""Constructors for the catalog of algebra families, keyed by family name.

Each builder transcribes one multiplication table exactly, as a list of
(left, right, result, coefficient) index terms that core.from_terms turns
into an Algebra; unlisted products are zero, and only core knows the dense
coordinate tuples.  Basis labels follow the order the generators are
usually written in (e's before f's, y's before z's), so indices in reports
line up with the usual notation.  The Lie family N is stored with both
[x, y] and [y, x] = -[x, y] for every listed product, making antisymmetry
hold on the nose.
"""

from __future__ import annotations

from .core import from_terms, leibniz_residual
from .scalars import ONE, ZERO, as_scalar


class FamilyError(ValueError):
    """Bad family name, dimension out of range, or malformed parameters."""


class FamilySpec:
    """A catalog request: family name, size parameter n, exact parameters."""

    __slots__ = ("family", "n", "params")

    def __init__(self, family, n, params=None):
        if family not in FAMILIES:
            raise FamilyError("unknown family %r; choose one of %s" % (family, ", ".join(FAMILIES)))
        self.family = family
        self.n = int(n)
        self.params = {k: as_scalar(v) for k, v in (params or {}).items()}

    def __repr__(self):
        ps = ",".join("%s=%s" % (k, v) for k, v in sorted(self.params.items()))
        return "FamilySpec(%s, n=%d%s)" % (self.family, self.n, ", " + ps if ps else "")


def param_names(family, n):
    """The admissible parameter names for a family at size n."""
    names = set()
    if family in ("KF4", "KF5"):
        for t in range(3, n - 1):
            names.add("alpha_%d" % t)
            names.add("beta_%d" % t)
        for i in range(2, n - 3):
            for j in range(i + 2, n - 1):
                names.add("beta_%d_%d" % (i, j))
        for t in range(4, n - 1):
            names.add("gamma_%d" % t)
    elif family == "M1alpha":
        names.add("alpha")
    return names


def _check_range(spec, minimum, parity=None):
    if spec.n < minimum:
        raise FamilyError("family %s needs n >= %d, got %d" % (spec.family, minimum, spec.n))
    if parity == "odd" and spec.n % 2 == 0:
        raise FamilyError("family %s needs odd n, got %d" % (spec.family, spec.n))


def _check_params(spec):
    allowed = param_names(spec.family, spec.n)
    for name in spec.params:
        if name not in allowed:
            raise FamilyError("family %s at n=%d does not take parameter %r"
                              % (spec.family, spec.n, name))


def build(spec):
    """Build the requested catalog algebra; exact transcription of its law."""
    _check_params(spec)
    builder = _BUILDERS[spec.family]
    return builder(spec)


def admissible_param_check(spec):
    """Leibniz residual of the built algebra; empty iff params admissible."""
    return leibniz_residual(build(spec))


# -- individual laws -------------------------------------------------------
# Each builder lists its table as (left, right, result, coefficient) index
# terms for core.from_terms; an unset or zero parameter gives a zero term,
# and from_terms drops a product whose terms sum to zero.

def _build_l1(spec):
    # dim n, basis e_1..e_{n-3}, f_1, f_2, f_3
    _check_range(spec, 7)
    n = spec.n
    labels = ["e%d" % i for i in range(1, n - 2)] + ["f1", "f2", "f3"]
    e = {i: i - 1 for i in range(1, n - 2)}
    f = {j: n - 4 + j for j in range(1, 4)}
    terms = []
    for i in range(1, n - 3):
        terms.append((e[i], e[1], e[i + 1], ONE))           # [e_i, e_1] = e_{i+1}
        terms.append((e[i], f[2], e[i + 1], ONE))           # [e_i, f_2] = e_{i+1}
    terms.append((e[1], f[1], f[3], ONE))                   # [e_1, f_1] = f_3
    return from_terms(labels, terms)


def _kf_common(spec, with_chain_shift):
    # dim n, basis e_1..e_n; the naturally graded representative has all
    # parameters zero, admissibility of other values is decided by the
    # Leibniz residual rather than a hand-derived constraint list
    _check_range(spec, 7)
    n = spec.n
    labels = ["e%d" % i for i in range(1, n + 1)]
    p = spec.params

    def param(name):
        return p.get(name, ZERO)

    terms = [(i - 1, 0, i, ONE) for i in range(1, n - 2)]   # [e_i, e_1] = e_{i+1}
    terms.append((0, n - 2, n - 1, ONE))                    # [e_1, e_{n-1}]: e_n term
    if with_chain_shift:
        terms.append((0, n - 2, 1, ONE))                    # KF5 extra e_2 term
    for t in range(3, n - 1):
        terms.append((0, n - 2, t - 1, param("alpha_%d" % t)))      # [e_1, e_{n-1}]
        terms.append((n - 2, n - 2, t - 1, param("beta_%d" % t)))   # [e_{n-1}, e_{n-1}]

    # KF5's shifted row must run through i = n-3: stopping at n-4 breaks the
    # Leibniz identity at (e_{n-4}, e_1, e_{n-1}) for every parameter choice
    mid_top = n - 2 if with_chain_shift else n - 3
    for i in range(2, mid_top):
        if with_chain_shift:
            terms.append((i - 1, n - 2, i, ONE))            # KF5: e_{i+1} term
        for j in range(i + 2, n - 1):
            terms.append((i - 1, n - 2, j - 1, param("beta_%d_%d" % (i, j))))  # [e_i, e_{n-1}]

    for t in range(4, n - 1):
        terms.append((n - 1, n - 2, t - 1, param("gamma_%d" % t)))  # [e_n, e_{n-1}]
    return from_terms(labels, terms)


def _build_kf4(spec):
    return _kf_common(spec, with_chain_shift=False)


def _build_kf5(spec):
    return _kf_common(spec, with_chain_shift=True)


def _build_ngf1(spec):
    # dim n, basis e_1..e_n
    _check_range(spec, 4)
    n = spec.n
    labels = ["e%d" % i for i in range(1, n + 1)]
    terms = [(0, 0, 2, ONE)]                                # [e_1, e_1] = e_3
    terms += [(i - 1, 0, i, ONE) for i in range(2, n)]      # [e_i, e_1] = e_{i+1}
    return from_terms(labels, terms)


def _build_n(spec):
    # dim n+1, basis e_0..e_{n-1}, f_1; n odd; closed under antisymmetry
    _check_range(spec, 7, parity="odd")
    n = spec.n
    labels = ["e%d" % i for i in range(n)] + ["f1"]
    f1 = n
    # (i, j, k, c): [e_i, e_j] = c * e_k, stored with [e_j, e_i] = -c * e_k
    pairs = [(i - 1, 0, i, ONE) for i in range(2, n - 1)]  # [e_{i-1}, e_0] = e_i
    # alternating products [e_i, e_{n-2-i}] = (-1)^(i-1) e_{n-1}: the usual
    # presentation lists [e_{n-3}, e_1] = -e_{n-1}, [e_{n-4}, e_2] = e_{n-1}
    # and 3 <= i <= (n-3)/2; closed under antisymmetry that is one pair per
    # i < n-2-i, which is what the loop below adds
    for i in range(1, (n - 1) // 2):
        pairs.append((i, n - 2 - i, n - 1, ONE if i % 2 == 1 else -ONE))
    pairs.append((f1, 0, n - 1, ONE))                       # [f_1, e_0] = e_{n-1}
    unordered = {frozenset((i, j)) for i, j, _, _ in pairs}
    assert len(unordered) == len(pairs), "a pair of N is listed twice"
    return from_terms(labels, [t for i, j, k, c in pairs for t in ((i, j, k, c), (j, i, k, -c))])


def _m_chain(n):
    terms = [(i - 1, 0, i, ONE) for i in range(1, n - 2)]   # [y_i, y_1] = y_{i+1}
    terms.append((0, n - 2, n - 1, ONE))                    # [y_1, y_{n-1}] = y_n
    return terms


def _build_m(spec):
    # dim n+1, basis y_1..y_n, z_1
    _check_range(spec, 5)
    n = spec.n
    labels = ["y%d" % i for i in range(1, n + 1)] + ["z1"]
    terms = _m_chain(n)
    terms.append((n, n - 2, n - 3, ONE))                    # [z_1, y_{n-1}] = y_{n-2}
    return from_terms(labels, terms)


def _build_m1alpha(spec):
    # dim n+1, basis y_1..y_n, z_1; alpha defaults to 0
    _check_range(spec, 5)
    n = spec.n
    alpha = spec.params.get("alpha", ZERO)
    labels = ["y%d" % i for i in range(1, n + 1)] + ["z1"]
    terms = _m_chain(n)
    terms.append((n - 2, n, n - 3, ONE))                    # [y_{n-1}, z_1] = y_{n-2}
    terms.append((n, n - 2, n - 3, alpha))                  # [z_1, y_{n-1}] = alpha y_{n-2}
    return from_terms(labels, terms)


def _build_nullfiliform(spec):
    # dim n, basis e_1..e_n; the maximum-length null-filiform chain
    _check_range(spec, 1)
    n = spec.n
    labels = ["e%d" % i for i in range(1, n + 1)]
    return from_terms(labels, [(i - 1, 0, i, ONE) for i in range(1, n)])  # [e_i, e_1] = e_{i+1}


def _build_abelian(spec):
    if spec.n < 0:
        raise FamilyError("family abelian needs n >= 0, got %d" % spec.n)
    return from_terms(["c%d" % i for i in range(1, spec.n + 1)], [])


_BUILDERS = {
    "L1": _build_l1,
    "KF4": _build_kf4,
    "KF5": _build_kf5,
    "NGF1": _build_ngf1,
    "N": _build_n,
    "M": _build_m,
    "M1alpha": _build_m1alpha,
    "nullfiliform-ml": _build_nullfiliform,
    "abelian": _build_abelian,
}
FAMILIES = tuple(_BUILDERS)
