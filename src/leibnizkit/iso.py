"""Certificate-based isomorphism verification and fingerprint screening.

verify_certificate is sound and complete for a given linear map; it never
searches, and it stays independent of core.change_of_basis.
compare_fingerprints is sound for non-isomorphism only: a distinguished
field proves the algebras are not isomorphic, while "inconclusive" proves
nothing.
"""

from __future__ import annotations

from .core import FormatError, decode_json, from_json_dict, read_text, sparse_bracket
from .invariants import Fingerprint, fingerprint
from .linalg import Matrix, SparseEchelon, gaussian_combination
from .scalars import ScalarParseError, parse_scalar


class IsoCertificate:
    """A claimed isomorphism: source, target, and the matrix of the map."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, matrix):
        if source.dim != target.dim:
            raise ValueError("certificate dimensions differ: %d vs %d" % (source.dim, target.dim))
        if matrix.rows != source.dim or matrix.cols != source.dim:
            raise ValueError("certificate map must be %d x %d" % (source.dim, source.dim))
        self.source = source
        self.target = target
        self.map = matrix


class CertificateReport:
    """accept, or reject with the first reason in deterministic order."""

    __slots__ = ("accepted", "reason", "pair")

    def __init__(self, accepted, reason=None, pair=None):
        self.accepted = accepted
        self.reason = reason
        self.pair = pair

    def __bool__(self):
        return self.accepted

    def __repr__(self):
        if self.accepted:
            return "CertificateReport(accept)"
        return "CertificateReport(reject: %s)" % self.reason


def verify_certificate(cert):
    """Accept iff the map is invertible and transports every basis product.

    P gamma_a(i, j) = [P e_i, P e_j]_b is checked through the bracket kernel on
    Gaussian integers, both sides times d_P^2 D_a D_b: (d_P P)(D_a gamma_a(i, j))
    D_b d_P against [d_P P e_i, d_P P e_j] on D_b gamma_b, times D_a.
    """
    a, b, p = cert.source, cert.target, cert.map
    n = a.dim
    d_p, cols = p.gaussian_columns()
    span = SparseEchelon(n)
    if not all(span.add_gaussian(col) for col in cols):   # a column in the span of those before
        return CertificateReport(False, "singular map")
    d_a, scale = a.denominator, b.denominator * d_p
    lhs_cols = [{r: (x * scale, y * scale) for r, (x, y) in col.items()} for col in cols]
    rhs_cols = [{r: (x * d_a, y * d_a) for r, (x, y) in col.items()} for col in cols]
    for i in range(n):
        for j in range(n):
            if gaussian_combination(lhs_cols, dict(a.by_left[i].get(j, ()))) != \
                    sparse_bracket(b, rhs_cols[i], cols[j]):
                reason = "bracket mismatch at (%s, %s)" % (a.labels[i], a.labels[j])
                return CertificateReport(False, reason, pair=(i, j))
    return CertificateReport(True)


def compare_fingerprints(a, b, trials=20, seed=1):
    """Name of the first differing fingerprint field, or None (inconclusive)."""
    return first_difference(fingerprint(a, trials=trials, seed=seed),
                            fingerprint(b, trials=trials, seed=seed))


def first_difference(fa, fb):
    """Name of the first field in which two fingerprints differ, or None."""
    for field in Fingerprint._fields:
        if getattr(fa, field) != getattr(fb, field):
            return field
    return None


# -- certificate files -------------------------------------------------------

def certificate_from_json_dict(doc, where="<certificate>"):
    if not isinstance(doc, dict):
        raise FormatError("%s: expected a JSON object" % where)
    for field in ("source", "target", "map"):
        if field not in doc:
            raise FormatError("%s: missing field '%s'" % (where, field))
    source = from_json_dict(doc["source"], where="%s: source" % where)
    target = from_json_dict(doc["target"], where="%s: target" % where)
    matrix = matrix_from_json(doc["map"], where="%s: map" % where)
    try:
        return IsoCertificate(source, target, matrix)
    except ValueError as exc:
        raise FormatError("%s: %s" % (where, exc)) from None


def matrix_from_json(rows, where="<map>"):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise FormatError("%s: expected a list of rows" % where)
    width = len(rows[0]) if rows else 0   # [] is the 0 x 0 map
    parsed = []
    for rno, row in enumerate(rows):
        if len(row) != width:
            raise FormatError("%s: row %d has %d entries, expected %d" % (where, rno, len(row), width))
        out = []
        for entry in row:
            try:
                out.append(parse_scalar(entry) if isinstance(entry, str) else parse_scalar(str(entry)))
            except ScalarParseError as exc:
                raise FormatError("%s: row %d: %s" % (where, rno, exc)) from None
        parsed.append(out)
    return Matrix(len(parsed), width, parsed)


def certificate_loads(text, where="<certificate>"):
    return certificate_from_json_dict(decode_json(text, where), where)


def certificate_load(path):
    return certificate_loads(read_text(path), where=str(path))
