import pytest

from conftest import alg, random_invertible

from leibnizkit.core import change_of_basis, dumps
from leibnizkit.invariants import fingerprint
from leibnizkit.iso import (
    IsoCertificate,
    certificate_loads,
    first_difference,
    verify_certificate,
)
from leibnizkit.core import FormatError
from leibnizkit.linalg import Matrix
from leibnizkit.scalars import Scalar


def test_identity_certificate_accepts():
    m7 = alg("M", 7)
    assert verify_certificate(IsoCertificate(m7, m7, Matrix.identity(8))).accepted


def test_singular_map_rejected():
    m7 = alg("M", 7)
    rep = verify_certificate(IsoCertificate(m7, m7, Matrix.zero(8, 8)))
    assert not rep.accepted
    assert rep.reason == "singular map"


def _rescaling(n, c, exponents):
    d = n + 1
    m = Matrix.zero(d, d)
    for i in range(d):
        m.data[i][i] = Scalar(c ** exponents[i])
    return m


def test_rescaling_automorphism_of_m():
    # verified exponent pattern: y_i -> c^i y_i for i <= n-2, y_{n-1} fixed,
    # y_n -> c y_n, z_1 -> c^{n-2} z_1
    n, c = 7, 2
    m7 = alg("M", n)
    exps = list(range(1, n - 1)) + [0, 1, n - 2]
    cert = IsoCertificate(m7, m7, _rescaling(n, c, exps))
    assert verify_certificate(cert).accepted


def test_rescaling_with_shifted_exponents_rejects():
    # the pattern y_i -> c^{i-1} y_i with z_1 fixed fails already at [y1, y1]
    n, c = 7, 2
    m7 = alg("M", n)
    exps = list(range(0, n - 2)) + [0, 1, 0]
    rep = verify_certificate(IsoCertificate(m7, m7, _rescaling(n, c, exps)))
    assert not rep.accepted
    assert rep.pair == (0, 0)
    assert "y1" in rep.reason


def test_change_of_basis_yields_accepted_certificate(rng):
    m7 = alg("M", 7)
    for _ in range(10):
        p = random_invertible(rng, 8)
        moved = change_of_basis(m7, p)
        assert verify_certificate(IsoCertificate(moved, m7, p)).accepted


def test_accepted_certificates_compose(rng):
    a = alg("M", 7)
    for _ in range(10):
        p = random_invertible(rng, 8)
        q = random_invertible(rng, 8)
        b = change_of_basis(a, p)
        c = change_of_basis(b, q)
        first = IsoCertificate(c, b, q)
        second = IsoCertificate(b, a, p)
        assert verify_certificate(first).accepted
        assert verify_certificate(second).accepted
        composed = IsoCertificate(c, a, p * q)
        assert verify_certificate(composed).accepted


def test_dimension_mismatch_is_an_error():
    with pytest.raises(ValueError):
        IsoCertificate(alg("M", 7), alg("L1", 7), Matrix.identity(8))


def test_compare_same_algebra_inconclusive():
    m7 = alg("M", 7)
    assert first_difference(fingerprint(m7), fingerprint(m7)) is None


def test_compare_m_and_m1alpha():
    # the right annihilator (dim 6 vs 5) differs before the derivation
    # dimensions (13 vs 12) in field order
    field = first_difference(fingerprint(alg("M", 7)), fingerprint(alg("M1alpha", 7, alpha=Scalar(1))))
    assert field == "dim_right_annihilator"
    assert fingerprint(alg("M", 7)).dim_der == 13
    assert fingerprint(alg("M1alpha", 7, alpha=Scalar(1))).dim_der == 12


def test_compare_m_and_n():
    assert first_difference(fingerprint(alg("M", 7)), fingerprint(alg("N", 7))) == "series_dims"


def test_compare_is_invariant_under_iso(rng):
    m7 = alg("M", 7)
    p = random_invertible(rng, 8)
    assert first_difference(fingerprint(m7), fingerprint(change_of_basis(m7, p))) is None


def test_distinguished_pair_rejects_sampled_certificates(rng):
    a = alg("M", 7)
    b = alg("M1alpha", 7, alpha=Scalar(1))
    assert first_difference(fingerprint(a), fingerprint(b)) is not None
    for _ in range(10):
        p = random_invertible(rng, 8)
        assert not verify_certificate(IsoCertificate(a, b, p)).accepted


def test_certificate_file_round_trip():
    m7 = alg("M", 7)
    p = Matrix.identity(8)
    doc = ('{"source": %s, "target": %s, "map": %s}'
           % (dumps(m7).strip(), dumps(m7).strip(),
              str([[v.render() for v in row] for row in p.data]).replace("'", '"')))
    cert = certificate_loads(doc)
    assert verify_certificate(cert).accepted


@pytest.mark.parametrize("doc,fragment", [
    ('{"target": {}, "map": []}', "source"),
    ('{"source": {}, "target": {}, "map": []}', "dim"),
    ('{"source": {"dim": 1, "basis": ["a"]}, "target": {"dim": 1, "basis": ["a"]}, "map": [["x"]]}',
     "malformed"),
    ('{"source": {"dim": 1, "basis": ["a"]}, "target": {"dim": 2, "basis": ["a", "b"]}, '
     '"map": [["1"]]}', "dimensions differ"),
], ids=["missing-source", "bad-algebra", "bad-scalar", "dim-mismatch"])
def test_certificate_file_errors(doc, fragment):
    with pytest.raises(FormatError) as err:
        certificate_loads(doc)
    assert fragment in str(err.value)
