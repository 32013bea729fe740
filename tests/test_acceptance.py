"""Acceptance suite: every criterion at exact-equality tolerance.

Each test prints one pass/fail line (visible with -v -s; pytest reports
FAILED otherwise).  Expected values come from the stated formulas or from
the independent oracles in oracles.py, frozen after confirmation.
"""

import random

from conftest import (
    alg,
    cached_der,
    cached_inn,
    mutated_m7,
    random_invertible,
    random_structured_invertible,
    random_vector,
)

from oracles import in_span, oracle_inner_dim, oracle_partition

from leibnizkit.cohomology import h1_dimension, is_derivation
from leibnizkit.core import bracket, change_of_basis, leibniz_residual, right_operator
from leibnizkit.gradations import (
    WeightAssignment,
    graded_derivation_split,
    search_diagonal_gradation,
    verify_gradation,
    weights_loads,
)
from leibnizkit.invariants import central_series, characteristic_sequence, fingerprint, natural_graded
from leibnizkit.iso import IsoCertificate, verify_certificate
from leibnizkit.linalg import Matrix, nilpotent_partition, span_echelon, sparse_vec
from leibnizkit.scalars import Scalar

from conftest import DATA

N_SWEEP = (7, 9, 11, 13)
M_SWEEP = (7, 8, 9, 10, 11, 12)
ALPHAS = (("1", Scalar(1)), ("-1", Scalar(-1)), ("1/2", Scalar(1, 1) / Scalar(2, 2)),
          ("2", Scalar(2)), ("3+i", Scalar(3, 1)))


def _m1(n, alpha):
    return alg("M1alpha", n, alpha=alpha)


# -- criterion 1: derivation dimensions ------------------------------------

def test_criterion_1_der_dims_N():
    for n in N_SWEEP:
        got = cached_der(alg("N", n)).dim
        want = 3 * (n - 1) // 2 + 7
        assert got == want, "dim Der(N(%d)) = %d, stated %d" % (n, got, want)
    print("[criterion 1] dim Der(N(n)) = 3(n-1)/2+7 for n in %s: PASS" % (N_SWEEP,))


def test_criterion_1_der_dims_M():
    for n in M_SWEEP:
        got = cached_der(alg("M", n)).dim
        assert got == n + 6, "dim Der(M(%d)) = %d, stated %d" % (n, got, n + 6)
    print("[criterion 1] dim Der(M(n)) = n+6 for n in %s: PASS" % (M_SWEEP,))


def test_criterion_1_der_dims_M1alpha():
    mismatches = []
    for n in M_SWEEP:
        for name, alpha in ALPHAS:
            got = cached_der(_m1(n, alpha)).dim
            if got != n + 5:
                mismatches.append("dim Der(M^{1,%s}(%d)) = %d, stated %d"
                                  % (name, n, got, n + 5))
    assert not mismatches, "; ".join(mismatches)
    print("[criterion 1] dim Der(M^{1,a}(n)) = n+5 for all sampled a: PASS")


def _matrix(dim, entries):
    """dim x dim matrix with entry (row, col) = value per (row, col, value)."""
    m = Matrix.zero(dim, dim)
    for r, c, v in entries:
        m.data[r][c] = v
    return m


def test_criterion_1_M1alpha_minus_one_extra_derivation():
    # positive evidence for the mismatch above.  Basis y1..yn, z1 (indices
    # 0..n); column c of a matrix is the image of e_c.  The generic basis is
    # the n+4 derivations common to every alpha plus D1(alpha): y1 -> z1,
    # y_{n-1} -> -y_{n-3}, y_n -> alpha y_{n-2}.  At alpha = -1 the map
    # X: y_{n-1} -> z1 is one more: the identity at (y_{n-1}, y_{n-1}) reads
    # 0 = [z1, y_{n-1}] + [y_{n-1}, z1] = (alpha + 1) y_{n-2}
    for n in (7, 9):
        dim = n + 1
        others = [alpha for name, alpha in ALPHAS if name != "-1"]
        common = [m for m in cached_der(_m1(n, Scalar(2))).basis
                  if all(is_derivation(_m1(n, alpha), m) for _, alpha in ALPHAS)]
        assert len(common) == n + 4

        def d1(alpha):
            return _matrix(dim, [(n, 0, Scalar(1)), (n - 4, n - 2, Scalar(-1)), (n - 3, n - 1, alpha)])

        for alpha in others:
            generic = common + [d1(alpha)]
            assert all(is_derivation(_m1(n, alpha), m) for m in generic)
            assert len(span_echelon([m.flat() for m in generic], dim * dim)) \
                == cached_der(_m1(n, alpha)).dim == n + 5
        minus_one = _m1(n, Scalar(-1))
        x = _matrix(dim, [(n, n - 2, Scalar(1))])
        assert is_derivation(minus_one, x)
        assert not any(is_derivation(_m1(n, alpha), x) for alpha in others)
        span = span_echelon([m.flat() for m in common + [d1(Scalar(-1))]], dim * dim)
        assert len(span) == n + 5 and is_derivation(minus_one, d1(Scalar(-1)))
        assert not in_span(span, sparse_vec(x.flat()))
        assert cached_der(minus_one).dim == n + 6
    print("[criterion 1] M^{1,-1}(n) has the extra derivation y_{n-1} -> z1 outside "
          "the generic span, so dim Der = n+6 at n = 7, 9: PASS")


# -- criterion 2: cohomology dimensions -------------------------------------

def test_criterion_2_h1_N():
    for n in N_SWEEP:
        a = alg("N", n)
        der, inn = cached_der(a), cached_inn(a)
        h1 = h1_dimension(a, der=der, inn=inn)
        # oracle-confirmed inner span rank (frozen): n-1, not the n-4 printed
        # alongside the stated formula
        assert inn.dim == oracle_inner_dim(a) == n - 1
        assert der.dim - h1 == inn.dim
        want = (n + 19) // 2
        assert h1 == want, (
            "dim H1(N(%d)) = %d, stated %d; dim Der = %d matches its formula and the "
            "directly computed inner span rank is %d" % (n, h1, want, der.dim, inn.dim))
    print("[criterion 2] dim H1(N(n)) = (n+19)/2: PASS")


def test_criterion_2_h1_M():
    for n in M_SWEEP:
        a = alg("M", n)
        der, inn = cached_der(a), cached_inn(a)
        h1 = h1_dimension(a, der=der, inn=inn)
        assert h1 == n + 4, "dim H1(M(%d)) = %d, stated %d" % (n, h1, n + 4)
        assert inn.dim == oracle_inner_dim(a) == 2
        assert der.dim - h1 == inn.dim
    print("[criterion 2] dim H1(M(n)) = n+4 with inner span rank 2: PASS")


def test_criterion_2_h1_M1alpha():
    mismatches = []
    for n in M_SWEEP:
        for name, alpha in ALPHAS:
            a = _m1(n, alpha)
            der, inn = cached_der(a), cached_inn(a)
            h1 = h1_dimension(a, der=der, inn=inn)
            assert inn.dim == oracle_inner_dim(a) == 3
            if h1 != n + 2:
                mismatches.append("dim H1(M^{1,%s}(%d)) = %d, stated %d"
                                  % (name, n, h1, n + 2))
    assert not mismatches, "; ".join(mismatches)
    print("[criterion 2] dim H1(M^{1,a}(n)) = n+2 with inner span rank 3: PASS")


# -- criterion 3: Leibniz identity ------------------------------------------

def test_criterion_3_leibniz_identity():
    checked = 0
    for n in M_SWEEP:
        for family in ("L1", "NGF1", "KF4", "KF5", "M"):
            assert leibniz_residual(alg(family, n)) == [], (family, n)
            checked += 1
        for _name, alpha in ALPHAS:
            assert leibniz_residual(_m1(n, alpha)) == [], ("M1alpha", n, _name)
            checked += 1
    for n in N_SWEEP:
        assert leibniz_residual(alg("N", n)) == [], ("N", n)
        checked += 1
    for n in (5, 6, 7, 8):
        assert leibniz_residual(alg("nullfiliform-ml", n)) == []
        checked += 1
    assert leibniz_residual(alg("abelian", 3)) == []
    assert leibniz_residual(mutated_m7()) != [], "mutated M(7) must violate the identity"
    print("[criterion 3] Leibniz residual empty for %d catalog algebras, "
          "nonempty for the mutated-M control: PASS" % checked)


# -- criterion 4: characteristic sequences -----------------------------------

def test_criterion_4_characteristic_sequences():
    witnesses = {}
    for n in M_SWEEP:
        cases = [("L1", alg("L1", n), (n - 3, 1, 1, 1)),
                 ("M", alg("M", n), (n - 2, 1, 1, 1)),
                 ("NGF1", alg("NGF1", n), (n - 1, 1)),
                 ("KF4", alg("KF4", n), (n - 2, 1, 1)),
                 ("KF5", alg("KF5", n), (n - 2, 1, 1))]
        for _name, alpha in ALPHAS[:2]:
            cases.append(("M1alpha", _m1(n, alpha), (n - 2, 1, 1, 1)))
        for family, a, want in cases:
            cs = characteristic_sequence(a)
            assert cs.parts == want, (family, n, cs.parts, want)
            witnesses[(family, n)] = cs.witness
    assert all(any(w) for w in witnesses.values())
    print("[criterion 4] characteristic sequences of L1, M, M^{1,a}, NGF1, KF4, KF5 "
          "with witnesses recorded: PASS")


def test_criterion_4_characteristic_sequence_N():
    for n in N_SWEEP:
        cs = characteristic_sequence(alg("N", n))
        want = (n - 2, 1, 1, 1)
        assert cs.parts == want, (
            "C(N(%d)) = %s, stated %s; the witness R-operator splits off the length-2 "
            "chain f1 -> e%d" % (n, cs.parts, want, n - 1))
    print("[criterion 4] characteristic sequence of N: PASS")


def test_criterion_4_N_witness_exceeds_stated_sequence():
    # positive evidence for the mismatch above: C(N) is a maximum, so one
    # x outside L^2 whose R_x has a Jordan type above the stated value
    # disproves that value
    for n in (7, 9, 11):
        a = alg("N", n)
        x = [Scalar(0)] * a.dim
        x[a.index("e0")] = Scalar(1)
        l2 = span_echelon(central_series(a).subspace_bases[1], a.dim)
        assert not in_span(l2, {a.index("e0"): Scalar(1)})
        m = right_operator(a, x)
        parts = nilpotent_partition(m)
        assert parts == oracle_partition(m) == (n - 2, 2, 1)
        assert parts > (n - 2, 1, 1, 1)
    print("[criterion 4] C(N(n)) >= (n-2,2,1) > (n-2,1,1,1) by the witness e0: PASS")


# -- criterion 5: maximum-length certificates --------------------------------

def test_criterion_5_maximum_length_certificates():
    for n in M_SWEEP:
        w = WeightAssignment(list(range(1, n - 1)) + [-1, 0, n - 1])
        for family in ("M", "M1alpha"):
            a = alg(family, n, **({"alpha": Scalar(1)} if family == "M1alpha" else {}))
            rep = verify_gradation(a, w)
            assert rep.maximum_length, (family, n, rep)
    for n in (7, 9):
        a = alg("N", n)
        found = search_diagonal_gradation(a, 2 * a.dim)
        assert found is not None
        with open(f"{DATA}/n{n}_maxlen_weights.json") as fh:
            golden = weights_loads(fh.read(), a)
        assert found == golden, "search drifted from the frozen certificate"
        assert verify_gradation(a, found).maximum_length
    print("[criterion 5] explicit M/M^{1,a} certificates accepted for n in %s; "
          "search certificates for N(7), N(9) match the frozen goldens: PASS" % (M_SWEEP,))


# -- criterion 6: no diagonal maximum-length gradation for L1 -----------------

def test_criterion_6_no_diagonal_gradation_for_L1():
    for n in (7, 8, 9):
        assert search_diagonal_gradation(alg("L1", n), 2 * n) is None, n
    print("[criterion 6] search_diagonal_gradation(L1(n)) exhausts for n in (7, 8, 9) "
          "(evidence restricted to diagonal gradations): PASS")


# -- criterion 7: natural gradation of L1 ------------------------------------

def test_criterion_7_natural_gradation_L1():
    for n in (7, 8, 9, 10):
        _gr, dims = natural_graded(alg("L1", n))
        want = (3, 2) + (1,) * (n - 5)
        assert dims == want, (n, dims, want)
        assert sum(dims) == n
    print("[criterion 7] gr(L1(n)) component dims = (3, 2, 1, ..., 1): PASS")


# -- criterion 8: property suites, >= 100 seeded samples each -----------------

def test_criterion_8_bilinearity():
    rng = random.Random(101)
    m7 = alg("M", 7)
    for _ in range(120):
        x, y, z = (random_vector(rng, 8) for _ in range(3))
        a, b = Scalar(rng.randint(-4, 4)), Scalar(rng.randint(-4, 4))
        left = bracket(m7, [a * u + b * v for u, v in zip(x, z)], y)
        right = [a * u + b * v for u, v in zip(bracket(m7, x, y), bracket(m7, z, y))]
        assert left == right
        left = bracket(m7, y, [a * u + b * v for u, v in zip(x, z)])
        right = [a * u + b * v for u, v in zip(bracket(m7, y, x), bracket(m7, y, z))]
        assert left == right
    print("[criterion 8] bilinearity, 120 samples: PASS")


def test_criterion_8_fingerprint_invariance():
    rng = random.Random(102)
    base6 = alg("nullfiliform-ml", 6)
    fp6 = fingerprint(base6)
    for k in range(100):
        p = random_invertible(rng, 6) if k % 10 == 0 else random_structured_invertible(rng, 6)
        assert fingerprint(change_of_basis(base6, p)) == fp6
    l17 = alg("L1", 7)
    fp7 = fingerprint(l17)
    for k in range(8):
        p = random_invertible(rng, 7) if k < 2 else random_structured_invertible(rng, 7)
        assert fingerprint(change_of_basis(l17, p)) == fp7
    print("[criterion 8] fingerprint change-of-basis invariance, 108 samples: PASS")


def test_criterion_8_derivation_identity_of_every_der_basis_element():
    count = 0
    specs = [("L1", 7), ("M", 7), ("N", 7), ("KF4", 7), ("KF5", 7), ("NGF1", 7),
             ("M", 8), ("N", 9), ("L1", 8)]
    for family, n in specs:
        a = alg(family, n)
        for m in cached_der(a).basis:
            assert is_derivation(a, m), (family, n)
            count += 1
    m1 = _m1(7, Scalar(1))
    for m in cached_der(m1).basis:
        assert is_derivation(m1, m)
        count += 1
    assert count >= 100, count
    print("[criterion 8] derivation identity verified for %d basis elements: PASS" % count)


def test_criterion_8_graded_split_recombination():
    rng = random.Random(103)
    a = alg("M", 7)
    w = WeightAssignment(list(range(1, 6)) + [-1, 0, 6])
    der = cached_der(a)
    split = graded_derivation_split(a, w, der.basis)
    assert sum(split.values()) == der.dim
    for _ in range(100):
        m = Matrix.zero(8, 8)
        for b in der.basis:
            m = m + b.scale(Scalar(rng.randint(-3, 3)))
        total = Matrix.zero(8, 8)
        seen = {}
        for r in range(8):
            for c in range(8):
                v = m.data[r][c]
                if v:
                    comp = seen.setdefault(w.weights[r] - w.weights[c], Matrix.zero(8, 8))
                    comp.data[r][c] = v
        for comp in seen.values():
            assert is_derivation(a, comp)
            total = total + comp
        assert total == m
    print("[criterion 8] graded derivation split recombination, 100 samples: PASS")


def test_criterion_8_certificate_composition():
    rng = random.Random(104)
    a = alg("M", 7)
    for k in range(100):
        if k % 10 == 0:
            p, q = random_invertible(rng, 8), random_invertible(rng, 8)
        else:
            p, q = random_structured_invertible(rng, 8), random_structured_invertible(rng, 8)
        b = change_of_basis(a, p)
        c = change_of_basis(b, q)
        assert verify_certificate(IsoCertificate(c, b, q)).accepted
        assert verify_certificate(IsoCertificate(b, a, p)).accepted
        assert verify_certificate(IsoCertificate(c, a, p * q)).accepted
    print("[criterion 8] certificate composition, 100 samples: PASS")
