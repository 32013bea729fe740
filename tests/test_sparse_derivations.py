"""Derivation spaces kept as sparse integer rows.

A DerivationSpace keeps its basis as sparse Gaussian-integer rows and
builds Matrices only when basis is read: no dimension, H^1, fingerprint,
weight split or section 3 builds one, and the cli's der --dump renders the rows exactly as
the basis Matrices would.  The Der basis is linalg.reversed_rref of the
images of the kernel vectors, which must equal kernel_basis.
"""

import io
import random

import pytest

from cases import case
from conftest import alg, lie_ex

from leibnizkit import invariants, linalg
from leibnizkit.cli import main
from leibnizkit.cohomology import DerivationSpace, derivation_space, h1_dimension, inner_derivation_space
from leibnizkit.core import from_terms, save
from leibnizkit.gradations import graded_derivation_split, search_diagonal_gradation
from leibnizkit.linalg import Matrix
from leibnizkit.scalars import from_gaussian


def test_der_keeps_sparse_rows_and_builds_the_basis_on_read():
    der = derivation_space(case("M1alpha", 5, "3+1i", "rational", 3).b)
    assert der._basis is None and der.dim == len(der.rows) == 10 and der.n == 6
    for lead, terms in der.rows:
        assert lead > 0 and terms[-1][1] == (lead, 0)   # the pivot, the last entry, reads 1
        assert [c for c, _ in terms] == sorted(c for c, _ in terms)
        assert all(x or y for _, (x, y) in terms)
    basis = der.basis
    assert der.basis is basis and len(basis) == der.dim
    assert DerivationSpace(6, der.rows).basis == basis


def test_reversed_rref_of_any_kernel_basis_is_kernel_basis():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(2, 8)
        m = Matrix(rows, cols, [[from_gaussian(rng.randint(-2, 2), rng.choice((0, 0, 1)), rng.randint(1, 2))
                                 for _ in range(cols)] for _ in range(rows)])
        want = linalg.kernel_basis(m)
        kernel = [dict(terms) for _, terms in linalg.span_echelon(m.data, cols).gaussian_kernel()]
        # the same kernel given by scrambled integer combinations of its vectors
        mixed = []
        for _ in kernel:
            row = {}
            for v in kernel:
                linalg.add_multiple(row, rng.randint(-2, 2), rng.randint(-1, 1), v.items())
            mixed.append(row)
        got = linalg.reversed_rref(mixed + kernel, cols)
        assert [linalg.scalar_vector(terms, lead, cols) for lead, terms in got] == want


@pytest.fixture
def matrices(monkeypatch):
    """Records every Matrix built, by the checking constructor or _of_scalars."""
    built = []
    init, of_scalars = Matrix.__init__, Matrix._of_scalars.__func__

    def counting_init(self, *args):
        built.append("init")
        init(self, *args)

    def counting_of_scalars(cls, *args):
        built.append("_of_scalars")
        return of_scalars(cls, *args)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "_of_scalars", classmethod(counting_of_scalars))
    return built


def test_dimensions_build_no_matrix(matrices, tmp_path):
    a = from_terms(*_copy(alg("N", 11)))
    assert h1_dimension(a) == 12
    assert invariants.fingerprint(from_terms(*_copy(a))).dim_der == 22
    path = tmp_path / "n11.json"
    save(a, path)
    out = io.StringIO()
    assert main(["der", str(path)], out=out) == 0
    assert out.getvalue() == "dim Der: 22\ndim Inn: 10\ndim H1: 12\n"
    assert main(["replicate", "--section", "3", "--n", "21"], out=io.StringIO()) == 1
    assert matrices == []
    assert derivation_space(a).basis and inner_derivation_space(a).basis
    assert set(matrices) == {"_of_scalars"}


def test_weight_split_builds_no_matrix(matrices):
    a = from_terms(*_copy(alg("N", 11)))
    w = search_diagonal_gradation(a)
    der, inn = derivation_space(a), inner_derivation_space(a)
    assert sum(graded_derivation_split(a, w, der).values()) == der.dim == 22
    assert sum(graded_derivation_split(a, w, inn).values()) == inn.dim == 10
    assert matrices == []


def _copy(a):
    """(labels, terms) of an algebra, for an equal copy with no memo filled."""
    return a.labels, [(i, j, k, c) for i, j, terms in a.products() for k, c in terms]


def render_basis(der):
    """The dump as rendering the basis Matrices gives it."""
    lines = []
    for idx, m in enumerate(der.basis, start=1):
        lines.append("d%d:" % idx)
        lines += ["  " + " ".join(v.render() for v in row) for row in m.data]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["M(7)", "N(9)", "dense M1alpha(5, 1/2-1/3i)", "dense L1(7)", "lie"])
def test_sparse_dump_is_the_rendered_basis(name, tmp_path):
    a = {"M(7)": lambda: alg("M", 7), "N(9)": lambda: alg("N", 9),
         "lie": lie_ex,   # not nilpotent: the words are the basis
         "dense L1(7)": lambda: case("L1", 7, None, "small", name).b,
         "dense M1alpha(5, 1/2-1/3i)": lambda: case("M1alpha", 5, "1/2-1/3i", "rational", name).b}[name]()
    path = tmp_path / "a.json"
    save(a, path)
    out = io.StringIO()
    assert main(["der", str(path), "--dump"], out=out) == 0
    der = derivation_space(a)
    head = "dim Der: %d\ndim Inn: %d\ndim H1: %d\n" % (der.dim, inner_derivation_space(a).dim, h1_dimension(a))
    assert out.getvalue() == head + render_basis(der)
