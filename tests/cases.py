"""The isomorphism-invariance case table.

The package classifies algebras up to isomorphism, so most of the suite
checks that an answer is the same in every basis.  A case is a catalog
algebra (family, n, alpha) moved by the index-th matrix that
random.Random(seed) draws for it by one move kind of MOVES:

- "bench": the benchmark's dense-basis move, entries in (-2, -1, 1, 2);
- "signed": the same draw with the entries in the order (1, -1, 2, -2);
- "small": small random ints, zeros allowed;
- "rational": Gaussian rationals, none zero;
- "gaussian": entries from 1, -1, 2, 1/2, i and 1 + i;
- "ci": the CI's fixed dense P (conftest.ci_move), from no stream.

case() builds each case once a session.  It holds the catalog table a, the
moved table b = change_of_basis(a, P), which carries the change-of-basis
link, and c = loads(dumps(b)), which has none (b = c = a with no move).
kept(table) holds what is computed on one table, shared by equal tables:
get(name, *args) runs NAMES[name] once and keeps the answer, and
right_type(x) keeps the oracle Jordan type of R_x, which the uncut
characteristic-sequence loop and the ceiling's premise both read.  To add
an invariant or an oracle, add it to NAMES.  The tables here fill their
memos, so a test that counts work takes conftest.fresh of one.
"""

import random
from fractions import Fraction
from functools import cache, cached_property

from conftest import alg, ci_move, fresh

from oracles import (
    oracle_center,
    oracle_characteristic_sequence,
    oracle_derivation_space,
    oracle_kernel_maps,
    oracle_right_annihilator,
    oracle_right_type,
)

from leibnizkit import core
from leibnizkit.catalog import _FAMILY_TABLE, FAMILIES
from leibnizkit.cohomology import derivation_space, inner_derivation_space
from leibnizkit.linalg import Matrix, rank
from leibnizkit.scalars import ONE, Scalar, parse_scalar


def _invertible(entry, n):
    """n x n matrices of entry() drawn in turn until one is invertible."""
    while True:
        m = Matrix(n, n, [[entry() for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def dense_basis_move(rng, n, entries=(-2, -1, 1, 2)):
    """The benchmark's dense-basis move (perfbench/workloads.py,
    random_invertible) with the default entries."""
    return _invertible(lambda: Scalar(rng.choice(entries)), n)


def random_invertible(rng, n, lo=-2, hi=2):
    return _invertible(lambda: Scalar(rng.randint(lo, hi)), n)


def dense_rational_move(rng, n):
    """An invertible n x n matrix of Gaussian rationals, every entry nonzero."""
    return _invertible(lambda: Scalar(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
                                      Fraction(rng.randint(-1, 1), rng.randint(1, 2))), n)


GAUSSIAN_ENTRIES = tuple(map(parse_scalar, ("1", "-1", "2", "1/2", "1i", "1+1i")))

MOVES = {
    "bench": dense_basis_move,
    "signed": lambda rng, n: dense_basis_move(rng, n, (1, -1, 2, -2)),
    "small": random_invertible,
    "rational": dense_rational_move,
    "gaussian": lambda rng, n: _invertible(lambda: rng.choice(GAUSSIAN_ENTRIES), n),
}


@cache
def draw(kind, seed, dims):
    """The last of the matrices Random(seed) draws in turn by MOVES[kind]
    for the sizes dims, and the rng's state after it."""
    rng = random.Random(seed)
    if len(dims) > 1:
        rng.setstate(draw(kind, seed, dims[:-1])[1])
    return MOVES[kind](rng, dims[-1]), rng.getstate()


def catalog(sizes, alphas=("-1", "1", "1i"), families=FAMILIES):
    """(family, n, alpha) for each family at each n of sizes where the
    catalog has it (its least n and parity), M1alpha at each of alphas and
    the others at alpha None."""
    return [(family, n, alpha) for n in sizes for family in families
            for _, least, odd in (_FAMILY_TABLE[family],) if n >= least and (n % 2 or not odd)
            for alpha in (alphas if family == "M1alpha" else (None,))]


def catalog_algebra(family, n, alpha=None):
    """The catalog table of (family, n, alpha), alpha scalar text or None."""
    return alg(family, n, **({"alpha": parse_scalar(alpha)} if alpha else {}))


def _on_table(compute):
    return lambda k, *args: compute(k.table, *args)


NAMES = {
    "der": _on_table(derivation_space),
    "inn": _on_table(inner_derivation_space),
    "oracle_center": _on_table(oracle_center),
    "oracle_characteristic_sequence": lambda k, trials=20, seed=1: oracle_characteristic_sequence(
        k.table, trials, seed, right_type=k.right_type),
    "oracle_derivation_space": _on_table(oracle_derivation_space),
    "oracle_kernel_maps": _on_table(oracle_kernel_maps),
    "oracle_right_annihilator": _on_table(oracle_right_annihilator),
}


class Kept:
    """One table and what has been computed on it, each once."""

    def __init__(self, table):
        self.table = table
        self._kept = {}

    def get(self, name, *args):
        key = (name,) + args
        if key not in self._kept:
            self._kept[key] = NAMES[name](self, *args)
        return self._kept[key]

    def right_type(self, x):
        key = ("right_type", tuple(sorted(x.items())))
        if key not in self._kept:
            self._kept[key] = oracle_right_type(self.table, x)
        return self._kept[key]


@cache
def kept(table):
    """The Kept of the session for table; equal tables share it.  A table
    whose link would be read is kept as read back, with none."""
    return Kept(table if core.sparser_source(table) is None else core.loads(core.dumps(table)))


class Case:
    """A catalog algebra moved by the index-th matrix of its stream."""

    def __init__(self, family, n, alpha, kind, seed, index):
        self.kind, self.seed, self.index = kind, seed, index
        self.a = catalog_algebra(family, n, alpha)

    @cached_property
    def p(self):
        if self.kind == "ci":
            return ci_move(self.a.dim)
        return draw(self.kind, self.seed, (self.a.dim,) * (self.index + 1))[0]

    @cached_property
    def b(self):
        return self.a if self.kind is None else core.change_of_basis(self.a, self.p)

    @cached_property
    def c(self):
        return self.a if self.kind is None else core.loads(core.dumps(self.b))

    @property
    def kept(self):
        return kept(self.c)

    def rng(self):
        """The case's stream as it stands after its matrix was drawn."""
        rng = random.Random()
        rng.setstate(draw(self.kind, self.seed, (self.a.dim,) * (self.index + 1))[1])
        return rng


@cache
def case(family, n, alpha=None, kind=None, seed=None, index=0):
    return Case(family, n, alpha, kind, seed, index)


def moved(family, n, alpha, kind, seed, count):
    """The first count cases of one stream."""
    return [case(family, n, alpha, kind, seed, index) for index in range(count)]


def ci_not_leibniz(i=1, j=1, k=5):
    """The CI's non-Leibniz guard: M^{1,3+i}(11) moved by the CI's P, with
    [e_i, e_j] += e_k ([y1, y1] += y5 by default)."""
    return fresh(case("M1alpha", 11, "3+1i", "ci").c, (i, j, k, ONE))
