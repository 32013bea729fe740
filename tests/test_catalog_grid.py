"""Golden grid of catalog algebras.

Each line of data/catalog_grid.txt names one catalog spec and holds the
sha256 of its interchange file and, when the algebra is nilpotent, of the
interchange file of its associated graded algebra gr L; a few lines hold
the sha256 of a direct sum.  The grid pins every table byte for byte.
Rewrite it with

    PYTHONPATH=src python tests/test_catalog_grid.py

only when a table is meant to change.
"""

import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.dirname(__file__))

from conftest import DATA

from leibnizkit.catalog import FAMILIES, FamilyError, FamilySpec, build, param_names
from leibnizkit.core import direct_sum, dumps
from leibnizkit.invariants import central_series, natural_graded
from leibnizkit.scalars import parse_scalar

GRID = os.path.join(DATA, "catalog_grid.txt")
MAX_N = 21
ALPHAS = ("0", "1", "-1", "1i", "3+1i", "5/3")
VALUES = ("1", "-1", "2", "-1/2", "3/4", "1i", "-2i", "1+1i", "2/3-1/5i", "0")
SUMS = (
    (("M", 7, {}), ("N", 7, {})),
    (("L1", 8, {}), ("abelian", 2, {})),
    (("M1alpha", 6, {"alpha": "3+1i"}), ("M1alpha", 6, {"alpha": "3+1i"})),
    (("abelian", 0, {}), ("KF5", 7, {"alpha_3": "-1"})),
)


def _kf_params(family, n, seed):
    """A seeded subset of the KF parameters at size n, with mixed values."""
    rng = random.Random("%s-%d-%d" % (family, n, seed))
    names = sorted(param_names(family, n))
    chosen = rng.sample(names, rng.randint(1, len(names)))
    return {name: rng.choice(VALUES) for name in sorted(chosen)}


def grid_specs():
    """(family, n, {name: scalar text}) for every line but the sums."""
    specs = []
    for family in FAMILIES:
        for n in range(MAX_N + 1):
            if family == "M1alpha":
                specs += [(family, n, {"alpha": alpha}) for alpha in ALPHAS]
            else:
                specs.append((family, n, {}))
    for family in ("KF4", "KF5"):
        for n in (7, 8, 9, 12, 15):
            specs += [(family, n, _kf_params(family, n, seed)) for seed in range(3)]
        # a parameter that cancels the KF5 e_2 term, and explicit zeros
        specs.append((family, 9, {"alpha_3": "-1"}))
        specs.append((family, 9, {"beta_3": "0", "gamma_5": "0", "beta_2_4": "0"}))
    return specs


def _build(family, n, params):
    return build(FamilySpec(family, n, {k: parse_scalar(v) for k, v in params.items()}))


def _name(family, n, params):
    return " ".join([family, str(n)] + ["%s=%s" % kv for kv in sorted(params.items())])


def _sha(algebra):
    return hashlib.sha256(dumps(algebra).encode("utf-8")).hexdigest()


def grid_lines():
    lines = []
    for spec in grid_specs():
        try:
            a = _build(*spec)
        except FamilyError:
            continue  # n outside the family's range
        line = "%s build=%s" % (_name(*spec), _sha(a))
        if central_series(a).is_nilpotent:
            line += " graded=%s" % _sha(natural_graded(a)[0])
        lines.append(line)
    for left, right in SUMS:
        lines.append("sum %s + %s sum=%s"
                     % (_name(*left), _name(*right), _sha(direct_sum(_build(*left), _build(*right)))))
    return lines


def test_catalog_grid_matches_golden():
    with open(GRID, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    assert grid_lines() == want


if __name__ == "__main__":
    with open(GRID, "w", encoding="utf-8") as fh:
        fh.write("\n".join(grid_lines()) + "\n")
