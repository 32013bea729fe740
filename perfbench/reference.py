"""Answer references that do not come from the code under test.

* closed-form invariants of the catalog families (the paper's dimension
  formulas, with the computed values at the documented mismatches);
* a homogeneity check of a weight assignment, read straight off the
  structure constants;
* a brute-force gradation oracle: intervals in the documented offset order,
  bijections in lexicographic order, no pruning;
* the committed answers file ``expected.json`` (see make_expected.py).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected():
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def closed_form(family, n, alpha=None):
    """Invariants fixed by a formula for this catalog member (n >= 7)."""
    if n < 7:
        return {}
    if family == "M":
        return {"der": n + 6, "inn": 2, "h1": n + 4, "charseq": [n - 2, 1, 1, 1],
                "grade": list(range(1, n - 1)) + [-1, 0, n - 1]}
    if family == "N":
        # dim H1 = (n+13)/2 and charseq (n-2,2,1) are the computed values at
        # two of the documented acceptance mismatches
        return {"der": 3 * (n - 1) // 2 + 7, "inn": n - 1, "h1": (n + 13) // 2,
                "charseq": [n - 2, 2, 1]}
    if family == "M1alpha":
        der = n + 6 if alpha == "-1" else n + 5
        return {"der": der, "inn": 3, "h1": der - 3, "charseq": [n - 2, 1, 1, 1]}
    if family == "L1":
        return {"charseq": [n - 3, 1, 1, 1], "grade": None}
    if family == "NGF1":
        # [e1,e1] = e3 and [e2,e1] = e3 force w(e2) = w(e1)
        return {"charseq": [n - 1, 1], "grade": None}
    if family in ("KF4", "KF5"):
        return {"charseq": [n - 2, 1, 1]}
    return {}


def supports(algebra):
    """(i, j, result coordinates) of every nonzero product."""
    return [(i, j, [k for k, c in enumerate(vec) if c]) for (i, j), vec in algebra.gamma.items()]


def is_maximum_length_gradation(algebra, weights):
    """Distinct weights filling an interval, every product homogeneous."""
    d = algebra.dim
    if len(weights) != d or len(set(weights)) != d or max(weights) - min(weights) != d - 1:
        return False
    return all(weights[k] == weights[i] + weights[j]
               for i, j, ks in supports(algebra) for k in ks)


def offsets(d, max_abs):
    return sorted(range(-max_abs, max_abs - d + 2), key=lambda a: (abs(a - 1), 0 if a >= 1 else 1))


def oracle_gradation(d, products, max_abs=None):
    """First interval (offset order) with a homogeneous bijection; the
    lexicographically least bijection on it.  products: (i, j, [k...])."""
    max_abs = 2 * d if max_abs is None else max_abs
    if d == 0 or d > 2 * max_abs + 1:
        return None
    if any(len(ks) > 1 for _, _, ks in products):
        return None
    cons = [(i, j, ks[0]) for i, j, ks in products]
    for a in offsets(d, max_abs):
        for w in itertools.permutations(range(a, a + d)):
            if all(w[i] + w[j] == w[k] for i, j, k in cons):
                return list(w)
    return None
