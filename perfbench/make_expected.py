"""Regenerate perfbench/expected.json, the committed answers file.

Run from the root of a source checkout:

    python3 perfbench/make_expected.py

* ``pool``: for every table of the gradation pool, the answer of the
  brute-force oracle in reference.py (no leibnizkit code involved).
* ``catalog``: answers for the catalog algebras the workloads use, frozen
  from a run of the library after checking them against every closed form
  in reference.closed_form; the dense-basis workload compares a transported
  algebra's invariants with these catalog-basis answers.
* ``cli``: exit code and stdout digest of every cli job with a fixed input.

The file changes only when a workload's inputs change or an answer is shown
wrong; a program change that alters an answer makes the benchmark fail.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import workloads as w  # noqa: E402
from leibnizkit import cli, gradations  # noqa: E402


def pool_answers():
    out = {}
    for name, d, prods in w.pool_tables():
        weights = reference.oracle_gradation(d, [(i, j, [k]) for i, j, k, _ in prods])
        found = gradations.search_diagonal_gradation(w.table_algebra(d, prods))
        library = None if found is None else list(found.weights)
        if library != weights:
            print("note: %s oracle %s, library %s" % (name, weights, library))
        out[name] = {"table": reference.sha(repr(prods)), "weights": weights}
        print("pool", name, weights, flush=True)
    return out


def catalog_keys():
    """(family, n, alpha) -> whether a workload also searches its gradation."""
    keys = {}
    for f, n, alpha in w.DENSE_STRATA:
        keys[(f, n, alpha)] = False
    for n, families in w.LARGE_STRATA.items():
        for f, alpha in families:
            keys[(f, n, alpha)] = True
    for f, alpha in w.CLI_FAMILIES + tuple(x for pair in w.CLI_FINGERPRINT_PAIRS for x in pair):
        for n in w.CLI_SIZES:
            keys[(f, n, alpha)] = True
    return sorted(keys.items(), key=repr)


def catalog_answers():
    out = {}
    for (f, n, alpha), grade in catalog_keys():
        r = w.full_report(w.catalog.build(w.spec_of(f, n, alpha)), grade=grade)
        problems = []
        w.check_invariants(problems, w.summary(r), f, n, alpha, {"summary": {}})
        entry = {"summary": w.summary(r), "digest": reference.sha(w.render_report(r))}
        if grade:
            entry["grade"] = None if r["grade"] is None else list(r["grade"].weights)
            form = reference.closed_form(f, n, alpha)
            w.check_grade(problems, r["algebra"], r["grade"], r["grade_report"],
                          form.get("grade", entry["grade"]))
        if problems:
            raise SystemExit("%s: %s" % (w.key_of(f, n, alpha), "; ".join(problems)))
        out[w.key_of(f, n, alpha)] = entry
        print("catalog", w.key_of(f, n, alpha), flush=True)
    for f, n in w.GRADE_CATALOG:
        if "grade" in reference.closed_form(f, n):
            continue
        found = w.gradations.search_diagonal_gradation(w.catalog.build(w.spec_of(f, n)))
        out.setdefault(w.key_of(f, n), {})["grade"] = None if found is None else list(found.weights)
    return out


def cli_answers(expected):
    workdir = os.path.join(ROOT, ".bench_out", "make-expected")
    out = {}
    for argv, key in w.cli_inputs(random.Random(0), expected, workdir):
        buf = io.StringIO()
        code = cli.main(argv, out=buf)
        if key is None:
            if code != 0 or buf.getvalue() != "accept\n":
                raise SystemExit("certificate %s not accepted" % argv[1])
            continue
        out[key] = {"code": code, "digest": reference.sha(buf.getvalue())}
    return out


def main():
    expected = {"pool": pool_answers(), "catalog": catalog_answers()}
    expected["cli"] = cli_answers(expected)
    with open(reference.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % reference.EXPECTED_PATH)


if __name__ == "__main__":
    main()
