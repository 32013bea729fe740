"""The four benchmark workloads: inputs built from the seed, jobs, checks.

A workload builder returns rounds of jobs, all rounds the same length;
run.py runs them in order as a closed loop with one caller.  A job is
``run()`` (the timed part: only calls into leibnizkit, through module
attributes so a Tracer can wrap them) plus ``check(result)`` (untimed:
renders the answer and compares it with a reference that does not come
from the code under test).  Each round holds every stratum of the workload
once, in a seeded order, so whole rounds of runs with different seeds do
the same mix of work.
"""

from __future__ import annotations

import io
import json
import os
import random

from leibnizkit import catalog, cli, cohomology, core, gradations, invariants, iso
from leibnizkit.linalg import Matrix
from leibnizkit.scalars import Scalar, parse_scalar

import reference

MODULES = {"catalog": catalog, "core": core, "invariants": invariants,
           "cohomology": cohomology, "gradations": gradations, "iso": iso, "cli": cli}

TRIALS, CS_SEED = 20, 1   # the CLI defaults for the characteristic sequence
ROUNDS = 64               # rounds generated per run; the loop cycles if it runs out


def interleave(rng, groups):
    """One round: every item of every group once, each group in a seeded
    order, the groups taking turns, so that any prefix of a round holds
    about the same share of every group."""
    queues = [rng.sample(g, len(g)) for g in groups]
    out = []
    while any(queues):
        turn = [q for q in queues if q]
        rng.shuffle(turn)
        out.extend(q.pop() for q in turn)
    return out


def key_of(family, n, alpha=None):
    return "%s/%d" % (family, n) + ("/alpha=%s" % alpha if alpha is not None else "")


def spec_of(family, n, alpha=None):
    params = {"alpha": parse_scalar(alpha)} if alpha is not None else None
    return catalog.FamilySpec(family, n, params)


class Job:
    """key names the input; span, when set, names the one call run() makes."""

    __slots__ = ("key", "run", "check", "span")

    def __init__(self, key, run, check, span=None):
        self.key = key
        self.run = run
        self.check = check
        self.span = span


# -- the full report shared by catalog-large and dense-basis ----------------

def full_report(a, grade):
    r = {"algebra": a}
    r["residual"] = core.leibniz_residual(a)
    r["series"] = invariants.central_series(a)
    r["center"] = invariants.center(a)
    r["rann"] = invariants.right_annihilator(a)
    r["charseq"] = invariants.characteristic_sequence(a, trials=TRIALS, seed=CS_SEED)
    r["natural"] = invariants.natural_graded(a)[1]
    r["der"] = cohomology.derivation_space(a)
    r["inn"] = cohomology.inner_derivation_space(a)
    r["h1"] = cohomology.h1_dimension(a, der=r["der"], inn=r["inn"])
    if grade:
        found = gradations.search_diagonal_gradation(a)
        r["grade"] = found
        r["grade_report"] = gradations.verify_gradation(a, found) if found is not None else None
    return r


def warm_up():
    """A small fixed report through every module a job calls."""
    full_report(catalog.build(spec_of("M", 7)), grade=True)


def summary(r):
    """The basis-independent answers of a report."""
    return {"residual": len(r["residual"]), "series": list(r["series"].dims),
            "nilindex": r["series"].nilindex, "center": len(r["center"]),
            "rann": len(r["rann"]), "charseq": list(r["charseq"].parts),
            "natural": list(r["natural"]), "der": r["der"].dim, "inn": r["inn"].dim,
            "h1": r["h1"]}


def render_report(r):
    a = r["algebra"]
    lines = ["%s: %s" % kv for kv in sorted(summary(r).items())]
    lines.append("witness: " + " ".join(c.render() for c in r["charseq"].witness))
    for m in r["der"].basis:
        lines.append("der: " + " ".join(v.render() for v in m.flat()))
    if "grade" in r:
        g = r["grade"]
        lines.append("grade: " + ("none" if g is None else " ".join(map(str, g.weights))))
        if g is not None:
            lines.append(r["grade_report"].render(a))
    return "\n".join(lines) + "\n"


def compare(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, want %r" % (what, got, want))


def check_invariants(problems, got, family, n, alpha, golden):
    """Answers against the closed forms and the frozen catalog-basis answers."""
    want = dict(golden["summary"])
    form = reference.closed_form(family, n, alpha)
    for field in ("der", "inn", "h1", "charseq"):
        if field in form:
            compare(problems, field + " (closed form)", got[field], form[field])
    compare(problems, "inn = dim - dim R(L)", got["inn"], got["series"][0] - got["rann"])
    for field, value in want.items():
        compare(problems, field, got[field], value)


def check_grade(problems, a, found, report, want):
    weights = None if found is None else list(found.weights)
    compare(problems, "grade", weights, want)
    if found is not None:
        if not reference.is_maximum_length_gradation(a, weights):
            problems.append("grade: found assignment is not a homogeneous maximum-length gradation")
        if report is None or not report.maximum_length:
            problems.append("grade: verify_gradation does not confirm maximum length")


# -- catalog-large ------------------------------------------------------------

# (family, alpha) x size; alpha = -1 is the exceptional point of M1alpha,
# alpha = i exercises Gaussian arithmetic.  NGF1 only at n = 11: with an odd
# number of strata the median job lies inside one stratum (N(11)) for any
# number of whole rounds, not halfway across the gap between the sizes.
LARGE_FAMILIES = (("N", None), ("M", None), ("M1alpha", "-1"), ("M1alpha", "1i"), ("L1", None),
                  ("KF5", None), ("NGF1", None))
LARGE_STRATA = {11: LARGE_FAMILIES, 15: LARGE_FAMILIES[:-1]}


def catalog_large(rng, expected, workdir):
    rounds = []
    for _ in range(ROUNDS):
        round_ = []
        for (f, alpha), n in interleave(rng, [[(fa, n) for fa in fams]
                                              for n, fams in LARGE_STRATA.items()]):
            key = key_of(f, n, alpha)
            round_.append(Job(key, _large_run(f, n, alpha),
                              _large_check(f, n, alpha, expected["catalog"][key])))
        rounds.append(round_)
    return rounds


def _large_run(f, n, alpha):
    spec = spec_of(f, n, alpha)

    def run():
        return full_report(catalog.build(spec), grade=True)
    return run


def _large_check(f, n, alpha, golden):
    def check(r):
        problems = []
        check_invariants(problems, summary(r), f, n, alpha, golden)
        form = reference.closed_form(f, n, alpha)
        want = form["grade"] if "grade" in form else golden["grade"]
        check_grade(problems, r["algebra"], r["grade"], r["grade_report"], want)
        text = render_report(r)
        compare(problems, "rendered report digest", reference.sha(text), golden["digest"])
        return text, problems
    return check


# -- dense-basis --------------------------------------------------------------

# the two strata of dimension 6 over Q cost about the same and take the
# middle half of the jobs, so the median job lies inside them; the Gaussian
# alpha = 3+i stratum costs twice as much and is the tail (p90)
DENSE_STRATA = (("NGF1", 5, None), ("M", 5, None), ("M1alpha", 5, "3+1i"), ("M1alpha", 5, "-1"))
# no zero entries: every structure constant of the moved algebra mixes all
# of the old ones, so job times of one stratum stay within a few percent of
# each other whatever the seed (with zeros allowed they spread by 3x)
DENSE_ENTRIES = (-2, -1, 1, 2)


def random_invertible(rng, n):
    """Dense integer matrix with entries from DENSE_ENTRIES, nonzero determinant."""
    while True:
        rows = [[rng.choice(DENSE_ENTRIES) for _ in range(n)] for _ in range(n)]
        if integer_det(rows):
            return Matrix(n, n, rows)


def integer_det(rows):
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def dense_basis(rng, expected, workdir):
    built = {}
    rounds = []
    for _ in range(ROUNDS):
        round_ = []
        for f, n, alpha in rng.sample(DENSE_STRATA, len(DENSE_STRATA)):
            key = key_of(f, n, alpha)
            if key not in built:
                built[key] = catalog.build(spec_of(f, n, alpha))
            a = built[key]
            p = random_invertible(rng, a.dim)
            round_.append(Job(key, _dense_run(a, p),
                              _dense_check(f, n, alpha, expected["catalog"][key])))
        rounds.append(round_)
    return rounds


def _dense_run(a, p):
    def run():
        b = core.change_of_basis(a, p)
        cert = iso.verify_certificate(iso.IsoCertificate(b, a, p))
        r = full_report(b, grade=False)
        r["certificate"] = cert
        return r
    return run


def _dense_check(f, n, alpha, golden):
    def check(r):
        problems = []
        if not r["certificate"].accepted:
            problems.append("certificate back to the catalog basis rejected: %s"
                            % r["certificate"].reason)
        check_invariants(problems, summary(r), f, n, alpha, golden)
        return render_report(r), problems
    return check


# -- grade-search -------------------------------------------------------------

POOL_SEED = 1310
POOL_CELLS = [(d, kind, m) for d in (7, 8) for kind, ms in (("planted", (3, 4, 6)),
                                                            ("random", (2, 3, 4, 6)))
              for m in ms]
POOL_PER_CELL = 2
POOL_COEFFS = ("1", "-1", "2", "1/2", "1i")
GRADE_CATALOG = (("L1", 43), ("N", 43), ("M", 61), ("NGF1", 17))


def pool_tables():
    """Fixed pool of sparse tables, one result coordinate per product:
    [(name, d, [(i, j, k, coeff)])].  Independent of the run seed, so the
    oracle's answers can be committed."""
    rng = random.Random(POOL_SEED)
    pool = []
    for d, kind, m in POOL_CELLS:
        for t in range(POOL_PER_CELL):
            if kind == "planted":
                w = list(range(d))
                rng.shuffle(w)
                pos = {x: idx for idx, x in enumerate(w)}
                cand = [(i, j, pos[w[i] + w[j]]) for i in range(d) for j in range(d)
                        if w[i] + w[j] in pos]
            else:
                cand = [(i, j, rng.randrange(d)) for i in range(d) for j in range(d)]
            prods = sorted(rng.sample(cand, min(m, len(cand))))
            pool.append(("%s-d%d-m%d-%d" % (kind, d, m, t), d,
                         [(i, j, k, rng.choice(POOL_COEFFS)) for i, j, k in prods]))
    for d in (6, 7, 8):
        # late-binding negative: [e_{d-1},e_{d-1}] = [e_{d-2},e_{d-2}] = e_0
        pool.append(("late-d%d" % d, d, [(d - 2, d - 2, 0, "1"), (d - 1, d - 1, 0, "1")]))
    return pool


def table_algebra(d, prods):
    gamma = {}
    for i, j, k, c in prods:
        v = [Scalar(0)] * d
        v[k] = parse_scalar(c)
        gamma[(i, j)] = tuple(v)
    return core.Algebra(["e%d" % t for t in range(d)], gamma)


def grade_search(rng, expected, workdir):
    answers = expected["pool"]
    entries = []
    for name, d, prods in pool_tables():
        if name not in answers or answers[name]["table"] != reference.sha(repr(prods)):
            raise RuntimeError("gradation pool entry %s differs from expected.json" % name)
        entries.append((name, table_algebra(d, prods), answers[name]["weights"]))
    groups = {}
    for name, a, want in entries:
        group = "late" if name.startswith("late") else name.split("-m")[0]   # kind and d
        groups.setdefault(group, []).append((name, lambda a=a: a, want))
    catalog_jobs = []
    for f, n in GRADE_CATALOG:
        form = reference.closed_form(f, n)
        want = form["grade"] if "grade" in form else expected["catalog"][key_of(f, n)]["grade"]
        spec = spec_of(f, n)
        catalog_jobs.append((key_of(f, n), lambda spec=spec: catalog.build(spec), want))
    groups = list(groups.values()) + [catalog_jobs]
    return [[Job(key, _grade_run(make), _grade_check(want))
             for key, make, want in interleave(rng, groups)] for _ in range(ROUNDS)]


def _grade_run(make):
    def run():
        a = make()
        found = gradations.search_diagonal_gradation(a)
        report = gradations.verify_gradation(a, found) if found is not None else None
        return {"algebra": a, "grade": found, "grade_report": report}
    return run


def _grade_check(want):
    def check(r):
        problems = []
        check_grade(problems, r["algebra"], r["grade"], r["grade_report"], want)
        g = r["grade"]
        text = "none\n" if g is None else " ".join(map(str, g.weights)) + "\n"
        return text, problems
    return check


# -- cli-batch ----------------------------------------------------------------

CLI_FAMILIES = (("M", None), ("N", None), ("M1alpha", "1i"), ("L1", None), ("KF5", None),
                ("NGF1", None))
CLI_SIZES = (7, 9)
CLI_FINGERPRINT_PAIRS = ((("M", None), ("M1alpha", "1")), (("M1alpha", "1i"), ("M1alpha", "-1")),
                         (("N", None), ("N", None)), (("KF4", None), ("KF5", None)))
CLI_GRADED = (("M", None), ("N", None), ("L1", None))   # grade-verify inputs
CLI_CERTS = 8


def cli_inputs(rng, expected, workdir):
    """Write algebra, weights and certificate files; return their paths."""
    os.makedirs(workdir, exist_ok=True)
    files = {}

    def algebra_file(f, n, alpha):
        key = key_of(f, n, alpha)
        if key not in files:
            path = os.path.join(workdir, key.replace("/", "_") + ".json")
            core.save(catalog.build(spec_of(f, n, alpha)), path)
            files[key] = path
        return files[key]

    weights = {}
    for f, alpha in CLI_GRADED:
        for n in CLI_SIZES:
            key = key_of(f, n, alpha)
            a = core.load(algebra_file(f, n, alpha))
            w = expected["catalog"][key]["grade"] or list(range(a.dim))
            path = os.path.join(workdir, key.replace("/", "_") + ".weights.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gradations.weights_dumps(a, gradations.WeightAssignment(w)))
            weights[key] = path
    certs = []
    for t in range(CLI_CERTS):
        f, alpha = CLI_FAMILIES[t % len(CLI_FAMILIES)]
        a = core.load(algebra_file(f, CLI_SIZES[0], alpha))
        p = random_invertible(rng, a.dim)
        path = os.path.join(workdir, "cert-%d.json" % t)
        doc = {"source": core.to_json_dict(core.change_of_basis(a, p)),
               "target": core.to_json_dict(a),
               "map": [[v.render() for v in row] for row in p.data]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        certs.append(path)
    jobs = []   # (argv, golden key; None for iso-verify, whose answer is "accept")
    for f, alpha in CLI_FAMILIES:
        for n in CLI_SIZES:
            key = key_of(f, n, alpha)
            path = algebra_file(f, n, alpha)
            jobs.append((["check", path], "check " + key))
            jobs.append((["invariants", path], "invariants " + key))
            jobs.append((["der", path, "--dump"], "der " + key))
    for (fa, aa), (fb, ab) in CLI_FINGERPRINT_PAIRS:
        for n in CLI_SIZES:
            ka, kb = key_of(fa, n, aa), key_of(fb, n, ab)
            jobs.append((["fingerprint", algebra_file(fa, n, aa), algebra_file(fb, n, ab)],
                         "fingerprint %s %s" % (ka, kb)))
    for key, path in weights.items():
        jobs.append((["grade-verify", files[key], "--weights", path], "grade-verify " + key))
    jobs.extend((["iso-verify", path], None) for path in certs)
    return jobs


def cli_batch(rng, expected, workdir):
    rounds = []
    accept = {"code": 0, "digest": reference.sha("accept\n")}
    jobs = cli_inputs(rng, expected, workdir)
    for _ in range(ROUNDS):
        rounds.append([Job(key or "iso-verify", _cli_run(argv),
                           _cli_check(expected["cli"][key] if key else accept),
                           span="cli." + argv[0])
                       for argv, key in rng.sample(jobs, len(jobs))])
    return rounds


def _cli_run(argv):
    def run():
        buf = io.StringIO()
        code = cli.main(argv, out=buf)
        return {"code": code, "out": buf.getvalue()}
    return run


def _cli_check(want):
    def check(r):
        problems = []
        compare(problems, "exit code", r["code"], want["code"])
        compare(problems, "stdout digest", reference.sha(r["out"]), want["digest"])
        return r["out"], problems
    return check


WORKLOADS = {
    "catalog-large": catalog_large,
    "dense-basis": dense_basis,
    "grade-search": grade_search,
    "cli-batch": cli_batch,
}

# percentile reported as job_tail_s: the highest with >= 10 jobs beyond it at
# the job counts these workloads reach in a run, except on dense-basis, whose
# 12-16 jobs leave fewer than 10 beyond any percentile above the median.
# Each lies in the middle of a group of strata of about the same cost (on
# grade-search p83: the tables random-d8-m3-1 and late-d7 and NGF1(17)), so
# that it is not the top or bottom sample of a group.
TAIL_PERCENTILE = {"catalog-large": 70, "dense-basis": 90, "grade-search": 83, "cli-batch": 90}
