"""Batch command-line front end; consumers are scripts and CI.

Exit codes: 0 success / verified, 1 verified-negative (violations found,
certificate rejected, search exhausted, replication mismatch), 2 usage or
parse errors.  Any other exception is a bug: main lets it propagate, and
the console entry point, console_main, prints its traceback and exits 3.
For fixed inputs and seeds every report is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import catalog, cohomology, core, gradations, invariants, iso, scalars
from .core import FormatError, NotLeibnizError
from .linalg import NotNilpotentError
from .scalars import ScalarParseError

CRASH = 3
USAGE_ERROR = 2
NEGATIVE = 1


def render_vector(algebra, vec):
    terms = []
    for k, c in enumerate(vec):
        if not c:
            continue
        if c == 1:
            terms.append(algebra.labels[k])
        else:
            terms.append("%s*%s" % (c.render(), algebra.labels[k]))
    return " + ".join(terms) if terms else "0"


def _print_violations(algebra, residuals, out):
    for i, j, k, vec in residuals:
        print("  (%s, %s, %s): residual %s"
              % (algebra.labels[i], algebra.labels[j], algebra.labels[k],
                 render_vector(algebra, vec)), file=out)


def cmd_check(args, out):
    algebra = core.load(args.algebra)
    residuals = core.leibniz_residual(algebra)
    if not residuals:
        print("Leibniz: OK (0 violations)", file=out)
        return 0
    print("Leibniz: FAIL (%d violations)" % len(residuals), file=out)
    _print_violations(algebra, residuals, out)
    return NEGATIVE


def cmd_invariants(args, out):
    algebra = core.load(args.algebra)
    series = invariants.central_series(algebra)
    print("dim: %d" % algebra.dim, file=out)
    print("series dims: %s" % ",".join(str(d) for d in series.dims), file=out)
    print("nilindex: %s" % (series.nilindex if series.is_nilpotent else "not nilpotent"), file=out)
    print("center dim: %d" % len(invariants.center(algebra)), file=out)
    print("right annihilator dim: %d" % len(invariants.right_annihilator(algebra)), file=out)
    if not series.is_nilpotent:
        return 0
    cs = invariants.characteristic_sequence(algebra, trials=args.trials, seed=args.seed)
    print("characteristic sequence: %s  [witnessed maximum; witness: %s]"
          % (cs.render(), render_vector(algebra, cs.witness)), file=out)
    p = invariants.p_filiform_class(cs)
    print("p-filiform: %s" % ("p=%d" % p if p is not None else "not p-filiform"), file=out)
    _, dims = invariants.natural_graded(algebra)
    print("natural gradation dims: %s" % ",".join(str(d) for d in dims), file=out)
    return 0


def cmd_der(args, out):
    algebra = core.load(args.algebra)
    der = cohomology.derivation_space(algebra)
    inn = cohomology.inner_derivation_space(algebra)
    h1 = cohomology.h1_dimension(algebra, der=der, inn=inn)
    print("dim Der: %d" % der.dim, file=out)
    print("dim Inn: %d" % inn.dim, file=out)
    print("dim H1: %d" % h1, file=out)
    if args.dump:
        # straight from the sparse rows: each entry (re + im*i)/l, "0" if absent
        n = der.n
        for idx, (lead, terms) in enumerate(der.rows, start=1):
            print("d%d:" % idx, file=out)
            entries = {c: scalars.from_gaussian(re, im, lead).render() for c, (re, im) in terms}
            for r in range(0, n * n, n):
                print("  " + " ".join(entries.get(c, "0") for c in range(r, r + n)), file=out)
    return 0


def cmd_h1(args, out):
    algebra = core.load(args.algebra)
    print("dim H1: %d" % cohomology.h1_dimension(algebra), file=out)
    return 0


def cmd_grade_verify(args, out):
    algebra = core.load(args.algebra)
    assignment = gradations.weights_load(args.weights, algebra)
    report = gradations.verify_gradation(algebra, assignment)
    print(report.render(algebra), file=out)
    return 0 if report.valid else NEGATIVE


def cmd_grade_search(args, out):
    algebra = core.load(args.algebra)
    max_abs = args.max_abs if args.max_abs is not None else gradations.default_max_abs(algebra.dim)
    found = gradations.search_diagonal_gradation(algebra, max_abs)
    if found is None:
        print("none found (diagonal gradations exhausted up to |weight| <= %d; "
              "evidence restricted to the given basis, not a proof)" % max_abs, file=out)
        return NEGATIVE
    if args.out:   # written before any output, so a bad path prints nothing
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(gradations.weights_dumps(algebra, found))
    print("maximum-length assignment found:", file=out)
    for lb, w in zip(algebra.labels, found.weights):
        print("  %s: %d" % (lb, w), file=out)
    if args.out:
        print("wrote %s" % args.out, file=out)
    return 0


def _parse_params(pairs):
    params = {}
    for text in pairs or ():
        if "=" not in text:
            raise FormatError("--param expects name=value, got '%s'" % text)
        name, value = text.split("=", 1)
        params[name] = scalars.parse_scalar(value)
    return params


def cmd_catalog(args, out):
    spec = catalog.FamilySpec(args.family, args.n, _parse_params(args.param))
    algebra = catalog.build(spec)
    residuals = core.leibniz_residual(algebra)
    if args.out:
        core.save(algebra, args.out)
        print("wrote %s (dim %d, %d products) to %s"
              % (args.family, algebra.dim, sum(map(len, algebra.by_left)), args.out), file=out)
    else:
        out.write(core.dumps(algebra))
    if residuals:
        print("warning: %d Leibniz violations (parameters not admissible)"
              % len(residuals), file=out)
        _print_violations(algebra, residuals, out)
        return NEGATIVE
    return 0


def cmd_iso_verify(args, out):
    if args.map is None:
        if len(args.files) != 1:
            raise FormatError("iso-verify needs either CERT.json or SRC.json TGT.json --map MAP.json")
        cert = iso.certificate_load(args.files[0])
    else:
        if len(args.files) != 2:
            raise FormatError("iso-verify with --map needs SRC.json and TGT.json")
        source = core.load(args.files[0])
        target = core.load(args.files[1])
        doc = core.decode_json(core.read_text(args.map), args.map)
        if isinstance(doc, dict) and "map" in doc:
            doc = doc["map"]
        matrix = iso.matrix_from_json(doc, where=args.map)
        try:
            cert = iso.IsoCertificate(source, target, matrix)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    report = iso.verify_certificate(cert)
    if report.accepted:
        print("accept", file=out)
        return 0
    print("reject: %s" % report.reason, file=out)
    return NEGATIVE


def cmd_fingerprint(args, out):
    if len(args.files) > 2:
        raise FormatError("fingerprint takes one or two files, got %d" % len(args.files))
    # every fingerprint is computed before the first line, so an error prints nothing
    fps = [invariants.fingerprint(core.load(path), trials=args.trials, seed=args.seed)
           for path in args.files]
    for fp in fps:
        print(fp.record(), file=out)
    if len(fps) == 2:
        field = iso.first_difference(*fps)
        print("inconclusive" if field is None else "distinguished(%s)" % field, file=out)
    return 0


def _pass_fail(out, label, ok, detail=""):
    tail = "  %s" % detail if detail else ""
    print("%s %s%s" % ("PASS" if ok else "FAIL", label, tail), file=out)
    return ok


def cmd_replicate(args, out):
    n = args.n
    ok = True
    if args.section == 3:
        rows = [("M", catalog.FamilySpec("M", n), n + 6, n + 4),
                ("M^{1,1}", catalog.FamilySpec("M1alpha", n, {"alpha": scalars.ONE}), n + 5, n + 2)]
        if n % 2 == 1:
            rows.insert(0, ("N", catalog.FamilySpec("N", n), 3 * (n - 1) // 2 + 7, (n + 19) // 2))
        built = [catalog.build(spec) for _, spec, _, _ in rows]   # a FamilyError before any output
        if n % 2 == 0:
            print("note: N skipped (needs odd n)", file=out)
        for (name, _, want_der, want_h1), algebra in zip(rows, built):
            der = cohomology.derivation_space(algebra)
            inn = cohomology.inner_derivation_space(algebra)
            h1 = cohomology.h1_dimension(algebra, der=der, inn=inn)
            print("%-8s dim Der = %-3d dim Inn = %-3d dim H1 = %-3d" % (name, der.dim, inn.dim, h1), file=out)
            ok &= _pass_fail(out, "%s: dim Der = %d" % (name, want_der), der.dim == want_der,
                             "(computed %d)" % der.dim)
            ok &= _pass_fail(out, "%s: dim H1 = %d" % (name, want_h1), h1 == want_h1,
                             "(computed %d)" % h1)
        return 0 if ok else NEGATIVE

    # section 2: laws, characteristic sequences, gradations
    zero_param_specs = [
        ("L1", catalog.FamilySpec("L1", n), (n - 3, 1, 1, 1)),
        ("NGF1", catalog.FamilySpec("NGF1", n), (n - 1, 1)),
        ("KF4", catalog.FamilySpec("KF4", n), (n - 2, 1, 1)),
        ("KF5", catalog.FamilySpec("KF5", n), (n - 2, 1, 1)),
        ("M", catalog.FamilySpec("M", n), (n - 2, 1, 1, 1)),
        ("M^{1,1}", catalog.FamilySpec("M1alpha", n, {"alpha": scalars.ONE}), (n - 2, 1, 1, 1)),
    ]
    if n % 2 == 1:
        zero_param_specs.append(("N", catalog.FamilySpec("N", n), (n - 2, 1, 1, 1)))
    algebras = {name: catalog.build(spec) for name, spec, _ in zero_param_specs}
    if n % 2 == 0:
        print("note: N skipped (needs odd n)", file=out)
    for name, _, want_cs in zero_param_specs:
        algebra = algebras[name]
        residuals = core.leibniz_residual(algebra)
        ok &= _pass_fail(out, "%s: Leibniz identity" % name, not residuals,
                         "(%d violations)" % len(residuals) if residuals else "")
        cs = invariants.characteristic_sequence(algebra, trials=args.trials, seed=args.seed)
        ok &= _pass_fail(out, "%s: characteristic sequence %s" % (name, want_cs), cs.parts == want_cs,
                         "(computed %s)" % (cs.parts,))
    _, dims = invariants.natural_graded(algebras["L1"])
    want = (3, 2) + (1,) * (n - 5)
    ok &= _pass_fail(out, "L1: natural gradation dims %s" % (want,), dims == want,
                     "(computed %s)" % (dims,))
    chain_weights = gradations.WeightAssignment(list(range(1, n - 1)) + [-1, 0, n - 1])
    for name in ("M", "M^{1,1}"):
        report = gradations.verify_gradation(algebras[name], chain_weights)
        ok &= _pass_fail(out, "%s: explicit maximum-length certificate" % name, report.maximum_length)
    if "N" in algebras:
        found = gradations.search_diagonal_gradation(algebras["N"], args.max_abs)
        ok &= _pass_fail(out, "N: diagonal maximum-length gradation found", found is not None)
    found = gradations.search_diagonal_gradation(algebras["L1"], args.max_abs)
    ok &= _pass_fail(out, "L1: no diagonal maximum-length gradation (evidence)", found is None)
    return 0 if ok else NEGATIVE


def count(text):
    """argparse type of --trials and --max-abs: an int >= 1, checked before any output."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leibnizkit",
        description="Exact invariants, gradations and cohomology for Leibniz algebras "
                    "presented by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Leibniz identity residual of an algebra file")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="series, annihilators, characteristic sequence")
    p.add_argument("algebra")
    p.add_argument("--trials", type=count, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("der", help="derivation space, inner derivations, H1")
    p.add_argument("algebra")
    p.add_argument("--dump", action="store_true", help="print the derivation basis matrices")
    p.set_defaults(func=cmd_der)

    p = sub.add_parser("h1", help="first cohomology dimension")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("grade-verify", help="verify a weight assignment as a Z-gradation")
    p.add_argument("algebra")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_grade_verify)

    p = sub.add_parser("grade-search", help="search diagonal maximum-length gradations")
    p.add_argument("algebra")
    p.add_argument("--max-abs", type=count, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grade_search)

    p = sub.add_parser("catalog", help="emit a catalog algebra as an interchange file")
    p.add_argument("--family", required=True, choices=sorted(catalog.FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("iso-verify", help="verify an isomorphism certificate")
    p.add_argument("files", nargs="+")
    p.add_argument("--map")
    p.set_defaults(func=cmd_iso_verify)

    p = sub.add_parser("fingerprint", help="fingerprint one algebra, or compare two")
    p.add_argument("files", nargs="+")
    p.add_argument("--trials", type=count, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser(
        "replicate",
        help="built-in verification suites: 2 = laws, sequences and gradations; "
             "3 = derivation and cohomology dimension formulas",
    )
    p.add_argument("--section", type=int, required=True, choices=(2, 3))
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--trials", type=count, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-abs", type=count, default=None)
    p.set_defaults(func=cmd_replicate)

    return parser


@functools.cache
def _parser():   # built on first use, not at import, then reused: parsing does not change it
    return build_parser()


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args, out)
    except (FormatError, ScalarParseError, catalog.FamilyError, NotLeibnizError,
            NotNilpotentError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


def console_main():
    """main for the console script: a crash prints its traceback, exits 3."""
    try:
        return main()
    except Exception:
        sys.excepthook(*sys.exc_info())  # the interpreter's own traceback
        return CRASH


if __name__ == "__main__":
    sys.exit(console_main())
