import io
import json
import subprocess
import sys

import pytest

from conftest import DATA, alg, mutated_m7

from leibnizkit import core, gradations
from leibnizkit.cli import main
from leibnizkit.core import change_of_basis
from leibnizkit.linalg import Matrix
from leibnizkit.scalars import Scalar


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


@pytest.fixture
def m7_file(tmp_path):
    path = tmp_path / "m7.json"
    core.save(alg("M", 7), path)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    core.save(mutated_m7(), path)
    return str(path)


def test_check_ok(m7_file):
    code, out = run_cli("check", m7_file)
    assert code == 0
    assert out == "Leibniz: OK (0 violations)\n"


def test_check_negative(bad_file):
    code, out = run_cli("check", bad_file)
    assert code == 1
    assert "FAIL" in out and "(y2, y6, y1)" in out


def test_invariants_report(m7_file):
    code, out = run_cli("invariants", m7_file)
    assert code == 0
    assert out == (
        "dim: 8\n"
        "series dims: 8,5,3,2,1\n"
        "nilindex: 5\n"
        "center dim: 2\n"
        "right annihilator dim: 6\n"
        "characteristic sequence: (5,1,1,1)  [witnessed maximum; witness: y1]\n"
        "p-filiform: p=3\n"
        "natural gradation dims: 3,2,1,1,1\n"
    )


def test_invariants_report_non_nilpotent(tmp_path):
    # [a, a] = a: L^2 = <a> = [L^2, L], so the series stabilizes at dim 1
    path = tmp_path / "idem.json"
    path.write_text('{"dim": 2, "basis": ["a", "b"], "products": '
                    '[{"left": "a", "right": "a", "result": [["a", "1"]]}]}')
    code, out = run_cli("invariants", str(path))
    assert code == 0
    assert out == (
        "dim: 2\n"
        "series dims: 2,1\n"
        "nilindex: not nilpotent\n"
        "center dim: 1\n"
        "right annihilator dim: 1\n"
    )


def test_der_report(m7_file):
    code, out = run_cli("der", m7_file)
    assert code == 0
    assert out == "dim Der: 13\ndim Inn: 2\ndim H1: 11\n"


def _golden(name):
    with open(f"{DATA}/{name}", encoding="utf-8") as fh:
        return fh.read()


def test_der_dump_lists_matrices(m7_file):
    # the RREF Der basis is part of the output contract: byte for byte
    code, out = run_cli("der", m7_file, "--dump")
    assert code == 0
    assert out == _golden("m7_der_dump.txt")


# N(7) moved by this fixed integer matrix has a dense Der basis
N7_MOVE = [
    [1, 0, 0, 0, 0, -1, 0, 1],
    [0, 1, -1, 0, 0, 1, 0, -1],
    [0, 0, 1, 1, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, -1, 0],
    [0, 0, 0, -1, 1, 0, 1, 0],
    [-1, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, -1],
    [1, 0, 0, 0, -1, 0, 0, 1],
]


def test_der_dump_dense_basis_matches_golden(tmp_path):
    move = Matrix(8, 8, [[Scalar(v) for v in row] for row in N7_MOVE])
    path = tmp_path / "n7_moved.json"
    core.save(change_of_basis(alg("N", 7), move), path)
    code, out = run_cli("der", str(path), "--dump")
    assert code == 0
    assert out == _golden("n7_moved_der_dump.txt")


def test_invariants_dense_basis_matches_golden(tmp_path):
    # characteristic_sequence and natural_graded read the report's series
    move = Matrix(8, 8, [[Scalar(v) for v in row] for row in N7_MOVE])
    path = tmp_path / "n7_moved.json"
    core.save(change_of_basis(alg("N", 7), move), path)
    code, out = run_cli("invariants", str(path))
    assert code == 0
    assert out == _golden("n7_moved_invariants.txt")


def test_h1_report(m7_file):
    code, out = run_cli("h1", m7_file)
    assert code == 0
    assert out == "dim H1: 11\n"


def test_grade_verify_accepts_known_weights(m7_file, tmp_path):
    weights = {"weights": {"y1": 1, "y2": 2, "y3": 3, "y4": 4, "y5": 5,
                           "y6": -1, "y7": 0, "z1": 6}}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(weights))
    code, out = run_cli("grade-verify", m7_file, "--weights", str(wpath))
    assert code == 0
    assert "maximum length: yes" in out
    assert "occupied: V_-1:1 V_0:1 V_1:1 V_2:1 V_3:1 V_4:1 V_5:1 V_6:1" in out


def test_grade_verify_rejects_broken_weights(m7_file, tmp_path):
    weights = {"weights": {"y1": 1, "y2": 9, "y3": 3, "y4": 4, "y5": 5,
                           "y6": -1, "y7": 0, "z1": 6}}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(weights))
    code, out = run_cli("grade-verify", m7_file, "--weights", str(wpath))
    assert code == 1
    assert "valid: no" in out and "[y1,y1]" in out


def test_grade_search_finds_and_writes(m7_file, tmp_path):
    out_path = tmp_path / "weights.json"
    code, out = run_cli("grade-search", m7_file, "--out", str(out_path))
    assert code == 0
    assert "maximum-length assignment found" in out
    doc = json.loads(out_path.read_text())
    assert doc["weights"]["y6"] == -1 and doc["weights"]["z1"] == 6


def test_grade_search_none_found(tmp_path):
    path = tmp_path / "l1.json"
    core.save(alg("L1", 7), path)
    code, out = run_cli("grade-search", str(path))
    assert code == 1
    assert out.startswith("none found")


def test_catalog_writes_interchange_file(tmp_path):
    out_path = tmp_path / "alg.json"
    code, out = run_cli("catalog", "--family", "M1alpha", "--n", "9",
                        "--param", "alpha=1/2", "--out", str(out_path))
    assert code == 0
    assert "wrote M1alpha (dim 10" in out
    reloaded = core.load(out_path)
    assert reloaded.dim == 10
    assert reloaded.gamma_vec(9, 7)[6].render() == "1/2"


def test_catalog_stdout_mode():
    code, out = run_cli("catalog", "--family", "M", "--n", "7")
    assert code == 0
    assert json.loads(out)["dim"] == 8


def test_catalog_inadmissible_params_flagged(tmp_path):
    code, out = run_cli("catalog", "--family", "KF5", "--n", "9",
                        "--param", "beta_3=1", "--out", str(tmp_path / "k.json"))
    assert code == 1
    assert "not admissible" in out


def test_iso_verify_certificate_file(m7_file, tmp_path):
    m7 = alg("M", 7)
    cert = {
        "source": core.to_json_dict(m7),
        "target": core.to_json_dict(m7),
        "map": [["1" if r == c else "0" for c in range(8)] for r in range(8)],
    }
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(cert))
    code, out = run_cli("iso-verify", str(cpath))
    assert code == 0
    assert out == "accept\n"


def test_iso_verify_with_map_flag(m7_file, tmp_path):
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps([["1" if r == c else "0" for c in range(8)] for r in range(8)]))
    code, out = run_cli("iso-verify", m7_file, m7_file, "--map", str(mpath))
    assert code == 0 and out == "accept\n"
    zpath = tmp_path / "zero.json"
    zpath.write_text(json.dumps([["0"] * 8 for _ in range(8)]))
    code, out = run_cli("iso-verify", m7_file, m7_file, "--map", str(zpath))
    assert code == 1
    assert out == "reject: singular map\n"


def test_iso_verify_map_orientation(tmp_path):
    # column j of the map is the image of source e_j: P sends y2 to y1 + y2,
    # so P certifies change_of_basis(M(7), P) -> M(7) and its transpose does not
    m7 = alg("M", 7)
    p, p_t = Matrix.identity(8), Matrix.identity(8)
    p.data[0][1] = p_t.data[1][0] = Scalar(1)
    source = change_of_basis(m7, p)
    src, tgt = tmp_path / "src.json", tmp_path / "tgt.json"
    core.save(source, src)
    core.save(m7, tgt)
    for m, want in ((p, (0, "accept\n")), (p_t, (1, "reject: bracket mismatch at (y1, y1)\n"))):
        rows = [[v.render() for v in row] for row in m.data]
        mpath, cpath = tmp_path / "map.json", tmp_path / "cert.json"
        mpath.write_text(json.dumps(rows))
        cpath.write_text(json.dumps({"source": core.to_json_dict(source),
                                     "target": core.to_json_dict(m7), "map": rows}))
        assert run_cli("iso-verify", str(src), str(tgt), "--map", str(mpath)) == want
        assert run_cli("iso-verify", str(cpath)) == want


def test_iso_verify_malformed_map_reports_line(m7_file, tmp_path, capsys):
    mpath = tmp_path / "map.json"
    mpath.write_text("not json")
    code, out = run_cli("iso-verify", m7_file, m7_file, "--map", str(mpath))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: %s: line 1: Expecting value\n" % mpath


def test_fingerprint_single(m7_file):
    code, out = run_cli("fingerprint", m7_file)
    assert code == 0
    assert out.strip() == "dim=8;series=8,5,3,2,1;nilindex=5;center=2;rann=6;charseq=5,1,1,1;der=13;inn=2;h1=11"


def test_fingerprint_compare(m7_file, tmp_path):
    other = tmp_path / "m11.json"
    core.save(alg("M1alpha", 7, alpha=1), other)
    code, out = run_cli("fingerprint", m7_file, str(other))
    assert code == 0
    assert out.endswith("distinguished(dim_right_annihilator)\n")
    code, out = run_cli("fingerprint", m7_file, m7_file)
    assert out.endswith("inconclusive\n")


def test_fingerprint_compare_computes_each_fingerprint_once(m7_file, tmp_path, monkeypatch):
    from leibnizkit import invariants, iso

    calls = []
    original = invariants.fingerprint

    def counted(algebra, **kwargs):
        calls.append(algebra.dim)
        return original(algebra, **kwargs)

    monkeypatch.setattr(invariants, "fingerprint", counted)
    monkeypatch.setattr(iso, "fingerprint", counted)
    other = tmp_path / "m11.json"
    core.save(alg("M1alpha", 7, alpha=1), other)
    code, out = run_cli("fingerprint", m7_file, str(other))
    assert code == 0
    assert out.endswith("distinguished(dim_right_annihilator)\n")
    assert len(calls) == 2


def test_verbs_call_library_functions_through_their_modules(m7_file, tmp_path, monkeypatch):
    # a wrapper set on the module sees every call a verb makes
    from leibnizkit import cohomology, invariants, iso

    calls = []
    for module, name in ((cohomology, "derivation_space"),
                         (invariants, "characteristic_sequence"),
                         (iso, "verify_certificate")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps([["1" if r == c else "0" for c in range(8)] for r in range(8)]))
    assert run_cli("der", m7_file)[0] == 0
    assert calls == ["derivation_space"]
    assert run_cli("invariants", m7_file)[0] == 0
    assert calls == ["derivation_space", "characteristic_sequence"]
    assert run_cli("iso-verify", m7_file, m7_file, "--map", str(mpath)) == (0, "accept\n")
    assert calls == ["derivation_space", "characteristic_sequence", "verify_certificate"]


def test_replicate_section_3_even_n_passes():
    code, out = run_cli("replicate", "--section", "3", "--n", "8")
    assert code == 0
    assert "N skipped" in out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_replicate_section_3_odd_n_reports_n_h1_mismatch():
    # dim Der(N) matches its formula but dim H1(N) does not: the suite
    # reports the mismatch honestly and exits nonzero
    code, out = run_cli("replicate", "--section", "3", "--n", "9")
    assert code == 1
    assert "PASS N: dim Der = 19" in out
    assert "FAIL N: dim H1 = 14  (computed 11)" in out
    assert "PASS M: dim Der = 15" in out
    assert "PASS M^{1,1}: dim H1 = 11" in out


def test_replicate_section_2_even_n_passes():
    code, out = run_cli("replicate", "--section", "2", "--n", "8")
    assert code == 0
    assert "FAIL" not in out


def test_replicate_section_2_odd_n_reports_n_charseq():
    code, out = run_cli("replicate", "--section", "2", "--n", "7")
    assert code == 1
    assert "FAIL N: characteristic sequence (5, 1, 1, 1)  (computed (5, 2, 1))" in out
    assert "PASS N: diagonal maximum-length gradation found" in out


def test_replicate_section_2_odd_n_matches_golden():
    # odd n, so N(9) joins: Leibniz check, characteristic sequence and the
    # natural gradation all run on each built algebra
    code, out = run_cli("replicate", "--section", "2", "--n", "9")
    assert code == 1
    assert out == _golden("replicate_s2_n9.txt")


def test_reports_are_byte_identical(m7_file):
    runs = [run_cli("invariants", m7_file) for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ("check", "/nonexistent/alg.json"),
    ("catalog", "--family", "M", "--n", "3"),
    ("catalog", "--family", "KF4", "--n", "9", "--param", "beta=oops"),
    ("catalog", "--family", "KF4", "--n", "9", "--param", "nope"),
    ("iso-verify", "one.json", "two.json", "three.json"),
])
def test_usage_and_parse_errors_exit_2(argv):
    code, _out = run_cli(*argv)
    assert code == 2


def test_malformed_algebra_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "basis": ["a", "b"], "products": 5}')
    code, out = run_cli("check", str(path))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: %s: 'products' must be a list\n" % path


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


@pytest.mark.parametrize("role", ["algebra", "weights", "certificate", "source", "target", "map"])
def test_non_utf8_file_is_named(role, m7_file, tmp_path, capsys):
    bad = _not_utf8(tmp_path, role + ".json")
    mpath = tmp_path / "id.json"
    mpath.write_text(json.dumps([["1" if r == c else "0" for c in range(8)] for r in range(8)]))
    argv = {
        "algebra": ("check", bad),
        "weights": ("grade-verify", m7_file, "--weights", bad),
        "certificate": ("iso-verify", bad),
        "source": ("iso-verify", bad, m7_file, "--map", str(mpath)),
        "target": ("iso-verify", m7_file, bad, "--map", str(mpath)),
        "map": ("iso-verify", m7_file, m7_file, "--map", bad),
    }[role]
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == \
        "error: %s: not valid UTF-8 text (invalid start byte at byte 0)\n" % bad


@pytest.mark.parametrize("kind", ["deep-nesting", "long-integer"])
@pytest.mark.parametrize("role", ["algebra", "weights", "certificate"])
def test_json_decoder_limits_exit_2_with_one_error_line(role, kind, m7_file, tmp_path, capsys):
    bad = tmp_path / (role + ".json")
    bad.write_text("[" * 100000 if kind == "deep-nesting" else '{"dim": %s}' % ("1" * 5000))
    argv = {
        "algebra": ("check", str(bad)),
        "weights": ("grade-verify", m7_file, "--weights", str(bad)),
        "certificate": ("iso-verify", str(bad)),
    }[role]
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % bad) and err.count("\n") == 1 and err.endswith("\n")
    if kind == "deep-nesting":
        assert err == "error: %s: JSON nested too deeply\n" % bad


LONG = "x" * 100000


LONG_VALUES = [
    ("long-dim", json.dumps({"dim": LONG, "basis": []}),
     "bad.json: dim must be an integer, got 'xxx"),
    ("deep-dim", '{"dim": %s%s, "basis": []}' % ("[" * 900, "]" * 900),
     "bad.json: dim must be an integer, got [[["),
    ("long-weight", json.dumps({"weights": {"y1": "7" * 50000}}),
     "bad.json: weight of 'y1' must be an integer, got '777"),
    ("long-label", json.dumps({"dim": 1, "basis": ["a"],
                               "products": [{"left": LONG, "right": "a", "result": []}]}),
     "bad.json: products[0]: unknown label 'xxx"),
    ("long-coefficient", json.dumps({"dim": 1, "basis": ["a"],
                                     "products": [{"left": "a", "right": "a", "result": [["a", LONG]]}]}),
     "bad.json: products[0]: malformed scalar 'xxx"),
]


@pytest.mark.parametrize("case,text,message", LONG_VALUES, ids=[c[0] for c in LONG_VALUES])
def test_long_input_value_is_cut_in_the_error_line(case, text, message, m7_file, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(text)
    argv = ("grade-verify", m7_file, "--weights", "bad.json") if case == "long-weight" else ("check", "bad.json")
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1 and err.endswith("\n")
    assert len(err) <= 200


@pytest.mark.parametrize("verb", ["der", "h1", "fingerprint"])
def test_non_leibniz_input_exits_2_without_traceback(verb, bad_file):
    proc = subprocess.run([sys.executable, "-m", "leibnizkit", verb, bad_file],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: R_y1 is not a derivation; the algebra is not Leibniz\n"


@pytest.mark.parametrize("argv", [
    ("invariants", "{m7}", "--trials", "0"),
    ("fingerprint", "{m7}", "--trials", "0"),
    ("replicate", "--section", "2", "--trials", "0"),
    ("grade-search", "{m7}", "--max-abs", "0"),
    ("replicate", "--section", "2", "--max-abs", "-1"),
], ids=["invariants-trials", "fingerprint-trials", "replicate-trials",
        "grade-search-max-abs", "replicate-max-abs"])
def test_count_below_one_exits_2_before_any_output(argv, m7_file, capsys):
    # rejected while parsing: no report line reaches stdout first
    code, out = run_cli(*(a.format(m7=m7_file) for a in argv))
    assert code == 2 and out == ""
    captured = capsys.readouterr()
    assert captured.out == ""
    option = argv[-2]
    assert captured.err.endswith("error: argument %s: must be >= 1, got %s\n" % (option, argv[-1]))


def test_unknown_verb_exits_2():
    code, _out = run_cli("frobnicate")
    assert code == 2


def test_module_entry_point(m7_file):
    proc = subprocess.run([sys.executable, "-m", "leibnizkit", "check", m7_file],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "Leibniz: OK (0 violations)\n"


def test_grade_search_on_empty_algebra_exhausts(tmp_path):
    # the default bound 2 * dim would be 0; the empty basis has no gradation
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 0, "basis": [], "products": []}))
    code, out = run_cli("grade-search", str(path))
    assert code == 1
    assert out.startswith("none found (diagonal gradations exhausted up to |weight| <= 1;")


@pytest.mark.parametrize("verb,module,name", [
    ("check", core, "leibniz_residual"),
    ("grade-search", gradations, "search_diagonal_gradation"),
])
def test_unexpected_value_error_is_not_a_usage_error(verb, module, name, m7_file, monkeypatch):
    # only the package's input-error classes map to exit 2; a bare
    # ValueError from inside a verb is a bug and keeps its traceback
    def broken(*args, **kwargs):
        raise ValueError("internal bug")
    monkeypatch.setattr(module, name, broken)
    with pytest.raises(ValueError, match="internal bug"):
        run_cli(verb, m7_file)
