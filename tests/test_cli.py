"""End-to-end CLI behavior: golden output strings, exit codes, and JSON
schema conformance."""

import hashlib
import json
import re
import time
from importlib import resources

import jsonschema
import pytest

from tangency import cli, counting
from tangency.cli import main, parse_expression
from tangency.deformation import CongruenceReport


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("tangency") / "schemas" / "output.schema.json"
    return json.loads(ref.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema)
    return obj


QUADRIC = "1  1 0 0 1\n-1 0 1 1 0\n"
CONTAINED_LINE = "1 0\n0 1\n0 0\n0 0\n"


@pytest.fixture()
def quadric_file(tmp_path):
    p = tmp_path / "quadric.hs"
    p.write_text(QUADRIC)
    return str(p)


@pytest.fixture()
def line_file(tmp_path):
    p = tmp_path / "line.txt"
    p.write_text(CONTAINED_LINE)
    return str(p)


def test_bound_golden_strings(capsys):
    code, out, _ = run(capsys, "bound", "planes")
    assert code == 0 and out.strip() == "35*d^4 - 150*d^3 + 120*d^2"
    code, out, _ = run(capsys, "bound", "planes", "--order", "asc")
    assert out.strip() == "120 d^2 - 150 d^3 + 35 d^4"
    code, out, _ = run(capsys, "bound", "z6", "--order", "asc")
    assert out.strip() == "1800 d - 1370 d^2 + 225 d^3"


def test_classic_golden_strings(capsys):
    code, out, _ = run(capsys, "classic", "flecnodal", "--order", "asc")
    assert code == 0 and out.strip() == "-24 d + 11 d^2"
    code, out, _ = run(capsys, "classic", "flex")
    assert out.strip() == "3*d^2 - 6*d"
    code, out, _ = run(capsys, "classic", "fano", "--n", "3", "--d", "3")
    assert out.strip() == "27"


def test_bound_json_reports(capsys, schema):
    obj = run_json(capsys, schema, "bound", "planes")
    assert obj["name"] == "planes"
    assert obj["polynomial"] == "35*d^4 - 150*d^3 + 120*d^2"
    assert obj["pipeline"]
    obj = run_json(capsys, schema, "classic", "flex")
    assert obj["name"] == "flex"


def test_schubert_commands(capsys, schema):
    code, out, _ = run(capsys, "schubert", "mult", "s[2,2]*s[1,1]", "--n", "5")
    assert code == 0 and out.strip() == "s[3,3]"
    obj = run_json(capsys, schema, "schubert", "degree", "s[1,1]*s[1]^6", "--n", "5")
    assert obj == {"n": 5, "degree": "5"}


def test_flag_integrate(capsys, schema):
    obj = run_json(
        capsys, schema, "flag", "integrate", "s[2,2]*s[1,1]*H1*H2", "--n", "4"
    )
    assert obj == {"n": 4, "integral": "1"}
    # the dual form on G(1,5)
    code, out, _ = run(capsys, "flag", "integrate", "s[3,3]*s[1,1]*H1*H2", "--n", "5")
    assert out.strip() == "1"


def test_expression_parser_features():
    x = parse_expression("(s[1] + s[1,1])^2 - s[1]^2", 4)
    y = parse_expression("2*s[1]*s[1,1] + s[1,1]^2", 4)
    assert x == y
    with pytest.raises(ValueError):
        parse_expression("s[1] +", 4)
    with pytest.raises(ValueError):
        parse_expression("s[1] @ s[2]", 4)
    with pytest.raises(ValueError):
        parse_expression("(s[1]", 4)
    with pytest.raises(ValueError):
        parse_expression("s[3,2,1]", 4)
    assert parse_expression("-s[1] + s[1]", 4) == parse_expression("0", 4)
    for text in ("s[1]^d", "s[1]^(2)"):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            parse_expression(text, 4)
    with pytest.raises(ValueError, match="unexpected token"):
        parse_expression("s[1] )", 4)


def test_huge_power_is_zero_past_the_dimension(capsys):
    # s1^9999999 on G(1,3) is zero after the dimension 4; square and multiply
    # reaches a zero square in a few products instead of 10^7
    began = time.perf_counter()
    assert run(capsys, "schubert", "degree", "s[1]^9999999", "--n", "3") == (0, "0\n", "")
    assert time.perf_counter() - began < 5
    assert parse_expression("(s[1] + H1)^0", 3) == parse_expression("1", 3)


def test_deform_cli(capsys, schema, quadric_file, line_file):
    code, out, _ = run(capsys, "deform", "contact", "--form", quadric_file,
                       "--line", line_file)
    assert code == 0 and out.strip() == "contained"
    obj = run_json(capsys, schema, "deform", "sections", "--form", quadric_file,
                   "--line", line_file, "--k", "2")
    assert obj["contactOrder"] == "contained"
    assert obj["expected"] is None and obj["match"] is None
    obj = run_json(capsys, schema, "deform", "truncate", "--form", quadric_file,
                   "--point", "1,0,0,0", "--k", "1")
    assert obj["d"] == 1 and obj["k"] == 1


def test_deform_sections_at_a_singular_point(capsys, schema, tmp_path):
    # the cusp x0^2 x1 - x2^3 at its singular point (0, 1, 0), along (1, 0, 0)
    cusp = tmp_path / "cusp.hs"
    cusp.write_text("1 2 1 0\n-1 0 0 3\n")
    line = tmp_path / "line.txt"
    line.write_text("1 0\n0 1\n0 0\n")
    argv = ("deform", "sections", "--form", str(cusp), "--line", str(line), "--k", "2")
    for route in ("direct", "truncated"):
        assert run(capsys, *argv, "--route", route) == (
            0, "contact order: 2\nraw solution dimension: 5\nh0 (Euler quotient): 4\n"
               "singular marked point: no expected value\n", "")
        assert run_json(capsys, schema, *argv, "--route", route) == {
            "contactOrder": 2, "rawDim": 5, "h0": 4, "expected": None,
            "expectedValue": None, "match": None}


def test_deform_sections_past_k_2n_minus_1(capsys, schema, tmp_path):
    # x1^4 + x0^3 x2 along a line of contact 4 > 2n - 1 = 3 at a smooth point
    quartic = tmp_path / "quartic.hs"
    quartic.write_text("1 0 4 0\n1 3 0 1\n")
    line = tmp_path / "line.txt"
    line.write_text("0 1\n1 0\n0 0\n")
    argv = ("deform", "sections", "--form", str(quartic), "--line", str(line), "--k", "4")
    for route in ("direct", "truncated"):
        assert run(capsys, *argv, "--route", route) == (
            0, "contact order: 4\nraw solution dimension: 3\nh0 (Euler quotient): 2\n"
               "k > 2n-1: no expected value\n", "")
        assert run_json(capsys, schema, *argv, "--route", route) == {
            "contactOrder": 4, "rawDim": 3, "h0": 2, "expected": None,
            "expectedValue": None, "match": None}


def test_deform_sections_above_exact_contact(capsys, schema, tmp_path):
    # x1^4 + x0^3 x2 along a line of contact 4 > k = 3 at a smooth point:
    # 2n - k + 1 = 2 counts exact contact k, and h0 is 3
    quartic = tmp_path / "quartic.hs"
    quartic.write_text("1 0 4 0\n1 3 0 1\n")
    line = tmp_path / "line.txt"
    line.write_text("0 1\n1 0\n0 0\n")
    argv = ("deform", "sections", "--form", str(quartic), "--line", str(line), "--k", "3")
    for route in ("direct", "truncated"):
        assert run(capsys, *argv, "--route", route) == (
            0, "contact order: 4\nraw solution dimension: 4\nh0 (Euler quotient): 3\n"
               "contact 4 > k: no expected value\n", "")
        assert run_json(capsys, schema, *argv, "--route", route) == {
            "contactOrder": 4, "rawDim": 4, "h0": 3, "expected": None,
            "expectedValue": None, "match": None}


def test_deform_congruence_exit_codes(capsys, schema, tmp_path):
    conic = tmp_path / "conic.hs"
    conic.write_text("1 1 0 1\n-1 0 2 0\n")
    tangent = tmp_path / "tangent.txt"
    tangent.write_text("0 1\n1 0\n0 0\n")
    code, out, _ = run(capsys, "deform", "congruence", "--form", str(conic),
                       "--line", str(tangent), "--k", "2")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "deform", "congruence", "--form", str(conic),
                       "--line", str(tangent), "--k", "2", "--corrupt")
    assert code == 3
    obj = run_json(capsys, schema, "deform", "congruence", "--form", str(conic),
                   "--line", str(tangent), "--k", "2")
    assert obj["ok"] is True and obj["corrupted"] is False


def test_deform_sections_refuses_a_negative_k(capsys, quadric_file, line_file):
    assert run(capsys, "deform", "sections", "--form", quadric_file, "--line", line_file,
               "--k", "-1") == (2, "", "error: k must be >= 0\n")


def failed_congruence(F, L, k, corrupt=False):
    return CongruenceReport(k=k, per_index=[False] * (F.n + 1), ok=False, corrupted=False)


@pytest.mark.parametrize("name, fake, argv, says", [
    ("congruence_check", failed_congruence, ("deform", "congruence", "--k", "1"),
     "exact congruence identity failed on valid input"),
    ("fano_line_count", lambda n, d: 0, ("replicate-paper",),
     "replication targets no longer reproduce"),
], ids=["congruence", "replicate-paper"])
def test_a_failed_identity_exits_3(capsys, monkeypatch, quadric_file, line_file,
                                   name, fake, argv, says):
    # an identity that should hold and does not: the report is still shown,
    # then one line on stderr
    monkeypatch.setattr(cli, name, fake)
    if argv[0] == "deform":
        argv += ("--form", quadric_file, "--line", line_file)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, f"internal assertion failure: {says}\n")
    assert out


def fermat_file(tmp_path, n, d):
    rows = []
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = d
        rows.append("1 " + " ".join(str(x) for x in e))
    p = tmp_path / f"fermat_{n}_{d}.hs"
    p.write_text("\n".join(rows) + "\n")
    return str(p)


def test_count_vk_cli(capsys, schema, tmp_path):
    path = fermat_file(tmp_path, 2, 2)
    obj = run_json(capsys, schema, "count-vk", "--input", path, "--q", "5", "--k", "2")
    assert obj["q"] == 5 and obj["k"] == 2 and obj["n"] == 2 and obj["d"] == 2
    code, out, _ = run(capsys, "count-vk", "--input", path, "--q", "5", "--k", "2",
                       "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "q,k,count,n,d,elapsedMs"
    assert lines[1].startswith(f"5,2,{obj['count']},2,2,")


def test_count_vk_small_characteristic_rejected(capsys, tmp_path):
    path = fermat_file(tmp_path, 2, 3)
    code, _, err = run(capsys, "count-vk", "--input", path, "--q", "3", "--k", "1")
    assert code == 2
    assert err == f"error: {path}: field characteristic 3 must exceed the degree 3\n"


def test_count_vk_refuses_a_coefficient_not_in_f_q_before_the_degree(capsys, tmp_path):
    # the form is parsed once over F_q: 1/3 in a cubic at q = 3 is refused
    # for its coefficient, and a cubic that parses by HyperForm for its
    # characteristic
    cubic = tmp_path / "cubic.hs"
    cubic.write_text("1 3 0 0\n1/3 0 3 0\n1 0 0 3\n")
    assert run(capsys, "count-vk", "--input", str(cubic), "--q", "3", "--k", "1") == (
        2, "", f"error: {cubic}: line 2: '1/3' has a zero denominator in GF(3)\n")
    cubic.write_text("1 3 0 0\n1/2 0 3 0\n1 0 0 3\n")
    assert run(capsys, "count-vk", "--input", str(cubic), "--q", "3", "--k", "1") == (
        2, "", f"error: {cubic}: field characteristic 3 must exceed the degree 3\n")


def test_slope_cli(capsys, schema, tmp_path):
    series = tmp_path / "records.json"
    recs = [
        {"q": q, "k": 5, "count": q ** 4, "n": 5, "d": 5, "elapsedMs": 1}
        for q in (7, 11, 13)
    ]
    series.write_text(json.dumps(recs))
    obj = run_json(capsys, schema, "slope", "--series", str(series))
    assert abs(obj["slope"] - 4.0) < 1e-9
    code, out, _ = run(capsys, "slope", "--series", str(series))
    assert code == 0 and "slope: 4.0000" in out


GOOD_RECORD = {"q": 7, "k": 5, "count": 2401, "n": 5, "d": 5}


@pytest.mark.parametrize("entries", [
    [{"q": 7}, GOOD_RECORD, GOOD_RECORD],                        # missing keys
    [1, 2, 3],                                                   # not objects
    [dict(GOOD_RECORD, q=q) for q in (1.5, 11, 13)],             # non-integral q
    [dict(GOOD_RECORD, q=q) for q in (1, 7, 11)],                # q < 2
    [dict(GOOD_RECORD, q=q, k=True) for q in (7, 11, 13)],       # a bool
    [dict(GOOD_RECORD, q=q, count="9") for q in (7, 11, 13)],    # a string
    [dict(GOOD_RECORD, q=q, elapsedMs=0.5) for q in (7, 11, 13)],
    [dict(GOOD_RECORD, q=q, k=0) for q in (7, 11, 13)],          # k < 1
    [dict(GOOD_RECORD, q=q, count=-5 if q == 7 else q ** 4)      # a negative count
     for q in (7, 11, 13)],
    [dict(GOOD_RECORD, q=q, n=-3) for q in (7, 11, 13)],         # n < 1
    [dict(GOOD_RECORD, q=q, d=0) for q in (7, 11, 13)],          # d < 1
    [dict(GOOD_RECORD, q=q) for q in (4, 7, 11)],                # a composite q
    [dict(GOOD_RECORD, q=q, n=n, d=d)                            # three hypersurfaces
     for q, n, d in ((7, 5, 5), (11, 3, 4), (13, 4, 5))],
], ids=["missing", "not-object", "float-q", "q-one", "bool", "string", "float-elapsed",
        "k-zero", "negative-count", "negative-n", "d-zero", "composite-q", "mixed-hypersurfaces"])
def test_slope_malformed_series_exit_2(capsys, tmp_path, entries):
    series = tmp_path / "records.json"
    series.write_text(json.dumps(entries))
    code, out, err = run(capsys, "slope", "--series", str(series))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("point, says", [
    ("1,0", "needs 4 coordinates, got 2"),
    ("1,0,0,0,0", "needs 4 coordinates, got 5"),
    ("0,0,0,0", "zero point"),
    ("1,x,0,0", "--point: 'x' is not an integer or a fraction a/b"),
    ("1/0,0,0,1", "--point: '1/0' has a zero denominator in QQ"),
], ids=["short", "long", "zero", "letter", "zero-denominator"])
def test_deform_truncate_bad_point_exit_2(capsys, quadric_file, point, says):
    code, out, err = run(capsys, "deform", "truncate", "--form", quadric_file,
                         "--point", point, "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert says in err


def test_unparsable_coefficients_name_the_file_and_line(capsys, tmp_path, quadric_file,
                                                        line_file):
    bad = tmp_path / "bad.hs"
    bad.write_text("1 2 0 0 0\nx 0 0 1 1\n")
    says = f"error: {bad}: line 2: 'x' is not an integer or a fraction a/b\n"
    for argv in (("deform", "contact", "--form", str(bad), "--line", line_file),
                 ("count-vk", "--input", str(bad), "--q", "5", "--k", "2")):
        assert run(capsys, *argv) == (2, "", says)
    bad_line = tmp_path / "bad_line.txt"
    bad_line.write_text("1 0\n0 1/y\n0 0\n0 0\n")
    assert run(capsys, "deform", "contact", "--form", quadric_file, "--line", str(bad_line)) == (
        2, "", f"error: {bad_line}: line 2: '1/y' is not an integer or a fraction a/b\n")
    # a denominator that is zero in the field: 1/0 over QQ, 1/7 over F_7
    bad.write_text("1 2 0 0 0\n1/0 0 0 1 1\n")
    assert run(capsys, "deform", "contact", "--form", str(bad), "--line", line_file) == (
        2, "", f"error: {bad}: line 2: '1/0' has a zero denominator in QQ\n")
    bad.write_text("1 2 0 0 0\n1/7 0 0 1 1\n")
    says = f"error: {bad}: line 2: '1/7' has a zero denominator in GF(7)\n"
    for argv in (("deform", "contact", "--form", str(bad), "--line", line_file, "--q", "7"),
                 ("count-vk", "--input", str(bad), "--q", "7", "--k", "2")):
        assert run(capsys, *argv) == (2, "", says)
    bad_line.write_text("1 0\n0 1/7\n0 0\n0 0\n")
    assert run(capsys, "deform", "contact", "--form", quadric_file, "--line", str(bad_line),
               "--q", "7") == (
        2, "", f"error: {bad_line}: line 2: '1/7' has a zero denominator in GF(7)\n")


def test_fermat_planes_cli(capsys, schema, tmp_path):
    obj = run_json(capsys, schema, "fermat-planes", "--d", "2")
    assert obj["count"] == 120 and len(obj["planes"]) == 120
    emitted = tmp_path / "planes.json"
    code, out, _ = run(capsys, "fermat-planes", "--d", "3", "--emit", str(emitted))
    assert code == 0
    doc = json.loads(emitted.read_text())
    jsonschema.validate(doc, schema)
    assert doc["count"] == 405


def test_replicate_paper(capsys, schema):
    code, out, _ = run(capsys, "replicate-paper")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out
    obj = run_json(capsys, schema, "replicate-paper")
    assert obj["allPass"] is True
    assert len(obj["results"]) >= 12


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "schubert", "mult", "s[9,9]", "--n", "5")[0] == 2
    assert run(capsys, "schubert", "degree", "s[1]", "--n", "5")[0] == 2
    assert run(capsys, "schubert", "mult", "s[1]*H1", "--n", "5")[0] == 2
    missing = str(tmp_path / "missing.hs")
    code, _, err = run(capsys, "deform", "contact", "--form", missing,
                       "--line", missing)
    assert code == 2 and "cannot read" in err
    unwritable = str(tmp_path / "missing" / "x.json")
    code, _, err = run(capsys, "fermat-planes", "--d", "3", "--emit", unwritable)
    assert code == 2 and err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_count_vk_inexact_q_exit_2(capsys, tmp_path):
    path = fermat_file(tmp_path, 2, 3)
    code, _, err = run(capsys, "count-vk", "--input", path, "--q", "2147483647", "--k", "3")
    assert code == 2
    assert "too large for exact counting" in err


def test_count_vk_out_of_memory_exit_2(capsys, tmp_path, monkeypatch):
    path = fermat_file(tmp_path, 2, 3)
    for ex, shown in ((MemoryError("Unable to allocate 4.00 GiB"), "Unable to allocate 4.00 GiB"),
                      (MemoryError(), "out of memory")):
        def exhausted(*args, ex=ex, **kwargs):
            raise ex

        monkeypatch.setattr(cli, "count_vk", exhausted)
        got = run(capsys, "count-vk", "--input", path, "--q", "5", "--k", "1")
        assert got == (2, "", f"error: {shown}\n")


CONIC = "1 1 0 1\n-1 0 2 0\n"     # x0 x2 - x1^2
TANGENT = "0 1\n1 0\n0 0\n"        # x2 = 0 meets the conic to order 2
RECORDS = [{"q": q, "k": 5, "count": q ** 4, "n": 5, "d": 5, "elapsedMs": 1} for q in (7, 11, 13)]
WITH_ZERO = [dict(r, count=0 if r["q"] == 7 else r["count"]) for r in RECORDS] + [
    dict(RECORDS[0], q=17, count=17 ** 4)]
# each case runs once per format it accepts ("" for text, the default); {t}
# is the directory of the input files
FORMATS = ("", "json")
PINNED_CASES = [
    (("schubert", "mult", "s[2,2]*s[1,1]", "--n", "5"), FORMATS),
    (("schubert", "mult", "(s[1] + s[1,1])^2 - 3", "--n", "4"), FORMATS),
    (("schubert", "mult", "s[9,9]", "--n", "5"), FORMATS),
    (("schubert", "mult", "s[1]*H1", "--n", "5"), FORMATS),
    (("schubert", "degree", "s[1,1]*s[1]^6", "--n", "5"), FORMATS),
    (("schubert", "degree", "d*s[1]^4 + d^2*s[2,2]", "--n", "3", "--order", "asc"), FORMATS),
    (("schubert", "degree", "s[1]", "--n", "5"), FORMATS),
    (("flag", "integrate", "s[2,2]*s[1,1]*H1*H2", "--n", "4"), FORMATS),
    (("flag", "integrate", "(d*H1 + s[1])^4*H2^2", "--n", "3"), FORMATS),
    (("flag", "integrate", "(d*H1 + s[1])^4*H2^2", "--n", "3", "--order", "asc"), FORMATS),
    (("bound", "planes"), FORMATS),
    (("bound", "planes", "--order", "asc"), FORMATS),
    (("bound", "z6"), FORMATS),
    (("bound", "z6", "--order", "asc"), FORMATS),
    (("classic", "flecnodal"), FORMATS),
    (("classic", "flex", "--order", "asc"), FORMATS),
    (("classic", "fano", "--n", "3", "--d", "3"), FORMATS),
    (("classic", "fano", "--n", "4", "--d", "5"), FORMATS),
    (("classic", "fano", "--n", "3", "--d", "0"), FORMATS),
    (("deform", "contact", "--form", "{t}/quadric.hs", "--line", "{t}/line.txt"), FORMATS),
    (("deform", "contact", "--form", "{t}/conic.hs", "--line", "{t}/tangent.txt",
      "--q", "7"), FORMATS),
    (("deform", "contact", "--form", "{t}/missing.hs", "--line", "{t}/line.txt"), FORMATS),
    (("deform", "contact", "--form", "{t}/quadric.hs", "--line", "{t}/tangent.txt"), FORMATS),
    (("deform", "contact", "--form", "{t}/conic.hs", "--line", "{t}/tangent.txt",
      "--q", "9"), FORMATS),
    (("deform", "truncate", "--form", "{t}/quadric.hs", "--point", "1,0,0,0",
      "--k", "1"), FORMATS),
    (("deform", "truncate", "--form", "{t}/conic.hs", "--point", "1,1/2,1/4",
      "--k", "2"), FORMATS),
    (("deform", "truncate", "--form", "{t}/conic.hs", "--point", "0,0,1", "--k", "2",
      "--q", "7"), FORMATS),
    (("deform", "truncate", "--form", "{t}/quadric.hs", "--point", "1,0", "--k", "1"),
     FORMATS),
    (("deform", "truncate", "--form", "{t}/quadric.hs", "--point", "1,x,0,0",
      "--k", "1"), FORMATS),
    (("deform", "sections", "--form", "{t}/quadric.hs", "--line", "{t}/line.txt",
      "--k", "2"), FORMATS),
    (("deform", "sections", "--form", "{t}/conic.hs", "--line", "{t}/tangent.txt",
      "--k", "2"), FORMATS),
    (("deform", "sections", "--form", "{t}/conic.hs", "--line", "{t}/tangent.txt",
      "--k", "2", "--route", "direct", "--q", "5"), FORMATS),
    (("deform", "congruence", "--form", "{t}/conic.hs", "--line", "{t}/tangent.txt",
      "--k", "2"), FORMATS),
    (("deform", "congruence", "--form", "{t}/conic.hs", "--line", "{t}/tangent.txt",
      "--k", "2", "--corrupt"), FORMATS),
    (("deform", "congruence", "--form", "{t}/conic.hs", "--line", "{t}/tangent.txt",
      "--k", "2", "--q", "11"), FORMATS),
    (("count-vk", "--input", "{t}/fermat_2_2.hs", "--q", "5", "--k", "2"), FORMATS + ("csv",)),
    (("count-vk", "--input", "{t}/fermat_2_3.hs", "--q", "7", "--k", "1"), FORMATS + ("csv",)),
    (("count-vk", "--input", "{t}/fermat_2_3.hs", "--q", "5", "--k", "3", "--threads", "2"),
     FORMATS + ("csv",)),
    (("count-vk", "--input", "{t}/conic.hs", "--q", "7", "--k", "2"), FORMATS + ("csv",)),
    (("count-vk", "--input", "{t}/fermat_2_3.hs", "--q", "3", "--k", "1"), FORMATS + ("csv",)),
    (("count-vk", "--input", "{t}/fermat_2_3.hs", "--q", "25", "--k", "2"), FORMATS + ("csv",)),
    (("count-vk", "--input", "{t}/fermat_5_2.hs", "--q", "2147483647", "--k", "3"),
     FORMATS + ("csv",)),
    (("count-vk", "--input", "{t}/missing.hs", "--q", "5", "--k", "2"), FORMATS + ("csv",)),
    (("slope", "--series", "{t}/records.json"), FORMATS),
    (("slope", "--series", "{t}/with_zero.json"), FORMATS),
    (("slope", "--series", "{t}/not_json.json"), FORMATS),
    (("slope", "--series", "{t}/object.json"), FORMATS),
    (("slope", "--series", "{t}/missing_key.json"), FORMATS),
    (("fermat-planes", "--d", "2"), FORMATS),
    (("fermat-planes", "--d", "3", "--emit", "{t}/planes.json"), FORMATS),
    (("fermat-planes", "--d", "1", "--emit", "{t}/missing/planes.json"), FORMATS),
    (("fermat-planes", "--d", "0"), FORMATS),
    (("replicate-paper",), FORMATS),
] + [(tuple(cmd.split()) + ("--help",), ("",)) for cmd in (
    "", "schubert", "schubert mult", "schubert degree", "flag", "flag integrate",
    "bound", "bound planes", "bound z6", "classic", "classic flecnodal", "classic flex",
    "classic fano", "deform", "deform contact", "deform truncate", "deform sections",
    "deform congruence", "count-vk", "slope", "fermat-planes", "replicate-paper")]


def test_cli_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    # sha256 of the exit code, stdout, stderr and --emit file of every case,
    # with elapsedMs masked and help wrapped at 80 columns; recorded from the
    # CLI whose handlers each chose their own output format, re-recorded when
    # the error for --point 1,x,0,0 came to name --point, and when count-vk
    # left its q <= d refusal to HyperForm and check_exact counted only the
    # float sums (15 (q-1)^2 at n = 5, k = 3)
    monkeypatch.setenv("COLUMNS", "80")
    files = {
        "quadric.hs": QUADRIC, "line.txt": CONTAINED_LINE, "conic.hs": CONIC,
        "tangent.txt": TANGENT, "records.json": json.dumps(RECORDS),
        "with_zero.json": json.dumps(WITH_ZERO), "not_json.json": "[1, 2",
        "object.json": json.dumps({"q": 7}), "missing_key.json": json.dumps(RECORDS[:2] + [{}]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for n, d in ((2, 2), (2, 3), (5, 2)):
        fermat_file(tmp_path, n, d)
    emitted = tmp_path / "planes.json"
    masks = [(r'"elapsedMs": \d+', '"elapsedMs": #'), (r"\d+ms\)", "#ms)"),
             (r"(?m)^((?:\d+,){5})\d+$", r"\1#")]
    h = hashlib.sha256()
    for argv, formats in PINNED_CASES:
        for fmt in formats:
            args = [a.replace("{t}", str(tmp_path)) for a in argv]
            code, out, err = run(capsys, *args, *(("--format", fmt) if fmt else ()))
            out, err = (s.replace(str(tmp_path), "{t}") for s in (out, err))
            for pattern, repl in masks:
                out = re.sub(pattern, repl, out)
            emit = emitted.read_text() if emitted.exists() else None
            if emit is not None:
                emitted.unlink()
            h.update(repr((argv, fmt, code, out, err, emit)).encode())
    assert h.hexdigest() == "05bd677db433e4f5ede7a810ea41a48011a12bb90a583ef1a86d25ccbe57b584"


def test_huge_q_is_answered_or_refused_at_once(capsys, tmp_path):
    # primality of q is Miller-Rabin, not trial division up to sqrt(q)
    cubic = fermat_file(tmp_path, 2, 3)
    conic, tangent = tmp_path / "conic.hs", tmp_path / "tangent.txt"
    conic.write_text(CONIC)
    tangent.write_text(TANGENT)
    began = time.perf_counter()
    code, out, err = run(capsys, "count-vk", "--input", cubic, "--q", str(2 ** 61 - 1),
                         "--k", "2")
    assert (code, out) == (2, "") and "over the work budget" in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert run(capsys, "deform", "contact", "--form", str(conic), "--line", str(tangent),
               "--q", str(2 ** 61 - 1)) == (0, "2\n", "")
    code, out, err = run(capsys, "deform", "contact", "--form", str(conic), "--line",
                         str(tangent), "--q", str(10 ** 25))
    assert (code, out) == (2, "") and "primality is decided below" in err
    assert time.perf_counter() - began < 1


def test_symbolic_work_budget_exit_2(capsys):
    # s[1]^200 on G(1,1000) is refused before its first large product
    began = time.perf_counter()
    code, out, err = run(capsys, "schubert", "mult", "s[1]^200", "--n", "1000")
    assert time.perf_counter() - began < 1
    assert (code, out) == (2, "") and "work budget of 2^28" in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    for argv in (("mult", "s[1]^100", "--n", "100"), ("degree", "s[1]^118", "--n", "60")):
        assert run(capsys, "schubert", *argv)[0] == 0


def test_symbolic_work_budget_prices_coefficient_size(capsys):
    # (d+1)^4000 has one term, but its coefficients reach thousands of
    # digits: the products past (d+1)^1024 would take seconds
    began = time.perf_counter()
    code, out, err = run(capsys, "schubert", "mult", "(d+1)^4000", "--n", "3")
    assert time.perf_counter() - began < 1
    assert (code, out) == (2, "") and "work budget of 2^28" in err
    assert run(capsys, "schubert", "mult", "(d+1)^500", "--n", "3")[0] == 0


def test_count_vk_singular_points_beyond_the_budget_exit_2(capsys, tmp_path):
    # every point of (x0x1 + x2x3 + x4x5)^2 is singular, and at q = 17 their
    # directions would take 4.0e11 multiply-adds
    form = tmp_path / "square.hs"
    form.write_text("1 2 2 0 0 0 0\n1 0 0 2 2 0 0\n1 0 0 0 0 2 2\n"
                    "2 1 1 1 1 0 0\n2 1 1 0 0 1 1\n2 0 0 1 1 1 1\n")
    began = time.perf_counter()
    code, out, err = run(capsys, "count-vk", "--input", str(form), "--q", "17", "--k", "4")
    assert time.perf_counter() - began < 1
    assert (code, out) == (2, "") and "4.0e+11 steps" in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_deform_truncate_beyond_the_budget_exit_2(capsys, tmp_path):
    # x0 x1 ... x40 truncated at (0, 1, ..., 1) to order 41 would keep 2^39 terms
    form = tmp_path / "x40.hs"
    form.write_text("1" + " 1" * 41 + "\n")
    began = time.perf_counter()
    code, out, err = run(capsys, "deform", "truncate", "--form", str(form),
                         "--point", "0" + ",1" * 40, "--k", "41")
    assert time.perf_counter() - began < 1
    assert (code, out) == (2, "")
    assert err == ("error: the order-41 truncation could take up to 2^45 steps, "
                   "over the budget of 2^24\n")


def test_fermat_planes_degree_limit_exit_2(capsys):
    began = time.perf_counter()
    code, out, err = run(capsys, "fermat-planes", "--d", "60")
    assert time.perf_counter() - began < 1
    assert (code, out, err) == (2, "", "error: degree must be at most 12, got 60\n")


def test_fano_limit_exit_2(capsys):
    # the count at n = 100000 would never finish, nor print if it did
    began = time.perf_counter()
    code, out, err = run(capsys, "classic", "fano", "--n", "100000", "--d", "199997")
    assert time.perf_counter() - began < 1
    assert (code, out, err) == (2, "", "error: n must be at most 400, got 100000\n")


def test_count_vk_beyond_the_work_budget_exit_2(capsys, tmp_path):
    # |P^5(F_1009)| is about 1e15: enumerating it would never end
    quadric = tmp_path / "split.hs"
    quadric.write_text("1 1 1 0 0 0 0\n1 0 0 1 1 0 0\n1 0 0 0 0 1 1\n")
    for k in ("1", "2"):
        began = time.perf_counter()
        code, out, err = run(capsys, "count-vk", "--input", str(quadric), "--q", "1009",
                             "--k", k)
        assert time.perf_counter() - began < 1
        assert (code, out) == (2, "") and "work budget" in err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_count_vk_budget_past_the_float_range_exit_2(capsys, tmp_path):
    # |P^645(F_3)| * 3 steps is about 2^1024, more than any float holds
    quadric = tmp_path / "p645.hs"
    quadric.write_text("1 2" + " 0" * 645 + "\n1 0 2" + " 0" * 644 + "\n")
    began = time.perf_counter()
    code, out, err = run(capsys, "count-vk", "--input", str(quadric), "--q", "3", "--k", "2")
    assert time.perf_counter() - began < 1
    assert (code, out) == (2, "")
    assert err == ("error: enumerating X(F_3) in P^645 would take about 2^1024 steps, "
                   "over the work budget of 2^36 for one count\n")


def test_count_vk_beyond_the_memory_budget_exit_2(capsys, tmp_path, monkeypatch):
    # x0^2 + x1^2 in P^20 over F_3 passes the work budget, but Serre's bound
    # prices its points at 1.5e+12 bytes; the count stops before the
    # enumerator runs
    def enumerate_nothing(F):
        raise AssertionError("enumerated")

    monkeypatch.setattr(counting, "hypersurface_points", enumerate_nothing)
    form = tmp_path / "p20.hs"
    form.write_text("1 2" + " 0" * 20 + "\n1 0 2" + " 0" * 19 + "\n")
    code, out, err = run(capsys, "count-vk", "--input", str(form), "--q", "3", "--k", "2")
    assert (code, out) == (2, "")
    assert err == ("error: the points of X(F_3) in P^20 could take about 1.5e+12 bytes, "
                   "over the memory budget of 2^31 bytes for one count\n")


def test_expression_nesting_limit(capsys):
    # each level is a few frames of the recursive-descent parser: past the
    # limit the expression is refused, not the interpreter's stack
    limit = cli.MAX_NESTING
    # a sign and a parenthesis are one level each
    for opened, close, levels in (("(", ")", 1), ("-(", ")", 2), ("-", "", 1)):
        units = limit // levels
        at_cap = opened * units + "s[1]" + close * units
        code, out, err = run(capsys, "schubert", "mult", "--n", "3", "--", at_cap)
        assert (code, out.lstrip("-"), err) == (0, "s[1,0]\n", "")
        past = opened * (units + 1) + "s[1]" + close * (units + 1)
        code, out, err = run(capsys, "schubert", "mult", "--n", "3", "--", past)
        assert (code, out) == (2, "")
        assert err == (f"error: expression {past[:40] + '...'!r} nests parentheses and "
                       f"signs deeper than the limit of {limit}\n")
    code, out, err = run(capsys, "schubert", "mult", "(" * 300 + "s[1]" + ")" * 300, "--n", "3")
    assert (code, out) == (2, "") and err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_printed_coefficients_are_priced_before_str(capsys, fmt):
    # 99^2200 has 4391 digits, over Python's 4300 for int-to-str; the
    # refusal names the expression and the program's own limit
    code, out, err = run(capsys, "schubert", "mult", "99^2200", "--n", "2", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == ("error: '99^2200' has a coefficient of 14585 bits, over the limit of "
                   f"{cli.MAX_DIGITS} decimal digits on printed coefficients\n")
    for argv in (("schubert", "degree", "99^2200*s[1]^2"), ("flag", "integrate", "99^2200*s[1,1]*H1*H2")):
        code, out, err = run(capsys, *argv, "--n", "2", "--format", fmt)
        assert (code, out) == (2, "") and "has a coefficient of" in err
    # 99^2000, 3992 digits, is under the limit and prints whole
    code, out, _ = run(capsys, "schubert", "mult", "99^2000", "--n", "2", "--format", fmt)
    text = json.loads(out)["schubert"] if fmt == "json" else out.rstrip("\n")
    assert code == 0 and text == f"{99 ** 2000}*s[0,0]"
