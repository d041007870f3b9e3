import json
from pathlib import Path

import pytest

from lrings.cli import main

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"
Z4 = str(INSTANCES / "z4_chain3.json")
Z6 = str(INSTANCES / "z6_chain2.json")
Z12 = str(INSTANCES / "z12_chain3.json")
SQUARE = str(INSTANCES / "z4_square.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate -----------------------------------------------------------------

def test_validate_z4(capsys):
    code, out, _ = run(capsys, "validate", Z4)
    assert code == 0
    assert "chain=yes" in out and "heyting=yes" in out
    assert "eta_zero: ideal=yes prime=no semiprime=no primary=yes" in out
    assert "eta_even: ideal=yes prime=yes semiprime=yes primary=yes" in out


def test_validate_square_classification(capsys):
    code, out, _ = run(capsys, "validate", SQUARE)
    assert code == 0
    assert "chain=no" in out and "heyting=yes" in out


def test_validate_flags_containment(tmp_path, capsys):
    doc = {
        "lattice": {"chain": ["b", "m", "t"]},
        "ring": {"zn": 4},
        "mu": "mu",
        "subsets": {
            "mu": {"0": "t", "1": "m", "2": "t", "3": "m"},
            "eta_bad": {"0": "t", "1": "t", "2": "t", "3": "t"},
        },
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert "eta_bad: NOT an ideal" in out
    assert "'1'" in out  # the element where eta exceeds mu


def test_validate_bad_lattice(tmp_path, capsys):
    doc = {"lattice": {"elements": ["0", "a", "b"],
                       "leq": [["0", "a"], ["0", "b"]]},
           "ring": "Z2", "subsets": {}}
    f = tmp_path / "bad_lattice.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, str("validate"), str(f))
    assert code == 1
    assert "'a'" in err and "'b'" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.json")
    assert code == 1


GOOD_DOC = {"lattice": "chain2", "ring": "Z2",
            "subsets": {"eta": {"0": "t", "1": "b"}}}


@pytest.mark.parametrize("change", [
    {"subsets": {"eta": 7}},
    {"subsets": {"eta": "tb"}},
    {"subsets": ["eta"]},
    {"mu": ["eta"]},
    {"ring": {"zn": "x"}},
    {"ring": {"product": []}},
    {"ring": {"elements": ["0"], "add": 3, "mul": [["0"]]}},
    {"lattice": {"chain": 5}},
    {"lattice": "chainx"},
    {"subsets": {"eta": {"0": ["t"], "1": "b"}}},
    {"subsets": {"eta": ["t"]}},
], ids=["subset-int", "subset-str", "subsets-list", "mu-list", "zn-str", "empty-product",
        "table-int", "chain-int", "chain-name", "value-list", "list-too-short"])
def test_malformed_instance_exits_1(tmp_path, capsys, change):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({**GOOD_DOC, **change}))
    code, _, err = run(capsys, "validate", str(f))
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    [GOOD_DOC],
    {k: v for k, v in GOOD_DOC.items() if k != "ring"},
], ids=["top-level-list", "no-ring"])
def test_malformed_document_exits_1(tmp_path, capsys, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    assert out == "" and err.startswith("error: ") and "instance file" in err


def test_directory_instance_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")


# -- compute ------------------------------------------------------------------

def test_compute_radical(capsys):
    code, out, _ = run(capsys, "compute", Z4, "radical", "eta_zero")
    assert code == 0
    assert out.strip() == "0↦t 1↦m 2↦t 3↦m"


def test_compute_cut(capsys):
    code, out, _ = run(capsys, "compute", Z4, "cut", "eta_even", "--at", "t")
    assert code == 0
    assert out.strip() == "{0, 2}"


def test_compute_strong_cut(capsys):
    code, out, _ = run(capsys, "compute", Z4, "cut", "eta_even", "--at", "t",
                       "--strong")
    assert code == 0
    assert out.strip() == "{}"


def test_compute_prime_radical_of_whole(capsys):
    code, out, _ = run(capsys, "compute", Z4, "prime-radical", "eta_full")
    assert code == 0
    assert out.strip() == "0↦t 1↦t 2↦t 3↦t"


def test_compute_sum(capsys):
    code, out, _ = run(capsys, "compute", Z6, "sum", "eta_even", "eta_triple")
    assert code == 0
    assert out.strip() == " ".join(f"{i}↦t" for i in range(6))


def test_compute_semiprime_radical(capsys):
    code, out, _ = run(capsys, "compute", Z4, "semiprime-radical", "eta_zero")
    assert code == 0
    assert out == "0↦t 1↦m 2↦t 3↦m\n"


def test_compute_unknown_name(capsys):
    code, _, err = run(capsys, "compute", Z4, "radical", "nope")
    assert code == 1
    assert "nope" in err


# -- decompose -----------------------------------------------------------------

def test_decompose_z6(capsys):
    code, out, _ = run(capsys, "decompose", Z6, "eta_zero")
    assert code == 0
    assert "factors (2):" in out
    assert "reduced: yes" in out


def test_decompose_z4(capsys):
    code, out, _ = run(capsys, "decompose", Z4, "eta_zero")
    assert code == 0
    assert "factors (1):" in out


def test_decompose_z12_not_reduced(capsys):
    code, out, _ = run(capsys, "decompose", Z12, "eta_three_level")
    assert code == 0
    assert "factors (4):" in out
    assert "reduced: no" in out


def test_decompose_require_reduced(capsys):
    code, out, _ = run(capsys, "decompose", Z12, "eta_three_level",
                       "--require-reduced")
    assert code == 2


def test_decompose_non_chain(capsys):
    code, _, err = run(capsys, "decompose", SQUARE, "eta_zero")
    assert code == 2
    assert "chain" in err


# -- verify --------------------------------------------------------------------

def test_verify_small_run(capsys):
    code, out, _ = run(capsys, "verify", "--rings", "Z4", "--lattices",
                       "chain2", "--exhaustive")
    assert code == 0
    assert "result: all checks passed" in out


def test_verify_repeatable(tmp_path, capsys):
    args = ["verify", "--rings", "Z4", "--lattices", "chain3",
            "--theorems", "T2.13", "--sample", "4", "--seed", "7"]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code1, out1, _ = run(capsys, *args, "--report", str(r1))
    code2, out2, _ = run(capsys, *args, "--report", str(r2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "bogus")
    assert code == 1
    assert "T2.4" in err  # the valid ids are listed


def test_verify_cap_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--rings", "Z4", "--lattices",
                       "chain3", "--cap", "2")
    assert code == 2
    assert "cap" in err


def test_verify_cap_skip_is_not_a_pass(tmp_path, capsys):
    # the survey of the only mu needs 83 cut assignments, T1.7's inequality
    # search 2,468 values: only the search passes the cap
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--rings", "Z16", "--lattices",
                       "chain4", "--theorems", "T1.7", "--cap", "1000",
                       "--report", str(report))
    assert code == 2
    assert "all checks passed" not in out
    assert out.endswith("result: computation unavailable "
                        "(1 checks skipped for a cap)\n")
    [rec] = json.loads(report.read_text())["records"]
    assert rec["status"] == "SKIP" and rec["detail"].startswith("cap exceeded:")
    assert "inequality search tried more than 1000 values" in rec["detail"]


def test_verify_t1_7_decides_z16_over_chain4(tmp_path, capsys):
    # 56 ideals in a box of 4^16 candidates
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--rings", "Z16", "--lattices",
                       "chain4", "--theorems", "T1.7", "--report", str(report))
    assert code == 0
    assert out.endswith("result: all checks passed\n")
    [rec] = json.loads(report.read_text())["records"]
    assert rec["status"] == "PASS"


@pytest.mark.parametrize("flag", ["--rings", "--lattices", "--theorems"])
def test_verify_empty_list_is_a_usage_error(flag, capsys):
    code, out, err = run(capsys, "verify", flag, ",")
    assert code == 1
    assert out == "" and err == f"error: {flag} names nothing\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--mu", "bogus"], "argument --mu: invalid choice"),
    (["verify", "--cap", "abc"], "argument --cap: invalid int value"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["compute", Z4, "cut", "eta_even"], "cut needs --at LEVEL"),
    (["compute", Z6, "sum", "eta_even"], "sum needs a second ideal name"),
], ids=["bad-choice", "bad-int", "unknown-flag", "no-command", "cut-no-at",
        "sum-one-name"])
def test_usage_error_exits_1(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and err.startswith(f"error: {message}")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lrings")


def test_verify_negative_sample_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--sample", "-1")
    assert code == 1
    assert out == "" and err == "error: --sample must not be negative, got -1\n"


@pytest.mark.parametrize("argv", [
    ["verify"], ["compute", Z4, "prime-radical", "eta_zero"],
    ["decompose", Z6, "eta_zero"]], ids=["verify", "compute", "decompose"])
def test_negative_cap_is_a_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv, "--cap", "-1")
    assert code == 1
    assert out == "" and err == "error: --cap must not be negative, got -1\n"


def test_zero_cap_is_legal(capsys):
    # the survey needs at least one cut assignment, so this is a cap verdict
    code, _, err = run(capsys, "compute", Z4, "prime-radical", "eta_zero",
                       "--cap", "0")
    assert code == 2
    assert err.startswith("unavailable: ")


CAP_1_ERR = ("unavailable: level-cut search tried more than 1 cut "
             "assignments (try smaller carriers or raise --cap)\n")


@pytest.mark.parametrize("target", ["prime-radical", "semiprime-radical"])
def test_compute_family_radical_cap_bounds_the_survey(target, capsys):
    code, out, err = run(capsys, "compute", Z4, target, "eta_zero",
                         "--cap", "1")
    assert code == 2
    assert out == "" and err == CAP_1_ERR


def test_decompose_cap_bounds_the_survey_after_the_factors(capsys):
    # the factors are built and printed; the reducedness report is the
    # first to need the survey
    code, out, err = run(capsys, "decompose", Z6, "eta_zero", "--cap", "1")
    assert code == 2
    assert out.startswith("factors (2):\n")
    assert "reduced" not in out
    assert err == CAP_1_ERR


def test_compute_radical_ignores_the_cap(capsys):
    # the pointwise radical never builds a survey
    code, out, _ = run(capsys, "compute", Z4, "radical", "eta_zero",
                       "--cap", "0")
    assert code == 0
    assert out == "0↦t 1↦m 2↦t 3↦m\n"


def test_verify_zero_checks_is_not_a_pass(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--rings", "Z4", "--lattices",
                       "chain2", "--sample", "0", "--report", str(report))
    assert code == 2
    assert "all checks passed" not in out
    assert out.endswith("result: computation unavailable (no checks ran)\n")
    assert json.loads(report.read_text())["records"] == []


def test_verify_report_in_a_missing_directory_fails_before_the_run(
        tmp_path, capsys):
    report = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--rings", "Z4", "--lattices",
                         "chain2", "--report", str(report))
    assert code == 1
    assert out == ""  # no check ran, so no verdict was printed
    assert err.startswith("error: --report: ") and "does not exist" in err
    assert not report.parent.exists()


@pytest.mark.parametrize("extra", [[], ["--mu", "all", "--lattices", "m3",
                                        "--no-hypothesis-gate"]],
                         ids=["pass", "fail"])
def test_verify_report_naming_a_directory_fails_before_the_run(
        extra, tmp_path, capsys):
    # neither a passing run's exit 0 nor a failing run's exit 3 is reached
    code, out, err = run(capsys, "verify", "--rings", "Z4", "--lattices",
                         "chain2", *extra, "--report", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"error: --report: {str(tmp_path)!r} is a directory\n"


def test_verify_report_is_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--rings", "Z4", "--lattices",
                     "chain2", "--theorems", "T2.4", "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"][0]["theorem"] == "T2.4"
    assert all(rec["status"] == "PASS" for rec in doc["records"])
