"""The benchmark's own tests: `python3 -m pytest -q bench`.

The smoke workload (Z4 x chain2, every theorem) runs the untraced path,
the traced path and the gate in a few seconds; the gate tests feed it
doctored reports and expect rejections.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    return res


def _smoke_report(expected):
    """A report shaped like `lrings verify --report`, with the seed's
    record and PASS counts for every theorem."""
    records = []
    for theorem, row in expected.items():
        for i in range(row["records"]):
            ok = i < row["pass"]
            records.append({"theorem": theorem, "instance": f"i{i}",
                            "status": "PASS" if ok else "SKIP",
                            "detail": "" if ok else "eta is not prime"})
    return {"records": records}


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)["smoke"]


def test_smoke_untraced_reports_every_end_to_end_metric():
    res = _result(_bench("--workload", "smoke", "--seed", "3",
                         "--seconds", "1", "--trace", "0"))
    for m in _spec()["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert len(res["metrics"]) == len(_spec()["end_to_end"])


def test_smoke_traced_reports_every_per_layer_metric():
    res = _result(_bench("--workload", "smoke", "--seed", "3",
                         "--seconds", "1", "--trace", "1"))
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(res["metrics"]) == sorted(names)
    for m in _spec()["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["verify.checks.fail"] == 0
    assert metrics["verify.checks.skip_cap"] == 0
    assert metrics["verify.checks.pass"] > 0
    assert metrics["core.LIdeal.calls"] > 0
    assert metrics["verify.theorem_s.T1.7"] > 0


def test_workloads_match_benchmark_json():
    names = {w["name"] for w in _spec()["workloads"]}
    assert names == set(run.WORKLOADS) - {"smoke"}


def test_gate_accepts_the_seed_counts(expected):
    assert gate.problems(_smoke_report(expected), expected) == []


def test_gate_rejects_a_fail_record(expected):
    report = _smoke_report(expected)
    report["records"][0]["status"] = "FAIL"
    found = gate.problems(report, expected)
    assert any("FAIL record" in p for p in found)


def test_gate_rejects_a_missing_record(expected):
    report = _smoke_report(expected)
    del report["records"][-1]
    assert any("records, seed had" in p
               for p in gate.problems(report, expected))


def test_gate_rejects_fewer_passes(expected):
    report = _smoke_report(expected)
    report["records"][0].update(status="SKIP",
                                detail="cap exceeded: 9 candidates")
    assert any("PASS, seed had" in p for p in gate.problems(report, expected))
    assert gate.totals(report)["skip_cap"] == 1


def test_gate_rejects_a_hypothesis_skip_turned_cap_skip(expected):
    report = _smoke_report(expected)
    skip = next(r for r in report["records"] if r["status"] == "SKIP")
    skip["detail"] = "cap exceeded: family space has 9 candidates"
    found = gate.problems(report, expected)
    assert found == [f"{skip['theorem']}: 1 cap-skips, seed had 0"]


def test_rep_check_rejects_unstable_report_bytes():
    expected = {"T2.4": {"records": 1, "pass": 1, "skip_cap": 0}}
    report = json.dumps(_smoke_report(expected))
    rep = {"exit": 0, "report_bytes": report.encode(),
           "zn_ideals_ok": {"Z4": True}}
    assert run.check_rep(rep, expected, report.encode()) == []
    assert run.check_rep(rep, expected, b"{}") == [
        "--report bytes differ between repetitions"]
    assert run.check_rep(dict(rep, exit=3), expected, None) == [
        "lrings verify exited 3"]
    assert run.check_rep(dict(rep, zn_ideals_ok={"Z4": False}), expected,
                         None) == ["crisp ideals of Z4 are not the dZ/n"]


def test_a_child_past_the_deadline_is_killed(tmp_path):
    with pytest.raises(run.ChildError, match="exceeded"):
        run.run_child(run.WORKLOADS["smoke"], str(tmp_path), "late",
                      time.perf_counter())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
