"""Correctness gate and operation accounting for `lrings verify` reports.

An operation is one theorem check, i.e. one record of the `--report` JSON.
A check failed if its record is FAIL, or SKIP with a `cap exceeded:` detail
(work the cap refused); other SKIPs are hypothesis skips.
"""

from __future__ import annotations

CAP_PREFIX = "cap exceeded:"
STATUSES = ("pass", "skip_hypothesis", "skip_cap", "fail")


def classify(record: dict) -> str:
    status = record["status"]
    if status == "PASS":
        return "pass"
    if status == "FAIL":
        return "fail"
    if status == "SKIP":
        return "skip_cap" if record["detail"].startswith(CAP_PREFIX) \
            else "skip_hypothesis"
    raise ValueError(f"unknown record status {status!r}")


def tally(report: dict) -> dict:
    """theorem -> {"records": n, "pass": n, "skip_hypothesis": n,
    "skip_cap": n, "fail": n}, in report order."""
    out = {}
    for rec in report["records"]:
        row = out.setdefault(rec["theorem"],
                             dict.fromkeys(("records",) + STATUSES, 0))
        row["records"] += 1
        row[classify(rec)] += 1
    return out


def totals(report: dict) -> dict:
    """Status counts summed over every theorem."""
    out = dict.fromkeys(STATUSES, 0)
    for row in tally(report).values():
        for s in STATUSES:
            out[s] += row[s]
    return out


def problems(report: dict, expected: dict) -> list[str]:
    """Why `report` fails the gate against `expected` (theorem ->
    {"records": n, "pass": n, "skip_cap": n}, taken from the seed); empty
    when it passes. Gated: any FAIL record, a theorem whose record count
    differs from the seed's (missing and extra theorems included), a
    theorem whose PASS count falls below the seed's, and a theorem with
    more cap-skips than the seed's."""
    found = tally(report)
    out = []
    for theorem, row in found.items():
        if row["fail"]:
            out.append(f"{theorem}: {row['fail']} FAIL record(s)")
    none = {"records": 0, "pass": 0, "skip_cap": 0}
    for theorem in sorted(set(found) | set(expected)):
        got = found.get(theorem, none)
        want = expected.get(theorem, none)
        if got["records"] != want["records"]:
            out.append(f"{theorem}: {got['records']} records, "
                       f"seed had {want['records']}")
        if got["pass"] < want["pass"]:
            out.append(f"{theorem}: {got['pass']} PASS, "
                       f"seed had {want['pass']}")
        if got["skip_cap"] > want["skip_cap"]:
            out.append(f"{theorem}: {got['skip_cap']} cap-skips, "
                       f"seed had {want['skip_cap']}")
    return out
