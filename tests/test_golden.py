"""Golden digests of whole `verify` reports.

A change to how ideals or L-subrings are enumerated must not move any
report: the same instances, in the same order, with the same verdicts.
These digests pin the JSON and text renderings of seven small exhaustive
runs and one sampled run that between them cover a chain, a
non-distributive lattice, a distributive non-chain lattice, a
non-constant subring sweep and a ring that is not cyclic. The fourth runs the strong-cut lemmas ungated over
every L-subring of Z6 on m3, where many strong cuts are not subrings: it
pins that every request for such a cut fails with the same message. The
fifth runs the sum, radical and predicate theorems ungated over every
L-subring of Z6 on m3, where 48 pairs of ideals have a sum that is not an
ideal: it pins that every request for such a sum fails with the same text.
The sixth is the benchmark's `mu-all` workload: every theorem but T1.7
over every L-subring of Z6 on chain4. The seventh runs L3.8, L3.11, L3.15
and T2.12 ungated over every L-subring of Z6 on m3; its 216 L3.8 failures
name the level whose strong cuts do not commute with a meet, so it pins
the text of a failure read from a cut table. The eighth samples 50 of the
330 ideals and 50 of the 1,130 pairs of every L-subring of Z6 on chain4,
with seed 7: it pins which instances `--sample` draws from each pool, and
that the whole-subring checks run on the subrings of the sampled ideals.
"""

import hashlib

import pytest

from lrings.verify import (THEOREM_IDS, JsonReport, SuiteParams, render_text,
                           run_suite)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_with_report(params, ids=None):
    """run_suite with its JSON report streamed into a string; returns the
    result, the report and the records collected from the stream."""
    pieces, records = [], []
    report = JsonReport(pieces.append, params)

    def take(rec):
        records.append(rec)
        report.record(rec)
    result = run_suite(params, ids, take)
    report.close(result)
    return result, "".join(pieces), records


GOLDEN = [
    (dict(rings=("Z4",), lattices=("chain3", "m3")), None,
     "05db848671f2102fa4007f8ebefaa39f1c5044b6e04f8ee31b60562f62a44932",
     "aea044188856fcab6325fa7003b6cdd855cc3346a085612602f63c76aa1d4fb8"),
    (dict(rings=("Z2xZ2",), lattices=("square",)), None,
     "4c123b3bdaf4bef174ffd48eb13f8c86acd79e7ec7cef68ec1d8b78d21f0f531",
     "7a923979b703c78f65318b841c73de2675d424cd437992f3c02dbe5635504932"),
    (dict(rings=("Z4",), lattices=("chain3",), mu_mode="all"), None,
     "db345c312b61df774aaae26855d2edaacc4bf77ebb28579d8c4ab829a8daad90",
     "518ffa6adc802f1327497360c5891e24b954be5463ff81f7e1f8eca493b450fa"),
    (dict(rings=("Z6",), lattices=("m3",), mu_mode="all", gate=False),
     ("L1.4", "L3.4", "L3.7"),
     "6cb88267326693e6c73a3d6274b78d903a25be3d9aa15ebbed5e35e0b8e4f2d8",
     "ba34e41978957ac3f86dfb17974b3dd7914d08932f76b74beae3a338f1f7e18a"),
    (dict(rings=("Z6",), lattices=("m3",), mu_mode="all", gate=False),
     ("L1.11", "T2.6", "T2.11", "T2.14", "T2.17", "T2.20", "T2.23", "T2.25",
      "C2.26"),
     "f6b7c0041af4a176aa33f0959b0d0d34392fabd3936d4e786c6dcff663d3e08c",
     "09ffef79d6c5ed4c9990318659214fec02af9cbb1f8c6c90ef8187db547c1cd5"),
    (dict(rings=("Z6",), lattices=("chain4",), mu_mode="all"),
     tuple(t for t in THEOREM_IDS if t != "T1.7"),
     "d031fc7e7ed1e7ef56f4812f1caa1ec813ae68a650880cc74efd15a6de00feec",
     "761bd918789deb48beaecec1f5dce7a813e7543a3681b335bed98926516d7141"),
    (dict(rings=("Z6",), lattices=("m3",), mu_mode="all", gate=False),
     ("L3.8", "L3.11", "L3.15", "T2.12"),
     "7a958f6a6d1a3c5c1816c1542f1d80f3741c0328656a459b2c4235fbb155d5d6",
     "5c23ee6c47870052e94cb7527b362a62e0cf1a16eb09ccef8da456fecbaf02fb"),
    (dict(rings=("Z6",), lattices=("chain4",), mu_mode="all", sample=50,
          seed=7), None,
     "c43610ba644a1344eb2cea7270b691b05b3e5cee3bfdc587c1eff5014f60c9ad",
     "d291ccb6c67fcded1f02c7dd20f1096cdc802a4e53e8f9ea3c4526d926b774a2"),
]


@pytest.mark.parametrize("kw,theorems,json_digest,text_digest", GOLDEN,
                         ids=["Z4-chain3-m3", "Z2xZ2-square", "Z4-chain3-all",
                              "Z6-m3-all-ungated-strong-cuts",
                              "Z6-m3-all-ungated-sums", "Z6-chain4-all",
                              "Z6-m3-all-ungated-cuts-meets",
                              "Z6-chain4-all-sample50-seed7"])
def test_report_digests_unchanged(kw, theorems, json_digest, text_digest):
    result, report, _ = run_with_report(SuiteParams(**kw), ids=theorems)
    assert sha256(report) == json_digest
    assert sha256(render_text(result)) == text_digest
