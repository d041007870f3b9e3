"""Golden digests of whole `verify` reports.

A change to how ideals or L-subrings are enumerated must not move any
report: the same instances, in the same order, with the same verdicts.
These digests pin the JSON and text renderings of five small exhaustive
runs that between them cover a chain, a non-distributive lattice, a
distributive non-chain lattice, a non-constant subring sweep and a ring
that is not cyclic. The fourth runs the strong-cut lemmas ungated over
every L-subring of Z6 on m3, where many strong cuts are not subrings: it
pins that every request for such a cut fails with the same message. The
fifth runs the sum, radical and predicate theorems ungated over every
L-subring of Z6 on m3, where 48 pairs of ideals have a sum that is not an
ideal: it pins that every request for such a sum fails with the same text.
"""

import hashlib

import pytest

from lrings.verify import SuiteParams, render_json, render_text, run_suite


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
]


@pytest.mark.parametrize("kw,theorems,json_digest,text_digest", GOLDEN,
                         ids=["Z4-chain3-m3", "Z2xZ2-square", "Z4-chain3-all",
                              "Z6-m3-all-ungated-strong-cuts",
                              "Z6-m3-all-ungated-sums"])
def test_report_digests_unchanged(kw, theorems, json_digest, text_digest):
    result = run_suite(SuiteParams(**kw), ids=theorems)
    assert sha256("".join(render_json(result))) == json_digest
    assert sha256(render_text(result)) == text_digest
