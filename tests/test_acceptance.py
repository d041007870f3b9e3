"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
verdict lines as well).
"""

import itertools
import time

import pytest

from lrings import (LIdeal, LSubring, NoCrispDecomposition, Subring,
                    decompose, ideal_survey, intersect_many, is_primary,
                    level_cut, lift_reducedness, make_lattice, make_ring,
                    prime_radical, project_level, radical, strong_cut)
from lrings.core import level_cuts_all_ideals, satisfies_ideal_inequalities
from lrings.core import LSubset
from lrings.radical import primary_by_inequalities, primary_by_level_cuts
from lrings.verify import SuiteParams, run_suite
from lrings.cli import main as cli_main

from test_golden import run_with_report

CRITERION1_IDS = ["T2.4", "T2.6", "T2.9", "T2.10", "T2.11", "T2.12", "T2.13",
                  "T2.14", "T2.15", "T2.16", "T2.17", "T2.19", "T2.20",
                  "T2.21", "C2.22", "T2.23", "T2.24", "T2.25", "C2.26",
                  "L3.15"]


@pytest.fixture(scope="module")
def crit1_result():
    params = SuiteParams(rings=("Z2", "Z3", "Z4", "Z6"),
                         lattices=("chain2", "chain3"))
    t0 = time.monotonic()
    result = run_suite(params, ids=CRITERION1_IDS)
    result.elapsed = time.monotonic() - t0
    return result


@pytest.fixture(scope="module")
def crit2_run():
    """The criterion-2 result and the records of its report stream."""
    params = SuiteParams(rings=("Z4",), lattices=("chain3",), mu_mode="all")
    result, _, records = run_with_report(params, ids=CRITERION1_IDS)
    return result, records


@pytest.fixture(scope="module")
def crit2_result(crit2_run):
    return crit2_run[0]


def _criterion12_subrings():
    """Every subring instance that criteria 1 and 2 range over."""
    out = []
    for rname in ("Z2", "Z3", "Z4", "Z6"):
        ring = make_ring(rname)
        for lname in ("chain2", "chain3"):
            lat = make_lattice(lname)
            out.append(LSubring.constant_top(ring, lat))
    ring = make_ring("Z4")
    lat = make_lattice("chain3")
    for combo in itertools.product(lat.elements, repeat=len(ring)):
        cand = LSubset(ring, lat, list(combo))
        from lrings import is_l_subring
        if is_l_subring(cand):
            out.append(LSubring(ring, lat, cand.values))
    return out


def test_criterion_1_exhaustive_theorem_suite(crit1_result):
    failures = [(r.theorem, r.failures) for r in crit1_result.reports
                if r.failed]
    assert failures == [], failures
    assert {r.theorem for r in crit1_result.reports} == set(CRITERION1_IDS)
    for r in crit1_result.reports:
        assert r.checked > 0
    assert crit1_result.elapsed < 300, "criterion 1 must finish in 5 minutes"
    print(f"\n[criterion 1] PASS: {sum(r.checked for r in crit1_result.reports)}"
          f" checks across {len(CRITERION1_IDS)} theorems, zero failures "
          f"({crit1_result.elapsed:.1f}s)")


def test_criterion_2_nonconstant_mu_sweep(crit2_run):
    crit2_result, records = crit2_run
    failures = [(r.theorem, r.failures) for r in crit2_result.reports
                if r.failed]
    assert failures == [], failures
    # the sweep must actually include non-constant subrings
    non_constant = [rec for rec in records
                    if "mu[" in rec.instance]
    assert non_constant, "expected non-constant subrings in the sweep"
    print(f"\n[criterion 2] PASS: {sum(r.checked for r in crit2_result.reports)}"
          " checks over every L-subring of Z4, zero failures")


def test_criterion_3_characterization_cross_checks():
    ideal_checked = candidate_checked = primary_checked = strongcut_checked = 0
    for mu in _criterion12_subrings():
        lat = mu.lattice
        bot = lat.index(lat.bottom)
        digits = [lat.interval_i(bot, v) for v in mu.ivalues]
        for combo in itertools.product(*digits):
            cand = LSubset(mu.ring, lat, ivalues=combo)
            assert satisfies_ideal_inequalities(cand, mu) == \
                level_cuts_all_ideals(cand, mu)
            candidate_checked += 1
        for eta in ideal_survey(mu).ideals:
            ideal_checked += 1
            assert primary_by_inequalities(eta) == primary_by_level_cuts(eta)
            primary_checked += 1
            if lat.is_chain and is_primary(eta):
                for t in lat.elements:
                    sc = strong_cut(eta, t)
                    msc = strong_cut(mu, t)
                    if not sc or sc == msc:
                        continue
                    assert Subring(mu.ring, msc).is_primary_ideal(sc)
                    strongcut_checked += 1
    # 938 box candidates over the constant-top carriers plus the boxes
    # under the ten Z4 subrings
    assert candidate_checked == 1120 and primary_checked > 100
    assert strongcut_checked > 0
    print(f"\n[criterion 3] PASS: 100% agreement on {candidate_checked} "
          f"ideal candidates, {primary_checked} primary checks, "
          f"{strongcut_checked} strong-cut checks")


def test_criterion_4_decomposition_round_trip(z6_setup, z12_setup):
    successes = skips = 0
    for rname in ("Z6", "Z12"):
        ring = make_ring(rname)
        for lname in ("chain2", "chain3"):
            mu = LSubring.constant_top(ring, make_lattice(lname))
            for eta in ideal_survey(mu).ideals:
                if eta.ivalues == mu.ivalues:
                    continue
                try:
                    dec = decompose(eta)
                except NoCrispDecomposition:
                    skips += 1
                    continue
                assert intersect_many(dec.factors).ivalues == eta.ivalues
                for f in dec.factors:
                    assert is_primary(f)
                successes += 1
    assert successes > 0

    dec_b = decompose(z6_setup.ideal("eta_zero"))
    assert len(dec_b.factors) == 2
    assert dec_b.reduced

    eta3 = z12_setup.ideal("eta_three_level")
    dec3 = decompose(eta3)
    assert intersect_many(dec3.factors).ivalues == eta3.ivalues
    print(f"\n[criterion 4] PASS: {successes} round trips exact "
          f"({skips} without crisp decompositions); two-factor reduced "
          "decomposition and three-level identity confirmed")


def test_criterion_5_crisp_oracle_equivalence():
    # a proper crisp ideal I, lifted to the ideal of the constant-top
    # subring over chain2 that is top on I and bottom elsewhere, decomposes
    # into factors whose top cuts are the crisp oracle's decomposition of I
    lat = make_lattice("chain2")
    found = {}
    for name in ("Z4", "Z6", "Z12", "Z2xZ2"):
        ring = make_ring(name)
        whole = Subring.whole(ring)
        mu = LSubring.constant_top(ring, lat)
        for I in whole.ideals():
            if I == whole.member_set:
                continue
            eta = LIdeal(mu, {x: lat.top if x in I else lat.bottom
                              for x in ring.elements})
            lifted = project_level(decompose(eta), lat.top, strong=False)
            direct = whole.primary_decomposition(I)
            assert direct is not None
            assert set(lifted) == set(direct)
            found[name, I] = set(lifted)
    assert len(found) == 13  # 2+3+5+3 proper ideals
    zero = frozenset({"0"})
    assert found["Z6", zero] == {frozenset({"0", "3"}),
                                 frozenset({"0", "2", "4"})}
    assert found["Z12", zero] == {frozenset({"0", "4", "8"}),
                                  frozenset({"0", "3", "6", "9"})}
    print(f"\n[criterion 5] PASS: lifted decompositions match the direct "
          f"oracle on {len(found)} proper ideals (exact set equality)")


def test_criterion_6_prime_radical_fixed_points(crit1_result, crit2_result):
    for result, which in ((crit1_result, ("T2.13", "T2.16", "T2.4")),
                          (crit2_result, ("T2.4",))):
        for r in result.reports:
            if r.theorem in which:
                assert r.failed == 0
                assert r.passed > 0
    # and directly, not only through the suite
    checked = 0
    for mu in _criterion12_subrings():
        for eta in ideal_survey(mu).ideals:
            p = prime_radical(eta)
            assert prime_radical(p).ivalues == p.ivalues
            assert radical(p).ivalues == p.ivalues
            assert p.zero_value() == eta.zero_value()
            assert prime_radical(radical(eta)).ivalues == p.ivalues
            checked += 1
    print(f"\n[criterion 6] PASS: fixed-point identities exact on {checked} "
          "ideals, including non-constant subrings")


def test_criterion_7_reducedness_lifting():
    transfers = 0
    for rname in ("Z4", "Z6", "Z12"):
        ring = make_ring(rname)
        for lname in ("chain2", "chain3"):
            mu = LSubring.constant_top(ring, make_lattice(lname))
            for eta in ideal_survey(mu).ideals:
                if eta.ivalues == mu.ivalues:
                    continue
                try:
                    dec = decompose(eta)
                except NoCrispDecomposition:
                    continue
                for t in mu.lattice.elements:
                    cut = level_cut(eta, t)
                    mcut = level_cut(mu, t)
                    if not cut or cut == mcut:
                        continue
                    if any(level_cut(f, t) == mcut for f in dec.factors):
                        continue
                    # raises ConsistencyError on any disagreement
                    if lift_reducedness(dec, t):
                        assert dec.reduced
                        transfers += 1
    assert transfers > 0
    print(f"\n[criterion 7] PASS: {transfers} reduced level decompositions "
          "lifted with zero disagreements")


def test_criterion_8_determinism(tmp_path, capsys):
    params = SuiteParams(rings=("Z4", "Z6"), lattices=("chain3",),
                         sample=10, seed=7)
    _, one, _ = run_with_report(params, ids=["T2.13", "T2.25"])
    _, two, _ = run_with_report(params, ids=["T2.13", "T2.25"])
    assert one.encode() == two.encode()

    argv = ["verify", "--rings", "Z4,Z6", "--lattices", "chain2,chain3",
            "--theorems", "T2.13", "--sample", "8", "--seed", "7"]
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(argv + ["--report", str(r1)]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(argv + ["--report", str(r2)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert r1.read_bytes() == r2.read_bytes()
    print("\n[criterion 8] PASS: byte-identical reports for identical "
          "seeds and flags")
