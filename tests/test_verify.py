import importlib
import itertools
import json
from collections import Counter

import pytest

from lrings import LIdeal, intersect_many, semiprime_radical
from lrings.decomp import decompose, lift_reducedness, project_level
from lrings.radical import enumerate_family, is_semiprime
from lrings.verify import (CheckRecord, Instance, JsonReport, SuiteParams,
                           SuiteResult, THEOREM_IDS, TheoremReport,
                           check_theorem, generate_instances, render_text,
                           run_suite)

from test_golden import GOLDEN, run_with_report


def params(**kw):
    defaults = dict(rings=("Z4",), lattices=("chain2",))
    defaults.update(kw)
    return SuiteParams(**defaults)


# -- generation ----------------------------------------------------------------

def test_exhaustive_z4_chain2():
    singles, pairs = generate_instances(params())
    values = {inst.ideals[0].values for inst in singles}
    # the three indicator lifts plus the constant-bottom ideal
    assert ("t", "b", "b", "b") in values
    assert ("t", "b", "t", "b") in values
    assert ("t", "t", "t", "t") in values
    assert ("b", "b", "b", "b") in values
    assert len(singles) == 4


def test_exhaustive_z4_chain3_contains_fixtures(z4_setup):
    singles, _ = generate_instances(params(lattices=("chain3",)))
    values = {inst.ideals[0].values for inst in singles}
    assert z4_setup.ideal("eta_zero").values in values
    assert z4_setup.ideal("eta_even").values in values
    assert len(singles) == 10


def test_pairs_share_zero_value():
    _, pairs = generate_instances(params(lattices=("chain3",)))
    for inst in pairs:
        a, b = inst.ideals
        assert a.zero_value() == b.zero_value()


def test_sampling_is_reproducible():
    p1 = params(lattices=("chain3",), sample=5, seed=7)
    p2 = params(lattices=("chain3",), sample=5, seed=7)
    s1, q1 = generate_instances(p1)
    s2, q2 = generate_instances(p2)
    assert [i.label for i in s1] == [i.label for i in s2]
    assert [i.label for i in q1] == [i.label for i in q2]
    assert len(s1) == 5


def test_mu_mode_all_covers_nonconstant():
    singles, _ = generate_instances(params(lattices=("chain3",),
                                           mu_mode="all"))
    mus = {inst.mu.values for inst in singles}
    assert ("t", "m", "t", "m") in mus
    assert len(mus) == 10  # chains of subrings of Z4, empty cuts included


def test_cached_surveys_answer_every_prime_radical():
    # the 56 ideals of Z16 over chain4 come from a cheap level-cut search;
    # each prime radical is then read from that survey, whatever the size
    # of the lattice-valued box between an ideal and mu
    result = run_suite(params(rings=("Z16",), lattices=("chain4",)),
                       ids=["T2.4"])
    (rep,) = result.reports
    assert (rep.checked, rep.passed, rep.skipped) == (56, 56, 0)


# -- single checks ---------------------------------------------------------------

def test_check_theorem_pass(z4_setup):
    inst = Instance("z4/eta_zero", z4_setup.mu,
                    (z4_setup.ideal("eta_zero"),))
    rec = check_theorem("T2.4", inst)
    assert rec.status == "PASS"


def test_check_theorem_prime_specialization(z4_setup):
    inst = Instance("z4/eta_even", z4_setup.mu,
                    (z4_setup.ideal("eta_even"),))
    assert check_theorem("T2.21", inst).status == "PASS"
    assert check_theorem("T2.23", inst).status == "PASS"


def test_check_theorem_gates_non_chain(square):
    from lrings import FiniteRing, LIdeal, LSubring
    ring = FiniteRing.zn(4)
    mu = LSubring.constant_top(ring, square)
    eta = LIdeal(mu, {x: ("1" if x == "0" else "0") for x in ring.elements})
    rec = check_theorem("T3.5", Instance("sq", mu, (eta,)))
    assert rec.status == "SKIP"
    assert "chain" in rec.detail


def test_check_theorem_unknown_id(z4_setup):
    inst = Instance("z4", z4_setup.mu, (z4_setup.ideal("eta_zero"),))
    with pytest.raises(ValueError, match="valid ids"):
        check_theorem("T9.99", inst)


def test_check_theorem_rejects_pair_with_different_zero_values(z4_setup):
    # eta_zero(0) = t, while the constant-bottom ideal is b at zero
    mu = z4_setup.mu
    low = LIdeal(mu, ["b"] * 4)
    inst = Instance("z4/mismatch", mu, (z4_setup.ideal("eta_zero"), low))
    for ident in ("L1.11", "T2.10", "T2.17", "T2.25", "C2.26"):
        with pytest.raises(ValueError, match="equal zero values"):
            check_theorem(ident, inst)


@pytest.mark.parametrize("ident", ["T1.7", "L1.4"])
def test_check_theorem_takes_the_whole_subring_shape(ident, z4_setup):
    # a theorem about the whole subring needs no ideal, as run_suite runs it
    inst = Instance("z4/mu=top", z4_setup.mu, ())
    assert check_theorem(ident, inst) == CheckRecord(ident, inst.label, "PASS")
    for one in ("T2.4", "L3.4"):
        with pytest.raises(ValueError, match="needs 1 ideal"):
            check_theorem(one, inst)


def test_whole_subring_labels_keep_a_slash_in_a_lattice_element():
    # the label is the block's, not the first ideal's cut at its last "/"
    records = []
    lat = {"elements": ["x/y", "t"], "leq": [["x/y", "t"]]}
    run_suite(params(rings=("Z2",), lattices=(lat,)), ids=["T1.7", "T2.4"],
              on_record=records.append)
    assert records[0] == CheckRecord("T1.7", "Z2/lattice/mu=top", "PASS")
    assert records[1].instance == "Z2/lattice/mu=top/eta[x/y,x/y]"


def test_whole_subring_instances_under_sampling():
    # sampled, one whole-subring instance per L-subring with a kept single,
    # in order; many seeds, so a block whose first single is the only one
    # kept, right after a block with none, is met too
    for seed in range(30):
        p = params(lattices=("chain3",), mu_mode="all", sample=4, seed=seed)
        singles, _ = generate_instances(p)
        kept = []
        for inst in singles:
            if not kept or kept[-1].mu is not inst.mu:
                kept.append(inst)
        got = singles.subrings()
        assert [i.mu for i in got] == [i.mu for i in kept], seed
        assert [i.label for i in got] == [
            i.label.rsplit("/", 1)[0] for i in kept]


def test_t3_16_passes_where_factors_drop(z12_setup, monkeypatch):
    # at level m the factors lifted from the top cut fill the subring's cut,
    # so the reducedness transfer is asked for at t only
    eta = z12_setup.ideal("eta_three_level")
    dec = decompose(eta)
    assert len(project_level(dec, "m", strong=False)) < len(dec.factors)
    asked = []

    def lift(dec, t):
        asked.append(t)
        return lift_reducedness(dec, t)
    monkeypatch.setattr("lrings.verify.lift_reducedness", lift)
    inst = Instance("z12/eta_three_level", z12_setup.mu, (eta,))
    assert check_theorem("T3.16", inst).status == "PASS"
    assert asked == ["t"]


def test_t2_12_passes_over_many_semiprime_ideals(z12_setup):
    # S(eta) and the 28 pair meets of the eight semiprime ideals above eta
    # are checked; eta itself is not semiprime
    eta = z12_setup.ideal("eta_three_level")
    assert not is_semiprime(eta)
    assert len(enumerate_family(eta, "semiprime")) == 8
    inst = Instance("z12/eta_three_level", z12_setup.mu, (eta,))
    assert check_theorem("T2.12", inst).status == "PASS"


def test_t2_12_fails_exactly_where_a_rejected_meet_is_asked_for(monkeypatch):
    # reject the meet of the first two semiprime ideals of some L-subring
    # that are not nested; T2.12 must fail on exactly the ideals whose S or
    # pair meets an inline check per ideal finds rejected
    singles, _ = generate_instances(params(rings=("Z6",), lattices=("chain4",),
                                           mu_mode="all"))
    target = None
    for inst in singles:
        fam = enumerate_family(inst.ideals[0], "semiprime")
        for a, b in itertools.combinations(fam, 2):
            if not (a.contains(b) or b.contains(a)):
                target = (inst.mu.ivalues, intersect_many([a, b]).ivalues)
                break
        if target:
            break
    assert target is not None

    def patched(eta):
        return (eta.parent.ivalues, eta.ivalues) != target and is_semiprime(eta)
    # T2.12 asks S(eta) in verify, and the survey's pair set in radical
    monkeypatch.setattr("lrings.verify.is_semiprime", patched)
    monkeypatch.setattr(importlib.import_module("lrings.radical"),
                        "is_semiprime", patched)

    def inline(eta):
        members = enumerate_family(eta, "semiprime")
        meets = [intersect_many(list(pair))
                 for pair in itertools.combinations(members, 2)]
        return bool(members) and not all(
            map(patched, [semiprime_radical(eta)] + meets))

    failed = {inst.label for inst in singles
              if check_theorem("T2.12", inst).status == "FAIL"}
    expected = {inst.label for inst in singles if inline(inst.ideals[0])}
    assert failed == expected
    # not every ideal of that subring with a semiprime ideal above it
    asked = {inst.label for inst in singles if inst.mu.ivalues == target[0]
             and enumerate_family(inst.ideals[0], "semiprime")}
    assert failed and failed < asked


# -- suite ---------------------------------------------------------------------------

def test_suite_empty_ids():
    assert run_suite(params(), ids=[]).reports == []


def test_suite_unknown_ids():
    with pytest.raises(ValueError, match="T0.0"):
        run_suite(params(), ids=["T0.0"])


def test_suite_unknown_mu_mode():
    with pytest.raises(ValueError, match="^mu_mode must be 'top' or 'all', "
                                         "not 'bogus'$"):
        run_suite(params(mu_mode="bogus"))


def test_suite_all_green_on_small_carriers():
    result = run_suite(params(rings=("Z4", "Z6"),
                              lattices=("chain2", "chain3")))
    assert result.ok
    assert all(r.checked > 0 for r in result.reports)
    covered = {r.theorem for r in result.reports}
    assert covered == set(THEOREM_IDS)


def test_suite_skips_heyting_checks_on_m3():
    result = run_suite(params(rings=("Z4",), lattices=("m3",)),
                       ids=["L1.11", "T2.17", "C2.26"])
    assert result.ok
    for r in result.reports:
        assert r.skipped == r.checked
        assert any("Heyting" in reason for reason in r.skip_reasons)


def test_suite_runs_clean_on_m3_where_gated():
    # non-Heyting, non-chain carriers still pass all applicable checks
    result = run_suite(params(rings=("Z4",), lattices=("m3",)))
    assert result.ok


def test_master_property_over_all_lattice_shapes():
    # gated, the whole table is green on chains, the Boolean square and
    # the diamond, including a product ring
    result = run_suite(params(rings=("Z2xZ2",),
                              lattices=("chain2", "square", "m3")))
    assert result.ok
    t225 = next(r for r in result.reports if r.theorem == "T2.25")
    # the sum theorem really runs on non-distributive instances whenever
    # the sums stay ideals, and skips the documented failures
    assert t225.passed > 0
    assert any("not an ideal" in reason for reason in t225.skip_reasons)


def test_ungated_mode_exposes_radical_properness_edge():
    # with gates off, T2.20 fails exactly on the documented boundary cases
    result = run_suite(params(lattices=("chain3",), mu_mode="all",
                              gate=False), ids=["T2.20"])
    rep = result.reports[0]
    assert rep.failed > 0
    assert any("mu[m,b,m,b]/eta[m,b,b,b]" in label
               for label, _ in rep.failures)


def test_gated_mode_all_mu_is_green():
    result = run_suite(params(lattices=("chain3",), mu_mode="all"))
    assert result.ok


# -- reports ---------------------------------------------------------------------------

def report_document(result, records):
    """The JSON report as one document: the oracle for JsonReport, whose
    pieces must join to json.dumps(document, indent=1, sort_keys=True)
    plus a newline."""
    return {
        "params": result.params.as_dict(),
        "summary": [{"theorem": r.theorem, "clause": r.clause,
                     "checked": r.checked, "passed": r.passed,
                     "skipped": r.skipped, "failed": r.failed,
                     "skip_reasons": dict(sorted(r.skip_reasons.items())),
                     "failures": [{"instance": l, "detail": d}
                                  for l, d in r.failures]}
                    for r in result.reports],
        "records": [{"theorem": r.theorem, "instance": r.instance,
                     "status": r.status, "detail": r.detail}
                    for r in records],
    }


def streamed(result, records):
    pieces = []
    report = JsonReport(pieces.append, result.params)
    for rec in records:
        report.record(rec)
    report.close(result)
    return "".join(pieces)


def assert_json_matches_the_document(result, report, records):
    # the streamed report is read back, and its re-dump is itself
    doc = json.loads(report)
    assert report == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert doc == report_document(result, records)


def test_render_json_escapes_as_json_dumps_does():
    # a ConsistencyError detail quotes an LSubset repr, whose arrow is not
    # ASCII; no committed report holds an escape
    detail = ('ConsistencyError: <LIdeal 0↦t 1↦b> said "no"\n'
              'at C:\\tmp\there')
    fail = CheckRecord("T2.4", 'Z4/chain2/eta["t",b]', "FAIL", detail)
    cap = CheckRecord("T2.4", "Z4/chain2/eta[b,b]", "SKIP",
                      "cap exceeded: ↦ \x7f\x00")
    passed = CheckRecord("T2.4", "Z4/chain2/eta[t,t]", "PASS")
    full = TheoremReport("T2.4", 'P(eta)(0) = "eta(0)"', checked=3,
                         passed=1, skipped=1, failed=1,
                         failures=[(fail.instance, detail)],
                         skip_reasons={cap.detail: 1})
    empty = TheoremReport("L1.4", "no checks")
    for p, reports, records in (
            (params(), [full, empty], [fail, cap, passed]),
            (params(sample=0), [empty], []),      # --sample 0
            (params(), [], [])):                  # run_suite(ids=[])
        result = SuiteResult(p, reports)
        assert_json_matches_the_document(result, streamed(result, records),
                                         records)
    assert_json_matches_the_document(*run_with_report(params(sample=0)))


@pytest.mark.parametrize("kw,theorems", [g[:2] for g in GOLDEN],
                         ids=[f"golden{k}" for k in range(len(GOLDEN))])
def test_render_json_matches_the_document_on_golden_runs(kw, theorems):
    assert_json_matches_the_document(*run_with_report(SuiteParams(**kw),
                                                      ids=theorems))


def test_records_reach_the_writer_one_at_a_time():
    # the pieces join to the document, one write per record
    result, text, records = run_with_report(params(lattices=("chain3",)))
    pieces = []
    report = JsonReport(pieces.append, result.params)
    for k, rec in enumerate(records, 1):
        report.record(rec)
        assert len(pieces) == 1 + k  # params, then one piece per record
    report.close(result)
    assert "".join(pieces) == text
    assert len(pieces) == 1 + len(records) + 1  # params, records, summary
    assert_json_matches_the_document(result, text, records)


def test_reports_are_deterministic():
    p = params(lattices=("chain3",), sample=6, seed=7)
    r1, json1, _ = run_with_report(p, ids=["T2.13", "T2.4"])
    r2, json2, _ = run_with_report(p, ids=["T2.13", "T2.4"])
    assert json1 == json2
    assert render_text(r1) == render_text(r2)


def test_report_has_one_record_per_check():
    _, _, records = run_with_report(params(), ids=["T2.4"])
    singles, _ = generate_instances(params())
    assert len(records) == len(singles)
    assert {r.status for r in records} <= {"PASS", "FAIL", "SKIP"}


def test_render_text_shape():
    text = render_text(run_suite(params(), ids=["T2.4"]))
    assert "T2.4" in text
    assert "result: all checks passed" in text


def test_render_text_verdict_reads_the_skip_kinds():
    cap = CheckRecord("T2.4", "a", "SKIP", "cap exceeded: 9 candidates")
    hyp = CheckRecord("T2.4", "b", "SKIP", "hypothesis: lattice is not a chain")
    fail = CheckRecord("T2.4", "c", "FAIL", "boom")

    def verdict(*records):
        # the counts run_suite tallies from these records; the verdict
        # reads the cap-skips from the skip reasons
        skips = [r.detail for r in records if r.status == "SKIP"]
        rep = TheoremReport("T2.4", "clause", checked=len(records),
                            skipped=len(skips),
                            failed=sum(r.status == "FAIL" for r in records),
                            skip_reasons=dict(Counter(skips)))
        text = render_text(SuiteResult(params(), [rep]))
        return text.splitlines()[-1]

    # a hypothesis skip, even with no PASS at all, is not an unavailable run
    assert verdict(hyp) == "result: all checks passed"
    assert verdict(cap, hyp) == ("result: computation unavailable "
                                 "(1 checks skipped for a cap)")
    assert verdict(cap, fail) == "result: FAILURES FOUND"
    assert verdict() == "result: computation unavailable (no checks ran)"
