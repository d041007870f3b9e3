"""Brute-force theorem survey over generated desk-scale instances.

Every supported statement has an id, a short clause, an instance shape
(one ideal, a pair with matching zero values, or the bare subring), a
tuple of gates and a checker. The gates run in order, and the first one
that gives a reason skips the check (never fails it); an exploratory mode
can disable gating.

Instance generation is exhaustive by default (every ideal of every chosen
subring over the chosen carriers) and reproducibly sampled otherwise.
Reports carry one record per (theorem, instance) and are byte-stable for
fixed parameters and seed.

The candidate cap is spent only by instance generation (listing the
L-subrings and building their ideal surveys) and by T1.7's inequality
search. The survey memo also keeps each decomposition, never a failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .errors import CapExceeded, ConsistencyError
from .lattice import make_lattice
from .rings import DECOMPOSITION_IDEAL_CAP, RingError, Subring, make_ring
from .core import (LIdeal, LSubring, LSubset, ValidationError,
                   ideal_inequality_search, intersect_many, level_cut,
                   level_cut_search, level_subring, level_cuts_all_ideals,
                   satisfies_ideal_inequalities, strong_cut, strong_subring,
                   sum_ideals, sum_subsets, survey_memo)
from .radical import (DEFAULT_CANDIDATE_CAP, enumerate_family, ideal_survey,
                      is_primary, is_prime, is_semiprime,
                      primary_by_inequalities, primary_by_level_cuts,
                      prime_radical, radical, semiprime_radical)
from .decomp import (DecompositionError, NoCrispDecomposition, decompose,
                     lift_reducedness, project_level)

CAP_SKIP = "cap exceeded: "  # detail prefix of a check skipped for a cap


class SkipCheck(Exception):
    """Raised inside a checker when the instance turns out not to satisfy
    a hypothesis that only the computation itself can detect."""


@dataclass(frozen=True)
class Instance:
    label: str
    mu: LSubring
    ideals: tuple[LIdeal, ...]

    @property
    def lattice(self):
        return self.mu.lattice


@dataclass
class SuiteParams:
    rings: tuple = ("Z4",)
    lattices: tuple = ("chain2",)
    mu_mode: str = "top"          # "top" or "all"
    sample: int | None = None     # None = exhaustive
    seed: int = 0
    cap: int = DEFAULT_CANDIDATE_CAP
    gate: bool = True

    def as_dict(self) -> dict:
        return {"rings": list(self.rings), "lattices": list(self.lattices),
                "mu_mode": self.mu_mode, "sample": self.sample,
                "seed": self.seed, "cap": self.cap,
                "crisp_cap": DECOMPOSITION_IDEAL_CAP, "gate": self.gate}


@dataclass(frozen=True)
class CheckRecord:
    theorem: str
    instance: str
    status: str          # PASS | FAIL | SKIP
    detail: str = ""


@dataclass
class TheoremReport:
    theorem: str
    clause: str
    checked: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)
    skip_reasons: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class SuiteResult:
    params: SuiteParams
    reports: list
    records: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def cap_skipped(self) -> int:
        return sum(r.status == "SKIP" and r.detail.startswith(CAP_SKIP)
                   for r in self.records)


# ---------------------------------------------------------------------------
# instance generation

def _mu_label(mu: LSubring) -> str:
    if len(set(mu.ivalues)) == 1 and mu.values[0] == mu.lattice.top:
        return "mu=top"
    return "mu[" + ",".join(mu.values) + "]"


def _eta_label(eta: LIdeal) -> str:
    return "eta[" + ",".join(eta.values) + "]"


def _enumerate_mus(ring, lat, params: SuiteParams) -> list[LSubring]:
    if params.mu_mode == "top":
        return [LSubring.constant_top(ring, lat)]
    if params.mu_mode != "all":
        raise ValueError(
            f"mu_mode must be 'top' or 'all', not {params.mu_mode!r}")
    # an L-subset is an L-subring exactly when its non-empty level cuts
    # are crisp subrings
    subrings = Subring.whole(ring).subrings()
    return [LSubring(ring, lat, [lat.elements[i] for i in v])
            for v in level_cut_search(ring, lat, lambda a: subrings,
                                          params.cap)]


def generate_instances(params: SuiteParams):
    """Returns (singles, pairs). Singles cover every ideal of every chosen
    subring; pairs combine ideals of one subring with equal zero values
    (unordered, with repetition). Sampling keeps a reproducible subset."""
    singles, pairs = [], []
    for rname in params.rings:
        ring = make_ring(rname)
        for lname in params.lattices:
            lat = make_lattice(lname)
            base = f"{ring.name}/{lat.name or 'lattice'}"
            for mu in _enumerate_mus(ring, lat, params):
                survey = ideal_survey(mu, cap=params.cap)
                mlab = f"{base}/{_mu_label(mu)}"
                ideals = survey.ideals
                for eta in ideals:
                    singles.append(Instance(f"{mlab}/{_eta_label(eta)}",
                                            mu, (eta,)))
                for i in range(len(ideals)):
                    for j in range(i, len(ideals)):
                        a, b = ideals[i], ideals[j]
                        if a.zero_value() != b.zero_value():
                            continue
                        pairs.append(Instance(
                            f"{mlab}/{_eta_label(a)}+{_eta_label(b)}",
                            mu, (a, b)))
    if params.sample is not None:
        rng = random.Random(params.seed)
        if len(singles) > params.sample:
            singles = [singles[i] for i in
                       sorted(rng.sample(range(len(singles)), params.sample))]
        if len(pairs) > params.sample:
            pairs = [pairs[i] for i in
                     sorted(rng.sample(range(len(pairs)), params.sample))]
    return singles, pairs


# ---------------------------------------------------------------------------
# gates

def _gate_chain(inst):
    if not inst.lattice.is_chain:
        return "chain hypothesis"
    return None

def _gate_heyting(inst):
    if not inst.lattice.is_complete_heyting:
        return "complete Heyting hypothesis"
    return None

def _gate_proper(inst):
    if inst.ideals[0].ivalues == inst.mu.ivalues:
        return "eta equals mu"
    return None

def _gate_prime(inst):
    if not is_prime(inst.ideals[0]):
        return "eta is not prime"
    return None

def _gate_primary(inst):
    if not is_primary(inst.ideals[0]):
        return "eta is not primary"
    return None

def _gate_zero_match(inst):
    a, b = inst.ideals
    if a.zero_value() != b.zero_value():
        return "eta(0) differs from theta(0)"
    return None

def _gate_radical_proper(inst):
    # rad(eta) = mu happens for primary eta when mu dips to values the
    # powers of every element already reach (the shadow of the non-unital
    # crisp case); primality of the radical is then out of scope because
    # the whole subring is excluded from every primality notion.
    if radical(inst.ideals[0]).ivalues == inst.mu.ivalues:
        return "radical is the whole subring (degenerate for primality)"
    return None


# ---------------------------------------------------------------------------
# checkers; return None on pass, a detail string on failure

def _decompose(eta):
    """decompose(eta), kept in the memo of eta's survey; a failure is not
    stored, so every request raises it again, as a skip."""
    try:
        return survey_memo(eta.parent, ("dec", eta.ivalues),
                           lambda: decompose(eta))
    except NoCrispDecomposition as e:
        raise SkipCheck(f"no crisp decomposition (level {e.level!r})")
    except DecompositionError as e:
        raise SkipCheck(str(e))


def _check_t1_7(inst, params):
    # Two complete enumerators of the ideals of mu, one per
    # characterization, must list the same set, and each member must pass
    # both characterizations when asked directly.
    mu = inst.mu
    by_def = set(ideal_inequality_search(mu, params.cap))
    by_levels = set(ideal_survey(mu, cap=params.cap).index)
    rank = mu.lattice._rank
    for v in sorted(by_def | by_levels, key=lambda v: [rank[i] for i in v]):
        cand = LSubset._make(mu.ring, mu.lattice, v)
        ineq = v in by_def and satisfies_ideal_inequalities(cand, mu)
        levels = v in by_levels and level_cuts_all_ideals(cand, mu)
        if ineq != levels:
            return (f"characterizations disagree on {cand.values}: "
                    f"inequalities={ineq} levels={levels}")
        if not ineq:
            return (f"an enumerator lists {cand.values}, which its "
                    f"characterization rejects")
    return None


def _check_l1_4(inst, params):
    mu = inst.mu
    lat = mu.lattice
    for r in lat.elements:
        if not strong_cut(mu, r):
            continue
        try:
            sub = strong_subring(mu, r)
        except RingError as e:
            return f"strong cut at {r!r} is not a subring: {e}"
        for t in lat.elements:
            if not lat.lt(r, t):
                continue
            lc = level_cut(mu, t)
            if lc and not lc <= sub.member_set:
                return f"level cut at {t!r} escapes the strong cut at {r!r}"
    return None


def _check_l1_10(inst, params):
    eta = inst.ideals[0]
    if sum_subsets(eta, eta).ivalues != eta.ivalues:
        return "eta + eta != eta"
    mu = inst.mu
    if sum_subsets(mu, mu).ivalues != mu.ivalues:
        return "mu + mu != mu"
    return None


def _check_l1_11(inst, params):
    a, b = inst.ideals
    try:
        s = sum_ideals(a, b)
    except (ConsistencyError, ValidationError) as e:
        return f"sum failed: {e}"
    if not (s.contains(a) and s.contains(b)):
        return "sum does not contain both summands"
    return None


def _check_t2_4(inst, params):
    eta = inst.ideals[0]
    try:
        p = prime_radical(eta)
    except ConsistencyError as e:
        return str(e)
    if p.zero_value() != eta.zero_value():
        return f"P(eta)(0)={p.zero_value()} but eta(0)={eta.zero_value()}"
    return None


def _check_t2_6(inst, params):
    if not is_semiprime(inst.ideals[0]):
        return "prime ideal is not semiprime"
    return None


def _check_t2_9(inst, params):
    eta = inst.ideals[0]
    r = radical(eta)
    s = semiprime_radical(eta)
    if not s.contains(r):
        return "radical not contained in semiprime radical"
    if not inst.mu.contains(s):
        return "semiprime radical escapes mu"
    return None


def _check_t2_10(inst, params):
    a, b = inst.ideals
    for eta in (a, b):
        r, s, p = radical(eta), semiprime_radical(eta), prime_radical(eta)
        if not (s.contains(r) and p.contains(s) and inst.mu.contains(p)):
            return f"chain rad<=S<=P<=mu broken for {_eta_label(eta)}"
    for lo, hi in ((a, b), (b, a)):
        if hi.contains(lo) and not prime_radical(hi).contains(
                prime_radical(lo)):
            return "P is not monotone"
    both = intersect_many([a, b])
    meet_p = intersect_many([prime_radical(a), prime_radical(b)])
    if not meet_p.contains(prime_radical(both)):
        return "P(eta ^ theta) escapes P(eta) ^ P(theta)"
    return None


def _check_t2_11(inst, params):
    eta = inst.ideals[0]
    fixed = radical(eta).ivalues == eta.ivalues
    if is_semiprime(eta) != fixed:
        return f"semiprime={is_semiprime(eta)} but radical-fixed={fixed}"
    return None


def _check_t2_12(inst, params):
    eta = inst.ideals[0]
    members = enumerate_family(eta, "semiprime")
    if not members:
        return None
    groups = [members] + [(members[i], members[j])
                          for i in range(len(members))
                          for j in range(i + 1, len(members))]
    for g in groups:
        inter = intersect_many(list(g))
        if not is_semiprime(inter):
            return "an intersection of semiprime ideals is not semiprime"
    return None


def _check_t2_13(inst, params):
    eta = inst.ideals[0]
    p = prime_radical(eta)
    if prime_radical(p).ivalues != p.ivalues:
        return "P(P(eta)) != P(eta)"
    if radical(p).ivalues != p.ivalues:
        return "rad(P(eta)) != P(eta)"
    return None


def _check_t2_14(inst, params):
    if not isinstance(radical(inst.ideals[0]), LIdeal):
        return "radical is not an ideal on a complete Heyting lattice"
    return None


def _check_t2_15(inst, params):
    a, b = inst.ideals
    for lo, hi in ((a, b), (b, a)):
        if hi.contains(lo) and not radical(hi).contains(radical(lo)):
            return "radical is not monotone"
    return None


def _check_t2_16(inst, params):
    eta = inst.ideals[0]
    r = radical(eta)
    if not isinstance(r, LIdeal):
        return "radical is not an ideal"
    p = prime_radical(eta)
    if prime_radical(r).ivalues != p.ivalues:
        return "P(rad(eta)) != P(eta)"
    if radical(p).ivalues != p.ivalues:
        return "rad(P(eta)) != P(eta)"
    return None


def _check_t2_17(inst, params):
    a, b = inst.ideals
    ra, rb = radical(a), radical(b)
    if not (isinstance(ra, LIdeal) and isinstance(rb, LIdeal)):
        return "a radical failed to be an ideal"
    rsum = sum_ideals(ra, rb)
    s = sum_ideals(a, b)
    rs = radical(s)
    if not isinstance(rs, LIdeal):
        return "rad(eta + theta) failed to be an ideal"
    p_rsum = prime_radical(rsum)
    if not p_rsum.contains(rsum):
        return "rad-sum escapes its prime radical"
    if p_rsum.ivalues != prime_radical(rs).ivalues:
        return "P(rad eta + rad theta) != P(rad(eta + theta))"
    if p_rsum.ivalues != prime_radical(s).ivalues:
        return "P(rad eta + rad theta) != P(eta + theta)"
    return None


def _check_t2_19(inst, params):
    eta = inst.ideals[0]
    by_def = primary_by_inequalities(eta)
    by_levels = primary_by_level_cuts(eta)
    if by_def != by_levels:
        return f"primary characterizations disagree: {by_def} vs {by_levels}"
    return None


def _check_t2_20(inst, params):
    r = radical(inst.ideals[0])
    if not isinstance(r, LIdeal):
        return "radical of a primary ideal is not an ideal"
    if not is_prime(r):
        return "radical of a primary ideal is not prime"
    return None


def _check_t2_21(inst, params):
    eta = inst.ideals[0]
    r = radical(eta)
    p, s = prime_radical(eta), semiprime_radical(eta)
    if not (p.ivalues == r.ivalues == s.ivalues):
        return "P, rad and S differ on a primary ideal"
    return None


def _check_c2_22(inst, params):
    if not is_prime(prime_radical(inst.ideals[0])):
        return "prime radical of a primary ideal is not prime"
    return None


def _check_t2_23(inst, params):
    eta = inst.ideals[0]
    p, r, s = prime_radical(eta), radical(eta), semiprime_radical(eta)
    if not (p.ivalues == eta.ivalues == r.ivalues == s.ivalues):
        return "P = eta = rad = S fails on a prime ideal"
    return None


def _check_t2_24(inst, params):
    eta = inst.ideals[0]
    p = prime_radical(eta)
    if prime_radical(semiprime_radical(eta)).ivalues != p.ivalues:
        return "P(S(eta)) != P(eta)"
    if semiprime_radical(p).ivalues != p.ivalues:
        return "S(P(eta)) != P(eta)"
    return None


def _check_t2_25(inst, params):
    a, b = inst.ideals
    pa, pb = prime_radical(a), prime_radical(b)
    try:
        psum = sum_ideals(pa, pb)
        total = prime_radical(sum_ideals(a, b))
    except ValidationError as e:
        raise SkipCheck(f"a required sum is not an ideal here: {e}")
    if not prime_radical(psum).contains(psum):
        return "P-sum escapes its prime radical"
    if prime_radical(psum).ivalues != total.ivalues:
        return "P(P(eta) + P(theta)) != P(eta + theta)"
    return None


def _check_c2_26(inst, params):
    a, b = inst.ideals
    s = sum_ideals(a, b)
    psum = sum_ideals(prime_radical(a), prime_radical(b))
    r1, r2 = radical(s), radical(psum)
    if not r2.contains(r1):
        return "rad(eta + theta) escapes rad(P(eta) + P(theta))"
    if not prime_radical(s).contains(r2):
        return "rad(P(eta) + P(theta)) escapes P(eta + theta)"
    return None


def _check_l3_4(inst, params):
    eta = inst.ideals[0]
    mu = inst.mu
    for t in mu.lattice.elements:
        sc = strong_cut(eta, t)
        if not sc:
            continue
        sub = strong_subring(mu, t)
        if not sub.is_ideal(sc):
            return f"strong cut at {t!r} is not an ideal of the subring"
    return None


def _check_l3_7(inst, params):
    eta = inst.ideals[0]
    mu = inst.mu
    for t in mu.lattice.elements:
        sc = strong_cut(eta, t)
        if not sc:
            continue
        msc = strong_cut(mu, t)
        if sc == msc:
            continue
        if not strong_subring(mu, t).is_primary_ideal(sc):
            return f"strong cut at {t!r} is neither everything nor primary"
    return None


def _check_l3_8(inst, params):
    a, b = inst.ideals
    both = intersect_many([a, b])
    for t in a.lattice.elements:
        if strong_cut(both, t) != (strong_cut(a, t) & strong_cut(b, t)):
            return f"strong cuts do not commute with meets at {t!r}"
    return None


def _check_l3_11(inst, params):
    a, b = inst.ideals
    both = intersect_many([a, b])
    for t in a.lattice.elements:
        if level_cut(both, t) != (level_cut(a, t) & level_cut(b, t)):
            return f"level cuts do not commute with meets at {t!r}"
    return None


def _check_l3_15(inst, params):
    eta = inst.ideals[0]
    mu = inst.mu
    r = radical(eta)
    for t in mu.lattice.elements:
        cut = level_cut(eta, t)
        rcut = level_cut(r, t)
        if not cut:
            if rcut:
                return f"radical cut at {t!r} non-empty while eta's is empty"
            continue
        crisp = level_subring(mu, t).radical_of(cut)
        if rcut != crisp:
            return (f"cut of the radical at {t!r} is {sorted(rcut)}, crisp "
                    f"radical of the cut is {sorted(crisp)}")
    return None


def _check_t3_5(inst, params):
    _decompose(inst.ideals[0])  # validates intersection and primality
    return None


def _check_t3_9(inst, params):
    eta = inst.ideals[0]
    dec = _decompose(eta)
    mu = inst.mu
    for t in mu.lattice.elements:
        sc = strong_cut(eta, t)
        if not sc or sc == strong_cut(mu, t):
            continue
        try:
            project_level(dec, t, strong=True)
        except (ConsistencyError, DecompositionError) as e:
            return f"projection at {t!r} failed: {e}"
    return None


def _check_t3_16(inst, params):
    eta = inst.ideals[0]
    dec = _decompose(eta)
    mu = inst.mu
    for t in mu.lattice.elements:
        cut = level_cut(eta, t)
        mcut = level_cut(mu, t)
        if not cut or cut == mcut:
            continue
        try:
            project_level(dec, t, strong=False)
        except (ConsistencyError, DecompositionError) as e:
            return f"projection at {t!r} failed: {e}"
        if any(level_cut(f, t) == mcut for f in dec.factors):
            continue  # reducedness transfer needs every factor to survive
        try:
            lift_reducedness(dec, t)  # raises if reduced here, not upstairs
        except ConsistencyError as e:
            return str(e)
    return None


# ---------------------------------------------------------------------------
# the table

@dataclass(frozen=True)
class TheoremSpec:
    """One statement of the survey. `gates` hold its premises and carrier
    hypotheses: functions of an instance, run in order, each giving a skip
    reason or None; the first reason skips the check."""
    ident: str
    clause: str
    scope: str           # "one" | "pair" | "mu"
    gates: tuple
    check: object


THEOREMS = [
    TheoremSpec("T1.7", "ideal inequalities agree with the level criterion",
                "mu", (), _check_t1_7),
    TheoremSpec("L1.4", "strong cuts are subrings; higher level cuts nest",
                "mu", (_gate_chain,), _check_l1_4),
    TheoremSpec("L1.10", "eta + eta = eta and mu + mu = mu",
                "one", (), _check_l1_10),
    TheoremSpec("L1.11", "sums of ideals with equal zero value are ideals "
                         "containing both",
                "pair", (_gate_heyting, _gate_zero_match), _check_l1_11),
    TheoremSpec("T2.4", "P(eta)(0) = eta(0)", "one", (), _check_t2_4),
    TheoremSpec("T2.6", "prime ideals are semiprime",
                "one", (_gate_prime,), _check_t2_6),
    TheoremSpec("T2.9", "rad(eta) <= S(eta) <= mu", "one", (), _check_t2_9),
    TheoremSpec("T2.10", "rad <= S <= P <= mu; P monotone; P(meet) <= meet of P",
                "pair", (), _check_t2_10),
    TheoremSpec("T2.11", "semiprime iff fixed by the radical",
                "one", (_gate_proper,), _check_t2_11),
    TheoremSpec("T2.12", "intersections of semiprime ideals are semiprime",
                "one", (), _check_t2_12),
    TheoremSpec("T2.13", "P(P(eta)) = P(eta) = rad(P(eta))",
                "one", (), _check_t2_13),
    TheoremSpec("T2.14", "the radical is an ideal",
                "one", (_gate_heyting,), _check_t2_14),
    TheoremSpec("T2.15", "the radical is monotone",
                "pair", (), _check_t2_15),
    TheoremSpec("T2.16", "P(rad(eta)) = P(eta) = rad(P(eta))",
                "one", (_gate_heyting,), _check_t2_16),
    TheoremSpec("T2.17", "rad-sum <= P(rad-sum) = P(rad(sum)) = P(sum)",
                "pair", (_gate_heyting, _gate_zero_match), _check_t2_17),
    TheoremSpec("T2.19", "primary inequalities agree with the level criterion",
                "one", (), _check_t2_19),
    TheoremSpec("T2.20", "the radical of a primary ideal is prime",
                "one", (_gate_primary, _gate_radical_proper), _check_t2_20),
    TheoremSpec("T2.21", "P(eta) = rad(eta) = S(eta) for primary eta",
                "one", (_gate_primary,), _check_t2_21),
    TheoremSpec("C2.22", "P of a primary ideal is prime",
                "one", (_gate_primary, _gate_radical_proper), _check_c2_22),
    TheoremSpec("T2.23", "P(eta) = eta = rad(eta) = S(eta) for prime eta",
                "one", (_gate_prime,), _check_t2_23),
    TheoremSpec("T2.24", "P(S(eta)) = P(eta) = S(P(eta))",
                "one", (), _check_t2_24),
    TheoremSpec("T2.25", "P-sum <= P(P-sum) = P(sum)",
                "pair", (_gate_zero_match,), _check_t2_25),
    TheoremSpec("C2.26", "rad(sum) <= rad(P-sum) <= P(sum)",
                "pair", (_gate_heyting, _gate_zero_match), _check_c2_26),
    TheoremSpec("L3.4", "strong cuts of an ideal are crisp ideals of the "
                        "strong cuts of mu",
                "one", (_gate_chain,), _check_l3_4),
    TheoremSpec("L3.7", "strong cuts of a primary ideal are full or primary",
                "one", (_gate_chain, _gate_primary), _check_l3_7),
    TheoremSpec("L3.8", "strong cuts commute with meets",
                "pair", (_gate_chain,), _check_l3_8),
    TheoremSpec("L3.11", "level cuts commute with meets",
                "pair", (), _check_l3_11),
    TheoremSpec("L3.15", "cuts of the radical are crisp radicals of the cuts",
                "one", (), _check_l3_15),
    TheoremSpec("T3.5", "a chain-valued ideal with decomposable strong cuts "
                        "has a primary decomposition",
                "one", (_gate_chain, _gate_proper), _check_t3_5),
    TheoremSpec("T3.9", "decompositions project to proper strong cuts",
                "one", (_gate_chain, _gate_proper), _check_t3_9),
    TheoremSpec("T3.16", "decompositions project to level cuts and "
                         "reducedness lifts back",
                "one", (_gate_chain, _gate_proper), _check_t3_16),
]

THEOREM_IDS = [t.ident for t in THEOREMS]
_BY_ID = {t.ident: t for t in THEOREMS}


def check_theorem(ident: str, inst: Instance,
                  params: SuiteParams | None = None) -> CheckRecord:
    """Run one theorem check against one instance. `params.cap` bounds only
    T1.7; build inst.mu's survey first with `ideal_survey` to bound the rest."""
    if ident not in _BY_ID:
        raise ValueError(f"unknown theorem id {ident!r}; valid ids: "
                         + ", ".join(THEOREM_IDS))
    params = params or SuiteParams()
    spec = _BY_ID[ident]
    needed = 2 if spec.scope == "pair" else 1
    if len(inst.ideals) < needed:
        raise ValueError(f"{ident} needs {needed} ideal(s) in the instance")
    return _run_check(spec, inst, params)


def _run_check(spec: TheoremSpec, inst: Instance,
               params: SuiteParams) -> CheckRecord:
    if params.gate:
        for gate in spec.gates:
            reason = gate(inst)
            if reason:
                return CheckRecord(spec.ident, inst.label, "SKIP", reason)
    try:
        detail = spec.check(inst, params)
    except SkipCheck as e:
        return CheckRecord(spec.ident, inst.label, "SKIP", str(e))
    except CapExceeded as e:
        return CheckRecord(spec.ident, inst.label, "SKIP", f"{CAP_SKIP}{e}")
    except (ConsistencyError, ValidationError, DecompositionError,
            RingError) as e:
        return CheckRecord(spec.ident, inst.label, "FAIL",
                           f"{type(e).__name__}: {e}")
    if detail is None:
        return CheckRecord(spec.ident, inst.label, "PASS")
    return CheckRecord(spec.ident, inst.label, "FAIL", detail)


def run_suite(params: SuiteParams, ids=None) -> SuiteResult:
    """Check every requested theorem over every generated instance."""
    if ids is None:
        specs = THEOREMS
    else:
        unknown = [i for i in ids if i not in _BY_ID]
        if unknown:
            raise ValueError(f"unknown theorem id(s) {unknown}; valid ids: "
                             + ", ".join(THEOREM_IDS))
        wanted = set(ids)
        specs = [t for t in THEOREMS if t.ident in wanted]
    singles, pairs = generate_instances(params)
    # one representative per distinct subring for whole-subring checks
    seen = set()
    mu_insts = []
    for inst in singles:
        key = (id(inst.mu),)
        if key not in seen:
            seen.add(key)
            mu_insts.append(Instance(inst.label.rsplit("/", 1)[0],
                                     inst.mu, ()))
    reports, records = [], []
    for spec in specs:
        pool = {"one": singles, "pair": pairs, "mu": mu_insts}[spec.scope]
        rep = TheoremReport(spec.ident, spec.clause)
        for inst in pool:
            rec = _run_check(spec, inst, params)
            records.append(rec)
            rep.checked += 1
            if rec.status == "PASS":
                rep.passed += 1
            elif rec.status == "SKIP":
                rep.skipped += 1
                rep.skip_reasons[rec.detail] = \
                    rep.skip_reasons.get(rec.detail, 0) + 1
            else:
                rep.failed += 1
                rep.failures.append((inst.label, rec.detail))
        reports.append(rep)
    return SuiteResult(params, reports, records)


# ---------------------------------------------------------------------------
# rendering

def render_text(result: SuiteResult) -> str:
    lines = []
    for rep in result.reports:
        status = "PASS" if rep.ok else "FAIL"
        lines.append(f"{rep.theorem:<6} checked={rep.checked:<4} "
                     f"passed={rep.passed:<4} skipped={rep.skipped:<4} "
                     f"failed={rep.failed:<3} [{status}]  {rep.clause}")
        for reason in sorted(rep.skip_reasons):
            lines.append(f"        skip ({rep.skip_reasons[reason]}x): {reason}")
        for label, detail in rep.failures:
            lines.append(f"        FAIL {label}: {detail}")
    verdict = ("FAILURES FOUND" if not result.ok else
               f"computation unavailable ({result.cap_skipped} checks "
               "skipped for a cap)" if result.cap_skipped else
               "computation unavailable (no checks ran)" if not result.records
               else "all checks passed")
    lines.append(f"result: {verdict}")
    return "\n".join(lines) + "\n"


def render_json(result: SuiteResult) -> str:
    doc = {
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
                    for r in result.records],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
