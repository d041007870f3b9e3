"""Brute-force theorem survey over generated desk-scale instances.

Every supported statement has an id, a short clause, an instance shape
(one ideal, a pair with matching zero values, or the bare subring), a
tuple of gates and a checker. The gates run in order, and the first one
that gives a reason skips the check; an error raised in a gate fails it,
as one raised in the checker does. An exploratory mode can disable gating.

Instance generation is exhaustive by default (every ideal of every chosen
subring over the chosen carriers) and reproducibly sampled otherwise. It
builds each subring's ideal survey and keeps, per subring, the survey's
ideals, their labels and their zero values; an instance is made from
those when its theorem reaches it, so no list of all pairs is ever held.
The suite is one pass: each record is counted in its theorem's report and
handed to the report writer as it is made, and none is kept. Reports
carry one record per (theorem, instance) and are byte-stable for fixed
parameters and seed.

The candidate cap is spent only by instance generation (listing the
L-subrings and building their ideal surveys) and by T1.7's inequality
search. Each ideal keeps its decomposition, never a failure, so T3.5,
T3.9 and T3.16 share one.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

from .errors import CapExceeded, ConsistencyError
from .lattice import make_lattice
from .rings import DECOMPOSITION_IDEAL_CAP, RingError, Subring, make_ring
from .core import (LIdeal, LSubring, LSubset, ValidationError, cuts,
                   ideal_inequality_search, intersect_many, level_cut_search,
                   level_subring, level_cuts_all_ideals,
                   satisfies_ideal_inequalities, strong_subring, sum_ideals)
from .radical import (DEFAULT_CANDIDATE_CAP, enumerate_family, ideal_survey,
                      is_primary, is_prime, is_semiprime, prime_radical,
                      radical, semiprime_radical)
from .decomp import (DecompositionError, NoCrispDecomposition, decompose,
                     lift_reducedness, project_level)

CAP_SKIP = "cap exceeded: "  # detail prefix of a check skipped for a cap


class SkipCheck(Exception):
    """Raised inside a checker when the instance turns out not to satisfy
    a hypothesis that only the computation itself can detect."""


class Instance(NamedTuple):
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


class CheckRecord(NamedTuple):
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

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def verdict(self) -> tuple[int, str]:
        """The exit code and the text of the result line."""
        if not self.ok:
            return 3, "FAILURES FOUND"
        capped = sum(n for rep in self.reports
                     for reason, n in rep.skip_reasons.items()
                     if reason.startswith(CAP_SKIP))
        if capped:
            return 2, (f"computation unavailable ({capped} checks skipped "
                       "for a cap)")
        if not any(rep.checked for rep in self.reports):
            return 2, "computation unavailable (no checks ran)"
        return 0, "all checks passed"


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
    return [LSubring(ring, lat, ivalues=v)
            for v in level_cut_search(ring, lat, lambda a: subrings,
                                      params.cap)]


class _Block(NamedTuple):
    """One L-subring of the run: its survey's ideals in order, their
    labels and zero values, and its single instances, one per ideal."""
    label: str
    mu: LSubring
    ideals: tuple[LIdeal, ...]
    labels: list[str]
    zeros: list[int]             # each ideal's value index at zero
    singles: list[Instance]

    def pairs(self):
        """The pair instances, made one at a time: i <= j in survey order,
        with equal zero values."""
        _, mu, ideals, labels, zeros, singles = self
        groups, place = {}, []  # positions by zero value; i's place there
        for i, z in enumerate(zeros):
            group = groups.setdefault(z, [])
            place.append(len(group))
            group.append(i)
        for i, z in enumerate(zeros):
            head, a = singles[i].label + "+", ideals[i]
            for j in groups[z][place[i]:]:
                yield Instance(head + labels[j], mu, (a, ideals[j]))

    def count_pairs(self) -> int:
        return sum(n * (n + 1) // 2 for n in Counter(self.zeros).values())


class InstancePool:
    """The instances of one shape over every L-subring of the run, walked
    block by block; `make(block)` gives a block's instances in order, and
    `counts` their number per block. When sampled, `chosen` holds the kept
    positions in the whole pool, sorted."""

    def __init__(self, blocks, make, counts, chosen=None):
        self._blocks = blocks
        self._make = make
        self._counts = counts
        self._chosen = chosen

    def __len__(self) -> int:
        return sum(self._counts) if self._chosen is None else len(self._chosen)

    def __iter__(self):
        make, chosen = self._make, self._chosen
        if chosen is None:
            for block in self._blocks:
                yield from make(block)
            return
        want = iter(chosen)
        k = next(want, None)
        start = 0
        for block, n in zip(self._blocks, self._counts):
            if k is None:
                return
            if k < start + n:   # else no kept instance is in this block
                for pos, inst in enumerate(make(block), start):
                    if pos == k:
                        yield inst
                        k = next(want, None)
                        if k is None or k >= start + n:
                            break
            start += n

    def subrings(self) -> list[Instance]:
        """One whole-subring instance per L-subring with a kept instance,
        labelled by its block."""
        kept, chosen, start = [], self._chosen, 0
        for block, n in zip(self._blocks, self._counts):
            if chosen is None:
                if n:
                    kept.append(block)
            else:
                k = bisect_left(chosen, start)
                if k < len(chosen) and chosen[k] < start + n:
                    kept.append(block)
            start += n
        return [Instance(b.label, b.mu, ()) for b in kept]


def generate_instances(params: SuiteParams):
    """Returns (singles, pairs), two InstancePools. Singles cover every
    ideal of every chosen subring; pairs combine ideals of one subring with
    equal zero values (unordered, with repetition). Each subring's survey
    and single instances are built here; a pair is made only when its
    pool is walked. Sampling keeps a reproducible subset of each pool."""
    blocks = []
    for rname in params.rings:
        ring = make_ring(rname)
        for lname in params.lattices:
            lat = make_lattice(lname)
            base = f"{ring.name}/{lat.name or 'lattice'}"
            for mu in _enumerate_mus(ring, lat, params):
                mlab = f"{base}/{_mu_label(mu)}"
                ideals = ideal_survey(mu, cap=params.cap).ideals
                labels = [_eta_label(eta) for eta in ideals]
                blocks.append(_Block(
                    mlab, mu, ideals, labels,
                    [eta.ivalues[ring.zero_i] for eta in ideals],
                    [Instance(f"{mlab}/{elab}", mu, (eta,))
                     for eta, elab in zip(ideals, labels)]))
    pools = [(attrgetter("singles"), [len(b.singles) for b in blocks]),
             (_Block.pairs, [b.count_pairs() for b in blocks])]
    rng = random.Random(params.seed)
    out = []
    for make, counts in pools:   # singles draw first, as they always have
        total, chosen = sum(counts), None
        if params.sample is not None and total > params.sample:
            chosen = sorted(rng.sample(range(total), params.sample))
        out.append(InstancePool(blocks, make, counts, chosen))
    return tuple(out)


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
    """decompose(eta), which eta keeps; a failure is not kept, so every
    request raises it again, as a skip."""
    try:
        return decompose(eta)
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
        cand = LSubset(mu.ring, mu.lattice, ivalues=v)
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
    levels = cuts(mu)
    for r, sc in zip(lat.elements, cuts(mu, strong=True)):
        if not sc:
            continue
        try:
            sub = strong_subring(mu, r)
        except RingError as e:
            return f"strong cut at {r!r} is not a subring: {e}"
        for t, lc in zip(lat.elements, levels):
            if not lat.lt(r, t):
                continue
            if lc and not lc <= sub.member_set:
                return f"level cut at {t!r} escapes the strong cut at {r!r}"
    return None


def _check_l1_10(inst, params):
    # mu as an ideal is a survey entry, whose sum row keeps mu + mu, so it
    # is summed once per subring
    eta = inst.ideals[0]
    if sum_ideals(eta, eta).ivalues != eta.ivalues:
        return "eta + eta != eta"
    mu = inst.mu
    top = LIdeal._of(mu, mu.ivalues)
    if sum_ideals(top, top).ivalues != mu.ivalues:
        return "mu + mu != mu"
    return None


def _check_l1_11(inst, params):
    try:
        sum_ideals(*inst.ideals)  # raises unless an ideal holding both
    except (ConsistencyError, ValidationError) as e:
        return f"sum failed: {e}"
    return None


def _check_t2_4(inst, params):
    prime_radical(inst.ideals[0])  # raises unless P(eta)(0) = eta(0)
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
    return None


def _check_t2_10(inst, params):
    a, b = inst.ideals
    for eta in (a, b):
        r, s, p = radical(eta), semiprime_radical(eta), prime_radical(eta)
        if not (s.contains(r) and p.contains(s)):
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
    # the meet of the whole family is S(eta), kept on eta
    if is_semiprime(semiprime_radical(eta)):
        # each pair is met once per subring, kept on the survey
        bad = ideal_survey(inst.mu).non_semiprime_meets
        if not bad or not any((a._pos, b._pos) in bad for a, b
                              in itertools.combinations(members, 2)):
            return None
    return "an intersection of semiprime ideals is not semiprime"


def _check_t2_13(inst, params):
    eta = inst.ideals[0]
    p = prime_radical(eta)
    if prime_radical(p).ivalues != p.ivalues:
        return "P(P(eta)) != P(eta)"
    if radical(p).ivalues != p.ivalues:
        return "rad(P(eta)) != P(eta)"
    return None


def _check_t2_14(inst, params):
    radical(inst.ideals[0])  # raises unless the radical is an ideal
    return None


def _check_t2_15(inst, params):
    a, b = inst.ideals
    for lo, hi in ((a, b), (b, a)):
        if hi.contains(lo) and not radical(hi).contains(radical(lo)):
            return "radical is not monotone"
    return None


def _check_t2_16(inst, params):
    eta = inst.ideals[0]
    p = prime_radical(eta)
    if prime_radical(radical(eta)).ivalues != p.ivalues:
        return "P(rad(eta)) != P(eta)"
    if radical(p).ivalues != p.ivalues:
        return "rad(P(eta)) != P(eta)"
    return None


def _check_t2_17(inst, params):
    a, b = inst.ideals
    rsum = sum_ideals(radical(a), radical(b))
    s = sum_ideals(a, b)
    rs = radical(s)
    p_rsum = prime_radical(rsum)
    if not p_rsum.contains(rsum):
        return "rad-sum escapes its prime radical"
    if p_rsum.ivalues != prime_radical(rs).ivalues:
        return "P(rad eta + rad theta) != P(rad(eta + theta))"
    if p_rsum.ivalues != prime_radical(s).ivalues:
        return "P(rad eta + rad theta) != P(eta + theta)"
    return None


def _check_t2_19(inst, params):
    is_primary(inst.ideals[0])  # raises unless both characterizations agree
    return None


def _check_t2_20(inst, params):
    if not is_prime(radical(inst.ideals[0])):
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
    for t, sc in zip(mu.lattice.elements, cuts(eta, strong=True)):
        if not sc:
            continue
        sub = strong_subring(mu, t)
        if not sub.is_ideal(sc):
            return f"strong cut at {t!r} is not an ideal of the subring"
    return None


def _check_l3_7(inst, params):
    eta = inst.ideals[0]
    mu = inst.mu
    for t, sc, msc in zip(mu.lattice.elements, cuts(eta, strong=True),
                          cuts(mu, strong=True)):
        if not sc or sc == msc:
            continue
        if not strong_subring(mu, t).is_primary_ideal(sc):
            return f"strong cut at {t!r} is neither everything nor primary"
    return None


def _check_l3_8(inst, params):
    a, b = inst.ideals
    both = intersect_many([a, b])
    for t, c, ca, cb in zip(a.lattice.elements, *(cuts(f, strong=True)
                                                  for f in (both, a, b))):
        if c != ca & cb:
            return f"strong cuts do not commute with meets at {t!r}"
    return None


def _check_l3_11(inst, params):
    a, b = inst.ideals
    both = intersect_many([a, b])
    for t, c, ca, cb in zip(a.lattice.elements,
                            *(cuts(f) for f in (both, a, b))):
        if c != ca & cb:
            return f"level cuts do not commute with meets at {t!r}"
    return None


def _check_l3_15(inst, params):
    eta = inst.ideals[0]
    mu = inst.mu
    for t, cut, rcut in zip(mu.lattice.elements, cuts(eta),
                            cuts(radical(eta))):
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
    for t, sc, msc in zip(mu.lattice.elements, cuts(eta, strong=True),
                          cuts(mu, strong=True)):
        if not sc or sc == msc:
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
    for t, cut, mcut in zip(mu.lattice.elements, cuts(eta), cuts(mu)):
        if not cut or cut == mcut:
            continue
        try:
            survivors = project_level(dec, t, strong=False)
        except (ConsistencyError, DecompositionError) as e:
            return f"projection at {t!r} failed: {e}"
        if len(survivors) < len(dec.factors):
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
                "pair", (_gate_heyting,), _check_l1_11),
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
                "one", (), _check_t2_14),
    TheoremSpec("T2.15", "the radical is monotone",
                "pair", (), _check_t2_15),
    TheoremSpec("T2.16", "P(rad(eta)) = P(eta) = rad(P(eta))",
                "one", (), _check_t2_16),
    TheoremSpec("T2.17", "rad-sum <= P(rad-sum) = P(rad(sum)) = P(sum)",
                "pair", (_gate_heyting,), _check_t2_17),
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
                "pair", (), _check_t2_25),
    TheoremSpec("C2.26", "rad(sum) <= rad(P-sum) <= P(sum)",
                "pair", (_gate_heyting,), _check_c2_26),
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
    needed = _IDEALS_NEEDED[spec.scope]
    if len(inst.ideals) < needed:
        raise ValueError(f"{ident} needs {needed} ideal(s) in the instance")
    if needed == 2 and (inst.ideals[0].zero_value()
                        != inst.ideals[1].zero_value()):
        raise ValueError(f"{ident} needs two ideals with equal zero values")
    return _run_check(spec, spec.gates if params.gate else (), inst, params)


_IDEALS_NEEDED = {"one": 1, "pair": 2, "mu": 0}


def _run_check(spec: TheoremSpec, gates: tuple, inst: Instance,
               params: SuiteParams) -> CheckRecord:
    """One record: the gates given (spec.gates, or none when gating is
    off) in order, then the checker."""
    # a gate asks the checkers' predicates, so its error is a record too
    try:
        for gate in gates:
            reason = gate(inst)
            if reason:
                return CheckRecord(spec.ident, inst.label, "SKIP", reason)
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


def run_suite(params: SuiteParams, ids=None, on_record=None) -> SuiteResult:
    """Check every requested theorem over every generated instance. Each
    record is counted in its theorem's report and handed to `on_record`
    as soon as it is made; none is kept."""
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
    pools = {"one": singles, "pair": pairs, "mu": singles.subrings()}
    reports = []
    for spec in specs:
        gates = spec.gates if params.gate else ()
        passed = skipped = failed = 0
        skip_reasons, failures = {}, []
        for inst in pools[spec.scope]:
            rec = _run_check(spec, gates, inst, params)
            if on_record is not None:
                on_record(rec)
            status = rec.status
            if status == "PASS":
                passed += 1
            elif status == "SKIP":
                skipped += 1
                skip_reasons[rec.detail] = skip_reasons.get(rec.detail, 0) + 1
            else:
                failed += 1
                failures.append((inst.label, rec.detail))
        reports.append(TheoremReport(
            spec.ident, spec.clause, passed + skipped + failed, passed,
            failed, skipped, failures, skip_reasons))
    return SuiteResult(params, reports)


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
    lines.append(f"result: {result.verdict[1]}")
    return "\n".join(lines) + "\n"


def _member(key, value) -> str:
    """One key of the report, at indent 1; json.dumps escapes every
    newline inside a string, so each "\\n" left is a line break."""
    text = json.dumps(value, indent=1, sort_keys=True)
    return f' "{key}": ' + text.replace("\n", "\n ")


class JsonReport:
    """The JSON report, written in order through `write`: the params when
    the report is made, each record as it is made (`record`, which can be
    run_suite's `on_record`) and the summary at `close`. Together the
    pieces are exactly json.dumps(doc, indent=1, sort_keys=True) + "\n" for
    the document whose keys "params", "records" and "summary" hold the
    parameters, one object per record and one per theorem; `sort_keys`
    puts the records before the summary. The params and the summary are
    small and go through json.dumps; each record is formatted here with
    the string escaper json.dumps itself uses, so neither the document nor
    its text is ever built whole."""

    def __init__(self, write, params: SuiteParams):
        self._write = write
        self._sep = ' "records": [\n'
        self._tails = _RecordTails()
        write("{\n" + _member("params", params.as_dict()) + ",\n")

    def record(self, r: CheckRecord) -> None:
        theorem, instance, status, detail = r
        esc = encode_basestring_ascii
        self._write(
            f'{self._sep}  {{\n'
            f'   "detail": {esc(detail) if detail else _EMPTY},\n'
            f'   "instance": {esc(instance)},\n{self._tails[theorem, status]}')
        self._sep = ",\n"

    def close(self, result: SuiteResult) -> None:
        summary = [{"theorem": r.theorem, "clause": r.clause,
                    "checked": r.checked, "passed": r.passed,
                    "skipped": r.skipped, "failed": r.failed,
                    "skip_reasons": dict(sorted(r.skip_reasons.items())),
                    "failures": [{"instance": l, "detail": d}
                                 for l, d in r.failures]}
                   for r in result.reports]
        self._write(("\n ],\n" if self._sep == ",\n" else ' "records": [],\n')
                    + _member("summary", summary) + "\n}\n")


_EMPTY = encode_basestring_ascii("")


class _RecordTails(dict):
    """The last lines of a record, by (theorem, status), each formatted on
    first use: a status is a constant that needs no escaping, and a
    theorem id is escaped once per status."""

    def __missing__(self, key):
        theorem, status = key
        out = self[key] = (f'   "status": "{status}",\n   "theorem": '
                           f'{encode_basestring_ascii(theorem)}\n  }}')
        return out
