"""The library's enumerations against brute-force sweeps.

The library finds every ideal of an L-subring, and every L-subring of a
carrier, by a search over families of level cuts. The references here
sweep the whole box of lattice-valued candidates in mixed-radix order and
keep those that satisfy the pointwise inequalities. Both must list the
same subsets in the same order.

The crisp ideals and subrings behind that search are generated as
closures of generators; the reference for them is the sweep over every
subset that holds zero. Ring tables are validated, and crisp closures,
ideal, subring, prime and primary tests run, a whole table row at a time;
their references (`ring_oracles`) are the old pair-by-pair and
triple-by-triple forms, set against them on valid rings and on seeded
perturbations of small tables, which must give the same verdict and the
same error message.

The level side of ideal validation looks each cut up in a per-subring table
of crisp ideals; the reference for it builds the level subring afresh for
every cut and tests the cut against the definition of an ideal.

T1.7 is checked by setting two complete enumerators of the ideals of mu
against each other: a depth-first search by the pointwise inequalities and
the level-cut survey. The reference for that verdict is the old sweep of
the whole box below mu, judging every candidate by both characterizations.

Each ideal keeps its prime, semiprime and pointwise radical, the
predicates' verdicts and its row of the ideals above it, and each surveyed
ideal its sums and meets with later ones; the ideal survey lets LIdeal
skip validation for values it already lists. The references for those
are the meets of the box-sweep ideals of each kind above an ideal, the
pointwise radical, sum and meet formulas, the pointwise containment test
and the filtered family walk (against the up-mask rows and the families
read off them), a direct evaluation of each predicate on cleared slots,
and full validation of every other candidate in the box. The predicate,
radical and sum kernels read table rows; their references are the old
forms that call the lattice's and ring's lookup methods pair by pair.

Primary decompositions of crisp ideals are searched in the subring that
holds them and nowhere else; every proper ideal of every subring of the
crisp test rings must get primary factors that meet to it.

Past the box sweep's reach, on Zn, the number of L-subrings, ideals and
pairs has a closed form: every subgroup dZn is a subring and an ideal of
every subring holding it, so the L-subsets whose level cuts are
subgroups are counted from the divisors of n and lcm alone.

Lattices are drawn as the closed sets of a random closure system on a
ground set of at most three points, ordered by inclusion; every finite
lattice arises this way, so the draws go well beyond chains, m3 and square.
"""

import dataclasses
import gc
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from lrings import (FiniteLattice, FiniteRing, LIdeal, LSubring, Subring,
                    enumerate_family, ideal_survey, is_primary, is_prime,
                    is_semiprime, make_lattice, make_ring, prime_radical,
                    radical, semiprime_radical, sum_ideals)
from lrings.core import (LSubset, ValidationError, cuts, ideal_inequality_search,
                         ideals_above, intersect_many, level_cut_search,
                         level_cuts_all_ideals, satisfies_ideal_inequalities,
                         satisfies_subring_inequalities, sum_subsets)
from lrings.errors import CapExceeded, ConsistencyError
from lrings.rings import RingError
from lrings.radical import (DEFAULT_CANDIDATE_CAP, _is_prime, _is_semiprime,
                            _radical, primary_by_inequalities)
from lrings.verify import (Instance, SuiteParams, _enumerate_mus,
                           check_theorem, generate_instances)

import ring_oracles

ALL_MUS = SuiteParams(mu_mode="all")  # every L-subring, default cap

# additive group Z2 x Z2 with zero multiplication: no unity, and every
# additive subgroup (the diagonal included) is an ideal
_KLEIN = ["0", "a", "b", "c"]
_KLEIN_ADD = {("a", "b"): "c", ("a", "c"): "b", ("b", "c"): "a"}
ZERO_MUL_KLEIN = {
    "elements": _KLEIN,
    "add": [[x if y == "0" else y if x == "0" else "0" if x == y
             else _KLEIN_ADD.get((x, y)) or _KLEIN_ADD[(y, x)]
             for y in _KLEIN] for x in _KLEIN],
    "mul": [["0"] * 4 for _ in _KLEIN],
}
RINGS = [make_ring(f"Z{n}") for n in range(1, 7)] + [
    make_ring("Z2xZ2"), make_ring(ZERO_MUL_KLEIN)]

MAX_BOX = 5000


@st.composite
def closure_lattices(draw):
    n = draw(st.integers(1, 3))
    subsets = [frozenset(c) for k in range(n + 1)
               for c in itertools.combinations(range(n), k)]
    keep = draw(st.lists(st.booleans(), min_size=len(subsets),
                         max_size=len(subsets)))
    closed = {frozenset(range(n))} | {s for s, k in zip(subsets, keep) if k}
    while True:
        more = {a & b for a in closed for b in closed} - closed
        if not more:
            break
        closed |= more

    def label(s):
        return "s" + "".join(map(str, sorted(s)))

    return FiniteLattice([label(s) for s in closed],
                         [(label(a), label(b))
                          for a in closed for b in closed if a <= b])


def box_subrings(ring, lat):
    """Every L-subring, by sweeping all |L|^|R| candidates."""
    return [combo for combo in itertools.product(lat.linext, repeat=len(ring))
            if ring_oracles.satisfies_subring_inequalities(
                LSubset(ring, lat, ivalues=combo))[0]]


def box_ideals(mu):
    """Every ideal of mu, by sweeping the candidates below mu."""
    lat = mu.lattice
    bot = lat.index(lat.bottom)
    digits = [lat.interval_i(bot, v) for v in mu.ivalues]
    return [combo for combo in itertools.product(*digits)
            if satisfies_ideal_inequalities(
                LSubset(mu.ring, lat, ivalues=combo), mu)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(closure_lattices(), st.sampled_from(RINGS), st.data())
def test_level_cut_search_matches_box_sweeps(lat, ring, data):
    assume(len(lat) ** len(ring) <= MAX_BOX)
    subrings = box_subrings(ring, lat)
    found = _enumerate_mus(ring, lat, ALL_MUS)
    assert [mu.ivalues for mu in found] == subrings

    if data.draw(st.booleans(), label="constant top"):
        mu = LSubring.constant_top(ring, lat)
    else:
        values = data.draw(st.sampled_from(subrings), label="mu")
        mu = LSubring(ring, lat, [lat.elements[i] for i in values])
    assert [v.ivalues for v in ideal_survey(mu).ideals] == box_ideals(mu)


def per_cut_level_check(nu, mu):
    """The level criterion with a fresh level subring for every non-empty
    cut: nu <= mu and each cut passes the subring's ideal test."""
    ring, leq = nu.ring, nu.lattice.leq_i
    if not all(leq(a, b) for a, b in zip(nu.ivalues, mu.ivalues)):
        return False
    for a in range(len(nu.lattice)):
        cut = frozenset(i for i, v in enumerate(nu.ivalues) if leq(a, v))
        if not cut:
            continue
        mcut = [x for x, v in zip(ring.elements, mu.ivalues) if leq(a, v)]
        if not ring_oracles.is_ideal_i(Subring(ring, mcut), cut):
            return False
    return True


def assert_level_side_matches_per_cut_check(ring, lat):
    bot = lat.index(lat.bottom)
    for mu in _enumerate_mus(ring, lat, ALL_MUS):
        digits = [lat.interval_i(bot, v) for v in mu.ivalues]
        for combo in itertools.product(*digits):
            nu = LSubset(ring, lat, ivalues=combo)
            assert level_cuts_all_ideals(nu, mu) == per_cut_level_check(nu, mu), \
                (mu, nu)


@pytest.mark.parametrize("lat_name", ["chain2", "chain3", "square", "m3"])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_level_side_matches_per_cut_check(ring, lat_name):
    assert_level_side_matches_per_cut_check(ring, make_lattice(lat_name))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(closure_lattices(), st.sampled_from(RINGS))
def test_level_side_matches_per_cut_check_on_drawn_lattices(lat, ring):
    assume(len(lat) ** len(ring) <= MAX_BOX)
    assert_level_side_matches_per_cut_check(ring, lat)


def test_level_side_raises_only_where_a_cut_of_mu_is_needed():
    # mu's cut at t is {0, 1}, not a subring of Z4 (1 + 1 = 2)
    ring, lat = make_ring("Z4"), make_lattice("chain2")
    mu = LSubset(ring, lat, ["t", "t", "b", "b"])
    low = LSubset(ring, lat, ["b"] * 4)  # empty cut at t: no lookup there
    high = LSubset(ring, lat, ["t", "b", "b", "b"])
    for check in (level_cuts_all_ideals, per_cut_level_check):
        assert check(low, mu)
        with pytest.raises(RingError, match="not closed"):
            check(high, mu)


def test_search_counts_every_cut_assignment_tried():
    # Z6 has four subrings: 0, 3Z6, 2Z6 and Z6. Over chain3 the cut at m
    # takes one of five values, and the cut at t then ranges over the empty
    # set and the subrings inside it: 5 + (1 + 2 + 3 + 3 + 5) = 19 tries
    ring = make_ring("Z6")
    lat = FiniteLattice.chain(["b", "m", "t"])
    subrings = Subring.whole(ring).subrings()
    assert subrings == [{"0"}, {"0", "3"}, {"0", "2", "4"}, set(ring.elements)]
    assert len(level_cut_search(ring, lat, lambda a: subrings, 19)) == 14
    with pytest.raises(CapExceeded) as err:
        level_cut_search(ring, lat, lambda a: subrings, 18)
    assert err.value.size == 19


# -- T1.7 by two enumerators ----------------------------------------------------

def box_t1_7(mu):
    """T1.7 by sweeping every candidate below mu: the detail for the first
    candidate on which the two characterizations disagree, or None."""
    lat = mu.lattice
    bot = lat.index(lat.bottom)
    digits = [lat.interval_i(bot, v) for v in mu.ivalues]
    for combo in itertools.product(*digits):
        cand = LSubset(mu.ring, lat, ivalues=combo)
        by_def = satisfies_ideal_inequalities(cand, mu)
        by_levels = level_cuts_all_ideals(cand, mu)
        if by_def != by_levels:
            return (f"characterizations disagree on {cand.values}: "
                    f"inequalities={by_def} levels={by_levels}")
    return None


def t1_7_record(mu):
    return check_theorem("T1.7", Instance("mu", mu, ()))


def assert_t1_7_matches_box(mu):
    assert ideal_inequality_search(mu, DEFAULT_CANDIDATE_CAP) == \
        box_ideals(mu), mu
    expected = box_t1_7(mu)
    record = t1_7_record(mu)
    assert (record.status, record.detail) == (
        ("PASS", "") if expected is None else ("FAIL", expected)), mu


@pytest.mark.parametrize("lat_name", ["chain2", "chain3", "square", "m3"])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_t1_7_matches_box_sweep(ring, lat_name):
    lat = make_lattice(lat_name)
    for mu in _enumerate_mus(ring, lat, ALL_MUS):
        assert_t1_7_matches_box(mu)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(closure_lattices(), st.sampled_from(RINGS), st.data())
def test_t1_7_matches_box_sweep_on_drawn_lattices(lat, ring, data):
    assume(len(lat) ** len(ring) <= MAX_BOX)
    mus = _enumerate_mus(ring, lat, ALL_MUS)
    assert_t1_7_matches_box(data.draw(st.sampled_from(mus), label="mu"))


def test_inequality_search_counts_every_value_tried():
    # Z2 over b < t: nu(0) takes b or t, then nu(1) takes b or t, and
    # 1 - 1 = 0 keeps those with nu(1) <= nu(0): 2 + 2 * 2 = 6 values tried
    # for 3 ideals
    ring, lat = make_ring("Z2"), make_lattice("chain2")
    mu = LSubring.constant_top(ring, lat)
    assert ideal_inequality_search(mu, 6) == [(0, 0), (1, 0), (1, 1)]
    with pytest.raises(CapExceeded) as err:
        ideal_inequality_search(mu, 5)
    assert err.value.size == 6


def test_searches_leave_no_cycles_behind():
    # each search recurses through a nested function that refers to itself;
    # its tables must go when it returns or raises, not at the next full
    # collection (on Z60 x chain4 --mu all they piled up to about 25 MB)
    ring, lat = make_ring("Z6"), make_lattice("chain3")
    mu = LSubring.constant_top(ring, lat)
    subrings = Subring.whole(ring).subrings()
    runs = [lambda: ideal_inequality_search(mu, DEFAULT_CANDIDATE_CAP),
            lambda: ideal_inequality_search(mu, 5),
            lambda: level_cut_search(ring, lat, lambda a: subrings, 19),
            lambda: level_cut_search(ring, lat, lambda a: subrings, 18)]
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            try:
                run()
            except CapExceeded:
                pass
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def z4_chain3_mu():
    return LSubring.constant_top(make_ring("Z4"), make_lattice("chain3"))


def test_t1_7_names_the_first_candidate_only_one_side_lists(
        z4_chain3_mu, monkeypatch):
    mu = z4_chain3_mu
    ideals = [v.ivalues for v in ideal_survey(mu).ideals]
    # drop the second and the fourth ideal from the inequality side
    monkeypatch.setattr("lrings.verify.ideal_inequality_search",
                        lambda mu, cap: ideals[:1] + ideals[2:3] + ideals[4:])
    record = t1_7_record(mu)
    missing = LSubset(mu.ring, mu.lattice, ivalues=ideals[1]).values
    assert (record.status, record.detail) == (
        "FAIL", f"characterizations disagree on {missing}: "
                "inequalities=False levels=True")


def test_t1_7_rejects_a_non_ideal_both_sides_list(z4_chain3_mu, monkeypatch):
    mu = z4_chain3_mu
    survey = ideal_survey(mu)
    bogus = (2, 2, 2, 0)  # t everywhere but at 3: not closed under 1 + 2
    assert bogus not in survey.index
    monkeypatch.setitem(survey.index, bogus, -1)
    monkeypatch.setattr("lrings.verify.ideal_inequality_search",
                        lambda mu, cap: list(survey.index))
    record = t1_7_record(mu)
    assert (record.status, record.detail) == (
        "FAIL", "an enumerator lists ('t', 't', 't', 'b'), which its "
                "characterization rejects")


# -- the table-row pointwise tests against the per-call form --------------------

def oracle_satisfies_ideal_inequalities(nu, mu):
    """The pointwise characterization, evaluated pair by pair through the
    lattice's and the ring's lookup methods."""
    r, lat = nu.ring, nu.lattice
    leq, meet, join = lat.leq_i, lat.meet_i, lat.join_i
    e, m = nu.ivalues, mu.ivalues
    n = len(r)
    if not all(leq(e[i], m[i]) for i in range(n)):
        return False
    for i in range(n):
        for j in range(n):
            if not leq(meet(e[i], e[j]), e[r.add_i(i, r._neg[j])]):
                return False
            lo = join(meet(m[i], e[j]), meet(e[i], m[j]))
            if not leq(lo, e[r.mul_i(i, j)]):
                return False
    return True


def oracle_ideal_inequality_search(mu):
    """The depth-first inequality search, testing each inequality filed
    under its last element through the lookup methods, without a cap."""
    ring, lat = mu.ring, mu.lattice
    leq, meet, join = lat.leq_i, lat.meet_i, lat.join_i
    m = mu.ivalues
    n = len(ring)
    bot = lat.index(lat.bottom)
    domains = [lat.interval_i(bot, v) for v in m]
    checks = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, is_product in ((ring.add_i(i, ring._neg[j]), False),
                                  (ring.mul_i(i, j), True)):
                checks[max(i, j, k)].append((i, j, k, is_product))
    e = [bot] * n
    found = []

    def extend(t):
        if t == n:
            found.append(tuple(e))
            return
        for v in domains[t]:
            e[t] = v
            if all(leq(join(meet(m[i], e[j]), meet(e[i], m[j])) if is_product
                       else meet(e[i], e[j]), e[k])
                   for i, j, k, is_product in checks[t]):
                extend(t + 1)

    extend(0)
    return found


def assert_table_rows_match_oracle(mu):
    ring, lat = mu.ring, mu.lattice
    assert ideal_inequality_search(mu, DEFAULT_CANDIDATE_CAP) == \
        oracle_ideal_inequality_search(mu), mu
    bot = lat.index(lat.bottom)
    digits = [lat.interval_i(bot, v) for v in mu.ivalues]
    for combo in itertools.product(*digits):
        nu = LSubset(ring, lat, ivalues=combo)
        assert satisfies_ideal_inequalities(nu, mu) == \
            oracle_satisfies_ideal_inequalities(nu, mu), (mu, combo)
    # every one-value change of every ideal, mostly not ideals, and some
    # not below mu
    for eta in ideal_survey(mu).ideals:
        for x, v in itertools.product(range(len(ring)), range(len(lat))):
            vals = eta.ivalues[:x] + (v,) + eta.ivalues[x + 1:]
            nu = LSubset(ring, lat, ivalues=vals)
            assert satisfies_ideal_inequalities(nu, mu) == \
                oracle_satisfies_ideal_inequalities(nu, mu), (mu, vals)


@pytest.mark.parametrize("lat_name", ["chain3", "square", "m3"])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_table_rows_match_oracle(ring, lat_name):
    for mu in _enumerate_mus(ring, make_lattice(lat_name), ALL_MUS):
        assert_table_rows_match_oracle(mu)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(closure_lattices(), st.sampled_from(RINGS), st.data())
def test_table_rows_match_oracle_on_drawn_lattices(lat, ring, data):
    assume(len(lat) ** len(ring) <= MAX_BOX)
    mus = _enumerate_mus(ring, lat, ALL_MUS)
    assert_table_rows_match_oracle(data.draw(st.sampled_from(mus), label="mu"))


def test_one_value_changes_reach_non_ideals():
    # the perturbations above are not vacuous: on Z6 over m3 most are
    # rejected by both forms
    ring, lat = make_ring("Z6"), make_lattice("m3")
    verdicts = Counter()
    for mu in _enumerate_mus(ring, lat, ALL_MUS):
        for eta in ideal_survey(mu).ideals:
            for x, v in itertools.product(range(len(ring)), range(len(lat))):
                vals = eta.ivalues[:x] + (v,) + eta.ivalues[x + 1:]
                verdicts[satisfies_ideal_inequalities(
                    LSubset(ring, lat, ivalues=vals), mu)] += 1
    assert verdicts[False] > verdicts[True] > 0


# -- kept facts and the survey for radicals and validation --------------------

def box_meet(mu, ideals, lower):
    """Pointwise meet of the ideals (value tuples) that contain lower; mu
    itself when there are none."""
    lat = mu.lattice
    above = [v for v in ideals
             if all(lat.leq_i(a, b) for a, b in zip(lower, v))]
    out = mu.ivalues
    for v in above:
        out = tuple(lat.meet_i(a, b) for a, b in zip(out, v))
    return out


PREDICATES = (is_prime, is_semiprime, is_primary)


# the per-call forms of the table-row kernels, as the oracles for them

def oracle_is_prime(eta):
    mu = eta.parent
    if eta.ivalues == mu.ivalues:
        return False
    r, meet = eta.ring, eta.lattice.meet_i
    e, m = eta.ivalues, mu.ivalues
    for i in range(len(r)):
        for j in range(len(r)):
            lhs = meet(e[r.mul_i(i, j)], meet(m[i], m[j]))
            if lhs != meet(e[i], m[j]) and lhs != meet(e[j], m[i]):
                return False
    return True


def oracle_is_semiprime(eta):
    mu = eta.parent
    if eta.ivalues == mu.ivalues:
        return False
    r, meet = eta.ring, eta.lattice.meet_i
    e, m = eta.ivalues, mu.ivalues
    return all(meet(e[p], m[i]) == e[i]
               for i in range(len(r)) for p in r.power_values_i(i, 1))


def oracle_primary_by_inequalities(eta):
    mu = eta.parent
    if eta.ivalues == mu.ivalues:
        return False
    r, lat = eta.ring, eta.lattice
    meet, leq = lat.meet_i, lat.leq_i
    e, m = eta.ivalues, mu.ivalues
    n = len(r)
    high_powers = [{meet(e[p], m[i]) for p in r.power_values_i(i, 2)}
                   for i in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = meet(e[r.mul_i(i, j)], meet(m[i], m[j]))
            if leq(rhs, meet(e[i], m[j])) or leq(rhs, meet(e[j], m[i])):
                continue
            if not any(leq(rhs, meet(a, b))
                       for a in high_powers[i] for b in high_powers[j]):
                return False
    return True


def oracle_radical(eta):
    """The join of eta over the power values, before the ideal check."""
    r, lat, m = eta.ring, eta.lattice, eta.parent.ivalues
    out = []
    for i in range(len(r)):
        acc = lat.index(lat.bottom)
        for p in r.power_values_i(i, 1):
            acc = lat.join_i(acc, lat.meet_i(eta.ivalues[p], m[i]))
        out.append(acc)
    return tuple(out)


def oracle_sum_subsets(f, g):
    r, lat = f.ring, f.lattice
    out = []
    for x in range(len(r)):
        acc = lat.index(lat.bottom)
        for y in range(len(r)):
            acc = lat.join_i(acc, lat.meet_i(f.ivalues[y],
                                             g.ivalues[r._sub_i(x, y)]))
        out.append(acc)
    return tuple(out)


def pointwise_radical(mu, eta):
    """(rad eta)(x) = v [eta(x^n) ^ mu(x)] over x, x^2, ..., x^|R|, which
    holds every power of x, as value indices."""
    ring, lat = mu.ring, mu.lattice
    out = []
    for x in range(len(ring)):
        acc, p = lat.index(lat.bottom), x
        for _ in range(len(ring)):
            acc = lat.join_i(acc, lat.meet_i(eta.ivalues[p], mu.ivalues[x]))
            p = ring.mul_i(p, x)
        out.append(acc)
    return tuple(out)


def pointwise_sum(f, g):
    """(f+g)(x) = v { f(y) ^ g(z) : y + z = x }, as value indices."""
    ring, lat = f.ring, f.lattice
    out = [lat.index(lat.bottom)] * len(ring)
    for y, z in itertools.product(range(len(ring)), repeat=2):
        x = ring.add_i(y, z)
        out[x] = lat.join_i(out[x], lat.meet_i(f.ivalues[y], g.ivalues[z]))
    return tuple(out)


def assert_survey_memo_matches_box(ring, lat):
    bot = lat.index(lat.bottom)
    for mu in _enumerate_mus(ring, lat, ALL_MUS):
        labels = [[lat.elements[i] for i in c] for c in itertools.product(
            *(lat.interval_i(bot, v) for v in mu.ivalues))]
        # validated in full: the survey does not exist yet
        etas = [LIdeal(mu, c) for c in labels if satisfies_ideal_inequalities(
            LSubset(ring, lat, c), mu)]
        assert mu._survey is None
        primes = [e.ivalues for e in etas if is_prime(e)]
        semiprimes = [e.ivalues for e in etas if is_semiprime(e)]
        for _ in range(2):  # the second round reads what each eta keeps
            for eta in etas:
                assert prime_radical(eta).ivalues == \
                    box_meet(mu, primes, eta.ivalues), (mu, eta)
                assert semiprime_radical(eta).ivalues == \
                    box_meet(mu, semiprimes, eta.ivalues), (mu, eta)

        ideals = {e.ivalues for e in etas}
        assert set(mu._survey.index) == ideals
        for c in labels:
            nu = LSubset(ring, lat, c)
            if nu.ivalues in ideals:
                assert LIdeal(mu, c).ivalues == nu.ivalues
            else:
                with pytest.raises(ValidationError):
                    LIdeal(mu, c)

        # radicals and sums asked twice (the second read from what is kept),
        # and the predicates' kept verdicts against a direct evaluation
        survey = mu._survey
        for eta in etas:
            expected = pointwise_radical(mu, eta)
            assert [radical(eta).ivalues for _ in range(2)] == [expected] * 2
            assert eta._rad.ivalues == expected
            flags = [f(eta) for f in PREDICATES]
            assert [eta._prime, eta._semiprime, eta._primary] == flags
            eta._prime = eta._semiprime = eta._primary = None
            assert [f(eta) for f in PREDICATES] == flags, (mu, eta)
        sums = {}  # by the operands' values, in either order
        for a, b in itertools.combinations_with_replacement(etas, 2):
            if a.zero_value() != b.zero_value():
                continue
            expected = pointwise_sum(a, b)
            sums[a.ivalues, b.ivalues] = sums[b.ivalues, a.ivalues] = expected
            assert sum_subsets(a, b).ivalues == oracle_sum_subsets(a, b) == \
                expected
            if expected in ideals:
                assert [sum_ideals(a, b).ivalues for _ in range(2)] == \
                    [expected] * 2
            else:
                for _ in range(2):
                    with pytest.raises(ValidationError, match="not an ideal"):
                        sum_ideals(a, b)

        # P and S agree on every carrier here, so their split by kind shows
        # only when no entry's kept semiprime verdict is true: the family
        # meet is mu, which the check against the radical rejects unless
        # rad eta is mu too, while P still reads the prime verdicts
        kept = [v._semiprime for v in survey.ideals]
        for v in survey.ideals:
            v._semiprime = False
        for eta in etas:
            eta._prad = eta._srad = None
            assert prime_radical(eta).ivalues == box_meet(mu, primes, eta.ivalues)
            if pointwise_radical(mu, eta) == mu.ivalues:
                assert semiprime_radical(eta).ivalues == mu.ivalues
            else:
                with pytest.raises(ConsistencyError,
                                   match="differs from the radical"):
                    semiprime_radical(eta)
                assert eta._srad is None
            eta._srad = None
        for v, verdict in zip(survey.ideals, kept):
            v._semiprime = verdict

        # positions: each surveyed ideal knows its place, and order
        # questions by position agree with the pointwise comparison, also
        # for ideals the constructor built before the survey existed
        built = {e.ivalues: e for e in etas}
        for k, eta in enumerate(survey.ideals):
            assert eta._pos == k and survey.ideals[eta._pos] is eta
            assert built[eta.ivalues]._pos is None
        for b in survey.ideals:
            expected = [LSubset.contains(a, b) for a in survey.ideals]
            assert [a.contains(b) for a in survey.ideals] == expected, b
            b_built = built[b.ivalues]
            assert [a.contains(b_built) for a in survey.ideals] == expected
        meet = lat._meet
        for a, b in itertools.combinations_with_replacement(survey.ideals, 2):
            ab = survey.ideals[survey.index[tuple(
                meet[x][y] for x, y in zip(a.ivalues, b.ivalues))]]
            # the second read, in the other order, comes from a's meet row
            assert intersect_many([a, b]) is ab is intersect_many([b, a])
            assert a._meets[b._pos] is ab
            # sums are kept in rows too, and a failure is never kept
            total = sums.get((a.ivalues, b.ivalues))  # None: zeros differ
            if total in ideals:
                ab = survey.ideals[survey.index[total]]
                assert sum_ideals(b, a) is ab is sum_ideals(a, b)
                assert a._sums[b._pos] is ab
            elif total is not None:
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(ValidationError, match="not an ideal"):
                        sum_ideals(x, y)
                assert b._pos not in a._sums

        # the table-row kernels against their per-call forms
        for eta in survey.ideals:
            assert _is_prime(eta) == oracle_is_prime(eta), eta
            assert _is_semiprime(eta) == oracle_is_semiprime(eta), eta
            assert primary_by_inequalities(eta) == \
                oracle_primary_by_inequalities(eta), eta
            assert _radical(eta).ivalues == oracle_radical(eta), eta

        for k, eta in enumerate(survey.ideals):
            def drop(t):
                return t[:k] + t[k + 1:]
            mu._survey = dataclasses.replace(survey, ideals=drop(survey.ideals))
            with pytest.raises(ConsistencyError, match="missing from the survey"):
                LIdeal(mu, eta.values)
        mu._survey = survey


@pytest.mark.parametrize("lat_name", ["chain2", "chain3", "square", "m3"])
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_survey_memo_matches_box(ring, lat_name):
    assert_survey_memo_matches_box(ring, make_lattice(lat_name))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(closure_lattices(), st.sampled_from(RINGS))
def test_survey_memo_matches_box_on_drawn_lattices(lat, ring):
    assume(len(lat) ** len(ring) <= MAX_BOX)
    assert_survey_memo_matches_box(ring, lat)


# -- containment rows and families against the pointwise forms ---------------

def oracle_above(eta):
    """The row of eta by pointwise comparison with every surveyed ideal."""
    return sum(1 << l for l, v in enumerate(eta.parent._survey.ideals)
               if LSubset.contains(v, eta))


def oracle_family(eta, kind):
    """The family walk: every surveyed ideal above eta, in survey order,
    filtered by a direct evaluation of the predicate."""
    member = _is_prime if kind == "prime" else _is_semiprime
    row = oracle_above(eta)
    return tuple(v for l, v in enumerate(eta.parent._survey.ideals)
                 if row >> l & 1 and member(v))


MASK_CARRIERS = [("Z6", "chain4"), ("Z2xZ2", "m3"), ("Z4", "square")]


@pytest.mark.parametrize("spec, lat_name", MASK_CARRIERS)
def test_up_mask_rows_and_families_match_pointwise_forms(spec, lat_name):
    ring, lat = make_ring(spec), make_lattice(lat_name)
    meet = lat._meet
    seen = Counter()
    for mu in _enumerate_mus(ring, lat, ALL_MUS):
        ideals = ideal_survey(mu).ideals
        for eta in ideals:
            assert ideals_above(eta) == oracle_above(eta), eta
            for kind in ("prime", "semiprime"):
                family = enumerate_family(eta, kind)
                assert family == oracle_family(eta, kind)
                seen[kind] += bool(family)
        # an ideal built by the constructor keeps its own row
        for eta in ideals:
            twin = LIdeal(mu, eta.values)
            assert twin._pos is None
            assert ideals_above(twin) == oracle_above(eta)
            assert [v.contains(twin) for v in ideals] == \
                [LSubset.contains(v, eta) for v in ideals]
        # the meet of every pair of entries, nested or crossing
        for a, b in itertools.product(ideals, repeat=2):
            ab = tuple(meet[x][y] for x, y in zip(a.ivalues, b.ivalues))
            assert intersect_many([a, b]).ivalues == ab
            seen["nested" if ab in (a.ivalues, b.ivalues) else "crossing"] += 1
    assert min(seen[k] for k in ("prime", "semiprime", "nested",
                                 "crossing")) > 0, seen


FACT_SLOTS = ("_cuts", "_rad", "_prad", "_srad", "_prime", "_semiprime",
              "_primary", "_dec", "_above", "_sums", "_meets")
SURVEY_FACTS = ("up_masks", "non_semiprime_meets")


def facts(mu):
    """Every fact the ideals of mu's survey answer, as values."""
    survey = ideal_survey(mu)
    ideals = survey.ideals
    out = [survey.non_semiprime_meets]
    for a in ideals:
        out.append((cuts(a), cuts(a, strong=True), ideals_above(a),
                     radical(a).ivalues, prime_radical(a).ivalues,
                     semiprime_radical(a).ivalues,
                     [f(a) for f in PREDICATES],
                     [intersect_many([a, b]).ivalues for b in ideals]))
        for b in ideals:
            if a.zero_value() == b.zero_value():
                try:
                    out.append(sum_ideals(a, b).ivalues)
                except ValidationError as e:
                    out.append(str(e))
    return out


@pytest.mark.parametrize("spec, lat_name", [("Z6", "chain3"), ("Z4", "m3"),
                                            ("Z2xZ2", "square")])
def test_cleared_facts_come_back_the_same(spec, lat_name):
    # what an entry keeps is only ever a result: with every kept fact of
    # every entry and of the survey cleared, each is asked again and comes
    # back equal
    ring, lat = make_ring(spec), make_lattice(lat_name)
    for mu in _enumerate_mus(ring, lat, ALL_MUS):
        first = facts(mu)
        kept = [getattr(v, slot) for v in mu._survey.ideals
                for slot in FACT_SLOTS]
        assert all(x is not None for x in kept[1::len(FACT_SLOTS)])  # _rad
        for v in mu._survey.ideals:
            for slot in FACT_SLOTS:
                setattr(v, slot, None)
        for name in SURVEY_FACTS:
            vars(mu._survey).pop(name, None)
        assert facts(mu) == first


@pytest.mark.parametrize("lat_name", ["chain3", "m3"])
@pytest.mark.parametrize("spec", ["Z6", "Z2xZ2"])
def test_memo_readers_never_build_a_survey(spec, lat_name):
    ring, lat = make_ring(spec), make_lattice(lat_name)
    failed_sums = 0
    for mu in _enumerate_mus(ring, lat, ALL_MUS):
        etas = [LIdeal(mu, [lat.elements[i] for i in v])
                for v in box_ideals(mu)]
        for a in etas:
            radical(a)
            for f in PREDICATES:
                f(a)
            for b in etas:
                if a.zero_value() == b.zero_value():
                    try:
                        sum_ideals(a, b)
                    except ValidationError:
                        failed_sums += 1
        assert mu._survey is None
    # on m3 some sums are not ideals, so the failure path is covered too
    assert (failed_sums > 0) == (lat_name == "m3")


# -- crisp ideals and subrings -------------------------------------------------

def subset_sweep(sub, pred):
    """Every subset of the subring's members that holds zero and satisfies
    pred, sorted by size then by the sorted member index lists."""
    zero = sub.ring.zero_i
    rest = sorted(sub._members_i - {zero})
    cands = (frozenset((zero,) + combo) for k in range(len(rest) + 1)
             for combo in itertools.combinations(rest, k))
    return [sub._to_labels(I) for I in
            sorted(filter(pred, cands), key=lambda I: (len(I), sorted(I)))]


CRISP_RINGS = [f"Z{n}" for n in range(1, 13)] + [
    "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", ZERO_MUL_KLEIN]


@pytest.mark.parametrize("spec", CRISP_RINGS,
                         ids=lambda s: s if isinstance(s, str) else "klein0")
def test_closures_match_subset_sweep(spec):
    ring = make_ring(spec)
    whole = Subring.whole(ring)
    subrings = whole.subrings()

    def is_subring(S):
        return ring_oracles.is_subring_i(ring, S)

    assert subrings == subset_sweep(whole, is_subring)
    for members in subrings:
        sub = Subring(ring, members)
        assert sub.ideals() == subset_sweep(
            sub, lambda I: ring_oracles.is_ideal_i(sub, I))
        assert sub.subrings() == subset_sweep(sub, is_subring)


# -- the row kernels of the crisp layer against the pair-by-pair forms -------

PERTURBED_BASES = [f"Z{n}" for n in range(1, 9)] + ["Z2xZ2", "Z2xZ3"]


def outcome(build):
    """What build returns, or the text of the RingError it raises."""
    try:
        return build()
    except RingError as e:
        return "RingError: " + str(e)


def perturbed_tables(rng, count):
    """count tables of the bases with one to three entries set to a random
    index, each mirrored across the diagonal half the time so that the
    laws after commutativity are reached too."""
    for _ in range(count):
        base = make_ring(rng.choice(PERTURBED_BASES))
        n = len(base)
        tables = [[list(row) for row in base._add],
                  [list(row) for row in base._mul]]
        for _ in range(rng.randint(1, 3)):
            table = rng.choice(tables)
            i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            table[i][j] = v
            if rng.random() < 0.5:
                table[j][i] = v
        yield base.elements, tables


def assert_crisp_layer_matches_oracles(ring, rng):
    n = len(ring)
    whole = Subring.whole(ring)
    assert whole.subrings() == ring_oracles.closures(whole, False)
    subs = [Subring(ring, members) for members in whole.subrings()]
    for sub in subs:
        assert sub.ideals() == ring_oracles.closures(sub, True)
        assert sub.subrings() == ring_oracles.closures(sub, False)
        for I in map(sub._to_idx, sub.ideals()):
            assert sub._is_primary_i(I) == ring_oracles.is_primary_i(sub, I)
    for _ in range(20):
        idx = frozenset(rng.sample(range(n), rng.randint(0, n)))
        labels = [ring.elements[i] for i in idx]
        assert outcome(lambda: Subring(ring, labels)._members_i) == outcome(
            lambda: ring_oracles.check_closed(ring, idx) or idx)
        assert whole._is_subring_i(idx) == ring_oracles.is_subring_i(ring, idx)
        for sub in subs:
            assert sub._is_ideal_i(idx) == ring_oracles.is_ideal_i(sub, idx)


def test_ring_row_kernels_match_pair_by_pair_forms():
    # the same verdict and message for every table, and on the tables
    # accepted, the same closures, closure errors and ideal and subring
    # verdicts
    rng = random.Random(27)
    accepted = 0
    for elements, (add, mul) in perturbed_tables(rng, 1500):
        expected = outcome(
            lambda: ring_oracles.validate_tables(elements, add, mul))
        labels = ([[elements[x] for x in row] for row in t]
                  for t in (add, mul))
        got = outcome(lambda: FiniteRing(elements, *labels))
        if isinstance(expected, str):
            assert got == expected, (elements, add, mul)
        else:
            accepted += 1
            assert not isinstance(got, str), got
            assert (got._zero, got._neg) == expected
            assert_crisp_layer_matches_oracles(got, rng)
    assert 0 < accepted < 1500
    for ring in RINGS:
        assert_crisp_layer_matches_oracles(ring, rng)
        for lat in (make_lattice("chain3"), make_lattice("m3")):
            for mu in _enumerate_mus(ring, lat, ALL_MUS)[:40]:
                values = list(mu.ivalues)
                values[rng.randrange(len(values))] = rng.randrange(len(lat))
                f = LSubset(ring, lat, ivalues=values)
                assert satisfies_subring_inequalities(f) == \
                    ring_oracles.satisfies_subring_inequalities(f)


@pytest.mark.parametrize("spec", CRISP_RINGS,
                         ids=lambda s: s if isinstance(s, str) else "klein0")
def test_every_proper_ideal_of_a_subring_has_a_primary_decomposition(spec):
    ring = make_ring(spec)
    for members in Subring.whole(ring).subrings():
        sub = Subring(ring, members)
        for I in sub.ideals():
            if I == sub.member_set:
                continue
            factors = sub.primary_decomposition(I)
            assert factors, (sub, sorted(I))
            assert all(sub.is_primary_ideal(J) for J in factors)
            assert frozenset.intersection(sub.member_set, *factors) == I


@pytest.mark.parametrize("n", [24, 30, 36])
def test_zn_ideals_and_subrings_are_the_multiples_of_divisors(n):
    # both are dZ/n, one per divisor d of n; a 2^(n-1) sweep is out of reach
    whole = Subring.whole(make_ring(f"Z{n}"))
    expected = {frozenset(str(k) for k in range(0, n, d))
                for d in range(1, n + 1) if n % d == 0}
    for found in (whole.ideals(), whole.subrings()):
        assert len(found) == len(expected) and set(found) == expected


def test_all_l_subrings_of_z24_over_chain2():
    # the cut at the top is empty or one of Z24's eight subrings
    mus = _enumerate_mus(make_ring("Z24"), make_lattice("chain2"), ALL_MUS)
    assert len(mus) == 9


# -- counts in closed form on Zn -------------------------------------------------

def zn_cut_maps(n, lat):
    """Every L-subset of Zn whose non-empty level cuts are subgroups, as
    index tuples, found without ring tables. The subgroups are the dZn for
    d | n, and dZn & eZn = lcm(d, e)Zn; an L-subset is its family of cuts C
    with C(bottom) = Zn and C(a v b) = C(a) & C(b), so the maps from L to
    the divisors (None for the empty set) with those two properties are
    walked along the linear extension."""
    def meet(d, e):
        return None if d is None or e is None else math.lcm(d, e)

    divisors = [d for d in range(1, n + 1) if n % d == 0]
    order = lat.linext
    # the pairs of elements up to a (a itself included) whose join is a
    joins = {a: [(b, c) for b in order[:k + 1] for c in order[:k + 1]
                 if lat.join_i(b, c) == a] for k, a in enumerate(order)}
    found = []

    def extend(k, cut):
        if k == len(order):
            values = [0] * n
            for a in order:  # the last cut holding x gives its value
                if cut[a] is not None:
                    for x in range(0, n, cut[a]):
                        values[x] = a
            found.append(tuple(values))
            return
        a = order[k]
        for d in ([1] if k == 0 else divisors + [None]):
            cut[a] = d
            if all(meet(cut[b], cut[c]) == d for b, c in joins[a]):
                extend(k + 1, cut)
        del cut[a]

    extend(0, {})
    return found


def zn_ideals(maps, lat, mus):
    """The ideals (values) of each mu in mus (values), and the number of
    pairs of ideals of one mu with equal zero values: nu is an ideal of mu
    exactly when nu <= mu, since every subgroup of Zn inside a subring of
    Zn is an ideal of it."""
    leq = lat.leq_i
    ideals = {mu: {v for v in maps if all(map(leq, v, mu))} for mu in mus}
    pairs = sum(m * (m + 1) // 2 for found in ideals.values()
                for m in Counter(v[0] for v in found).values())
    return ideals, pairs


@pytest.mark.parametrize("n, lat_name, mu_mode, n_mus, n_ideals, n_pairs", [
    (12, "chain4", "all", 65, 1_308, 9_042),
    (30, "chain4", "all", 100, 2_540, 23_801),
    (36, "m3", "top", 1, 172, 10_576),
])
def test_counts_in_closed_form(n, lat_name, mu_mode, n_mus, n_ideals,
                               n_pairs):
    # past the box sweep's reach, the closed form checks that the searches
    # find every L-subring and every ideal, and that instance generation
    # lists each once
    ring, lat = make_ring(f"Z{n}"), make_lattice(lat_name)
    top = (lat.index(lat.top),) * n
    maps = zn_cut_maps(n, lat)
    assert top in maps and len(maps) == len(set(maps))
    expected_mus = maps if mu_mode == "all" else [top]
    ideals, pairs = zn_ideals(maps, lat, expected_mus)
    assert (len(expected_mus), sum(map(len, ideals.values())), pairs) == \
        (n_mus, n_ideals, n_pairs)

    params = SuiteParams(rings=(f"Z{n}",), lattices=(lat_name,),
                         mu_mode=mu_mode)
    assert sorted(mu.ivalues for mu in _enumerate_mus(ring, lat, params)) \
        == sorted(expected_mus)
    singles, pair_instances = generate_instances(params)
    assert (len(singles), len(pair_instances)) == (n_ideals, n_pairs)
    mus = {id(inst.mu): inst.mu for inst in singles}.values()
    assert sorted(mu.ivalues for mu in mus) == sorted(expected_mus)
    for mu in mus:
        assert set(ideal_survey(mu).index) == ideals[mu.ivalues]
        assert set(ideal_inequality_search(mu, DEFAULT_CANDIDATE_CAP)) == \
            ideals[mu.ivalues]
