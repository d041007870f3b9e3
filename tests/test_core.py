import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lrings import (FiniteLattice, FiniteRing, LIdeal,
                    LSubring, LSubset, RingError, Subring, ValidationError,
                    intersect_many, is_ideal_of, is_l_subring, level_cut,
                    level_subring, strong_cut, strong_subring, sum_ideals,
                    sum_subsets)
from lrings.core import level_cuts_all_ideals, satisfies_ideal_inequalities


@pytest.fixture(scope="module")
def z4_ring():
    return FiniteRing.zn(4)


def subset(ring, lat, vals):
    return LSubset(ring, lat, vals)


# -- L-subring validation -----------------------------------------------------

def test_constant_is_subring(z4_ring, chain3):
    assert is_l_subring(subset(z4_ring, chain3, ["t"] * 4))
    assert is_l_subring(subset(z4_ring, chain3, ["b"] * 4))


def test_peak_off_zero_is_not_subring(z4_ring, chain3):
    # value at 1-1=0 undercuts the value at 1
    assert not is_l_subring(subset(z4_ring, chain3, ["b", "t", "b", "b"]))


def test_two_level_subring(z4_ring, chain3):
    # level sets {0,2} and Z4 are subrings
    assert is_l_subring(subset(z4_ring, chain3, ["t", "m", "t", "m"]))


def test_subring_constructor_names_pair(z4_ring, chain3):
    with pytest.raises(ValidationError, match="pair"):
        LSubring(z4_ring, chain3, ["b", "t", "b", "b"])


def test_totality_enforced(z4_ring, chain3):
    with pytest.raises(ValidationError, match="no value"):
        LSubset(z4_ring, chain3, {"0": "t", "1": "t", "2": "t"})
    with pytest.raises(ValidationError, match="unknown ring element"):
        LSubset(z4_ring, chain3, {"0": "t", "1": "t", "2": "t", "3": "t",
                                  "9": "t"})


# -- ideal validation ----------------------------------------------------------

def test_fixture_ideals_validate(z4_setup):
    # constructing the fixtures already ran both characterizations
    assert is_ideal_of(z4_setup.ideal("eta_even"), z4_setup.mu)
    assert is_ideal_of(z4_setup.ideal("eta_zero"), z4_setup.mu)


def test_value_dip_at_zero_rejected(z4_setup):
    bad = subset(z4_setup.ring, z4_setup.lattice, ["m", "t", "m", "m"])
    assert not is_ideal_of(bad, z4_setup.mu)


def test_containment_violation_named(z4_ring, chain3):
    mu = LSubring(z4_ring, chain3, ["t", "m", "t", "m"])
    with pytest.raises(ValidationError, match="'1'"):
        LIdeal(mu, ["t", "t", "t", "t"])


def test_characterizations_agree_exhaustively(z4_setup):
    # every candidate below mu, ideal or not
    lat, mu = z4_setup.lattice, z4_setup.mu
    for combo in itertools.product(lat.elements, repeat=4):
        cand = subset(z4_setup.ring, lat, list(combo))
        assert satisfies_ideal_inequalities(cand, mu) == \
            level_cuts_all_ideals(cand, mu)


def test_mu_is_ideal_of_itself(z4_setup):
    eta = LIdeal(z4_setup.mu, z4_setup.mu.values)
    assert eta.ivalues == z4_setup.mu.ivalues


# -- cuts ----------------------------------------------------------------------

def test_cut_examples(z4_setup):
    eta2 = z4_setup.ideal("eta_even")
    assert level_cut(eta2, "t") == {"0", "2"}
    assert strong_cut(eta2, "m") == {"0", "2"}
    assert strong_cut(eta2, "t") == frozenset()


def test_strong_cut_inside_level_cut(z4_setup):
    for eta in z4_setup.ideals.values():
        for a in z4_setup.lattice.elements:
            assert strong_cut(eta, a) <= level_cut(eta, a)


def test_cuts_antitone(z4_setup):
    lat = z4_setup.lattice
    for eta in z4_setup.ideals.values():
        for a, b in itertools.product(lat.elements, repeat=2):
            if lat.leq(a, b):
                assert level_cut(eta, b) <= level_cut(eta, a)
                assert strong_cut(eta, b) <= strong_cut(eta, a)


def test_strong_cuts_of_subring_are_subrings(z4_ring, chain3):
    # chain case: strong cuts must be closed, and higher level cuts nest
    mu = LSubring(z4_ring, chain3, ["t", "m", "t", "m"])
    for r in chain3.elements:
        if strong_cut(mu, r):
            sub = strong_subring(mu, r)
            for t in chain3.elements:
                if chain3.lt(r, t):
                    assert level_cut(mu, t) <= sub.member_set


def test_cut_subrings_are_built_once_per_mu(z4_ring, chain3):
    mu = LSubring(z4_ring, chain3, ["t", "m", "t", "m"])
    for r in chain3.elements:
        assert level_subring(mu, r) is level_subring(mu, r)
        if strong_cut(mu, r):
            assert strong_subring(mu, r) is strong_subring(mu, r)


def test_a_cut_that_is_not_a_subring_fails_on_every_request(m3):
    # L1.4 needs a chain: on m3 the strong cut at 0 here is {0, 2, 3, 4}
    mu = LSubring(FiniteRing.zn(6), m3, ["1", "0", "a", "b", "a", "0"])
    for _ in range(2):
        with pytest.raises(RingError, match="^not closed under subtraction: "
                                            "'2' - '3'$"):
            strong_subring(mu, "0")
        with pytest.raises(ValidationError, match="strong cut at '1' is empty"):
            strong_subring(mu, "1")


def test_returned_ideal_lists_are_the_callers_own(z4_ring):
    sub = Subring.whole(z4_ring)
    for found in (sub.ideals, sub.subrings):
        first = found()
        expected = list(first)
        first.clear()
        assert found() == expected


def test_power_values_dominate_in_subrings(z4_ring):
    # nu(x^n) >= nu(x) for every validated L-subring
    lat = FiniteLattice.chain(["b", "t"])
    for combo in itertools.product(lat.elements, repeat=4):
        cand = subset(z4_ring, lat, list(combo))
        if not is_l_subring(cand):
            continue
        for x in range(4):
            for p in z4_ring.power_values_i(x, 1):
                assert lat.leq_i(cand.ivalues[x], cand.ivalues[p])


# -- sums ------------------------------------------------------------------------

def test_sum_is_idempotent_on_ideals(z4_setup, z6_setup):
    for setup in (z4_setup, z6_setup):
        for eta in setup.ideals.values():
            assert sum_subsets(eta, eta).ivalues == eta.ivalues


def test_mu_plus_mu_is_mu(z4_setup):
    mu = z4_setup.mu
    assert sum_subsets(mu, mu).ivalues == mu.ivalues


def test_sum_of_coprime_indicators_is_full(z6_setup):
    # every element of Z6 splits as even + multiple-of-3
    s = sum_ideals(z6_setup.ideal("eta_even"), z6_setup.ideal("eta_triple"))
    assert s.values == ("t",) * 6


def test_sum_requires_matching_zero_values(z4_setup):
    eta = z4_setup.ideal("eta_zero")
    low = LIdeal(z4_setup.mu, ["m", "m", "m", "m"])
    with pytest.raises(ValidationError, match="zero"):
        sum_ideals(eta, low)


def test_sum_commutative_associative(z6_setup):
    ideals = list(z6_setup.ideals.values())
    for a, b in itertools.product(ideals, repeat=2):
        assert sum_ideals(a, b).ivalues == sum_ideals(b, a).ivalues
    for a, b, c in itertools.product(ideals, repeat=3):
        left = sum_ideals(sum_ideals(a, b), c)
        right = sum_ideals(a, sum_ideals(b, c))
        assert left.ivalues == right.ivalues


def test_sum_contains_summands(z6_setup):
    a, b = z6_setup.ideal("eta_zero"), z6_setup.ideal("eta_even")
    s = sum_ideals(a, b)
    assert s.contains(a) and s.contains(b)


def test_sum_can_fail_on_non_distributive_lattice(m3):
    # over M3 the convolution of two ideals with equal zero values need not
    # be an ideal: joins of incomparable values break the level structure.
    # eta+theta lands on [1,b,1,0], whose b-cut is not a subgroup.
    ring = FiniteRing.product(FiniteRing.zn(2), FiniteRing.zn(2))
    mu = LSubring.constant_top(ring, m3)
    eta = LIdeal(mu, ["1", "0", "a", "0"])
    theta = LIdeal(mu, ["1", "b", "c", "0"])
    raw = sum_subsets(eta, theta)
    assert raw.values == ("1", "b", "1", "0")
    assert not satisfies_ideal_inequalities(raw, mu)
    assert not level_cuts_all_ideals(raw, mu)
    with pytest.raises(ValidationError, match="non-distributive"):
        sum_ideals(eta, theta)


# -- intersections -----------------------------------------------------------------

def test_intersection_of_nested(z4_setup):
    eta0, eta2 = z4_setup.ideal("eta_zero"), z4_setup.ideal("eta_even")
    assert intersect_many([eta2, eta0]).ivalues == eta0.ivalues


def test_intersection_singleton(z4_setup):
    eta = z4_setup.ideal("eta_even")
    assert intersect_many([eta]).ivalues == eta.ivalues


def test_intersection_of_indicators(z6_setup):
    out = intersect_many([z6_setup.ideal("eta_even"),
                          z6_setup.ideal("eta_triple")])
    assert out.ivalues == z6_setup.ideal("eta_zero").ivalues
    assert isinstance(out, LIdeal)


def test_intersection_errors(z4_setup, z6_setup):
    with pytest.raises(ValidationError, match="empty"):
        intersect_many([])
    with pytest.raises(ValidationError, match="carriers"):
        intersect_many([z4_setup.ideal("eta_zero"),
                        z6_setup.ideal("eta_zero")])


def test_meets_and_sums_agree_on_one_l_subring(z4_setup):
    mu = z4_setup.mu
    a = z4_setup.ideal("eta_zero")
    # a second LSubring object with mu's values is the same L-subring
    twin = LSubring(mu.ring, mu.lattice, mu.values)
    b = LIdeal(twin, z4_setup.ideal("eta_even").values)
    both = intersect_many([a, b])
    assert isinstance(both, LIdeal) and both.ivalues == a.ivalues
    assert sum_ideals(a, b).ivalues == b.ivalues
    # an L-subring with other values is another one
    other = LSubring(mu.ring, mu.lattice, ["t", "m", "t", "m"])
    c = LIdeal(other, ["t", "m", "m", "m"])
    for combine in (intersect_many, lambda fs: sum_ideals(*fs)):
        with pytest.raises(ValidationError, match="different L-subrings"):
            combine([a, c])


def test_level_cuts_commute_with_meets(z4_setup):
    a, b = z4_setup.ideal("eta_zero"), z4_setup.ideal("eta_even")
    both = intersect_many([a, b])
    for t in z4_setup.lattice.elements:
        assert level_cut(both, t) == (level_cut(a, t) & level_cut(b, t))


# -- level cuts determine the subset ----------------------------------------------

def test_matching_cuts_force_equality_exhaustive():
    # f <= g with f_t = g_t at every value of g forces f = g
    ring = FiniteRing.zn(4)
    lat = FiniteLattice.chain(["b", "t"])
    all_subsets = [LSubset(ring, lat, list(c))
                   for c in itertools.product(lat.elements, repeat=4)]
    checked = 0
    for f, g in itertools.product(all_subsets, repeat=2):
        if not g.contains(f):
            continue
        if all(level_cut(f, t) == level_cut(g, t) for t in g.image()):
            checked += 1
            assert f.ivalues == g.ivalues
    assert checked >= len(all_subsets)  # at least the diagonal was exercised


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["b", "m", "t"]), min_size=4, max_size=4),
       st.lists(st.sampled_from(["b", "m", "t"]), min_size=4, max_size=4))
def test_matching_cuts_force_equality_random(fv, gv):
    ring = FiniteRing.zn(4)
    lat = FiniteLattice.chain(["b", "m", "t"])
    f, g = LSubset(ring, lat, fv), LSubset(ring, lat, gv)
    if not g.contains(f):
        return
    if all(level_cut(f, t) == level_cut(g, t) for t in g.image()):
        assert f.ivalues == g.ivalues


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["0", "a", "b", "c", "1"]),
                min_size=4, max_size=4))
def test_cut_monotone_on_m3(vals):
    ring = FiniteRing.zn(4)
    lat = FiniteLattice(["0", "a", "b", "c", "1"],
                        [("0", x) for x in "abc1"] + [(x, "1") for x in "abc"])
    f = LSubset(ring, lat, vals)
    for a, b in itertools.product(lat.elements, repeat=2):
        if lat.leq(a, b):
            assert level_cut(f, b) <= level_cut(f, a)
            assert strong_cut(f, b) <= strong_cut(f, a)
