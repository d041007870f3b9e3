import functools
import itertools

import pytest

from lrings import (ConsistencyError, Decomposition, DecompositionError,
                    FiniteLattice, FiniteRing, LIdeal, LSubring,
                    Subring, ValidationError, decompose, ideal_survey,
                    is_primary, level_cut, lift_crisp_primary,
                    lift_reducedness, project_level, reduce_factors,
                    strong_cut)


def indicator_values(ring, members, high="t", low="b"):
    return {x: (high if x in members else low) for x in ring.elements}


# -- lifting -------------------------------------------------------------------

def test_lift_even_indicator(z6_setup):
    out = lift_crisp_primary({"0", "2", "4"}, "b", "t", z6_setup.mu)
    assert out.values == ("t", "b", "t", "b", "t", "b")


def test_lift_triple_indicator(z6_setup):
    out = lift_crisp_primary({"0", "3"}, "b", "t", z6_setup.mu)
    assert out.values == ("t", "b", "b", "t", "b", "b")


def test_lift_meets_with_nonconstant_mu():
    ring = FiniteRing.zn(4)
    lat = FiniteLattice.chain(["b", "m", "t"])
    mu = LSubring(ring, lat, ["t", "m", "t", "m"])
    # {0} is primary in the strong cut at m, which is {0,2}
    out = lift_crisp_primary({"0"}, "m", "t", mu)
    assert out.values == ("t", "m", "m", "m")


def test_lift_rejects_non_primary(z6_setup):
    with pytest.raises(ValidationError, match="primary"):
        lift_crisp_primary({"0"}, "b", "t", z6_setup.mu)  # (0) in Z6


def test_lift_rejects_bad_levels(z6_setup):
    with pytest.raises(ValidationError, match="strictly below"):
        lift_crisp_primary({"0", "3"}, "t", "b", z6_setup.mu)


def test_lift_requires_chain(square):
    ring = FiniteRing.zn(4)
    mu = LSubring.constant_top(ring, square)
    with pytest.raises(DecompositionError, match="chain"):
        lift_crisp_primary({"0", "2"}, "0", "1", mu)


# -- decompose -------------------------------------------------------------------

def test_decompose_zero_indicator(z6_setup):
    dec = decompose(z6_setup.ideal("eta_zero"))
    assert len(dec.factors) == 2
    values = {f.values for f in dec.factors}
    assert values == {("t", "b", "b", "t", "b", "b"),
                      ("t", "b", "t", "b", "t", "b")}
    assert dec.reduced


def test_decompose_already_primary(z4_setup):
    eta0 = z4_setup.ideal("eta_zero")
    dec = decompose(eta0)
    assert [f.ivalues for f in dec.factors] == [eta0.ivalues]
    assert dec.reduced


def test_decompose_three_levels(z12_setup):
    # frozen from the by-hand run of the level construction: level t
    # decomposes {0} as (4) ^ (3) inside Z12, level m decomposes (6) as
    # (3) ^ (2); four lifts total
    eta = z12_setup.ideal("eta_three_level")
    dec = decompose(eta)
    assert [f.values for f in dec.factors] == [
        ("t", "m", "m", "m", "t", "m", "m", "m", "t", "m", "m", "m"),
        ("t", "m", "m", "t", "m", "m", "t", "m", "m", "t", "m", "m"),
        ("t", "b", "b", "t", "b", "b", "t", "b", "b", "t", "b", "b"),
        ("t", "b", "t", "b", "t", "b", "t", "b", "t", "b", "t", "b"),
    ]
    from lrings import intersect_many
    assert intersect_many(dec.factors).ivalues == eta.ivalues
    # the second lift is absorbed by the third: not reduced
    assert not dec.reduced
    assert dec.redundant == (1,)
    assert dec.collisions == ()


def test_reduce_factors_three_levels(z12_setup):
    dec = decompose(z12_setup.ideal("eta_three_level"))
    slim = reduce_factors(dec)
    assert len(slim.factors) == 3
    assert slim.reduced
    from lrings import intersect_many
    assert intersect_many(slim.factors).ivalues == dec.target.ivalues


def test_decompose_whole_subring_fails(z4_setup):
    with pytest.raises(DecompositionError, match="whole"):
        decompose(LIdeal(z4_setup.mu, z4_setup.mu.values))


def test_decompose_constant_proper_ideal(z6_setup):
    eta = LIdeal(z6_setup.mu, ["b"] * 6)
    dec = decompose(eta)
    assert [f.ivalues for f in dec.factors] == [eta.ivalues]


def test_decompose_needs_chain(square):
    ring = FiniteRing.zn(4)
    mu = LSubring.constant_top(ring, square)
    eta = LIdeal(mu, indicator_values(ring, {"0"}, high="1", low="0"))
    with pytest.raises(DecompositionError, match="chain"):
        decompose(eta)


def test_decompose_everywhere(z6_setup, z12_setup):
    # round trip over every proper ideal of the two stables
    from lrings import intersect_many
    for setup in (z6_setup, z12_setup):
        mu = setup.mu
        for eta in ideal_survey(mu).ideals:
            if eta.ivalues == mu.ivalues:
                continue
            dec = decompose(eta)
            assert intersect_many(dec.factors).ivalues == eta.ivalues
            for f in dec.factors:
                assert is_primary(f)


# -- Decomposition validation ------------------------------------------------------

def test_decomposition_rejects_wrong_intersection(z4_setup):
    eta0, eta2 = z4_setup.ideal("eta_zero"), z4_setup.ideal("eta_even")
    with pytest.raises(ValidationError, match="intersect"):
        Decomposition(eta0, [eta2])


def test_decomposition_rejects_non_primary_factor(z6_setup):
    # the zero indicator is not primary in Z6 (its top cut is (0))
    eta = z6_setup.ideal("eta_zero")
    with pytest.raises(ValidationError, match="primary"):
        Decomposition(eta, [eta])


def test_reducedness_evidence_duplicate(z4_setup):
    eta2 = z4_setup.ideal("eta_even")
    dec = Decomposition(eta2, [eta2, eta2])
    assert not dec.reduced
    assert dec.redundant == (0, 1)
    assert dec.collisions == ((0, 1),)


def test_reducedness_evidence_absorbed_factor(z4_setup):
    eta0, eta2 = z4_setup.ideal("eta_zero"), z4_setup.ideal("eta_even")
    dec = Decomposition(eta0, [eta0, eta2])
    assert not dec.reduced
    assert 1 in dec.redundant


def test_reducedness_evidence_is_kept_but_no_failure(z4_setup, monkeypatch):
    import lrings.decomp as decomp
    eta2 = z4_setup.ideal("eta_even")
    dec = Decomposition(eta2, [eta2, eta2])

    def broken(f):
        raise ConsistencyError("prime radical changed the value at zero")
    monkeypatch.setattr(decomp, "prime_radical", broken)
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            dec.collisions
    monkeypatch.undo()
    assert dec.describe() == ("not reduced: redundant factor index(es) 0, 1; "
                              "equal prime radicals at (0,1)")
    assert dec.redundant is dec.redundant
    assert dec.collisions is dec.collisions


# -- projection ----------------------------------------------------------------------

def test_project_weak_top(z6_setup):
    dec = decompose(z6_setup.ideal("eta_zero"))
    cuts = project_level(dec, "t", strong=False)
    assert set(cuts) == {frozenset({"0", "3"}), frozenset({"0", "2", "4"})}


def test_project_strong_bottom(z6_setup):
    dec = decompose(z6_setup.ideal("eta_zero"))
    cuts = project_level(dec, "b", strong=True)
    assert set(cuts) == {frozenset({"0", "3"}), frozenset({"0", "2", "4"})}


def test_project_single_factor(z4_setup):
    dec = decompose(z4_setup.ideal("eta_zero"))
    assert project_level(dec, "t", strong=False) == [frozenset({"0"})]


def test_project_empty_cut_rejected(z6_setup):
    dec = decompose(z6_setup.ideal("eta_zero"))
    with pytest.raises(DecompositionError, match="empty"):
        project_level(dec, "t", strong=True)


def test_project_full_cut_rejected(z6_setup):
    dec = decompose(z6_setup.ideal("eta_zero"))
    with pytest.raises(DecompositionError, match="equals"):
        project_level(dec, "b", strong=False)


def test_project_matches_cut_identities(z12_setup):
    eta = z12_setup.ideal("eta_three_level")
    dec = decompose(eta)
    for t in ("t", "m"):
        cuts = project_level(dec, t, strong=False)
        inter = level_cut(z12_setup.mu, t)
        for c in cuts:
            inter &= c
        assert inter == level_cut(eta, t)


# -- reducedness transfer ---------------------------------------------------------------

def test_lift_reducedness_two_factors(z6_setup):
    dec = decompose(z6_setup.ideal("eta_zero"))
    assert lift_reducedness(dec, "t") is True
    assert dec.reduced


def test_lift_reducedness_single_factor(z4_setup):
    dec = decompose(z4_setup.ideal("eta_zero"))
    assert lift_reducedness(dec, "t") is True


def test_lift_reducedness_at_infimum_of_mu(z6_setup):
    # with constant-top mu the meet of all values is t and the level
    # subring there is the whole ring
    mu = z6_setup.mu
    t0 = functools.reduce(mu.lattice.meet, mu.values)
    assert t0 == "t"
    assert level_cut(mu, t0) == frozenset(mu.ring.elements)
    dec = decompose(z6_setup.ideal("eta_zero"))
    assert lift_reducedness(dec, t0) is True


def test_lift_reducedness_rejects_dropped_factors(z12_setup):
    dec = decompose(z12_setup.ideal("eta_three_level"))
    # at level m the two t/m-valued lifts cut to all of Z12
    with pytest.raises(DecompositionError, match="survive"):
        lift_reducedness(dec, "m")


# -- strong-cut lemmas ----------------------------------------------------------------------

def test_strong_cuts_of_ideals_are_crisp_ideals(z4_setup, z6_setup):
    for setup in (z4_setup, z6_setup):
        mu = setup.mu
        for eta in ideal_survey(mu).ideals:
            for t in mu.lattice.elements:
                sc = strong_cut(eta, t)
                if not sc:
                    continue
                carrier = Subring(mu.ring, strong_cut(mu, t))
                assert carrier.is_ideal(sc)


def test_strong_cuts_of_primary_full_or_primary(z4_setup, z6_setup):
    for setup in (z4_setup, z6_setup):
        mu = setup.mu
        for eta in ideal_survey(mu).ideals:
            if not is_primary(eta):
                continue
            for t in mu.lattice.elements:
                sc = strong_cut(eta, t)
                msc = strong_cut(mu, t)
                if not sc or sc == msc:
                    continue
                assert Subring(mu.ring, msc).is_primary_ideal(sc)


def test_cuts_commute_with_meets(z4_setup):
    from lrings import intersect_many
    ideals = ideal_survey(z4_setup.mu).ideals
    for a, b in itertools.combinations(ideals, 2):
        both = intersect_many([a, b])
        for t in z4_setup.lattice.elements:
            assert level_cut(both, t) == level_cut(a, t) & level_cut(b, t)
            assert strong_cut(both, t) == strong_cut(a, t) & strong_cut(b, t)
