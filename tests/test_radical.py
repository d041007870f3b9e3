import importlib

import pytest

from lrings import (CapExceeded, ConsistencyError, DecompositionError,
                    FiniteLattice, FiniteRing, LIdeal, LSubring,
                    ValidationError, decompose, enumerate_family, fixtures,
                    ideal_survey, intersect_many, is_primary, is_prime,
                    is_semiprime, make_lattice, make_ring, prime_radical,
                    radical, semiprime_radical, sum_ideals)
from lrings.verify import Instance, SuiteParams, _enumerate_mus, check_theorem
from lrings.radical import primary_by_inequalities, primary_by_level_cuts


@pytest.fixture(scope="module")
def mu_two_level():
    # non-constant subring [t,m,t,m] over Z4
    ring = FiniteRing.zn(4)
    lat = FiniteLattice.chain(["b", "m", "t"], name="chain3")
    return LSubring(ring, lat, ["t", "m", "t", "m"])


def as_ideal_of_self(mu):
    return LIdeal(mu, mu.values)


# -- predicates -----------------------------------------------------------------

def test_prime_examples(z4_setup):
    assert is_prime(z4_setup.ideal("eta_even"))
    # 2*2=0 lifts the value at 0 above both branches
    assert not is_prime(z4_setup.ideal("eta_zero"))


def test_whole_subring_is_never_prime(z4_setup):
    assert not is_prime(as_ideal_of_self(z4_setup.mu))
    assert not is_semiprime(as_ideal_of_self(z4_setup.mu))
    assert not is_primary(as_ideal_of_self(z4_setup.mu))


def test_semiprime_examples(z4_setup):
    assert is_semiprime(z4_setup.ideal("eta_even"))
    # x=2, n=2: eta(0) ^ mu(2) = t exceeds eta(2) = m
    assert not is_semiprime(z4_setup.ideal("eta_zero"))


def test_primary_examples(z4_setup):
    assert is_primary(z4_setup.ideal("eta_zero"))
    assert is_primary(z4_setup.ideal("eta_even"))


def test_primary_rejects_non_primary_cut():
    # two-valued lift of (6) inside Z12: the top cut is not primary
    ring = FiniteRing.zn(12)
    lat = FiniteLattice.chain(["b", "t"])
    mu = LSubring.constant_top(ring, lat)
    eta = LIdeal(mu, {x: ("t" if x in {"0", "6"} else "b")
                      for x in ring.elements})
    assert not is_primary(eta)
    assert not primary_by_inequalities(eta)
    assert not primary_by_level_cuts(eta)


def test_primary_characterizations_agree(z4_setup, z6_setup):
    for setup in (z4_setup, z6_setup):
        for eta in ideal_survey(setup.mu).ideals:
            assert primary_by_inequalities(eta) == primary_by_level_cuts(eta)


# -- radical ----------------------------------------------------------------------

def test_radical_lifts_nilpotents(z4_setup):
    assert radical(z4_setup.ideal("eta_zero")).ivalues == \
        z4_setup.ideal("eta_even").ivalues


def test_radical_fixes_semiprimes(z4_setup):
    eta2 = z4_setup.ideal("eta_even")
    assert radical(eta2).ivalues == eta2.ivalues


def test_radical_of_whole_subring(z4_setup):
    mu = as_ideal_of_self(z4_setup.mu)
    assert radical(mu).ivalues == z4_setup.mu.ivalues


# the pentagon: 0 < a < b < 1 and 0 < c < 1, neither modular nor Heyting
N5 = FiniteLattice(["0", "a", "b", "c", "1"],
                   [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
                   name="n5")


def test_radical_is_ideal_on_every_lattice():
    # T2.14 and T2.16 use only meets and finiteness: on every L-subring
    # over non-distributive lattices the radical is an ideal, semiprime
    # unless it is mu, and P(rad eta) = P(eta) = rad(P(eta)). Z2xZ2 and Z6
    # have no nilpotents, so there rad(eta) = eta; Z4 and Z8 have them.
    checked = 0
    for rname in ("Z2xZ2", "Z4", "Z6", "Z8"):
        for lat in (make_lattice("m3"), N5):
            for mu in _enumerate_mus(make_ring(rname), lat,
                                     SuiteParams(mu_mode="all")):
                for eta in ideal_survey(mu).ideals:
                    r = radical(eta)
                    assert isinstance(r, LIdeal)
                    assert is_semiprime(r) or r.ivalues == mu.ivalues
                    p = prime_radical(eta)
                    assert prime_radical(r).ivalues == p.ivalues
                    assert radical(p).ivalues == p.ivalues
                    checked += 1
    assert checked == 3710


def test_semiprime_iff_radical_fixed(z4_setup, z6_setup):
    for setup in (z4_setup, z6_setup):
        mu = setup.mu
        for eta in ideal_survey(mu).ideals:
            if eta.ivalues == mu.ivalues:
                continue
            assert is_semiprime(eta) == (radical(eta).ivalues == eta.ivalues)


# -- families ------------------------------------------------------------------------

def test_family_above_eta_zero(z4_setup):
    eta0, eta2 = z4_setup.ideal("eta_zero"), z4_setup.ideal("eta_even")
    fam = enumerate_family(eta0, "prime")
    assert [m.ivalues for m in fam] == [eta2.ivalues]
    fam2 = enumerate_family(eta0, "semiprime")
    assert [m.ivalues for m in fam2] == [eta2.ivalues]


def test_family_above_whole_subring_is_empty(z4_setup):
    assert enumerate_family(as_ideal_of_self(z4_setup.mu), "prime") == ()


def test_family_kind_validated(z4_setup):
    with pytest.raises(ValueError, match="kind"):
        enumerate_family(z4_setup.ideal("eta_zero"), "maximal")


def test_family_cap_counts_cut_assignments():
    # a fresh subring, so no survey is cached yet. Over Z4 and chain3 the
    # level-cut search tries 4 cuts at m (the empty set and the ideals
    # 0, 2Z4, Z4) and then, at t, the empty set plus each ideal inside the
    # cut at m: 1 + 2 + 3 + 4 = 10. That is 14 cut assignments.
    fx = fixtures.z4_chain3()
    eta = fx.ideal("eta_zero")
    for cap in (5, 13):
        with pytest.raises(CapExceeded) as err:
            ideal_survey(fx.mu, cap=cap)
        assert err.value.size == cap + 1
        assert fx.mu._survey is None
    assert len(ideal_survey(fx.mu, cap=14).ideals) == 10
    assert [m.ivalues for m in enumerate_family(eta, "prime")] == \
        [fx.ideal("eta_even").ivalues]
    assert len(ideal_survey(fx.mu, cap=0).ideals) == 10


def test_cached_survey_is_never_refused():
    fx = fixtures.z4_chain3()
    eta0, eta2 = fx.ideal("eta_zero"), fx.ideal("eta_even")
    with pytest.raises(CapExceeded):
        ideal_survey(fx.mu, cap=1)
    assert fx.mu._survey is None
    ideal_survey(fx.mu)
    assert ideal_survey(fx.mu, cap=0) is fx.mu._survey
    assert prime_radical(eta0).ivalues == eta2.ivalues
    assert semiprime_radical(eta0).ivalues == eta2.ivalues


def test_survey_build_classifies_nothing(monkeypatch):
    # the predicates answer on first request and keep the verdict on the
    # ideal, so a build decides no ideal's primality (it keeps only the cut
    # tables it reads, on each ideal), computes neither the up-masks nor
    # T2.12's pairs, and a repeat asks nothing again
    radical_mod = importlib.import_module("lrings.radical")
    calls = []
    by_def = radical_mod.primary_by_inequalities
    monkeypatch.setattr(radical_mod, "primary_by_inequalities",
                        lambda eta: calls.append(eta) or by_def(eta))
    fx = fixtures.z4_chain3()
    survey = ideal_survey(fx.mu)
    assert calls == []
    assert not {"up_masks", "non_semiprime_meets"} & set(vars(survey))
    assert all((v._prime, v._semiprime, v._primary) == (None,) * 3
               and v._cuts is not None for v in survey.ideals)
    eta = survey.ideals[1]
    assert [is_primary(eta), is_primary(eta)] == [True, True]
    assert calls == [eta] and eta._primary is True
    enumerate_family(eta, "semiprime")  # reads eta's row of the ideals above
    assert set(vars(survey)) == {"ideals", "index", "up_masks"}


def test_survey_canonical_order(z4_setup):
    # frozen by an independent mixed-radix sweep over the 81 candidates
    assert [v.values for v in ideal_survey(z4_setup.mu).ideals] == [
        ("b", "b", "b", "b"),
        ("m", "b", "b", "b"),
        ("m", "b", "m", "b"),
        ("m", "m", "m", "m"),
        ("t", "b", "b", "b"),
        ("t", "b", "m", "b"),
        ("t", "b", "t", "b"),
        ("t", "m", "m", "m"),
        ("t", "m", "t", "m"),
        ("t", "t", "t", "t"),
    ]


# -- prime and semiprime radicals ------------------------------------------------------

def test_prime_radical_examples(z4_setup):
    eta0, eta2 = z4_setup.ideal("eta_zero"), z4_setup.ideal("eta_even")
    assert prime_radical(eta0).ivalues == eta2.ivalues
    assert semiprime_radical(eta0).ivalues == eta2.ivalues
    assert semiprime_radical(eta2).ivalues == eta2.ivalues


def test_prime_radical_of_whole_subring(z4_setup):
    mu = as_ideal_of_self(z4_setup.mu)
    assert prime_radical(mu).ivalues == z4_setup.mu.ivalues
    assert semiprime_radical(mu).ivalues == z4_setup.mu.ivalues


def test_prime_radical_keeps_zero_value(mu_two_level):
    eta = LIdeal(mu_two_level, ["m", "m", "m", "m"])
    p = prime_radical(eta)
    assert p.value("0") == "m"
    assert p.ivalues == eta.ivalues  # the constant cap is itself prime


def test_radicals_nest(z4_setup, z6_setup):
    for setup in (z4_setup, z6_setup):
        mu = setup.mu
        for eta in ideal_survey(mu).ideals:
            r, s, p = radical(eta), semiprime_radical(eta), prime_radical(eta)
            assert s.contains(r)
            assert p.contains(s)
            assert mu.contains(p)


def n5_witness():
    # N5: 0 < a < b < 1 and 0 < c < 1, over Z2xZ2, listed as (0,0), (0,1),
    # (1,0), (1,1); a fresh subring each call, so nothing is kept yet
    n5 = make_lattice({"elements": ["0", "a", "b", "c", "1"],
                       "leq": [["0", "a"], ["a", "b"], ["b", "1"],
                               ["0", "c"], ["c", "1"]]})
    mu = LSubring(make_ring("Z2xZ2"), n5, ["1", "b", "b", "1"])
    return mu, LIdeal(mu, ["1", "0", "a", "c"])


def test_semiprime_radical_differs_from_prime_radical_on_n5():
    # eta is semiprime but the meet of the prime ideals above it is
    # larger, so S is not P read another way
    mu, eta = n5_witness()
    assert radical(eta).values == semiprime_radical(eta).values == eta.values
    assert prime_radical(eta).values == ("1", "0", "b", "c")
    assert check_theorem("T1.7", Instance("n5", mu, (eta,))).status == "PASS"


def test_semiprime_radical_is_checked_against_the_radical(monkeypatch):
    # with semiprime read as prime, the family meet above the N5 witness is
    # P(eta) = (1,0,b,c), not rad(eta) = eta: S is decided in one place, so
    # the mutant raises instead of answering P, and raises again when asked
    radical_mod = importlib.import_module("lrings.radical")
    monkeypatch.setattr(radical_mod, "is_semiprime", radical_mod.is_prime)
    mu, eta = n5_witness()
    for _ in range(2):
        with pytest.raises(ConsistencyError,
                           match="semiprime radical differs from the radical"):
            semiprime_radical(eta)
    assert eta._srad is None
    assert prime_radical(eta).values == ("1", "0", "b", "c")


# -- the capped prime ideal -------------------------------------------------------------

def prime_cap(eta):
    """x -> mu(x) ^ eta(0) as an entry of mu's survey; a KeyError when the
    survey does not list it."""
    mu = eta.parent
    z = eta.ivalues[eta.ring.zero_i]
    survey = ideal_survey(mu)
    capped = tuple(mu.lattice.meet_i(v, z) for v in mu.ivalues)
    return survey.ideals[survey.index[capped]]


def test_prime_cap_on_two_level_subring(mu_two_level):
    eta = LIdeal(mu_two_level, ["m", "m", "m", "m"])
    xi = prime_cap(eta)
    assert xi.values == ("m", "m", "m", "m")
    assert is_prime(xi)


def test_prime_cap_constant_subring(z4_setup):
    eta = LIdeal(z4_setup.mu, ["m", "m", "m", "m"])
    assert prime_cap(eta).values == ("m",) * 4


def test_prime_cap_prime_for_all_lowered_ideals(mu_two_level):
    mu = mu_two_level
    for eta in ideal_survey(mu).ideals:
        if mu.lattice.lt(eta.zero_value(), mu.value("0")):
            assert is_prime(prime_cap(eta))


# ideals eta with eta(0) < mu(0), over every L-subring mu of the carrier
LOWERED = {("Z6", "chain3"): 38, ("Z6", "m3"): 184,
           ("Z2xZ2", "chain3"): 50, ("Z2xZ2", "m3"): 350}


@pytest.mark.parametrize("rname", ["Z6", "Z2xZ2"])
@pytest.mark.parametrize("lname", ["chain3", "m3"])
def test_capped_subring_is_a_prime_above_each_lowered_ideal(rname, lname):
    # when eta(0) < mu(0), x -> mu(x) ^ eta(0) is a survey entry, a prime
    # ideal of mu, and contains eta, so the prime family above eta is not
    # empty
    ring, lat = make_ring(rname), make_lattice(lname)
    checked = 0
    for mu in _enumerate_mus(ring, lat, SuiteParams(mu_mode="all")):
        for eta in ideal_survey(mu).ideals:
            if lat.lt(eta.zero_value(), mu.values[ring.zero_i]):
                xi = prime_cap(eta)
                assert is_prime(xi)
                assert xi.contains(eta)
                checked += 1
    assert checked == LOWERED[rname, lname]


# -- the documented boundary case of "radical of primary is prime" -----------------------

def test_primary_with_full_radical_is_not_prime():
    # mu = [m,b,m,b] over Z4: eta = [m,b,b,b] is primary, its radical is mu
    # itself (powers reach m on {0,2}; bottom elsewhere is free), and the
    # whole subring is excluded from primality by definition. The survey
    # gates the affected checks on radical properness; this pins the
    # counterexample so the behavior stays documented.
    ring = FiniteRing.zn(4)
    lat = FiniteLattice.chain(["b", "m", "t"])
    mu = LSubring(ring, lat, ["m", "b", "m", "b"])
    eta = LIdeal(mu, ["m", "b", "b", "b"])
    assert is_primary(eta)
    r = radical(eta)
    assert r.ivalues == mu.ivalues
    assert not is_prime(r)
    # the P = rad = S collapse still holds, via the empty prime family
    assert prime_radical(eta).ivalues == r.ivalues
    assert semiprime_radical(eta).ivalues == r.ivalues


def test_radical_of_primary_prime_when_proper(z4_setup, z6_setup):
    for setup in (z4_setup, z6_setup):
        mu = setup.mu
        for eta in ideal_survey(mu).ideals:
            if not is_primary(eta):
                continue
            r = radical(eta)
            if r.ivalues == mu.ivalues:
                continue
            assert is_prime(r)
            assert prime_radical(eta).ivalues == r.ivalues
            assert semiprime_radical(eta).ivalues == r.ivalues


# -- derived ideals are the survey's own objects -------------------------------------------

def built(make):
    """The values of the ideal make() builds, or the type and message of
    the error it raises."""
    try:
        return make().ivalues
    except (ConsistencyError, ValidationError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("rname", ["Z6", "Z2xZ2"])
@pytest.mark.parametrize("lname", ["chain3", "m3"])
def test_derived_ideals_are_the_surveys_own_objects(rname, lname,
                                                    monkeypatch):
    # meets, sums, radicals and decomposition factors of surveyed ideals
    # come back as the survey's objects; values the survey does not list
    # are refused exactly as the constructor refuses them
    ring, lat = make_ring(rname), make_lattice(lname)
    top = (lat.index(lat.top),) * len(ring)
    refused = 0
    for mu in _enumerate_mus(ring, lat, SuiteParams(mu_mode="all")):
        survey = ideal_survey(mu)

        def own(f):
            return f is survey.ideals[survey.index[f.ivalues]]

        def both_refuse(v):
            via_labels = built(lambda: LIdeal(mu, [lat.elements[i] for i in v]))
            assert isinstance(via_labels, tuple) and len(via_labels) == 2
            assert built(lambda: LIdeal._of(mu, v)) == via_labels
            return via_labels[0]

        for a in survey.ideals:
            assert own(radical(a))
            assert own(prime_radical(a)) and own(semiprime_radical(a))
            if lat.is_chain and a.ivalues != mu.ivalues:
                try:
                    factors = decompose(a).factors
                except DecompositionError:
                    factors = ()
                assert all(map(own, factors))
            for b in survey.ideals:
                assert own(intersect_many([a, b]))
                if a.zero_value() == b.zero_value():
                    try:
                        assert own(sum_ideals(a, b))
                    except ValidationError:
                        assert not lat.is_complete_heyting
                join = tuple(map(lat.join_i, a.ivalues, b.ivalues))
                if join in survey.index:
                    assert LIdeal._of(mu, join) is survey.ideals[
                        survey.index[join]]
                else:
                    assert both_refuse(join) is ValidationError
                    refused += 1
        if mu.ivalues != top:
            assert both_refuse(top) is ValidationError
        missing = survey.ideals[-1].ivalues
        monkeypatch.delitem(survey.index, missing)
        assert both_refuse(missing) is ConsistencyError
        monkeypatch.undo()
    assert refused > 0
