import itertools

import pytest

from lrings import (CapExceeded, ConsistencyError, FiniteRing, RingError,
                    Subring, is_primary, level_cut, level_subring,
                    make_lattice, make_ring)
from lrings.radical import ideal_survey
from lrings.verify import SuiteParams, _enumerate_mus

import ring_oracles


def ideals_of(ring_name):
    ring = make_ring(ring_name)
    return ring, Subring.whole(ring)


def count_divisors(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# -- construction ----------------------------------------------------------

def test_zn_tables():
    z4 = make_ring("Z4")
    assert z4.add("1", "3") == "0"
    assert z4.mul("2", "3") == "2"
    assert z4.elements[z4.zero_i] == "0"


def test_product_ring():
    r = make_ring("Z2xZ3")
    assert len(r) == 6
    assert r.add("(1,2)", "(1,1)") == "(0,0)"
    assert r.mul("(1,2)", "(1,2)") == "(1,1)"


def label_product(a, b):
    """The product ring from label tables, as the public constructor takes
    them: the reference for the index tables FiniteRing.product builds."""
    pairs = [(x, y) for x in a.elements for y in b.elements]
    label = {p: f"({p[0]},{p[1]})" for p in pairs}
    add = [[label[a.add(p[0], q[0]), b.add(p[1], q[1])] for q in pairs]
           for p in pairs]
    mul = [[label[a.mul(p[0], q[0]), b.mul(p[1], q[1])] for q in pairs]
           for p in pairs]
    return FiniteRing([label[p] for p in pairs], add, mul,
                      name=f"{a.name}x{b.name}")


def same_ring(r, s):
    return ((r.name, r.elements, r._add, r._mul, r._sub, r._zero, r._neg)
            == (s.name, s.elements, s._add, s._mul, s._sub, s._zero, s._neg))


@pytest.mark.parametrize("n", [1, 2, 5, 6, 24])
def test_zn_index_tables_match_label_tables(n):
    els = [str(i) for i in range(n)]
    add = [[str((i + j) % n) for j in range(n)] for i in range(n)]
    mul = [[str(i * j % n) for j in range(n)] for i in range(n)]
    assert same_ring(FiniteRing.zn(n), FiniteRing(els, add, mul, name=f"Z{n}"))


@pytest.mark.parametrize("factors", [("Z2", "Z2"), ("Z2", "Z3"), ("Z1", "Z3"),
                                     ("Z2xZ2", "Z2"), ("Z3", "Z2xZ2")])
def test_product_index_tables_match_label_tables(factors):
    a, b = map(make_ring, factors)
    assert same_ring(FiniteRing.product(a, b), label_product(a, b))


def test_make_ring_dict_specs():
    assert len(make_ring({"zn": 5})) == 5
    assert len(make_ring({"product": ["Z2", {"zn": 2}]})) == 4


def test_bad_tables_rejected():
    # constant multiplication is associative and commutative but breaks
    # distributivity over Z4 addition
    els = ["0", "1", "2", "3"]
    add = [[str((i + j) % 4) for j in range(4)] for i in range(4)]
    mul = [["1"] * 4 for _ in range(4)]
    with pytest.raises(RingError, match="distribut"):
        FiniteRing(els, add, mul)


def _z(n):
    return [[str((i + j) % n) for j in range(n)] for i in range(n)]


def _zero(n):
    return [["0"] * n for _ in range(n)]


# a commutative loop on {0, a, b}: 0 is the identity and each element its
# own inverse, but (a + a) + b = b while a + (a + b) = 0
_LOOP = [["0", "a", "b"], ["a", "0", "a"], ["b", "a", "0"]]

BAD_TABLES = {
    "add-commutative": (["0", "1"], [["0", "1"], ["0", "0"]], _zero(2),
                        "addition is not commutative"),
    "mul-commutative": (["0", "1"], _z(2), [["0", "1"], ["0", "0"]],
                        "multiplication is not commutative"),
    "identity": (["0", "1"], _zero(2), _zero(2),
                 "no unique additive identity"),
    "inverse": (["0", "1"], [["0", "1"], ["1", "1"]], _zero(2),
                "element '1' lacks a unique additive inverse"),
    "add-associative": (["0", "a", "b"], _LOOP, _zero(3),
                        "addition is not associative"),
    # Z3 addition; the first failing triple is (1, 1, 2):
    # (1 * 1) * 2 = 2 * 2 = 0, while 1 * (1 * 2) = 1 * 1 = 2
    "mul-associative": (["0", "1", "2"], _z(3),
                        [["0", "0", "0"], ["0", "2", "1"], ["0", "1", "0"]],
                        "multiplication is not associative"),
    # two laws fail; the first pair in (i, j) order is (0, 1), where only
    # multiplication is not symmetric, so its message comes first
    "order-commutative": (["0", "1", "2"],
                          [["0", "1", "2"], ["1", "2", "1"], ["2", "0", "1"]],
                          [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                          "multiplication is not commutative"),
    # two laws fail; 0 * 0 = a breaks distributivity at (0, 0, 0), before
    # the loop's first non-associative triple
    "order-triples": (["0", "a", "b"], _LOOP,
                      [["a", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                      "multiplication does not distribute over addition"),
}


@pytest.mark.parametrize("case", BAD_TABLES)
def test_each_ring_law_names_itself(case):
    els, add, mul, message = BAD_TABLES[case]
    with pytest.raises(RingError) as e:
        FiniteRing(els, add, mul)
    assert str(e.value) == message
    with pytest.raises(RingError) as e:
        ring_oracles.validate_tables(
            els, *([[els.index(x) for x in row] for row in t]
                   for t in (add, mul)))
    assert str(e.value) == message


def test_zero_ring_needs_n_ge_1():
    with pytest.raises(RingError):
        FiniteRing.zn(0)


def test_unknown_element_label_rejected():
    with pytest.raises(RingError, match="^unknown ring element 'x'$"):
        make_ring("Z4").index("x")


def test_subring_closure_error():
    z4 = make_ring("Z4")
    with pytest.raises(RingError, match="subtraction"):
        Subring(z4, ["0", "1"])


# -- ideal enumeration -----------------------------------------------------

def test_ideals_z4():
    _, s = ideals_of("Z4")
    assert s.ideals() == [frozenset({"0"}), frozenset({"0", "2"}),
                          frozenset("0123")]


def test_ideals_z6():
    _, s = ideals_of("Z6")
    assert s.ideals() == [frozenset({"0"}), frozenset({"0", "3"}),
                          frozenset({"0", "2", "4"}),
                          frozenset({"0", "1", "2", "3", "4", "5"})]


def test_ideals_z2_field():
    _, s = ideals_of("Z2")
    assert s.ideals() == [frozenset({"0"}), frozenset({"0", "1"})]


def test_ideal_count_matches_divisors():
    # number-theory oracle: ideals of Zn are dZn, one per divisor
    for n in range(2, 13):
        _, s = ideals_of(f"Z{n}")
        assert len(s.ideals()) == count_divisors(n)


# -- primality and primariness ---------------------------------------------

def test_is_primary_examples():
    _, z12 = ideals_of("Z12")
    assert z12.is_primary_ideal({"0", "4", "8"})
    # 2*3=6 lands in (6) but no power of 2 does (they cycle 4, 8)
    assert not z12.is_primary_ideal({"0", "6"})
    _, z4 = ideals_of("Z4")
    assert z4.is_primary_ideal({"0"})


def is_prime_ideal(sub, I):
    return ring_oracles.is_prime_i(sub, sub._to_idx(I))


def test_whole_subring_never_prime_or_primary():
    _, z4 = ideals_of("Z4")
    assert not is_prime_ideal(z4, z4.member_set)
    assert not z4.is_primary_ideal(z4.member_set)


def test_non_ideal_input_rejected():
    _, z4 = ideals_of("Z4")
    with pytest.raises(RingError, match="not an ideal"):
        z4.is_primary_ideal({"0", "1"})


def test_non_ideal_input_rejected_on_every_call():
    _, z4 = ideals_of("Z4")
    for ask in (z4.is_primary_ideal, z4.radical_of):
        for _ in range(2):
            with pytest.raises(RingError, match="not an ideal"):
                ask({"0", "1"})


def test_a_failed_answer_is_never_kept(monkeypatch):
    _, z12 = ideals_of("Z12")

    def broken(idx):
        raise ConsistencyError("radical of an ideal is not an ideal")
    monkeypatch.setattr(z12, "_radical_i", broken)
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            z12.radical_of({"0", "4", "8"})
    monkeypatch.undo()
    assert z12.radical_of({"0", "4", "8"}) == {"0", "2", "4", "6", "8", "10"}


@pytest.mark.parametrize("name", ["Z12", "Z2xZ2"])
def test_stored_crisp_answers_match_a_fresh_subring(name):
    # every L-subring asks its cut subrings from the ring's shared table;
    # what those keep must be what a fresh subring answers
    ring, lat = make_ring(name), make_lattice("chain3")
    for mu in _enumerate_mus(ring, lat, SuiteParams(mu_mode="all")):
        for eta in ideal_survey(mu).ideals:
            is_primary(eta)  # crisp primary tests of the level cuts
            for t in lat.elements:
                if level_cut(eta, t):
                    level_subring(mu, t).radical_of(level_cut(eta, t))
    stored = 0
    for members, sub in ring._subrings.items():
        fresh = Subring(ring, members)
        for I, answers in sub._closures(True).items():
            for key, ask in (("primary", fresh.is_primary_ideal),
                             ("radical", fresh.radical_of)):
                if key in answers:
                    stored += 1
                    assert answers[key] == ask(I), (sub, I, key)
    assert stored > len(ring._subrings)


def test_prime_implies_primary_everywhere():
    for name in ("Z2", "Z3", "Z4", "Z6", "Z12", "Z2xZ2"):
        _, s = ideals_of(name)
        for I in s.ideals():
            if is_prime_ideal(s, I):
                assert s.is_primary_ideal(I)


# -- the verified table against the definition ------------------------------

_KLEIN = ["0", "a", "b", "c"]
ZERO_MUL_KLEIN = {  # additive group Z2 x Z2, every product zero
    "elements": _KLEIN,
    "add": [[_KLEIN[i ^ j] for j in range(4)] for i in range(4)],
    "mul": [["0"] * 4 for _ in _KLEIN],
}


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z8", "Z2xZ2", ZERO_MUL_KLEIN],
                         ids=lambda s: s if isinstance(s, str) else "klein0")
def test_ideal_lookup_matches_the_definition(spec):
    # every subset of every subring: the lookups in the table agree with
    # the definition, which the table is checked against only when built
    ring = make_ring(spec)
    for members in Subring.whole(ring).subrings():
        sub = Subring(ring, members)
        for k in range(len(sub.members) + 1):
            for I in itertools.combinations(sub.members, k):
                expected = ring_oracles.is_ideal_i(sub, sub._to_idx(I))
                assert sub.is_ideal(I) == expected
                if expected:
                    assert sub._answers(I) is sub._closures(True)[
                        frozenset(I)]
                else:
                    with pytest.raises(RingError, match="is not an ideal"):
                        sub._answers(I)


# -- radicals ---------------------------------------------------------------

def test_radical_examples():
    _, z4 = ideals_of("Z4")
    assert z4.radical_of({"0"}) == {"0", "2"}
    _, z12 = ideals_of("Z12")
    assert z12.radical_of({"0", "4", "8"}) == {"0", "2", "4", "6", "8", "10"}


def test_radical_of_prime_is_itself():
    _, z12 = ideals_of("Z12")
    for I in z12.ideals():
        if is_prime_ideal(z12, I):
            assert z12.radical_of(I) == I


def test_radical_idempotent():
    for name in ("Z4", "Z6", "Z12"):
        _, s = ideals_of(name)
        for I in s.ideals():
            r = s.radical_of(I)
            assert s.radical_of(r) == r


# -- primary decomposition ---------------------------------------------------

def test_decomposition_z6():
    _, z6 = ideals_of("Z6")
    dec = z6.primary_decomposition({"0"})
    assert dec == [frozenset({"0", "3"}), frozenset({"0", "2", "4"})]


def test_decomposition_z12():
    _, z12 = ideals_of("Z12")
    dec = z12.primary_decomposition({"0"})
    assert dec == [frozenset({"0", "4", "8"}), frozenset({"0", "3", "6", "9"})]


def test_decomposition_of_primary_is_itself():
    _, z4 = ideals_of("Z4")
    assert z4.primary_decomposition({"0", "2"}) == [frozenset({"0", "2"})]


def test_decomposition_everywhere():
    # every proper ideal of the stable decomposes; factors are primary and
    # meet back to the ideal
    for name in ("Z4", "Z6", "Z12", "Z2xZ2"):
        _, s = ideals_of(name)
        for I in s.ideals():
            if I == s.member_set:
                continue
            dec = s.primary_decomposition(I)
            assert dec is not None
            inter = s.member_set
            for J in dec:
                assert s.is_primary_ideal(J)
                inter &= J
            assert inter == I


def test_decomposition_minimal_cardinality():
    _, z12 = ideals_of("Z12")
    # (6) is not primary itself, so 2 factors are needed and found
    dec = z12.primary_decomposition({"0", "6"})
    assert len(dec) == 2
    assert set(dec) == {frozenset({"0", "3", "6", "9"}),
                        frozenset({"0", "2", "4", "6", "8", "10"})}


def test_decomposition_requires_proper():
    _, z4 = ideals_of("Z4")
    with pytest.raises(RingError, match="proper"):
        z4.primary_decomposition(z4.member_set)


def test_decomposition_cap(monkeypatch):
    _, z12 = ideals_of("Z12")
    monkeypatch.setattr("lrings.rings.DECOMPOSITION_IDEAL_CAP", 3)
    with pytest.raises(CapExceeded):
        z12.primary_decomposition({"0"})


def test_decomposition_is_kept_beside_the_ideal(monkeypatch):
    # the search runs once per ideal; each call gets a new list, and a kept
    # answer is returned whatever the cap says later
    _, z12 = ideals_of("Z12")
    searched = []
    search = z12._primary_decomposition_i
    monkeypatch.setattr(z12, "_primary_decomposition_i",
                        lambda idx: searched.append(idx) or search(idx))
    first = z12.primary_decomposition({"0"})
    first.clear()
    monkeypatch.setattr("lrings.rings.DECOMPOSITION_IDEAL_CAP", 3)
    assert z12.primary_decomposition({"0"}) == [
        frozenset({"0", "4", "8"}), frozenset({"0", "3", "6", "9"})]
    assert searched == [frozenset({0})]
    answers = z12._closures(True)[frozenset({"0"})]
    assert answers["decomposition"] == (frozenset({"0", "4", "8"}),
                                        frozenset({"0", "3", "6", "9"}))


def test_decomposition_errors_are_never_kept(monkeypatch):
    _, z12 = ideals_of("Z12")
    monkeypatch.setattr("lrings.rings.DECOMPOSITION_IDEAL_CAP", 3)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            z12.primary_decomposition({"0", "6"})
        with pytest.raises(RingError, match="proper"):
            z12.primary_decomposition(z12.member_set)
    for I in ({"0", "6"}, z12.member_set):
        assert "decomposition" not in z12._closures(True)[frozenset(I)]
    monkeypatch.undo()
    assert len(z12.primary_decomposition({"0", "6"})) == 2


def test_no_decomposition_is_an_answer_too(monkeypatch):
    # None (no subset of primaries meets to I) is kept like a list
    _, z4 = ideals_of("Z4")
    searched = []
    monkeypatch.setattr(z4, "_primary_decomposition_i",
                        lambda idx: searched.append(idx))
    assert [z4.primary_decomposition({"0"}) for _ in range(2)] == [None, None]
    assert searched == [frozenset({0})]


# -- power orbits -------------------------------------------------------------

def test_power_values_cycles_exactly():
    z12 = make_ring("Z12")
    two = z12.index("2")
    # 2, 4, 8, 16=4, ... so powers >= 2 are {4, 8}
    vals = {z12.elements[i] for i in z12.power_values_i(two, 2)}
    assert vals == {"4", "8"}
    vals1 = {z12.elements[i] for i in z12.power_values_i(two, 1)}
    assert vals1 == {"2", "4", "8"}


def test_power_values_idempotent_element():
    z6 = make_ring("Z6")
    three = z6.index("3")  # 3*3 = 3
    assert {z6.elements[i] for i in z6.power_values_i(three, 2)} == {"3"}
