import pytest

from lrings import CapExceeded, FiniteRing, RingError, Subring, make_ring


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


def test_zero_ring_needs_n_ge_1():
    with pytest.raises(RingError):
        FiniteRing.zn(0)


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


def test_is_prime_examples():
    _, z4 = ideals_of("Z4")
    assert z4.is_prime_ideal({"0", "2"})
    assert not z4.is_prime_ideal({"0"})
    _, z12 = ideals_of("Z12")
    assert z12.is_prime_ideal({"0", "3", "6", "9"})


def test_whole_subring_never_prime_or_primary():
    _, z4 = ideals_of("Z4")
    assert not z4.is_prime_ideal(z4.member_set)
    assert not z4.is_primary_ideal(z4.member_set)


def test_non_ideal_input_rejected():
    _, z4 = ideals_of("Z4")
    with pytest.raises(RingError, match="not an ideal"):
        z4.is_prime_ideal({"0", "1"})


def test_prime_implies_primary_everywhere():
    for name in ("Z2", "Z3", "Z4", "Z6", "Z12", "Z2xZ2"):
        _, s = ideals_of(name)
        for I in s.ideals():
            if s.is_prime_ideal(I):
                assert s.is_primary_ideal(I)


# -- radicals ---------------------------------------------------------------

def test_radical_examples():
    _, z4 = ideals_of("Z4")
    assert z4.radical_of({"0"}) == {"0", "2"}
    _, z12 = ideals_of("Z12")
    assert z12.radical_of({"0", "4", "8"}) == {"0", "2", "4", "6", "8", "10"}


def test_radical_of_prime_is_itself():
    _, z12 = ideals_of("Z12")
    for I in z12.ideals():
        if z12.is_prime_ideal(I):
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
