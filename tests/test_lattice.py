import itertools

import pytest

from lrings import FiniteLattice, LatticeError, make_lattice


def glb_bruteforce(lat, a, b):
    """Independent oracle: lower-bound set, then its maximum."""
    lower = [c for c in lat.elements if lat.leq(c, a) and lat.leq(c, b)]
    best = [c for c in lower if all(lat.leq(d, c) for d in lower)]
    assert len(best) == 1
    return best[0]


def lub_bruteforce(lat, a, b):
    upper = [c for c in lat.elements if lat.leq(a, c) and lat.leq(b, c)]
    best = [c for c in upper if all(lat.leq(c, d) for d in upper)]
    assert len(best) == 1
    return best[0]


def test_chain_meet_join(chain3):
    assert chain3.meet("m", "t") == "m"
    assert chain3.join("m", "b") == "m"
    assert chain3.meet("t", "t") == "t"


def test_meet_idempotent(chain3, m3, square):
    for lat in (chain3, m3, square):
        for a in lat.elements:
            assert lat.meet(a, a) == a
            assert lat.join(a, a) == a


def test_m3_bounds(m3):
    # diamond: pairwise incomparable midlevel elements meet at 0, join at 1
    assert m3.meet("a", "b") == "0"
    assert m3.join("a", "b") == "1"
    assert m3.meet(m3.meet("a", "b"), "c") == "0"


def test_tables_match_bruteforce(chain3, m3, square):
    for lat in (chain3, m3, square):
        for a, b in itertools.product(lat.elements, repeat=2):
            assert lat.meet(a, b) == glb_bruteforce(lat, a, b)
            assert lat.join(a, b) == lub_bruteforce(lat, a, b)


def test_join_bottom_identity(m3):
    for a in m3.elements:
        assert m3.join(a, m3.bottom) == a
        assert m3.meet(a, m3.top) == a


def test_classify(chain3, m3, square):
    assert chain3.classify() == {"is_chain": True, "is_complete_heyting": True}
    assert m3.classify() == {"is_chain": False, "is_complete_heyting": False}
    # all 64 triples distribute on the Boolean square
    assert square.classify() == {"is_chain": False, "is_complete_heyting": True}


def test_distributivity_oracle(square, m3):
    # re-derive the Heyting flags triple by triple
    for lat, expected in ((square, True), (m3, False)):
        ok = all(
            lat.meet(a, lat.join(b, c))
            == lat.join(lat.meet(a, b), lat.meet(a, c))
            for a, b, c in itertools.product(lat.elements, repeat=3))
        assert ok is expected


def test_absorption(chain3, m3, square):
    for lat in (chain3, m3, square):
        for a, b in itertools.product(lat.elements, repeat=2):
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.join(a, lat.meet(a, b)) == a


def test_closure(m3):
    for a, b in itertools.product(m3.elements, repeat=2):
        assert m3.meet(a, b) in m3.elements
        assert m3.join(a, b) in m3.elements


def test_chains_are_heyting():
    for n in range(1, 6):
        lat = make_lattice(f"chain{n}")
        assert lat.is_chain and lat.is_complete_heyting


def test_missing_lub_rejected():
    # two maximal elements above a bottom: (a, b) has no least upper bound
    with pytest.raises(LatticeError) as err:
        FiniteLattice(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert "'a'" in str(err.value) and "'b'" in str(err.value)


def test_non_antisymmetric_rejected():
    with pytest.raises(LatticeError, match="antisymmetric"):
        FiniteLattice(["x", "y"], [("x", "y"), ("y", "x")])


def test_unknown_element(chain3):
    with pytest.raises(LatticeError, match="unknown"):
        chain3.meet("b", "zz")


def test_interval_sorted_by_extension(chain3, square):
    def interval(lat, lo, hi):
        return [lat.elements[k]
                for k in lat.interval_i(lat.index(lo), lat.index(hi))]
    assert interval(chain3, "b", "t") == ["b", "m", "t"]
    assert interval(chain3, "m", "t") == ["m", "t"]
    assert interval(square, "0", "1") == ["0", "p", "q", "1"]
    assert interval(square, "p", "p") == ["p"]


def test_make_lattice_specs():
    lat = make_lattice({"chain": ["lo", "hi"]})
    assert lat.bottom == "lo" and lat.top == "hi"
    lat2 = make_lattice({"elements": ["0", "1"], "leq": [["0", "1"]]})
    assert lat2.is_chain
    with pytest.raises(LatticeError):
        make_lattice("pentagon99")
