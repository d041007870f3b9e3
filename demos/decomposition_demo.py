"""Primary decompositions, upstairs and downstairs.

The zero indicator over Z6 splits into the lifts of (2) and (3); the
three-level ideal over Z12 needs four lifted factors, one batch per image
level, and one of them turns out to be redundant. Level projection turns
each decomposition back into a crisp one, so a crisp ideal, lifted to a
two-valued ideal, decomposed and projected at the top, recovers its
classical decomposition by a round trip through the lattice-valued world.
"""

from lrings import (LIdeal, LSubring, Subring, decompose, lift_reducedness,
                    make_lattice, make_ring, project_level, reduce_factors)
from lrings.fixtures import z6_chain2, z12_chain3


def show(subset, prefix="  "):
    body = " ".join(f"{x}:{v}" for x, v in zip(subset.ring.elements,
                                               subset.values))
    print(prefix + body)


print("== Z6, chain b < t ==")
setup = z6_chain2()
eta = setup.ideal("eta_zero")
show(eta, "target  ")
dec = decompose(eta)
for f in dec.factors:
    show(f, "factor  ")
print("reduced:", dec.reduced)
print("projected at t:", [sorted(c) for c in project_level(dec, "t", False)])
print("reducedness transfers from level t:", lift_reducedness(dec, "t"))

print("\n== Z12, chain b < m < t ==")
setup12 = z12_chain3()
eta3 = setup12.ideal("eta_three_level")
show(eta3, "target  ")
dec3 = decompose(eta3)
for f in dec3.factors:
    show(f, "factor  ")
print(dec3.describe())
slim = reduce_factors(dec3)
print(f"greedy reduction keeps {len(slim.factors)} factors; "
      f"reduced={slim.reduced}")

print("\n== the crisp bridge ==")
ring = make_ring("Z12")
chain = make_lattice("chain2")
whole = Subring.whole(ring)
mu12 = LSubring.constant_top(ring, chain)
for I in whole.ideals():
    if I == whole.member_set:
        continue
    lifted = LIdeal(mu12, {x: chain.top if x in I else chain.bottom
                           for x in ring.elements})
    factors = project_level(decompose(lifted), chain.top, strong=False)
    print(f"  {sorted(I, key=ring.index)} = intersection of "
          f"{[sorted(J, key=ring.index) for J in factors]}")
