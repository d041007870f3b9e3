"""Primary decompositions, upstairs and downstairs.

The zero indicator over Z6 splits into the lifts of (2) and (3); the
three-level ideal over Z12 needs four lifted factors, one batch per image
level, and one of them turns out to be redundant. Level projection turns
each decomposition back into a crisp one, and the crisp bridge recovers
classical decompositions by a round trip through the lattice-valued world.
"""

from lrings import (Subring, decompose, decompose_crisp_via_lift,
                    lift_reducedness, make_lattice, make_ring,
                    project_level, reduce_factors)
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
print("reduced:", dec.report.reduced)
print("projected at t:", [sorted(c) for c in project_level(dec, "t", False)])
print("reducedness transfers from level t:", lift_reducedness(dec, "t"))

print("\n== Z12, chain b < m < t ==")
setup12 = z12_chain3()
eta3 = setup12.ideal("eta_three_level")
show(eta3, "target  ")
dec3 = decompose(eta3)
for f in dec3.factors:
    show(f, "factor  ")
report = dec3.report
print(report.describe())
slim = reduce_factors(dec3)
print(f"greedy reduction keeps {len(slim.factors)} factors; "
      f"reduced={slim.reduced}")

print("\n== the crisp bridge ==")
ring = make_ring("Z12")
chain = make_lattice("chain2")
whole = Subring.whole(ring)
for I in whole.ideals():
    if I == whole.member_set:
        continue
    factors = decompose_crisp_via_lift(I, whole, chain)
    print(f"  {sorted(I, key=ring.index)} = intersection of "
          f"{[sorted(J, key=ring.index) for J in factors]}")
