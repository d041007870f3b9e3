"""Tour of the radical machinery on a four-element ring.

Z4 carries three crisp ideals; over the chain b < m < t with mu constant
at the top, its lattice-valued ideals are richer. This script walks one
ideal through the pointwise radical, the semiprime radical and the prime
radical, and shows the capped prime ideal that witnesses Q_eta != {}.
"""

from lrings import (LIdeal, enumerate_family, ideal_survey, is_primary,
                    is_prime, is_semiprime, prime_radical, radical,
                    semiprime_radical)
from lrings.fixtures import z4_chain3


def show(name, subset):
    body = " ".join(f"{x}:{v}" for x, v in zip(subset.ring.elements,
                                               subset.values))
    print(f"  {name:<14} {body}")


setup = z4_chain3()
mu = setup.mu
eta = setup.ideal("eta_zero")    # peaks at 0, value m elsewhere

print("carrier: Z4 over the chain b < m < t, mu constant top")
show("eta", eta)
print(f"  prime={is_prime(eta)}  semiprime={is_semiprime(eta)}  "
      f"primary={is_primary(eta)}")

print("\nthe three radicals coincide here because eta is primary:")
show("radical", radical(eta))
show("semiprime rad", semiprime_radical(eta))
show("prime radical", prime_radical(eta))

print("\nevery ideal of mu, classified in one sweep:")
for v in ideal_survey(mu).ideals:
    flags = "".join(ch for ch, test in (("P", is_prime), ("S", is_semiprime),
                                        ("Q", is_primary)) if test(v))
    show(flags or "-", v)

print("\nprime ideals above eta (the family whose meet is the prime radical):")
for member in enumerate_family(eta, "prime"):
    show("member", member)

low = LIdeal(mu, ["m", "m", "m", "m"])
print("\nan ideal sitting strictly below mu at zero admits the capped prime:")
show("eta'", low)
# x -> mu(x) ^ eta'(0): a prime ideal of mu above eta'
cap = LIdeal(mu, [mu.lattice.meet(v, low.zero_value()) for v in mu.values])
assert is_prime(cap) and cap.contains(low)
show("prime cap", cap)
