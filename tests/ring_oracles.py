"""Pair-by-pair and triple-by-triple references for the crisp ring layer.

The library validates ring tables, tests ideals and subrings, and closes
generators over whole table rows. These are the forms it had before: one
Python step per pair or triple, and a closure that re-walks the whole set
for every element it adds. They share no code with the row kernels, so
tests set the two against each other and read these where a test needs
the definition itself.
"""

import itertools

from lrings.rings import RingError


def validate_tables(elements, add, mul):
    """The ring laws over index tables, one (i, j, k) at a time; raises
    RingError with the library's message for the first law that fails.
    Returns (zero, negation table)."""
    n = len(elements)
    for i in range(n):
        for j in range(n):
            if add[i][j] != add[j][i]:
                raise RingError("addition is not commutative")
            if mul[i][j] != mul[j][i]:
                raise RingError("multiplication is not commutative")
    zeros = [z for z in range(n) if all(add[z][i] == i for i in range(n))]
    if len(zeros) != 1:
        raise RingError("no unique additive identity")
    zero = zeros[0]
    neg = []
    for i in range(n):
        inv = [j for j in range(n) if add[i][j] == zero]
        if len(inv) != 1:
            raise RingError(f"element {elements[i]!r} lacks a unique "
                            "additive inverse")
        neg.append(inv[0])
    for i, j, k in itertools.product(range(n), repeat=3):
        if add[add[i][j]][k] != add[i][add[j][k]]:
            raise RingError("addition is not associative")
        if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
            raise RingError("multiplication is not associative")
        if mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]:
            raise RingError("multiplication does not distribute over addition")
    return zero, tuple(neg)


def check_closed(ring, idx):
    """Raise RingError naming the first pair of idx, in its iteration
    order, whose difference or product leaves idx."""
    if not idx:
        raise RingError("a subring cannot be empty")
    for i in idx:
        for j in idx:
            if ring._sub_i(i, j) not in idx:
                raise RingError(
                    f"not closed under subtraction: "
                    f"{ring.elements[i]!r} - {ring.elements[j]!r}")
            if ring.mul_i(i, j) not in idx:
                raise RingError(
                    f"not closed under multiplication: "
                    f"{ring.elements[i]!r} * {ring.elements[j]!r}")


def is_ideal_i(sub, I):
    """The definition: I holds zero, lies in the subring, and is closed
    under differences and under products with the subring's members."""
    r = sub.ring
    if not I <= sub._members_i or r.zero_i not in I:
        return False
    for i in I:
        for j in I:
            if r._sub_i(i, j) not in I:
                return False
    for s in sub._members_i:
        for i in I:
            if r.mul_i(s, i) not in I:
                return False
    return True


def is_subring_i(ring, S):
    return all(ring._sub_i(i, j) in S and ring.mul_i(i, j) in S
               for i in S for j in S)


def is_prime_i(sub, idx):
    """xy in I forces x in I or y in I; the whole subring is not prime."""
    if idx == sub._members_i:
        return False
    r = sub.ring
    for i in sub._members_i:
        for j in sub._members_i:
            if r.mul_i(i, j) in idx and i not in idx and j not in idx:
                return False
    return True


def is_primary_i(sub, idx):
    """xy in I, x and y outside I, forces a power x**n and a power y**m in
    I for some n, m > 1; the whole subring is not primary."""
    if idx == sub._members_i:
        return False
    r = sub.ring
    for i in sub._members_i:
        for j in sub._members_i:
            if r.mul_i(i, j) not in idx or i in idx or j in idx:
                continue
            if not any(p in idx for p in r.power_values_i(i, 2)):
                return False
            if not any(p in idx for p in r.power_values_i(j, 2)):
                return False
    return True


def close(sub, base, x, ideal):
    """Smallest ideal (subring) of sub holding x and the ideal (subring)
    base, by closing under b - a and products one new element at a time."""
    r = sub.ring
    out, todo = set(base) | {x}, [x]
    while todo:
        a = todo.pop()
        new = {r._add[r._neg[a]][b] for b in out} | {
            r._mul[a][s] for s in (sub._members_i if ideal else out)}
        todo.extend(new - out)
        out |= new
    return frozenset(out)


def closures(sub, ideal):
    """Every ideal (subring) of sub by closures of generators, as sorted
    label sets, each checked against the definition."""
    r = sub.ring
    found, todo = set(), [close(sub, frozenset(), r.zero_i, ideal)]
    while todo:
        I = todo.pop()
        if I not in found:
            found.add(I)
            rest = set(sub._members_i - I)
            while rest:
                x = rest.pop()
                rest -= {r.add_i(x, i) for i in I}
                todo.append(close(sub, I, x, ideal))
    pred = ((lambda I: is_ideal_i(sub, I)) if ideal
            else (lambda S: is_subring_i(r, S)))
    assert all(map(pred, found))
    return [sub._to_labels(I)
            for I in sorted(found, key=lambda I: (len(I), sorted(I)))]


def satisfies_subring_inequalities(f):
    """f(x-y) and f(xy) both dominate f(x) ^ f(y), one pair at a time;
    returns (ok, first failing pair of labels)."""
    r, lat, v = f.ring, f.lattice, f.ivalues
    n = len(r)
    for i in range(n):
        for j in range(n):
            need = lat.meet_i(v[i], v[j])
            if (not lat.leq_i(need, v[r._sub_i(i, j)])
                    or not lat.leq_i(need, v[r.mul_i(i, j)])):
                return False, (r.elements[i], r.elements[j])
    return True, None
