"""Finite commutative rings and their crisp ideal theory.

Rings are given by full addition/multiplication tables over string labels
and need not have a unity. Everything is validated exhaustively at
construction. The Subring class carries the crisp oracle layer: ideal and
subring enumeration, prime/primary tests, radicals, and minimal primary
decompositions, all decided exactly (power searches stop when the power
sequence cycles, which it must in a finite ring). Ideals and subrings are
generated as closures of generators, so their cost grows with the number
found rather than with the 2^n subsets of the carrier.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .errors import CapExceeded, ConsistencyError

DECOMPOSITION_IDEAL_CAP = 20


class RingError(ValueError):
    """Bad ring tables, or a set that is not the subring/ideal it must be."""


class FiniteRing:
    """Finite commutative ring from explicit tables. Immutable."""

    def __init__(self, elements: Sequence[str], add, mul, name: str | None = None):
        self.elements = tuple(elements)
        self.name = name or f"ring{len(self.elements)}"
        if len(set(self.elements)) != len(self.elements):
            raise RingError("duplicate element labels")
        n = len(self.elements)
        if n == 0:
            raise RingError("empty carrier")
        self._index = {a: i for i, a in enumerate(self.elements)}
        self._add = self._table(add, "add")
        self._mul = self._table(mul, "mul")
        self._validate()

    def _table(self, rows, which):
        n = len(self.elements)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise RingError(f"{which} table must be {n}x{n}")
        out = []
        for row in rows:
            try:
                out.append(tuple(self._index[x] for x in row))
            except KeyError as e:
                raise RingError(f"{which} table contains unknown label {e}") from None
        return tuple(out)

    def _validate(self):
        n = len(self.elements)
        add, mul = self._add, self._mul
        for i in range(n):
            for j in range(n):
                if add[i][j] != add[j][i]:
                    raise RingError("addition is not commutative")
                if mul[i][j] != mul[j][i]:
                    raise RingError("multiplication is not commutative")
        zeros = [z for z in range(n) if all(add[z][i] == i for i in range(n))]
        if len(zeros) != 1:
            raise RingError("no unique additive identity")
        self._zero = zeros[0]
        neg = []
        for i in range(n):
            inv = [j for j in range(n) if add[i][j] == self._zero]
            if len(inv) != 1:
                raise RingError(f"element {self.elements[i]!r} lacks a unique "
                                "additive inverse")
            neg.append(inv[0])
        self._neg = tuple(neg)
        for i, j, k in itertools.product(range(n), repeat=3):
            if add[add[i][j]][k] != add[i][add[j][k]]:
                raise RingError("addition is not associative")
            if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                raise RingError("multiplication is not associative")
            if mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]:
                raise RingError("multiplication does not distribute over addition")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zn(cls, n: int) -> "FiniteRing":
        """Integers mod n, labels "0".."n-1"."""
        if n < 1:
            raise RingError("Zn needs n >= 1")
        els = [str(i) for i in range(n)]
        add = [[str((i + j) % n) for j in range(n)] for i in range(n)]
        mul = [[str((i * j) % n) for j in range(n)] for i in range(n)]
        return cls(els, add, mul, name=f"Z{n}")

    @classmethod
    def product(cls, a: "FiniteRing", b: "FiniteRing") -> "FiniteRing":
        """Componentwise product; labels "(x,y)"."""
        els, pairs = [], []
        for x in a.elements:
            for y in b.elements:
                els.append(f"({x},{y})")
                pairs.append((x, y))
        idx = {p: lab for p, lab in zip(pairs, els)}
        add = [[idx[(a.add(p[0], q[0]), b.add(p[1], q[1]))] for q in pairs]
               for p in pairs]
        mul = [[idx[(a.mul(p[0], q[0]), b.mul(p[1], q[1]))] for q in pairs]
               for p in pairs]
        return cls(els, add, mul, name=f"{a.name}x{b.name}")

    # -- queries ---------------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise RingError(f"unknown ring element {label!r}") from None

    def add(self, x: str, y: str) -> str:
        return self.elements[self._add[self.index(x)][self.index(y)]]

    def mul(self, x: str, y: str) -> str:
        return self.elements[self._mul[self.index(x)][self.index(y)]]

    # index-level mirrors
    def add_i(self, i, j):
        return self._add[i][j]

    def mul_i(self, i, j):
        return self._mul[i][j]

    def _sub_i(self, i, j):
        return self._add[i][self._neg[j]]

    @property
    def zero_i(self) -> int:
        return self._zero

    def power_values_i(self, x: int, min_exp: int) -> tuple[int, ...]:
        """Distinct values of x**n over all n >= min_exp, decided exactly:
        the power sequence is walked until it revisits an element, and the
        cycle portion is included regardless of min_exp."""
        seen = {}
        seq = []
        p, n = x, 1
        while p not in seen:
            seen[p] = n
            seq.append((n, p))
            p = self._mul[p][x]
            n += 1
        cycle_start = seen[p]
        vals = {v for (k, v) in seq if k >= min_exp or k >= cycle_start}
        return tuple(sorted(vals))

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"<FiniteRing {self.name} ({len(self.elements)} elements)>"


def make_ring(spec) -> FiniteRing:
    """Build a ring from "Zn", "ZnxZm..", {"zn": n}, {"product": [...]},
    or explicit {"elements", "add", "mul"} tables (row-major labels).
    A malformed description raises RingError."""
    try:
        return _ring_from_spec(spec)
    except RingError:
        raise
    except (TypeError, ValueError, IndexError) as e:
        raise RingError(f"cannot interpret ring description {spec!r}: "
                        f"{e}") from e


def _ring_from_spec(spec) -> FiniteRing:
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.replace("×", "x").split("x")]
        rings = []
        for p in parts:
            if not (p[:1] in ("Z", "z") and p[1:].isdigit()):
                raise RingError(f"cannot interpret ring name {spec!r}")
            rings.append(FiniteRing.zn(int(p[1:])))
        out = rings[0]
        for r in rings[1:]:
            out = FiniteRing.product(out, r)
        return out
    if isinstance(spec, dict):
        if "zn" in spec:
            return FiniteRing.zn(int(spec["zn"]))
        if "product" in spec:
            rings = [make_ring(s) for s in spec["product"]]
            out = rings[0]
            for r in rings[1:]:
                out = FiniteRing.product(out, r)
            return out
        if "elements" in spec and "add" in spec and "mul" in spec:
            return FiniteRing(list(spec["elements"]), spec["add"], spec["mul"])
    raise RingError(f"cannot interpret ring description {spec!r}")


class Subring:
    """A subset of a ring closed under subtraction and multiplication,
    together with its crisp ideal theory. Ideals are frozensets of labels."""

    def __init__(self, ring: FiniteRing, members: Iterable[str]):
        self.ring = ring
        idx = frozenset(ring.index(x) for x in members)
        self._check_closed(idx)
        self._members_i = idx
        self.members = tuple(ring.elements[i] for i in sorted(idx))
        self.member_set = frozenset(self.members)
        self._found: dict[bool, dict] = {}  # see _closures

    @classmethod
    def whole(cls, ring: FiniteRing) -> "Subring":
        return cls(ring, ring.elements)

    def _check_closed(self, idx: frozenset):
        r = self.ring
        if not idx:
            raise RingError("a subring cannot be empty")
        for i in idx:
            for j in idx:
                d = r._sub_i(i, j)
                if d not in idx:
                    raise RingError(
                        f"not closed under subtraction: "
                        f"{r.elements[i]!r} - {r.elements[j]!r}")
                p = r.mul_i(i, j)
                if p not in idx:
                    raise RingError(
                        f"not closed under multiplication: "
                        f"{r.elements[i]!r} * {r.elements[j]!r}")

    def __repr__(self):
        return f"<Subring of {self.ring.name}: {{{', '.join(self.members)}}}>"

    # -- crisp ideal theory ----------------------------------------------

    def _to_idx(self, I: Iterable[str]) -> frozenset:
        return frozenset(self.ring.index(x) for x in I)

    def _to_labels(self, idx: frozenset) -> frozenset:
        return frozenset(self.ring.elements[i] for i in idx)

    def _is_ideal_i(self, I: frozenset) -> bool:
        r = self.ring
        if not I <= self._members_i or r.zero_i not in I:
            return False
        for i in I:
            for j in I:
                if r._sub_i(i, j) not in I:
                    return False
        for s in self._members_i:
            for i in I:
                if r.mul_i(s, i) not in I:
                    return False
        return True

    def is_ideal(self, I: Iterable[str]) -> bool:
        return self._is_ideal_i(self._to_idx(I))

    def _require_ideal(self, I: Iterable[str]) -> frozenset:
        idx = self._to_idx(I)
        if not self._is_ideal_i(idx):
            raise RingError(f"{sorted(I)} is not an ideal of {self!r}")
        return idx

    def _is_subring_i(self, S: frozenset) -> bool:
        r = self.ring
        return all(r._sub_i(i, j) in S and r.mul_i(i, j) in S
                   for i in S for j in S)

    def _close(self, base: frozenset, x: int, ideal: bool) -> frozenset:
        """Smallest ideal (subring) holding x and the ideal (subring) base;
        closing under b - a suffices, since a - b = 0 - (b - a)."""
        r = self.ring
        out, todo = set(base) | {x}, [x]
        while todo:
            a = todo.pop()
            new = {r._add[r._neg[a]][b] for b in out} | {
                r._mul[a][s] for s in (self._members_i if ideal else out)}
            todo.extend(new - out)
            out |= new
        return frozenset(out)

    def _closures(self, ideal: bool) -> dict[frozenset, None]:
        """Every ideal (subring) as member index sets: close {0}, then each
        set found with one member of each coset outside it, so work grows
        with the number found, not with 2^n. Re-checked by the definition
        and sorted by size then sorted member index lists. Computed once
        and kept on this subring, as the keys of a dict, so the order is
        kept and a membership test is a lookup."""
        found = self._found.get(ideal)
        if found is None:
            r = self.ring
            found, todo = set(), [self._close(frozenset(), r.zero_i, ideal)]
            while todo:
                I = todo.pop()
                if I not in found:
                    found.add(I)
                    rest = set(self._members_i - I)
                    while rest:  # all of x + I give the same closure
                        x = rest.pop()
                        rest -= {r.add_i(x, i) for i in I}
                        todo.append(self._close(I, x, ideal))
            pred = self._is_ideal_i if ideal else self._is_subring_i
            if not all(map(pred, found)):
                raise ConsistencyError("a closure fails the definition")
            found = self._found[ideal] = dict.fromkeys(
                sorted(found, key=lambda I: (len(I), sorted(I))))
        return found

    def ideals(self) -> list[frozenset]:
        """All ideals, sorted by size then by the sorted member index lists.
        Found once per subring; each call returns a new list."""
        return [self._to_labels(I) for I in self._closures(ideal=True)]

    def subrings(self) -> list[frozenset]:
        """All subrings of this subring, in the order of ideals(). Found
        once per subring; each call returns a new list."""
        return [self._to_labels(I) for I in self._closures(ideal=False)]

    def is_prime_ideal(self, I: Iterable[str]) -> bool:
        """xy in I forces x in I or y in I; the whole subring is not prime."""
        idx = self._require_ideal(I)
        if idx == self._members_i:
            return False
        r = self.ring
        for i in self._members_i:
            for j in self._members_i:
                if r.mul_i(i, j) in idx and i not in idx and j not in idx:
                    return False
        return True

    def is_primary_ideal(self, I: Iterable[str]) -> bool:
        """xy in I forces x in I, or y in I, or x**n and y**m in I for some
        exponents m, n > 1."""
        idx = self._require_ideal(I)
        if idx == self._members_i:
            return False
        r = self.ring
        for i in self._members_i:
            for j in self._members_i:
                if r.mul_i(i, j) not in idx or i in idx or j in idx:
                    continue
                if not any(p in idx for p in r.power_values_i(i, 2)):
                    return False
                if not any(p in idx for p in r.power_values_i(j, 2)):
                    return False
        return True

    def radical_of(self, I: Iterable[str]) -> frozenset:
        """Elements with some positive power inside I. Always an ideal of
        this subring; that is re-checked on every call."""
        idx = self._require_ideal(I)
        r = self.ring
        rad = frozenset(i for i in self._members_i
                        if any(p in idx for p in r.power_values_i(i, 1)))
        if not self._is_ideal_i(rad):
            raise ConsistencyError("radical of an ideal is not an ideal")
        return self._to_labels(rad)

    def primary_decomposition(self, I: Iterable[str]):
        """Minimal-cardinality list of primary ideals intersecting to I,
        or None when no subset of the primary ideals works. Search is
        exhaustive over subsets, smallest first, in ideal enumeration
        order; rings with more than DECOMPOSITION_IDEAL_CAP ideals (read
        at call time) are rejected with CapExceeded."""
        idx = self._require_ideal(I)
        if idx == self._members_i:
            raise RingError("only proper ideals have primary decompositions")
        all_ideals = self.ideals()
        if len(all_ideals) > DECOMPOSITION_IDEAL_CAP:
            raise CapExceeded(
                f"{len(all_ideals)} ideals exceed the decomposition cap "
                f"{DECOMPOSITION_IDEAL_CAP}",
                size=len(all_ideals))
        primaries = [J for J in all_ideals if self.is_primary_ideal(J)]
        target = self._to_labels(idx)
        for k in range(1, len(primaries) + 1):
            for combo in itertools.combinations(primaries, k):
                inter = self.member_set
                for J in combo:
                    inter &= J
                if inter == target:
                    return list(combo)
        return None
