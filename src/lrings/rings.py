"""Finite commutative rings and their crisp ideal theory.

Rings are given by full addition/multiplication tables over string labels
and need not have a unity. Every ring law is validated exhaustively at
construction, a whole table row per step: for each pair (i, j) the three
laws over every k are three tuple comparisons, and a row that fails is
scanned again entry by entry, so the first law to fail in (i, j, k) order
is the one named. The Subring class carries the crisp oracle layer: ideal
and subring enumeration, primary tests, radicals, and minimal
primary decompositions, all decided exactly (power searches stop when the
power sequence cycles, which it must in a finite ring). Ideals and
subrings are generated as closures of generators, so their cost grows
with the number found rather than with the 2^n subsets of the carrier.
The ideal of a subring S generated by an ideal B and x is
B + span({x} u S.x), the additive span: s(b + sum k_i t_i) =
sb + sum k_i (s t_i), and every s t_i lies in S.x, so it is closed under
products with S. A span is grown a coset at a time, each a translate of
the last along a row of the addition table. A subring closure grows the
span by the products of its generators until they fall inside it. Each
closure is checked against the definition once, by whole-row subset
tests, when the table is built; after that,
"is I an ideal" is a lookup in the table, for is_ideal and for the ideal
that a primary test, radical or decomposition is asked about, whose
answers are kept beside the ideal in that table. A ring keeps each crisp
subring it is asked for by member set (`FiniteRing.subring`), so equal
cuts of all its L-subrings share one Subring and its tables.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import CapExceeded, ConsistencyError

DECOMPOSITION_IDEAL_CAP = 20


class RingError(ValueError):
    """Bad ring tables, or a set that is not the subring/ideal it must be."""


def _gatherers(table) -> tuple:
    """For each row of a table, the function taking a sequence r to the
    tuple (r[x] for x in row). A lone index makes itemgetter return a bare
    item, so the rows of a one-element table are wrapped in a tuple."""
    if len(table) == 1:
        return tuple(lambda r, x=row[0]: (r[x],) for row in table)
    return tuple(itemgetter(*row) for row in table)


class FiniteRing:
    """Finite commutative ring from explicit tables. Immutable, apart from
    the crisp subrings and cut sets it keeps as they are asked for."""

    def __init__(self, elements: Sequence[str], add, mul, name: str | None = None):
        self._set_elements(elements)
        self._set_tables(self._table(add, "add"), self._table(mul, "mul"),
                         name)

    @classmethod
    def _from_indices(cls, elements, add, mul, name: str) -> "FiniteRing":
        """A ring from index tables (tuples of tuples of element indices),
        validated as the label tables of __init__ are."""
        ring = cls.__new__(cls)
        ring._set_elements(elements)
        ring._set_tables(add, mul, name)
        return ring

    def _set_elements(self, elements) -> None:
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise RingError("duplicate element labels")
        if not self.elements:
            raise RingError("empty carrier")
        self._index = {a: i for i, a in enumerate(self.elements)}

    def _set_tables(self, add, mul, name) -> None:
        """The constructor step both label and index tables reach: keep
        and validate the index tables and set up the derived tables."""
        self.name = name or f"ring{len(self.elements)}"
        self._add, self._mul = add, mul
        self._validate()
        self._sub = tuple(tuple(row[j] for j in self._neg) for row in self._add)
        # crisp subrings by member set, one object per distinct cut set, and
        # each element's power values by minimum exponent
        self._subrings: dict[frozenset, Subring] = {}
        self._cut_sets: dict[frozenset, frozenset] = {}
        self._powers: dict[int, tuple[tuple[int, ...], ...]] = {}

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
        """The ring laws, a whole table row per step. The first law to fail
        is named as by a scan of every (i, j) then (i, j, k) in order: a
        row that fails is scanned again entry by entry."""
        n = len(self.elements)
        add, mul = self._add, self._mul
        if tuple(zip(*add)) != add or tuple(zip(*mul)) != mul:
            for i, j in itertools.product(range(n), repeat=2):
                if add[i][j] != add[j][i]:
                    raise RingError("addition is not commutative")
                if mul[i][j] != mul[j][i]:
                    raise RingError("multiplication is not commutative")
        zeros = [z for z in range(n) if add[z] == tuple(range(n))]
        if len(zeros) != 1:
            raise RingError("no unique additive identity")
        self._zero = zero = zeros[0]
        for i, row in enumerate(add):
            if row.count(zero) != 1:
                raise RingError(f"element {self.elements[i]!r} lacks a unique "
                                "additive inverse")
        self._neg = tuple(row.index(zero) for row in add)
        # ga[j](r) is (r[add[j][k]] for every k), gm[j](r) likewise for mul
        ga, gm = map(_gatherers, (add, mul))
        for i, j in itertools.product(range(n), repeat=2):
            ai, mi = add[i], mul[i]
            if (add[ai[j]] == ga[j](ai) and mul[mi[j]] == gm[j](mi)
                    and ga[j](mi) == gm[i](add[mi[j]])):
                continue
            for k in range(n):
                if add[ai[j]][k] != ai[add[j][k]]:
                    raise RingError("addition is not associative")
                if mul[mi[j]][k] != mi[mul[j][k]]:
                    raise RingError("multiplication is not associative")
                if mi[add[j][k]] != add[mi[j]][mi[k]]:
                    raise RingError(
                        "multiplication does not distribute over addition")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zn(cls, n: int) -> "FiniteRing":
        """Integers mod n, labels "0".."n-1"."""
        if n < 1:
            raise RingError("Zn needs n >= 1")
        add = tuple(tuple(range(i, n)) + tuple(range(i)) for i in range(n))
        mul = tuple(tuple(i * j % n for j in range(n)) for i in range(n))
        return cls._from_indices([str(i) for i in range(n)], add, mul,
                                 name=f"Z{n}")

    @classmethod
    def product(cls, a: "FiniteRing", b: "FiniteRing") -> "FiniteRing":
        """Componentwise product; labels "(x,y)", element (x, y) at index
        x * |b| + y."""
        nb = len(b)
        els = [f"({x},{y})" for x in a.elements for y in b.elements]

        def table(ta, tb):
            return tuple(tuple(p * nb + q for p in ta[x] for q in tb[y])
                         for x in range(len(a)) for y in range(nb))
        return cls._from_indices(els, table(a._add, b._add),
                                 table(a._mul, b._mul),
                                 name=f"{a.name}x{b.name}")

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
        return self._sub[i][j]

    def subring(self, members: frozenset) -> "Subring":
        """The crisp subring on these member labels, built once per ring and
        member set; a set that is not closed is not kept, so it raises
        RingError on every request."""
        sub = self._subrings.get(members)
        if sub is None:
            sub = self._subrings[members] = Subring(self, members)
        return sub

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

    def powers(self, min_exp: int) -> tuple[tuple[int, ...], ...]:
        """power_values_i(x, min_exp) for every x, by index; built once per
        exponent, on first use."""
        table = self._powers.get(min_exp)
        if table is None:
            table = self._powers[min_exp] = tuple(
                self.power_values_i(x, min_exp) for x in range(len(self)))
        return table

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
        """Raise RingError naming the first pair (i, j), in the order idx
        iterates, whose difference or product leaves idx; a row i that
        fails is scanned again to find j."""
        r = self.ring
        if not idx:
            raise RingError("a subring cannot be empty")
        for i in idx:
            if (idx.issuperset(map(r._sub[i].__getitem__, idx))
                    and idx.issuperset(map(r._mul[i].__getitem__, idx))):
                continue
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

    def _to_labels(self, idx: Iterable[int]) -> frozenset:
        return frozenset(self.ring.elements[i] for i in idx)

    def _is_ideal_i(self, I: frozenset) -> bool:
        r = self.ring
        if not I <= self._members_i or r.zero_i not in I:
            return False
        return (all(I.issuperset(map(r._sub[i].__getitem__, I)) for i in I)
                and all(I.issuperset(map(r._mul[s].__getitem__, I))
                        for s in self._members_i))

    def is_ideal(self, I: Iterable[str]) -> bool:
        """Read from the verified table of ideals (see _closures)."""
        return frozenset(I) in self._closures(True)

    def _answers(self, I: Iterable[str]) -> dict:
        """The answers kept beside the ideal I in the verified table; a set
        that is not an ideal raises RingError."""
        answers = self._closures(True).get(frozenset(I))
        if answers is None:
            raise RingError(f"{sorted(I)} is not an ideal of {self!r}")
        return answers

    def _answer(self, I: Iterable[str], key: str, compute):
        """compute(member indices of I), kept beside the ideal I in the
        verified table under key ("primary", "radical" or "decomposition");
        a non-ideal and an error are never kept, so each raises on every
        call."""
        answers = self._answers(I)
        if key not in answers:
            answers[key] = compute(self._to_idx(I))
        return answers[key]

    def _is_subring_i(self, S: frozenset) -> bool:
        r = self.ring
        return all(S.issuperset(map(r._sub[i].__getitem__, S))
                   and S.issuperset(map(r._mul[i].__getitem__, S))
                   for i in S)

    def _span(self, group, gens) -> set:
        """The additive subgroup generated by a subgroup and gens. For each
        g outside the group H so far, the cosets H + g, H + 2g, ... are
        added until one meets what is already held; the first to do so is
        H itself, and the union is the group that H and g generate."""
        add = self.ring._add
        H = set(group)
        for g in gens:
            if g not in H:
                step = add[g].__getitem__
                coset = list(map(step, H))
                while coset[0] not in H:
                    H.update(coset)
                    coset = list(map(step, coset))
        return H

    def _close(self, base: frozenset, x: int, ideal: bool) -> frozenset:
        """Smallest ideal (subring) holding x and the ideal (subring) base.

        For an ideal B it is B + span({x} u S.x), S the members: that is
        closed under products with S, as s(b + sum k_i t_i) =
        sb + sum k_i (s t_i) and every s t_i lies in S.x. The span of a
        set of generators is closed under products once every product of
        two generators lies in it, by distributivity; so for a subring the
        generators are base's members, x, and each such product that falls
        outside the span so far, until none does."""
        mul = self.ring._mul
        if ideal:
            gens = {x, *map(mul[x].__getitem__, self._members_i)}
            return frozenset(self._span(base, gens - base))
        out, gens, todo = set(base), list(base), [x]
        while todo:
            g = todo.pop()
            if g not in out:
                out = self._span(out, (g,))
                gens.append(g)
                todo.extend(p for p in map(mul[g].__getitem__, gens)
                            if p not in out)
        return frozenset(out)

    def _closures(self, ideal: bool) -> dict[frozenset, dict]:
        """Every ideal (subring) as a set of member labels: close {0}, then
        each set found with one member of each coset outside it, so work
        grows with the number found, not with 2^n. Re-checked by the
        definition and sorted by size then sorted member index lists.
        Computed once and kept on this subring, as the keys of a dict, so
        the order is kept and a membership test is a lookup; each value
        keeps the answers asked about that ideal (see _answer)."""
        found = self._found.get(ideal)
        if found is None:
            r = self.ring
            found, todo = set(), [frozenset({r.zero_i})]
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
            found = self._found[ideal] = {
                self._to_labels(I): {}
                for I in sorted(found, key=lambda I: (len(I), sorted(I)))}
        return found

    def ideals(self) -> list[frozenset]:
        """All ideals, sorted by size then by the sorted member index lists.
        Found once per subring; each call returns a new list."""
        return list(self._closures(ideal=True))

    def subrings(self) -> list[frozenset]:
        """All subrings of this subring, in the order of ideals(). Found
        once per subring; each call returns a new list."""
        return list(self._closures(ideal=False))

    def is_primary_ideal(self, I: Iterable[str]) -> bool:
        """xy in I forces x in I, or y in I, or x**n and y**m in I for some
        exponents m, n > 1."""
        return self._answer(I, "primary", self._is_primary_i)

    def _is_primary_i(self, idx: frozenset) -> bool:
        """By commutativity, a pair xy in I with x, y outside I fails
        exactly when one of them, say x, has no power x**n (n > 1) in I;
        so each such x is tested against every y outside I at once."""
        if idx == self._members_i:
            return False
        r, outside = self.ring, self._members_i - idx
        powers = r.powers(2)
        return all(idx.isdisjoint(map(r._mul[i].__getitem__, outside))
                   for i in outside if idx.isdisjoint(powers[i]))

    def radical_of(self, I: Iterable[str]) -> frozenset:
        """Elements with some positive power inside I. Always an ideal of
        this subring; that is looked up in the table when it is found."""
        return self._answer(I, "radical", self._radical_i)

    def _radical_i(self, idx: frozenset) -> frozenset:
        r = self.ring
        rad = self._to_labels(
            i for i in self._members_i
            if any(p in idx for p in r.powers(1)[i]))
        if rad not in self._closures(True):
            raise ConsistencyError("radical of an ideal is not an ideal")
        return rad

    def primary_decomposition(self, I: Iterable[str]):
        """Minimal-cardinality list of primary ideals intersecting to I,
        or None when no subset of the primary ideals works. Search is
        exhaustive over subsets, smallest first, in ideal enumeration
        order; rings with more than DECOMPOSITION_IDEAL_CAP ideals (read
        at call time) are rejected with CapExceeded. The answer is kept
        beside I in the verified table, so a kept answer is returned
        whatever the cap says later; an error is never kept. Each call
        returns a new list."""
        found = self._answer(I, "decomposition", self._primary_decomposition_i)
        return None if found is None else list(found)

    def _primary_decomposition_i(self, idx: frozenset):
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
                    return combo
        return None
