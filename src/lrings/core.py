"""Lattice-valued subsets and the L-subring / L-ideal object model.

An LSubset is a total function from a finite ring's elements into a finite
lattice. LSubring wraps a subset that is closed, value-wise, under
subtraction and multiplication; LIdeal wraps an ideal of such a subring.

Ideal validation is eager and runs two independent characterizations (the
pointwise inequalities and the everywhere-level-cut criterion); any
disagreement raises ConsistencyError because it would mean either the code
or a theorem is wrong. Each L-subset keeps the crisp subrings of its level
and strong cuts, each built on first request, and a crisp Subring finds
its ideals once; so the level criterion, the ideal survey and every
crisp question about a cut of mu read one table. Once the subring's
ideal survey is built, an LIdeal whose values are in it reuses the
verdict both characterizations gave then; any other values are validated
in full, and an ideal missing from the survey raises ConsistencyError.
Its memo also keeps each sum of two of its ideals, keyed by values; a
sum that is not an ideal is not kept, so it raises on every request.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

from .errors import CapExceeded, ConsistencyError
from .lattice import FiniteLattice
from .rings import FiniteRing, Subring


class ValidationError(ValueError):
    """A subset failed the closure/ideal inequalities, carriers mismatch,
    or a value assignment is not total."""


class LSubset:
    """Total map ring elements -> lattice elements, stored by index."""

    __slots__ = ("ring", "lattice", "ivalues", "_survey", "_cut_subrings")

    def __init__(self, ring: FiniteRing, lattice: FiniteLattice, values):
        self.ring = ring
        self.lattice = lattice
        if isinstance(values, Mapping):
            missing = [x for x in ring.elements if x not in values]
            if missing:
                raise ValidationError(f"no value for ring element {missing[0]!r}")
            extra = [x for x in values if x not in ring.elements]
            if extra:
                raise ValidationError(f"unknown ring element {extra[0]!r}")
            seq = [values[x] for x in ring.elements]
        elif isinstance(values, Sequence) and not isinstance(values, str):
            seq = list(values)
            if len(seq) != len(ring.elements):
                raise ValidationError(
                    f"expected {len(ring.elements)} values, got {len(seq)}")
        else:
            raise ValidationError(f"values must be a mapping or a list, "
                                  f"not {values!r}")
        self.ivalues = tuple(lattice.index(v) for v in seq)
        self._survey = self._cut_subrings = None

    @classmethod
    def _make(cls, ring, lattice, ivalues: tuple[int, ...]) -> "LSubset":
        obj = object.__new__(cls)
        obj.ring = ring
        obj.lattice = lattice
        obj.ivalues = tuple(ivalues)
        obj._survey = obj._cut_subrings = None
        return obj

    def value(self, x: str) -> str:
        return self.lattice.elements[self.ivalues[self.ring.index(x)]]

    @property
    def values(self) -> tuple[str, ...]:
        els = self.lattice.elements
        return tuple(els[i] for i in self.ivalues)

    def image(self) -> frozenset[str]:
        els = self.lattice.elements
        return frozenset(els[i] for i in set(self.ivalues))

    def same_carrier(self, other: "LSubset") -> bool:
        return self.ring is other.ring and self.lattice is other.lattice

    def contains(self, other: "LSubset") -> bool:
        """Pointwise other <= self."""
        if not self.same_carrier(other):
            raise ValidationError("carriers differ")
        leq = self.lattice.leq_i
        return all(leq(a, b) for a, b in zip(other.ivalues, self.ivalues))

    def __eq__(self, other):
        return (isinstance(other, LSubset) and self.same_carrier(other)
                and self.ivalues == other.ivalues)

    def __hash__(self):
        return hash((id(self.ring), id(self.lattice), self.ivalues))

    def __repr__(self):
        body = " ".join(f"{x}↦{v}" for x, v in zip(self.ring.elements, self.values))
        return f"<{type(self).__name__} {body}>"


# ---------------------------------------------------------------------------
# characterizations

def satisfies_subring_inequalities(f: LSubset) -> tuple[bool, tuple | None]:
    """Closure under subtraction and multiplication, value-wise:
    f(x-y) and f(xy) both dominate f(x) ^ f(y). Returns (ok, witness)."""
    r, lat, v = f.ring, f.lattice, f.ivalues
    leq, meet = lat.leq_i, lat.meet_i
    n = len(r)
    for i in range(n):
        for j in range(n):
            need = meet(v[i], v[j])
            if not leq(need, v[r._sub_i(i, j)]) or not leq(need, v[r.mul_i(i, j)]):
                return False, (r.elements[i], r.elements[j])
    return True, None


def is_l_subring(f: LSubset) -> bool:
    return satisfies_subring_inequalities(f)[0]


def satisfies_ideal_inequalities(nu: LSubset, mu: "LSubring") -> bool:
    """Pointwise characterization: nu <= mu, nu(x-y) >= nu(x) ^ nu(y), and
    nu(xy) >= (mu(x) ^ nu(y)) v (nu(x) ^ mu(y))."""
    if not nu.same_carrier(mu):
        raise ValidationError("carriers differ")
    r, lat = nu.ring, nu.lattice
    leq, meet, join = lat.leq_i, lat.meet_i, lat.join_i
    e, m = nu.ivalues, mu.ivalues
    n = len(r)
    if not all(leq(e[i], m[i]) for i in range(n)):
        return False
    for i in range(n):
        for j in range(n):
            if not leq(meet(e[i], e[j]), e[r._sub_i(i, j)]):
                return False
            lo = join(meet(m[i], e[j]), meet(e[i], m[j]))
            if not leq(lo, e[r.mul_i(i, j)]):
                return False
    return True


def ideal_inequality_search(mu: "LSubring", cap: int) -> list[tuple[int, ...]]:
    """Every ideal of mu by the pointwise inequalities, as index tuples in
    canonical order; it shares no code with crisp ideals, so T1.7 can set
    it against the level-cut survey.

    A depth-first search gives nu(x) a value below mu(x), one ring element
    at a time in index order and each value in rank order. Every x - y and
    xy inequality is tested at the step where the last of its three
    elements gets a value, and the first failure prunes the branch. More
    than `cap` values tried raises CapExceeded."""
    ring, lat = mu.ring, mu.lattice
    leq, meet, join = lat.leq_i, lat.meet_i, lat.join_i
    m = mu.ivalues
    n = len(ring)
    bot = lat.index(lat.bottom)
    domains = [lat.interval_i(bot, v) for v in m]  # in rank order
    # (i, j, k, is_product) with k = i - j or k = ij, filed under max(i, j, k)
    checks = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, is_product in ((ring._sub_i(i, j), False),
                                  (ring.mul_i(i, j), True)):
                checks[max(i, j, k)].append((i, j, k, is_product))
    e = [bot] * n
    found = []
    tried = 0

    def extend(t):
        nonlocal tried
        if t == n:
            found.append(tuple(e))
            return
        for v in domains[t]:
            tried += 1
            if tried > cap:
                raise CapExceeded(f"inequality search tried more than {cap} "
                                  f"values", size=tried)
            e[t] = v
            if all(leq(join(meet(m[i], e[j]), meet(e[i], m[j])) if is_product
                       else meet(e[i], e[j]), e[k])
                   for i, j, k, is_product in checks[t]):
                extend(t + 1)

    extend(0)
    return found


def level_cuts_all_ideals(nu: LSubset, mu: "LSubring") -> bool:
    """Level characterization: nu <= mu and every non-empty level cut of nu
    is a crisp ideal of the matching level subring of mu."""
    if not nu.same_carrier(mu):
        raise ValidationError("carriers differ")
    lat = nu.lattice
    leq = lat.leq_i
    if not all(leq(a, b) for a, b in zip(nu.ivalues, mu.ivalues)):
        return False
    for a in range(len(lat)):
        cut = frozenset(i for i, v in enumerate(nu.ivalues) if leq(a, v))
        if cut and cut not in _cut_subring(mu, a, strong=False)._closures(True):
            return False
    return True


def is_ideal_of(nu: LSubset, mu: "LSubring") -> bool:
    """Both characterizations, which must agree."""
    by_def = satisfies_ideal_inequalities(nu, mu)
    by_levels = level_cuts_all_ideals(nu, mu)
    if by_def != by_levels:
        raise ConsistencyError(
            f"ideal characterizations disagree on {nu!r}: "
            f"inequalities={by_def} levels={by_levels}")
    return by_def


# ---------------------------------------------------------------------------
# validated wrappers

class LSubring(LSubset):
    """An LSubset validated as an L-subring."""

    __slots__ = ()

    def __init__(self, ring, lattice, values):
        super().__init__(ring, lattice, values)
        ok, pair = satisfies_subring_inequalities(self)
        if not ok:
            raise ValidationError(
                f"not an L-subring: closure fails at pair {pair}")
        z = self.ivalues[ring.zero_i]
        if not all(lattice.leq_i(v, z) for v in self.ivalues):
            raise ConsistencyError("an L-subring must peak at zero")

    @classmethod
    def constant_top(cls, ring, lattice) -> "LSubring":
        return cls(ring, lattice, {x: lattice.top for x in ring.elements})


class LIdeal(LSubset):
    """An LSubset validated as an ideal of a given L-subring."""

    __slots__ = ("parent",)

    def __init__(self, parent: LSubring, values):
        super().__init__(parent.ring, parent.lattice, values)
        self.parent = parent
        survey = parent._survey
        if survey is not None and self.ivalues in survey.index:
            return
        if not is_ideal_of(self, parent):
            bad = next((x for x, a, b in zip(parent.ring.elements, self.ivalues,
                                             parent.ivalues)
                        if not parent.lattice.leq_i(a, b)), None)
            if bad is not None:
                raise ValidationError(
                    f"not contained in the subring: exceeds it at {bad!r}")
            raise ValidationError("not an ideal of the given L-subring")
        if survey is not None:
            raise ConsistencyError(f"{self!r} is an ideal missing from the "
                                   "survey of its subring")

    def zero_value(self) -> str:
        return self.lattice.elements[self.ivalues[self.ring.zero_i]]


# ---------------------------------------------------------------------------
# cuts

def level_cut(f: LSubset, a: str) -> frozenset[str]:
    """Elements whose value dominates a."""
    ai = f.lattice.index(a)
    leq = f.lattice.leq_i
    return frozenset(x for x, v in zip(f.ring.elements, f.ivalues) if leq(ai, v))


def strong_cut(f: LSubset, a: str) -> frozenset[str]:
    """Elements whose value strictly dominates a."""
    ai = f.lattice.index(a)
    leq = f.lattice.leq_i
    return frozenset(x for x, v in zip(f.ring.elements, f.ivalues)
                     if leq(ai, v) and v != ai)


def _cut_subring(mu: LSubset, a: int, strong: bool) -> Subring:
    """mu's strong (strict) or level cut at lattice index a as a crisp
    Subring, built once and kept on mu. Only results are kept: an empty
    cut raises ValidationError, and a cut that is not closed RingError,
    on every request."""
    memo = mu._cut_subrings
    if memo is None:
        memo = mu._cut_subrings = {}
    sub = memo.get((a, strong))
    if sub is None:
        ring, lat = mu.ring, mu.lattice
        cut = [x for x, v in zip(ring.elements, mu.ivalues)
               if lat.leq_i(a, v) and not (strong and v == a)]
        if not cut:
            raise ValidationError(f"{'strong' if strong else 'level'} cut at "
                                  f"{lat.elements[a]!r} is empty")
        sub = memo[(a, strong)] = Subring(ring, cut)
    return sub


def level_subring(mu: LSubring, a: str) -> Subring:
    """The level cut of an L-subring as a crisp Subring (valid on any
    lattice), built once per mu and level. Raises on an empty cut."""
    return _cut_subring(mu, mu.lattice.index(a), strong=False)


def strong_subring(mu: LSubring, a: str) -> Subring:
    """The strong cut of an L-subring as a crisp Subring, built once per
    mu and level. Guaranteed to be closed when the lattice is a chain; on
    other lattices closure may fail, and the RingError is raised on every
    request. Raises on an empty cut."""
    return _cut_subring(mu, mu.lattice.index(a), strong=True)


def level_cut_search(ring: FiniteRing, lattice: FiniteLattice, allowed,
                     cap: int) -> list[tuple[int, ...]]:
    """Every L-subset whose non-empty level cuts are all allowed crisp sets,
    as index tuples sorted by rank (the canonical mixed-radix order).

    An L-subset is exactly a family of cuts with C_bottom = R and
    C_(a v b) = C_a & C_b. The search walks the linear extension upward.
    An element that is the join of two lower ones has its cut forced, and
    the forced value must agree for every such pair. Any other element has
    a single lower cover, and its cut ranges over the empty set and the
    allowed sets inside the cover's cut.

    `allowed(a)` lists the allowed sets (of ring labels) at lattice index
    a; it is called once per element with a single lower cover. Forced
    cuts are not looked up: the allowed sets must be closed under these
    intersections, as crisp subrings are, and as the crisp ideals of the
    level subrings of an L-subring are. More than `cap` cut assignments
    tried raises CapExceeded."""
    leq, join = lattice.leq_i, lattice.join_i
    bot = lattice.index(lattice.bottom)
    steps = []
    for a in lattice.linext[1:]:
        below = [d for d in lattice.linext if d != a and leq(d, a)]
        pairs = [(b, c) for b, c in itertools.combinations(below, 2)
                 if join(b, c) == a]
        cover = bot
        for d in below:
            cover = join(cover, d)
        steps.append((a, pairs, cover, () if pairs else allowed(a)))

    empty = frozenset()
    cuts = {bot: frozenset(ring.elements)}
    found = []
    tried = 0

    def extend(k):
        nonlocal tried
        if k == len(steps):
            ivals = [bot] * len(ring)
            for a in lattice.linext:  # the last cut holding x is its value
                for x in cuts[a]:
                    ivals[ring.index(x)] = a
            found.append(tuple(ivals))
            return
        a, pairs, cover, options = steps[k]
        if pairs:
            b, c = pairs[0]
            tries = [cuts[b] & cuts[c]]
        else:
            tries = [empty] + [s for s in options if s <= cuts[cover]]
        for cut in tries:
            tried += 1
            if tried > cap:
                raise CapExceeded(f"level-cut search tried more than {cap} "
                                  f"cut assignments", size=tried)
            if any(cuts[b] & cuts[c] != cut for b, c in pairs[1:]):
                continue
            cuts[a] = cut
            extend(k + 1)

    extend(0)
    rank = lattice._rank
    found.sort(key=lambda v: tuple(rank[i] for i in v))
    return found


# ---------------------------------------------------------------------------
# sums and intersections

def survey_memo(mu: LSubring, key, compute):
    """compute(), kept under key in the memo of mu's ideal survey once that
    survey is built (a lookup never builds one); errors are never kept."""
    memo = {} if mu._survey is None else mu._survey.memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def sum_subsets(f: LSubset, g: LSubset) -> LSubset:
    """Pointwise join over all additive splittings:
    (f+g)(x) = v { f(y) ^ g(z) : y + z = x }."""
    if not f.same_carrier(g):
        raise ValidationError("carriers differ")
    r, lat = f.ring, f.lattice
    meet, join, sub = lat._meet, lat._join, r._sub_i  # the loop is hot
    fv, gv = f.ivalues, g.ivalues
    bot = lat.index(lat.bottom)
    n = len(r)
    out = []
    for x in range(n):
        acc = bot
        for y in range(n):
            acc = join[acc][meet[fv[y]][gv[sub(x, y)]]]
        out.append(acc)
    return LSubset._make(r, lat, tuple(out))


def sum_ideals(a: LIdeal, b: LIdeal) -> LIdeal:
    """Sum of two ideals of the same L-subring; requires equal values at
    zero (otherwise the sum need not be an ideal and the input is rejected
    rather than guessed at).

    On distributive lattices the convolution is always an ideal again. On
    non-distributive lattices it can fail to be one (joins of incomparable
    values can break the level structure); that raises a ValidationError
    naming the situation."""
    _require_one_parent((a, b))
    if a.zero_value() != b.zero_value():
        raise ValidationError(
            f"values at zero differ ({a.zero_value()} vs {b.zero_value()}); "
            "the sum is only an ideal when they agree")
    return survey_memo(a.parent, ("sum", a.ivalues, b.ivalues),
                       lambda: _sum_ideals(a, b))


def _sum_ideals(a: LIdeal, b: LIdeal) -> LIdeal:
    raw = sum_subsets(a, b)
    try:
        out = LIdeal(a.parent, raw.values)
    except ValidationError as e:
        if a.lattice.is_complete_heyting:
            raise ConsistencyError(
                f"sum of ideals failed to validate on a distributive "
                f"lattice: {e}") from e
        raise ValidationError(
            "the sum of these ideals is not an ideal on this "
            "non-distributive lattice") from e
    if not (out.contains(a) and out.contains(b)):
        raise ConsistencyError("sum does not contain its summands")
    return out


def _require_one_parent(ideals: Sequence[LIdeal]) -> None:
    """Ideals may be combined only within one L-subring: the same object,
    or one with equal values on the same carrier."""
    parent = ideals[0].parent
    for f in ideals[1:]:
        if f.parent is not parent and f.parent != parent:
            raise ValidationError("ideals of different L-subrings")


def intersect_many(fs: Sequence[LIdeal]) -> LIdeal:
    """Pointwise big-meet of a non-empty family of ideals of one L-subring,
    as an ideal of the first one's parent; a meet of ideals is always an
    ideal, so one that fails to validate raises ConsistencyError."""
    if not fs:
        raise ValidationError("empty family")
    first = fs[0]
    for f in fs[1:]:
        if not first.same_carrier(f):
            raise ValidationError("carriers differ")
    _require_one_parent(fs)
    meet = first.lattice.meet_i
    vals = list(first.ivalues)
    for f in fs[1:]:
        vals = [meet(a, b) for a, b in zip(vals, f.ivalues)]
    els = first.lattice.elements
    try:
        return LIdeal(first.parent, [els[i] for i in vals])
    except ValidationError as e:
        raise ConsistencyError(
            f"intersection of ideals failed to validate: {e}") from e
