"""Lattice-valued subsets and the L-subring / L-ideal object model.

An LSubset is a total function from a finite ring's elements into a finite
lattice. LSubring wraps a subset that is closed, value-wise, under
subtraction and multiplication; LIdeal wraps an ideal of such a subring.

Ideal validation is eager and runs two independent characterizations (the
pointwise inequalities and the everywhere-level-cut criterion); any
disagreement raises ConsistencyError because it would mean either the code
or a theorem is wrong. The pointwise inequalities and sums read rows of the
lattice and ring tables, each looked up once outside the inner loop.

Each fact that is asked again is kept on the object it is about, filled on
first request and never holding a failure:
- every L-subset keeps its table of level and strong cuts (`_cuts`); the
  level criterion builds it while validating an ideal, so the ideal keeps
  it from then on. The ring keeps one object per distinct cut set and one
  crisp subring per member set, so the level criterion, the ideal survey
  and every crisp question about a cut of mu read one table per ring and
  member set;
- every LIdeal keeps its pointwise, prime and semiprime radicals, its
  prime, semiprime and primary verdicts (`radical`), its primary
  decomposition (`decomp.decompose`) and its row of the ideals above it in
  the built survey (`ideals_above`);
- a surveyed ideal also keeps its sums and meets with the ideals at its
  own or a later survey position, each row a dict from that position to
  the result, so a pair is one entry in the row of its smaller position;
- the L-subring keeps its ideal survey (`_survey`), which keeps what is
  about all of its ideals: the up-masks behind the rows above and the
  pairs T2.12 asks for (see `radical.IdealSurvey`).
An ideal that is not a survey entry keeps its own facts in the same slots;
a sum or meet of two such ideals is computed on every request.

Once the subring's ideal survey is built, an LIdeal whose values are in it
reuses the verdict both characterizations gave then; any other values are
validated in full, and an ideal missing from the survey raises
ConsistencyError. Derived ideals (meets, sums, radicals, lifts) are built
from their index values by `LIdeal._of`. It hands back the survey's own
object for values the survey lists; only other values go through the
constructor and its full validation. The family radicals and
`decompose` build the survey before they derive anything, so what they
derive is a survey entry.

A surveyed ideal's position in its survey (`LIdeal._pos`, set only by
`radical.ideal_survey`, with `mu._survey.ideals[eta._pos] is eta`) is its
handle for order questions. Whether a surveyed ideal v contains an ideal
eta is bit v._pos of eta's row above, an int bitmask built from the
subring's up-masks: up[x][a] is the bitmask of the surveyed ideals v with
a <= v(x), and

    row(eta) = AND over x of up[x][eta(x)],

because v contains eta exactly when eta(x) <= v(x) for every x, that is,
when v is in up[x][eta(x)] for every x. A row costs |R| ANDs, and the
up-masks cost one pass over the survey per subring. Every other operand
is compared pointwise.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from functools import reduce
from operator import and_, getitem

from .errors import CapExceeded, ConsistencyError
from .lattice import FiniteLattice
from .rings import FiniteRing, Subring


class ValidationError(ValueError):
    """A subset failed the closure/ideal inequalities, carriers mismatch,
    or a value assignment is not total."""


class LSubset:
    """Total map ring elements -> lattice elements, stored by index. It is
    given either `values`, lattice labels as a mapping from ring elements
    or a list in ring order, or `ivalues`, their lattice indices in ring
    order, taken as they are. `_cuts` keeps its cut table (see `cuts`);
    `_survey` is filled only on an L-subring."""

    __slots__ = ("ring", "lattice", "ivalues", "_survey", "_cuts")

    def __init__(self, ring: FiniteRing, lattice: FiniteLattice, values=None,
                 *, ivalues: Sequence[int] | None = None):
        self.ring = ring
        self.lattice = lattice
        self._survey = self._cuts = None
        if ivalues is not None:
            self.ivalues = tuple(ivalues)
            return
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
        leq = self.lattice._leq  # the loop is hot
        return all(leq[a][b] for a, b in zip(other.ivalues, self.ivalues))

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
    leq, meet = lat._leq, lat._meet
    for i, (vi, sub_i, mul_i) in enumerate(zip(v, r._sub, r._mul)):
        # the leq row of each need f(x_i) ^ f(x_j), read at f(x_i - x_j)
        # and at f(x_i x_j)
        rows = list(map(leq.__getitem__, map(meet[vi].__getitem__, v)))
        if (all(map(getitem, rows, map(v.__getitem__, sub_i)))
                and all(map(getitem, rows, map(v.__getitem__, mul_i)))):
            continue
        for j, row in enumerate(rows):  # the first failing pair in row i
            if not row[v[sub_i[j]]] or not row[v[mul_i[j]]]:
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
    leq, meet, join = lat._leq, lat._meet, lat._join  # the loop is hot
    e, m = nu.ivalues, mu.ivalues
    if not all(leq[a][b] for a, b in zip(e, m)):
        return False
    for ei, mi, sub_i, mul_i in zip(e, m, r._sub, r._mul):
        meet_e, meet_m = meet[ei], meet[mi]
        for ej, mj, d, p in zip(e, m, sub_i, mul_i):
            if not (leq[meet_e[ej]][e[d]]
                    and leq[join[meet_m[ej]][meet_e[mj]]][e[p]]):
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
    leq, meet, join = lat._leq, lat._meet, lat._join
    m = mu.ivalues
    n = len(ring)
    bot = lat.index(lat.bottom)
    domains = [lat.interval_i(bot, v) for v in m]  # in rank order
    # (i, j, k) with k = i - j, and (meet row of mu(x), of mu(y), i, j, k)
    # with k = ij, each filed under max(i, j, k)
    subs, prods = [[] for _ in range(n)], [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k = ring._sub[i][j]
            subs[max(i, j, k)].append((i, j, k))
            k = ring._mul[i][j]
            prods[max(i, j, k)].append((meet[m[i]], meet[m[j]], i, j, k))
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
            if (all(leq[meet[e[i]][e[j]]][e[k]] for i, j, k in subs[t])
                    and all(leq[join[mi[e[j]]][mj[e[i]]]][e[k]]
                            for mi, mj, i, j, k in prods[t])):
                extend(t + 1)

    try:
        extend(0)
    finally:
        del extend  # a cycle through its own cell; free the tables now
    return found


def level_cuts_all_ideals(nu: LSubset, mu: "LSubring") -> bool:
    """Level characterization: nu <= mu and every non-empty level cut of nu
    is a crisp ideal of the matching level subring of mu. nu keeps the cut
    table this builds, so an ideal validated here never builds it again."""
    if not nu.same_carrier(mu):
        raise ValidationError("carriers differ")
    leq = nu.lattice._leq
    if not all(leq[a][b] for a, b in zip(nu.ivalues, mu.ivalues)):
        return False
    subring = mu.ring.subring  # mu's cut holds nu's, so it is not empty
    return all(not cut or subring(mcut).is_ideal(cut)
               for cut, mcut in zip(cuts(nu), cuts(mu)))


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
    """An LSubset validated as an L-subring. Labels and index values (see
    LSubset) reach the same checks."""

    __slots__ = ()

    def __init__(self, ring, lattice, values=None, *, ivalues=None):
        super().__init__(ring, lattice, values, ivalues=ivalues)
        ok, pair = satisfies_subring_inequalities(self)
        if not ok:
            raise ValidationError(
                f"not an L-subring: closure fails at pair {pair}")
        z = self.ivalues[ring.zero_i]
        if not all(lattice.leq_i(v, z) for v in self.ivalues):
            raise ConsistencyError("an L-subring must peak at zero")

    @classmethod
    def constant_top(cls, ring, lattice) -> "LSubring":
        return cls(ring, lattice, ivalues=(lattice._top,) * len(ring))


class LIdeal(LSubset):
    """An LSubset validated as an ideal of a given L-subring. Labels and
    index values (see LSubset) reach the same checks.

    `_pos` is its position in the parent's built survey when the survey
    lists this very object (`parent._survey.ideals[eta._pos] is eta`), and
    None otherwise; only `radical.ideal_survey` sets it. The other slots
    keep what is asked again about the ideal, None until first asked: its
    pointwise, prime and semiprime radicals (`_rad`, `_prad`, `_srad`), its
    prime, semiprime and primary verdicts (`_prime`, `_semiprime`,
    `_primary`), its primary decomposition (`_dec`), its row of the ideals
    above it (`_above`), and, for a survey entry, its rows of sums and
    meets (`_sums`, `_meets`)."""

    __slots__ = ("parent", "_pos", "_rad", "_prad", "_srad", "_prime",
                 "_semiprime", "_primary", "_dec", "_above", "_sums",
                 "_meets")

    def __init__(self, parent: LSubring, values=None, *, ivalues=None):
        super().__init__(parent.ring, parent.lattice, values, ivalues=ivalues)
        self.parent = parent
        self._pos = self._rad = self._prad = self._srad = None
        self._prime = self._semiprime = self._primary = self._dec = None
        self._above = self._sums = self._meets = None
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

    @classmethod
    def _of(cls, parent: LSubring, ivalues: tuple[int, ...]) -> "LIdeal":
        """The ideal of parent with these index values: the object of a
        built survey that lists them. Any other values go through the
        constructor, which validates them in full."""
        survey = parent._survey
        k = None if survey is None else survey.index.get(ivalues)
        return cls(parent, ivalues=ivalues) if k is None else survey.ideals[k]

    def contains(self, other: LSubset) -> bool:
        """Pointwise other <= self; when self is a survey entry and other
        an ideal of the same subring, a bit of other's row of the ideals
        above it."""
        k = self._pos
        if k is not None and getattr(other, "parent", None) is self.parent:
            row = other._above
            if row is None:
                row = ideals_above(other)
            return row >> k & 1 == 1
        return LSubset.contains(self, other)

    def zero_value(self) -> str:
        return self.lattice.elements[self.ivalues[self.ring.zero_i]]


# ---------------------------------------------------------------------------
# cuts

def level_cut(f: LSubset, a: str) -> frozenset[str]:
    """Elements whose value dominates a."""
    return cuts(f)[f.lattice.index(a)]


def strong_cut(f: LSubset, a: str) -> frozenset[str]:
    """Elements whose value strictly dominates a."""
    return cuts(f, strong=True)[f.lattice.index(a)]


def cuts(f: LSubset, strong: bool = False) -> tuple[frozenset[str], ...]:
    """f's level (strong) cuts, by lattice index. Both are built on the
    first request and kept on f (`f._cuts`)."""
    table = f._cuts
    if table is None:
        table = f._cuts = _cuts_of(f)
    return table[strong]


def _cuts_of(f: LSubset) -> tuple[tuple[frozenset, ...], ...]:
    keep = f.ring._cut_sets.setdefault  # one object per distinct set
    at = {}  # the ring elements taking each value
    for x, v in zip(f.ring.elements, f.ivalues):
        at.setdefault(v, []).append(x)
    levels, strongs = [], []
    for a, above in enumerate(f.lattice._leq):
        level = frozenset([x for v, xs in at.items() if above[v] for x in xs])
        strong = level.difference(at.get(a, ()))
        levels.append(keep(level, level))
        strongs.append(keep(strong, strong))
    return tuple(levels), tuple(strongs)


def _cut_subring(mu: LSubset, a: int, strong: bool) -> Subring:
    """mu's strong (strict) or level cut at lattice index a as a crisp
    Subring, from the ring's table by member set. An empty cut raises
    ValidationError, and a cut that is not closed RingError, on every
    request."""
    cut = cuts(mu, strong)[a]
    if not cut:
        raise ValidationError(f"{'strong' if strong else 'level'} cut at "
                              f"{mu.lattice.elements[a]!r} is empty")
    return mu.ring.subring(cut)


def level_subring(mu: LSubring, a: str) -> Subring:
    """The level cut of an L-subring as a crisp Subring (valid on any
    lattice), built once per ring and member set. Raises on an empty cut."""
    return _cut_subring(mu, mu.lattice.index(a), strong=False)


def strong_subring(mu: LSubring, a: str) -> Subring:
    """The strong cut of an L-subring as a crisp Subring, built once per
    ring and member set. Guaranteed to be closed when the lattice is a chain; on
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

    try:
        extend(0)
    finally:
        del extend  # a cycle through its own cell; free the tables now
    rank = lattice._rank
    found.sort(key=lambda v: tuple(rank[i] for i in v))
    return found


# ---------------------------------------------------------------------------
# sums and intersections

def ideals_above(eta: LIdeal) -> int:
    """Bitmask of the ideals of the built survey of eta's subring that
    contain eta: bit l is set when ideal l does. It is the AND of the
    survey's up-masks at eta's values (see the module docstring), kept on
    eta (`eta._above`)."""
    row = eta._above
    if row is None:
        up = eta.parent._survey.up_masks
        row = eta._above = reduce(and_, map(getitem, up, eta.ivalues))
    return row


def sum_subsets(f: LSubset, g: LSubset) -> LSubset:
    """Pointwise join over all additive splittings:
    (f+g)(x) = v { f(y) ^ g(z) : y + z = x }."""
    if not f.same_carrier(g):
        raise ValidationError("carriers differ")
    r, lat = f.ring, f.lattice
    meet, join = lat._meet, lat._join  # the loop is hot
    fv, gv = f.ivalues, g.ivalues
    bot = lat._bot
    out = []
    for sub_x in r._sub:  # x - y for every y
        acc = bot
        for fy, d in zip(fv, sub_x):
            acc = join[acc][meet[fy][gv[d]]]
        out.append(acc)
    return LSubset(r, lat, ivalues=out)


def sum_ideals(a: LIdeal, b: LIdeal) -> LIdeal:
    """Sum of two ideals of the same L-subring; requires equal values at
    zero (otherwise the sum need not be an ideal and the input is rejected
    rather than guessed at).

    On distributive lattices the convolution is always an ideal again. On
    non-distributive lattices it can fail to be one (joins of incomparable
    values can break the level structure); that raises a ValidationError
    naming the situation.

    The sum of two entries of one built survey is kept in the sum row
    (`_sums`) of the one at the smaller position, under the other
    position; sums commute. The inputs are checked only when a sum is
    computed, and a failure is never kept. Any other sum is computed on
    every request."""
    kept = _pair_row(a, b, "_sums")
    if kept is None:
        return _sum_ideals(a, b)
    row, key = kept
    out = row.get(key)
    if out is None:
        out = row[key] = _sum_ideals(a, b)
    return out


def _pair_row(a: LIdeal, b: LIdeal, slot: str):
    """The row `slot` ("_sums" or "_meets") of whichever of a and b has the
    smaller survey position, made empty on first use, and the other one's
    position: where a sum or meet of the pair is kept. None unless a and b
    are entries of one built survey."""
    k, l = a._pos, b._pos
    if k is None or l is None or a.parent is not b.parent:
        return None
    holder, key = (a, l) if k <= l else (b, k)
    row = getattr(holder, slot)
    if row is None:
        row = {}
        setattr(holder, slot, row)
    return row, key


def _require_summable(a: LIdeal, b: LIdeal) -> None:
    _require_one_parent((a, b))
    zero = a.ring.zero_i
    if a.ivalues[zero] != b.ivalues[zero]:
        raise ValidationError(
            f"values at zero differ ({a.zero_value()} vs {b.zero_value()}); "
            "the sum is only an ideal when they agree")


def _sum_ideals(a: LIdeal, b: LIdeal) -> LIdeal:
    _require_summable(a, b)
    raw = sum_subsets(a, b)
    try:
        out = LIdeal._of(a.parent, raw.ivalues)
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
    ideal, so one that fails to validate raises ConsistencyError. The meet
    of two entries of one built survey is kept in the meet row (`_meets`)
    of the one at the smaller position, under the other position."""
    kept = _pair_row(*fs, "_meets") if len(fs) == 2 else None
    if kept is None:
        return _intersect(fs)
    row, key = kept
    out = row.get(key)
    if out is None:
        out = row[key] = _intersect(fs)
    return out


def _intersect(fs: Sequence[LIdeal]) -> LIdeal:
    if not fs:
        raise ValidationError("empty family")
    first = fs[0]
    for f in fs[1:]:
        if not first.same_carrier(f):
            raise ValidationError("carriers differ")
    _require_one_parent(fs)
    meet = first.lattice._meet
    vals = first.ivalues
    for f in fs[1:]:
        vals = tuple([meet[a][b] for a, b in zip(vals, f.ivalues)])
    try:
        return LIdeal._of(first.parent, vals)
    except ValidationError as e:
        raise ConsistencyError(
            f"intersection of ideals failed to validate: {e}") from e
