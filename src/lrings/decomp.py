"""Primary decompositions of ideals of an L-subring over chain lattices.

The constructive route: slice the target ideal into two-level approximants
(one per consecutive pair of image values), decompose each level cut inside
the matching strong-cut subring with the crisp oracle, lift every crisp
factor back to a two-valued L-ideal, and meet with the subring. The
intersection of the lifted factors is checked to reproduce the target
exactly on every call.

Level projection goes the other way: cutting a decomposition at a lattice
element and dropping factors whose cut fills the subring yields a crisp
primary decomposition of the cut, which also powers the crisp-via-lift
bridge and the reducedness transfer.

Nothing here takes a candidate cap: the reducedness report reads prime
radicals, which build a missing ideal survey with the default cap.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ConsistencyError
from .core import (LIdeal, LSubring, ValidationError, intersect_many,
                   level_cut, level_subring, strong_cut, strong_subring)
from .radical import is_primary, prime_radical
from .rings import Subring


class DecompositionError(RuntimeError):
    """A decomposition is unavailable: hypothesis not met or no factors."""


class NoCrispDecomposition(DecompositionError):
    """The crisp oracle found no primary decomposition at some level."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


def _require_chain(lat, what):
    if not lat.is_chain:
        raise DecompositionError(f"chain lattice required for {what}")


# ---------------------------------------------------------------------------
# reducedness

class ReducednessReport:
    """Evidence for (ir)redundancy and radical distinctness of a factor
    list: redundant factor indices and colliding prime-radical pairs."""

    def __init__(self, redundant, collisions):
        self.redundant = tuple(redundant)
        self.collisions = tuple(collisions)
        self.reduced = not self.redundant and not self.collisions

    def describe(self) -> str:
        if self.reduced:
            return "reduced"
        parts = []
        if self.redundant:
            parts.append("redundant factor index(es) "
                         + ", ".join(str(i) for i in self.redundant))
        if self.collisions:
            parts.append("equal prime radicals at "
                         + ", ".join(f"({i},{j})" for i, j in self.collisions))
        return "not reduced: " + "; ".join(parts)


def reducedness_report(factors: Sequence[LIdeal]) -> ReducednessReport:
    """A factor list is reduced when no factor contains the meet of the
    others and the prime radicals of the factors are pairwise distinct."""
    mu = factors[0].parent
    redundant = []
    for i, f in enumerate(factors):
        others = [g for j, g in enumerate(factors) if j != i]
        inter = intersect_many(others) if others else mu
        if f.contains(inter):
            redundant.append(i)
    radicals = [prime_radical(f) for f in factors]
    collisions = [(i, j)
                  for i in range(len(radicals))
                  for j in range(i + 1, len(radicals))
                  if radicals[i].ivalues == radicals[j].ivalues]
    return ReducednessReport(redundant, collisions)


class Decomposition:
    """A target ideal together with primary factors whose meet is exactly
    the target. Construction re-checks both facts."""

    def __init__(self, target: LIdeal, factors: Sequence[LIdeal]):
        if not factors:
            raise DecompositionError("a decomposition needs at least one factor")
        self.target = target
        self.factors = tuple(factors)
        for f in self.factors:
            if not is_primary(f):
                raise ValidationError(f"factor {f!r} is not primary")
        if intersect_many(self.factors).ivalues != target.ivalues:
            raise ValidationError("factors do not intersect to the target")
        self._report = None

    @property
    def report(self) -> ReducednessReport:
        if self._report is None:
            self._report = reducedness_report(self.factors)
        return self._report

    @property
    def reduced(self) -> bool:
        return self.report.reduced

    def __repr__(self):
        return (f"<Decomposition of {self.target!r}: {len(self.factors)} "
                f"factor(s)>")


# ---------------------------------------------------------------------------
# lifting crisp primaries

def lift_crisp_primary(J: Iterable[str], low: str, high: str,
                       mu: LSubring) -> LIdeal:
    """Lift a crisp primary ideal J of the strong cut of mu at `low` to the
    two-valued subset (high on J, low elsewhere) and meet with mu. The
    result is a primary ideal of mu."""
    lat = mu.lattice
    _require_chain(lat, "lifting crisp primaries")
    if not lat.lt(low, high):
        raise ValidationError(f"need {low!r} strictly below {high!r}")
    carrier = strong_subring(mu, low)
    J = frozenset(J)
    if not carrier.is_primary_ideal(J):
        raise ValidationError(
            f"{sorted(J)} is not a primary ideal of the strong cut at {low!r}")
    lifted = [lat.meet(high if x in J else low, v)
              for x, v in zip(mu.ring.elements, mu.values)]
    try:
        out = LIdeal(mu, lifted)
    except ValidationError as e:
        raise ConsistencyError(f"lifted factor failed to validate: {e}") from e
    if not is_primary(out):
        raise ConsistencyError("lifted factor is not primary")
    return out


# ---------------------------------------------------------------------------
# the constructive decomposition

def decompose(eta: LIdeal) -> Decomposition:
    """Primary decomposition of an ideal over a chain lattice.

    For each consecutive pair of image values t_i > t_next, the level cut
    at t_i is decomposed inside the strong-cut subring at t_next, and
    every crisp factor is lifted to the value pair (top image value,
    t_next); that subring's search is exhaustive, so when it finds
    nothing NoCrispDecomposition is raised. Factor order: level index
    ascending, then crisp oracle order."""
    mu = eta.parent
    lat = eta.lattice
    _require_chain(lat, "primary decomposition")
    if eta.ivalues == mu.ivalues:
        raise DecompositionError(
            "the whole L-subring has no primary decomposition")

    levels = sorted(eta.image(), key=lambda a: lat._rank[lat.index(a)],
                    reverse=True)
    if len(levels) == 1:
        # a constant proper ideal is itself primary
        return Decomposition(eta, [eta])

    top_value = levels[0]
    factors = []
    for i in range(len(levels) - 1):
        t_next = levels[i + 1]
        carrier = strong_subring(mu, t_next)
        cut = level_cut(eta, levels[i])
        if cut == carrier.member_set:
            raise NoCrispDecomposition(
                f"level cut at {levels[i]!r} fills the strong-cut subring at "
                f"{t_next!r}; no proper crisp target to decompose",
                level=t_next)
        crisp = carrier.primary_decomposition(cut)
        if crisp is None:
            raise NoCrispDecomposition(
                f"no crisp primary decomposition at level {t_next!r}",
                level=t_next)
        for J in crisp:
            factors.append(lift_crisp_primary(J, t_next, top_value, mu))
    return Decomposition(eta, factors)


def reduce_factors(dec: Decomposition) -> Decomposition:
    """Convenience post-pass: greedily drop factors that the meet of the
    others already reproduces. Goes beyond the construction itself; the
    result still meets to the same target."""
    factors = list(dec.factors)
    changed = True
    while changed and len(factors) > 1:
        changed = False
        for i in range(len(factors)):
            rest = factors[:i] + factors[i + 1:]
            if intersect_many(rest).ivalues == dec.target.ivalues:
                del factors[i]
                changed = True
                break
    return Decomposition(dec.target, factors)


# ---------------------------------------------------------------------------
# level projection

def project_level(dec: Decomposition, t: str, strong: bool) -> list[frozenset]:
    """Cut every factor at t (strong or weak), drop factors whose cut fills
    the subring's cut, and return the surviving crisp primary ideals. Their
    intersection equals the cut of the target; at least one survives."""
    mu = dec.target.parent
    lat = mu.lattice
    if strong:
        _require_chain(lat, "strong-cut projection")
        cut_of, subring_of = strong_cut, strong_subring
    else:
        cut_of, subring_of = level_cut, level_subring
    target_cut = cut_of(dec.target, t)
    mu_cut = cut_of(mu, t)
    if not target_cut:
        raise DecompositionError(f"cut of the target at {t!r} is empty")
    if target_cut == mu_cut:
        raise DecompositionError(
            f"cut of the target at {t!r} equals the subring's cut")
    carrier = subring_of(mu, t)
    survivors = []
    for f in dec.factors:
        c = cut_of(f, t)
        if c == mu_cut:
            continue
        if not carrier.is_primary_ideal(c):
            raise ConsistencyError(
                f"projected factor {sorted(c)} is not primary at {t!r}")
        survivors.append(c)
    if not survivors:
        raise ConsistencyError(
            "every factor projected onto the whole subring although the "
            "target's cut is proper")
    inter = mu_cut
    for c in survivors:
        inter &= c
    if inter != target_cut:
        raise ConsistencyError("projected factors missed the target's cut")
    return survivors


def lift_reducedness(dec: Decomposition, t: str) -> bool:
    """Check reducedness of the projection at level t, requiring that no
    factor is dropped there. When the projected crisp decomposition is
    reduced, the L-valued one must be reduced too; a disagreement is an
    internal error."""
    mu = dec.target.parent
    target_cut = level_cut(dec.target, t)
    mu_cut = level_cut(mu, t)
    if not target_cut:
        raise DecompositionError(f"cut of the target at {t!r} is empty")
    if target_cut == mu_cut:
        raise DecompositionError(
            f"cut of the target at {t!r} equals the subring's cut")
    cuts = [level_cut(f, t) for f in dec.factors]
    dropped = [i for i, c in enumerate(cuts) if c == mu_cut]
    if dropped:
        raise DecompositionError(
            f"factor index(es) {dropped} project onto the whole level "
            f"subring at {t!r}; the transfer needs every factor to survive")
    carrier = level_subring(mu, t)
    crisp_reduced = True
    for i in range(len(cuts)):
        others = mu_cut
        for j, c in enumerate(cuts):
            if j != i:
                others = others & c
        if others <= cuts[i]:
            crisp_reduced = False
    crisp_radicals = [carrier.radical_of(c) for c in cuts]
    if len(set(crisp_radicals)) != len(crisp_radicals):
        crisp_reduced = False
    if crisp_reduced and not dec.reduced:
        raise ConsistencyError(
            "level decomposition is reduced but the lifted one is not")
    return crisp_reduced


# ---------------------------------------------------------------------------
# the crisp bridge

def decompose_crisp_via_lift(I: Iterable[str], J: Subring,
                             lattice) -> list[frozenset]:
    """Primary decomposition of a crisp ideal I of a subring J, computed
    the long way round: lift both to two-valued L-subsets (bottom outside,
    top inside), decompose the lifted ideal, and project at top."""
    _require_chain(lattice, "the two-valued bridge")
    if len(lattice) < 2:
        raise DecompositionError("need a chain with at least two elements")
    ring = J.ring
    I = frozenset(I)
    idx = J._require_ideal(I)
    if idx == J._members_i:
        raise ValidationError("only proper ideals can be decomposed")
    top, bot = lattice.top, lattice.bottom
    mu = LSubring(ring, lattice,
                  {x: (top if x in J.member_set else bot) for x in ring.elements})
    eta = LIdeal(mu, {x: (top if x in I else bot) for x in ring.elements})
    dec = decompose(eta)
    return project_level(dec, top, strong=False)
