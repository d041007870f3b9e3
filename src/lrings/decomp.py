"""Primary decompositions of ideals of an L-subring over chain lattices.

The constructive route: slice the target ideal into two-level approximants
(one per consecutive pair of image values), decompose each level cut inside
the matching strong-cut subring with the crisp oracle, lift every crisp
factor back to a two-valued L-ideal, and meet with the subring. The
intersection of the lifted factors is checked to reproduce the target
exactly on every call.

Level projection goes the other way: cutting a decomposition at a lattice
element and dropping factors whose cut fills the subring yields a crisp
primary decomposition of the cut, which also powers the reducedness
transfer.

Nothing here takes a candidate cap: `decompose` reads the subring's ideal
survey, and builds a missing one with the default cap, as the prime
radicals that a decomposition's reducedness evidence reads do. Each ideal
keeps its decomposition (`_dec`), never a failure.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ConsistencyError
from .core import (LIdeal, LSubring, ValidationError, intersect_many,
                   level_cut, level_subring, strong_cut, strong_subring)
from .radical import ideal_survey, is_primary, prime_radical


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


class Decomposition:
    """A target ideal together with primary factors whose meet is exactly
    the target. Construction re-checks both facts. The reducedness
    evidence (`redundant`, `collisions`) is computed on first request and
    kept on the decomposition; a failure is never kept."""

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

    @cached_property
    def redundant(self) -> tuple[int, ...]:
        """Indices of the factors that contain the meet of the others."""
        fs = self.factors
        if len(fs) == 1:  # the meet of no others is the whole subring
            return (0,) if fs[0].contains(self.target.parent) else ()
        return tuple(i for i, f in enumerate(fs)
                     if f.contains(intersect_many(fs[:i] + fs[i + 1:])))

    @cached_property
    def collisions(self) -> tuple[tuple[int, int], ...]:
        """Index pairs of factors with equal prime radicals."""
        radicals = [prime_radical(f).ivalues for f in self.factors]
        return tuple((i, j) for i, j in
                     itertools.combinations(range(len(radicals)), 2)
                     if radicals[i] == radicals[j])

    @property
    def reduced(self) -> bool:
        """No factor contains the meet of the others, and the factors'
        prime radicals are pairwise distinct."""
        return not self.redundant and not self.collisions

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
    hi, lo, meet = lat.index(high), lat.index(low), lat.meet_i
    lifted = tuple(meet(hi if x in J else lo, v)
                   for x, v in zip(mu.ring.elements, mu.ivalues))
    try:
        out = LIdeal._of(mu, lifted)
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
    ascending, then crisp oracle order. The subring's survey is built
    first, so every lift and the factors' meet are survey entries; eta
    keeps the decomposition (`eta._dec`), never a failure."""
    if eta._dec is not None:
        return eta._dec
    mu = eta.parent
    lat = eta.lattice
    _require_chain(lat, "primary decomposition")
    if eta.ivalues == mu.ivalues:
        raise DecompositionError(
            "the whole L-subring has no primary decomposition")
    ideal_survey(mu)

    levels = sorted(eta.image(), key=lambda a: lat._rank[lat.index(a)],
                    reverse=True)
    top_value = levels[0]
    # a constant proper ideal is itself primary
    factors = [eta] if len(levels) == 1 else []
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
    eta._dec = Decomposition(eta, factors)
    return eta._dec


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

def _proper_cut(dec: Decomposition, t: str, cut_of) -> tuple:
    """The target's and the subring's cuts at t (cut_of is level_cut or
    strong_cut); DecompositionError unless the target's is a non-empty
    proper part of the subring's."""
    target_cut, mu_cut = cut_of(dec.target, t), cut_of(dec.target.parent, t)
    if not target_cut:
        raise DecompositionError(f"cut of the target at {t!r} is empty")
    if target_cut == mu_cut:
        raise DecompositionError(
            f"cut of the target at {t!r} equals the subring's cut")
    return target_cut, mu_cut


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
    target_cut, mu_cut = _proper_cut(dec, t, cut_of)
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
    _, mu_cut = _proper_cut(dec, t, level_cut)
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

