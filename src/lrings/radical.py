"""Prime, semiprime and primary ideals of an L-subring, and the three
radicals: the pointwise radical, the semiprime radical (meet of the
semiprime ideals above), and the prime radical (meet of the prime ideals
above, defaulting to the whole subring when there are none). All three
are ideals of the subring on every finite lattice.

Quantifiers over positive integer powers are decided exactly: the power
sequence of a ring element cycles within |R| steps, so "for some n" and
"for all n" range over a finite, fully enumerated set of values.

Every ideal of a subring is found once, by the level-cut search in core
(an L-subset is fixed by its level cuts, and by T1.7 it is an ideal exactly
when each non-empty cut is a crisp ideal of the subring's level cut). The
resulting survey lists the ideals in canonical order (mixed-radix order of
their values along the lattice's fixed linear extension), is cached on the
subring, and answers every family and radical query. Its index of values
lets LIdeal reuse the verdict both ideal characterizations gave when the
survey was built. The survey stamps each ideal with its position (`_pos`;
`mu._survey.ideals[eta._pos] is eta`). eta's family is read off its row
of the ideals above it (`core.ideals_above`) in survey order, keeping the
ideals whose own verdict of that kind is true, so only ideals above some
asked-for eta are ever classified.

Where each fact lives:
- each predicate's verdict and each of the three radicals of an ideal, on
  the ideal itself (`_prime`, `_semiprime`, `_primary`, `_rad`, `_prad`,
  `_srad`; see core.LIdeal), filled on first request and read there
  inline after that;
- the survey on the subring (`mu._survey`), and what is about all of
  its ideals on the survey (see IdealSurvey).
A failure is never kept: a primary disagreement or a family meet that
fails its check raises again on every request.

The predicates and the pointwise radical read rows of the lattice's tables
and of the ring's product and power tables, looked up outside the inner
loop. Each family meet is checked once, when it is met: a prime radical
agrees with eta at zero, and a semiprime radical equals the pointwise
radical (S = rad, proved in the README). Only the prime and semiprime
radicals and `decomp.decompose` build a survey; the pointwise radical,
cuts, sums and predicates never do. The candidate cap is taken by
`ideal_survey` alone and bounds the cut assignments its search tries; a
cached survey is never refused, so a caller that wants a cap builds the
survey with it first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .errors import ConsistencyError
from .core import (LIdeal, LSubring, LSubset, ValidationError, cuts,
                   ideals_above, intersect_many, level_cut, level_cut_search,
                   level_subring)

DEFAULT_CANDIDATE_CAP = 2_000_000


# ---------------------------------------------------------------------------
# predicates

def is_prime(eta: LIdeal) -> bool:
    """For every pair, eta(xy) ^ mu(x) ^ mu(y) equals eta(x) ^ mu(y) or
    eta(y) ^ mu(x). The whole subring is never prime."""
    verdict = eta._prime
    if verdict is None:
        verdict = eta._prime = _is_prime(eta)
    return verdict


def _is_prime(eta: LIdeal) -> bool:
    mu = eta.parent
    if eta.ivalues == mu.ivalues:
        return False
    meet = eta.lattice._meet  # the loop is hot
    e, m = eta.ivalues, mu.ivalues
    for ei, mi, mul_i in zip(e, m, eta.ring._mul):
        meet_e, meet_m = meet[ei], meet[mi]
        for ej, mj, p in zip(e, m, mul_i):
            lhs = meet[e[p]][meet_m[mj]]
            if lhs != meet_e[mj] and lhs != meet[ej][mi]:
                return False
    return True


def is_semiprime(eta: LIdeal) -> bool:
    """eta(x^n) ^ mu(x) = eta(x) for every x and every positive n."""
    verdict = eta._semiprime
    if verdict is None:
        verdict = eta._semiprime = _is_semiprime(eta)
    return verdict


def _is_semiprime(eta: LIdeal) -> bool:
    mu = eta.parent
    if eta.ivalues == mu.ivalues:
        return False
    meet = eta.lattice._meet
    e, m = eta.ivalues, mu.ivalues
    for ei, mi, powers in zip(e, m, eta.ring.powers(1)):
        meet_m = meet[mi]
        if any(meet_m[e[p]] != ei for p in powers):
            return False
    return True


def primary_by_inequalities(eta: LIdeal) -> bool:
    """Direct pointwise test: every pair satisfies one of the three primary
    conditions, with the power condition tried over all exponent pairs
    m, n > 1 (up to power-cycle length)."""
    mu = eta.parent
    if eta.ivalues == mu.ivalues:
        return False
    r, lat = eta.ring, eta.lattice
    meet, leq = lat._meet, lat._leq  # the loop is hot
    e, m = eta.ivalues, mu.ivalues
    # value sets eta(x^k) ^ mu(x) over k > 1, one per element
    high_powers = [tuple({meet[mi][e[p]] for p in powers})
                   for mi, powers in zip(m, r.powers(2))]
    for ei, mi, mul_i, high_i in zip(e, m, r._mul, high_powers):
        meet_e, meet_m = meet[ei], meet[mi]
        for ej, mj, p, high_j in zip(e, m, mul_i, high_powers):
            below = leq[meet[e[p]][meet_m[mj]]]
            if below[meet_e[mj]] or below[meet[ej][mi]]:
                continue
            if not any(below[meet[a][b]] for a in high_i for b in high_j):
                return False
    return True


def primary_by_level_cuts(eta: LIdeal) -> bool:
    """Level criterion: every non-empty level cut either equals the level
    cut of the subring or is a primary crisp ideal of it."""
    mu = eta.parent
    if eta.ivalues == mu.ivalues:
        return False
    for a, cut, mcut in zip(eta.lattice.elements, cuts(eta), cuts(mu)):
        if cut and cut != mcut and not level_subring(
                mu, a).is_primary_ideal(cut):
            return False
    return True


def is_primary(eta: LIdeal) -> bool:
    """Both characterizations, run on the first request, which must agree;
    a disagreement raises ConsistencyError on every request."""
    verdict = eta._primary
    if verdict is None:
        verdict = eta._primary = _is_primary(eta)
    return verdict


def _is_primary(eta: LIdeal) -> bool:
    by_def = primary_by_inequalities(eta)
    by_levels = primary_by_level_cuts(eta)
    if by_def != by_levels:
        raise ConsistencyError(
            f"primary characterizations disagree on {eta!r}: "
            f"inequalities={by_def} levels={by_levels}")
    return by_def


# ---------------------------------------------------------------------------
# pointwise radical

def radical(eta: LIdeal) -> LIdeal:
    """Pointwise join of eta over all powers, capped by the subring:
    (rad eta)(x) = v_n [eta(x^n) ^ mu(x)]. It is an ideal of mu on every
    finite lattice, so a result that fails to validate is an internal
    error (ConsistencyError).

    Proof sketch, using only meets and finiteness: the product inequality
    makes a_n = eta(x^n) ^ mu(x) rise with n, and the powers of x are
    eventually periodic, so the join is the eventual term a_N. Each term
    of (x - y)^(2N) holds x^k or y^k with k >= N, so eta takes at least
    rad(x) ^ rad(y) on it, and (xy)^N = x^N y^N gives rad(xy) >= mu(x) ^
    rad(y) and, symmetrically, rad(x) ^ mu(y). The README has it in full."""
    out = eta._rad
    if out is None:
        out = eta._rad = _radical(eta)
    return out


def _radical(eta: LIdeal) -> LIdeal:
    mu = eta.parent
    r, lat = eta.ring, eta.lattice
    meet, join = lat._meet, lat._join
    bot = lat._bot
    e = eta.ivalues
    out = []
    for mi, powers in zip(mu.ivalues, r.powers(1)):
        meet_m = meet[mi]
        acc = bot
        for p in powers:
            acc = join[acc][meet_m[e[p]]]
        out.append(acc)
    raw = LSubset(r, lat, ivalues=out)
    if not (mu.contains(raw) and raw.contains(eta)):
        raise ConsistencyError("radical escaped eta <= rad(eta) <= mu")
    try:
        return LIdeal._of(mu, raw.ivalues)
    except ValidationError as e:
        raise ConsistencyError(f"radical failed to be an ideal: {e}") from e


# ---------------------------------------------------------------------------
# ideal survey and family enumeration

@dataclass(frozen=True)
class IdealSurvey:
    """Every ideal of one L-subring, in canonical order.

    `index` maps each ideal's values to its position; an LIdeal whose values
    are in it skips validation, since both characterizations already agreed
    on them. What is asked of one ideal later is kept on that ideal (see
    core.LIdeal); the up-masks and T2.12's pairs are kept here, each built
    on its first request, never by the survey build."""
    ideals: tuple[LIdeal, ...]
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {v.ivalues: k for k, v
                                           in enumerate(self.ideals)})

    @cached_property
    def up_masks(self) -> tuple[tuple[int, ...], ...]:
        """up[x][a]: the bitmask of the surveyed ideals v with a <= v(x),
        for every ring index x and lattice index a (see core.ideals_above)."""
        leq = self.ideals[0].lattice._leq
        above = [[b for b, ok in enumerate(row) if ok] for row in leq]
        up = []
        for x in range(len(self.ideals[0].ring)):
            at = [0] * len(leq)  # the ideals v with v(x) = b, at b
            for k, v in enumerate(self.ideals):
                at[v.ivalues[x]] |= 1 << k
            up.append(tuple(reduce(or_, map(at.__getitem__, bs))
                            for bs in above))
        return tuple(up)

    @cached_property
    def non_semiprime_meets(self) -> frozenset[tuple[int, int]]:
        """The pairs (as positions, in survey order) of semiprime ideals
        whose meet is not semiprime."""
        semiprime = [v for v in self.ideals if is_semiprime(v)]
        return frozenset((a._pos, b._pos)
                         for a, b in itertools.combinations(semiprime, 2)
                         if not is_semiprime(intersect_many([a, b])))


def ideal_survey(mu: LSubring, cap: int = DEFAULT_CANDIDATE_CAP) -> IdealSurvey:
    """Enumerate and validate every ideal of mu once, by a level-cut search
    whose allowed cuts at a are the crisp ideals of mu's level subring at a
    (T1.7), from the same table that validates each ideal found. Building
    it may try at most `cap` cut assignments; once cached on the subring
    it is returned whatever the cap. Concurrent callers may race to fill
    the cache, but the value computed is identical either way."""
    if mu._survey is not None:
        return mu._survey
    ring, lat = mu.ring, mu.lattice

    def crisp_ideals(a):
        label = lat.elements[a]
        return level_subring(mu, label).ideals() if level_cut(mu, label) else []

    ideals = tuple(LIdeal(mu, ivalues=v)
                   for v in level_cut_search(ring, lat, crisp_ideals, cap))
    for k, eta in enumerate(ideals):
        eta._pos = k
    mu._survey = IdealSurvey(ideals)
    return mu._survey


def enumerate_family(eta: LIdeal, kind: str) -> tuple[LIdeal, ...]:
    """All prime/semiprime ideals of the parent subring containing eta, in
    canonical order: the ideals on eta's row of the parent's ideal survey
    (`core.ideals_above`) whose verdict of that kind is true."""
    if kind not in ("prime", "semiprime"):
        raise ValueError(f"kind must be 'prime' or 'semiprime', not {kind!r}")
    mu = eta.parent
    ideals = ideal_survey(mu).ideals
    if eta._pos is None:
        eta = LIdeal._of(mu, eta.ivalues)  # the survey's own object
    member = is_prime if kind == "prime" else is_semiprime
    hits = ideals_above(eta)
    out = []
    while hits:
        low = hits & -hits
        v = ideals[low.bit_length() - 1]
        if member(v):
            out.append(v)
        hits ^= low
    return tuple(out)


def _family_meet(eta: LIdeal, kind: str) -> LIdeal:
    """The meet of eta's family, the whole subring when it is empty, checked
    against a second characterization: a prime radical agrees with eta at
    zero, and a semiprime radical equals the pointwise radical."""
    members = enumerate_family(eta, kind)
    out = (intersect_many(members) if members
           else LIdeal._of(eta.parent, eta.parent.ivalues))
    if kind == "prime":
        zero = eta.ring.zero_i
        if out.ivalues[zero] != eta.ivalues[zero]:
            raise ConsistencyError("prime radical changed the value at zero")
    elif out.ivalues != radical(eta).ivalues:
        raise ConsistencyError(f"semiprime radical differs from the radical "
                               f"of {eta!r}")
    return out


def prime_radical(eta: LIdeal) -> LIdeal:
    """Meet of all prime ideals of the subring containing eta; the whole
    subring when there are none. Always an ideal, and always agrees with
    eta at zero."""
    out = eta._prad
    if out is None:
        out = eta._prad = _family_meet(eta, "prime")
    return out


def semiprime_radical(eta: LIdeal) -> LIdeal:
    """Meet of all semiprime ideals of the subring containing eta; the
    whole subring when there are none. It always equals radical(eta)."""
    out = eta._srad
    if out is None:
        out = eta._srad = _family_meet(eta, "semiprime")
    return out

