"""Finite lattices of truth values.

A lattice is described by its carrier (opaque string labels) and its full
order relation. Meet and join tables are precomputed at construction and
construction fails, naming the offending pair, if some pair has no unique
greatest lower bound or least upper bound. Finite lattices are complete,
so "complete lattice" hypotheses elsewhere are satisfied by construction.

Instances are immutable after __init__ and safe to share between threads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence


class LatticeError(ValueError):
    """The given order data does not describe a lattice, or an element
    label is unknown."""


class FiniteLattice:
    """A finite lattice over string labels with table-driven meet/join.

    The order may be given as any set of pairs whose reflexive-transitive
    closure is antisymmetric; the closure is computed here.
    """

    def __init__(self, elements: Sequence[str], leq_pairs: Iterable[tuple[str, str]],
                 name: str | None = None):
        self.elements = tuple(elements)
        self.name = name
        if len(set(self.elements)) != len(self.elements):
            raise LatticeError("duplicate element labels")
        if not self.elements:
            raise LatticeError("empty carrier")
        self._index = {a: i for i, a in enumerate(self.elements)}
        n = len(self.elements)

        rel = [[i == j for j in range(n)] for i in range(n)]
        for a, b in leq_pairs:
            rel[self._req(a)][self._req(b)] = True
        # reflexive-transitive closure (Warshall)
        for k in range(n):
            rk = rel[k]
            for i in range(n):
                if rel[i][k]:
                    ri = rel[i]
                    for j in range(n):
                        if rk[j]:
                            ri[j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if rel[i][j] and rel[j][i]:
                    raise LatticeError(
                        f"order is not antisymmetric: {self.elements[i]!r} and "
                        f"{self.elements[j]!r} are mutually comparable")
        self._leq = tuple(tuple(row) for row in rel)

        self._meet = [[0] * n for _ in range(n)]
        self._join = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                self._meet[i][j] = self._bound(i, j, lower=True)
                self._join[i][j] = self._bound(i, j, lower=False)
        self._meet = tuple(tuple(r) for r in self._meet)
        self._join = tuple(tuple(r) for r in self._join)

        bots = [i for i in range(n) if all(rel[i][j] for j in range(n))]
        tops = [i for i in range(n) if all(rel[j][i] for j in range(n))]
        # a lattice with all pairwise bounds has unique extremes
        if len(bots) != 1 or len(tops) != 1:
            raise LatticeError("no unique bottom/top element")
        self._bot, self._top = bots[0], tops[0]

        self.is_chain = all(rel[i][j] or rel[j][i]
                            for i in range(n) for j in range(i + 1, n))
        self.is_complete_heyting = self._distributive()
        if self.is_chain and not self.is_complete_heyting:
            raise AssertionError("chain failed the distributivity check")

        # fixed linear extension: by number of elements below, label tie-break
        order = sorted(range(n), key=lambda i: (sum(rel[j][i] for j in range(n)),
                                                self.elements[i]))
        self.linext = tuple(order)
        self._rank = [0] * n
        for r, i in enumerate(order):
            self._rank[i] = r
        self._rank = tuple(self._rank)

    # -- construction helpers ------------------------------------------------

    def _req(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise LatticeError(f"unknown lattice element {label!r}") from None

    def _bound(self, i: int, j: int, lower: bool) -> int:
        n = len(self.elements)
        if lower:
            cands = [k for k in range(n) if self._leq[k][i] and self._leq[k][j]]
            best = [k for k in cands if all(self._leq[c][k] for c in cands)]
        else:
            cands = [k for k in range(n) if self._leq[i][k] and self._leq[j][k]]
            best = [k for k in cands if all(self._leq[k][c] for c in cands)]
        if len(best) != 1:
            kind = "greatest lower" if lower else "least upper"
            raise LatticeError(
                f"pair ({self.elements[i]!r}, {self.elements[j]!r}) has no "
                f"unique {kind} bound")
        return best[0]

    def _distributive(self) -> bool:
        n = len(self.elements)
        for a, b, c in itertools.product(range(n), repeat=3):
            if self._meet[a][self._join[b][c]] != \
                    self._join[self._meet[a][b]][self._meet[a][c]]:
                return False
        return True

    @classmethod
    def chain(cls, labels: Sequence[str], name: str | None = None) -> "FiniteLattice":
        """Totally ordered lattice, labels listed from bottom to top."""
        pairs = [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
        return cls(labels, pairs, name=name)

    # -- queries -------------------------------------------------------------

    @property
    def bottom(self) -> str:
        return self.elements[self._bot]

    @property
    def top(self) -> str:
        return self.elements[self._top]

    def index(self, label: str) -> int:
        return self._req(label)

    def leq(self, a: str, b: str) -> bool:
        return self._leq[self._req(a)][self._req(b)]

    def lt(self, a: str, b: str) -> bool:
        """Strictly below in the partial order."""
        i, j = self._req(a), self._req(b)
        return i != j and self._leq[i][j]

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self._req(a)][self._req(b)]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self._req(a)][self._req(b)]]

    def classify(self) -> dict:
        return {"is_chain": self.is_chain,
                "is_complete_heyting": self.is_complete_heyting}

    # index-level mirrors for hot loops
    def leq_i(self, i: int, j: int) -> bool:
        return self._leq[i][j]

    def meet_i(self, i: int, j: int) -> int:
        return self._meet[i][j]

    def join_i(self, i: int, j: int) -> int:
        return self._join[i][j]

    def interval_i(self, i: int, j: int) -> list[int]:
        return [k for k in self.linext if self._leq[i][k] and self._leq[k][j]]

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        kind = "chain" if self.is_chain else "lattice"
        label = self.name or ",".join(self.elements)
        return f"<{kind} {label}>"


# named desk-scale lattices, keyed by the spellings the CLI accepts
def make_lattice(spec) -> FiniteLattice:
    """Build a lattice from a name ("chain3", "m3", "square"), a
    {"chain": [...]} shorthand, or {"elements": [...], "leq": [[a,b],...]}.
    A malformed description raises LatticeError."""
    try:
        return _lattice_from_spec(spec)
    except LatticeError:
        raise
    except (TypeError, ValueError, IndexError) as e:
        raise LatticeError(f"cannot interpret lattice description {spec!r}: "
                           f"{e}") from e


def _lattice_from_spec(spec) -> FiniteLattice:
    if isinstance(spec, str):
        low = spec.lower()
        if low.startswith("chain"):
            n = int(low[5:])
            if n < 1:
                raise LatticeError("chain size must be >= 1")
            if n == 1:
                labels = ["t"]
            elif n == 2:
                labels = ["b", "t"]
            elif n == 3:
                labels = ["b", "m", "t"]
            else:
                labels = [f"l{i}" for i in range(n)]
            return FiniteLattice.chain(labels, name=low)
        if low == "m3":
            els = ["0", "a", "b", "c", "1"]
            pairs = [("0", x) for x in els] + [(x, "1") for x in els]
            return FiniteLattice(els, pairs, name="m3")
        if low == "square":
            els = ["0", "p", "q", "1"]
            pairs = [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")]
            return FiniteLattice(els, pairs, name="square")
        raise LatticeError(f"unknown lattice name {spec!r}")
    if isinstance(spec, dict):
        if "chain" in spec:
            return FiniteLattice.chain(list(spec["chain"]))
        if "elements" in spec and "leq" in spec:
            pairs = [tuple(p) for p in spec["leq"]]
            return FiniteLattice(list(spec["elements"]), pairs)
    raise LatticeError(f"cannot interpret lattice description {spec!r}")
