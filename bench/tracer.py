"""In-process tracer for one `lrings verify` run.

Spans are recorded from the benchmark's side, around calls into each
layer's public functions; nothing inside `src/` is edited. Spans are
aggregated in memory into a calling-context tree (one node per distinct
path of traced names, so every node keeps its parent link) and written out
when the run ends. A node's self time is its total time minus the time of
its child spans.

`layer_metrics` reduces a dumped tree to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time

# traced name -> (module, function); the wrapper is installed at every
# module global bound to the function, because `verify`, `radical` and
# `decomp` bind names with `from .x import ...`
FUNCTIONS = {
    "lattice.make_lattice": ("lrings.lattice", "make_lattice"),
    "rings.make_ring": ("lrings.rings", "make_ring"),
    "core.is_l_subring": ("lrings.core", "is_l_subring"),
    "core.satisfies_ideal_inequalities":
        ("lrings.core", "satisfies_ideal_inequalities"),
    "core.level_cuts_all_ideals": ("lrings.core", "level_cuts_all_ideals"),
    "core.intersect_many": ("lrings.core", "intersect_many"),
    "core.sum_ideals": ("lrings.core", "sum_ideals"),
    "radical.ideal_survey": ("lrings.radical", "ideal_survey"),
    "radical.enumerate_family": ("lrings.radical", "enumerate_family"),
    "radical.prime_radical": ("lrings.radical", "prime_radical"),
    "radical.semiprime_radical": ("lrings.radical", "semiprime_radical"),
    "radical.radical": ("lrings.radical", "radical"),
    "radical.is_prime": ("lrings.radical", "is_prime"),
    "radical.is_semiprime": ("lrings.radical", "is_semiprime"),
    "radical.is_primary": ("lrings.radical", "is_primary"),
    "decomp.decompose": ("lrings.decomp", "decompose"),
    "decomp.project_level": ("lrings.decomp", "project_level"),
    "decomp.lift_reducedness": ("lrings.decomp", "lift_reducedness"),
    "verify.generate_instances": ("lrings.verify", "generate_instances"),
}

# traced name -> (module, class, method); wrapped on the class itself
METHODS = {
    "rings.Subring": ("lrings.rings", "Subring", "__init__"),
    "rings.ideals": ("lrings.rings", "Subring", "ideals"),
    "rings.primary_decomposition":
        ("lrings.rings", "Subring", "primary_decomposition"),
    "core.LIdeal": ("lrings.core", "LIdeal", "__init__"),
}

MODULES = ("lrings", "lrings.lattice", "lrings.rings", "lrings.core",
           "lrings.radical", "lrings.decomp", "lrings.verify", "lrings.cli",
           "lrings.fixtures")

THEOREM_PREFIX = "verify.theorem."
PREDICATES = ("radical.is_prime", "radical.is_semiprime", "radical.is_primary")


class Node:
    __slots__ = ("name", "calls", "total", "child", "children")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.children = {}

    def dump(self) -> dict:
        return {"name": self.name, "calls": self.calls,
                "total_s": self.total, "self_s": self.total - self.child,
                "children": [c.dump() for c in self.children.values()]}


class Tracer:
    """Wraps the traced names in the loaded `lrings` modules and records
    their spans into a calling-context tree rooted at `root`."""

    def __init__(self):
        self.root = Node("root")
        self.stack = [self.root]
        self.paused = False
        self.counters = {"rings.ideals.hits": 0,
                         "radical.ideal_survey.builds": 0}
        self._ideal_keys = set()

    def wrap(self, name, fn, before=None):
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            if before:
                before(args)
            stack.append(node)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                node.calls += 1
                node.total += dt
                parent.child += dt
            return out
        return traced

    # -- counters measured at the layer boundary ---------------------------

    def _ideals_before(self, args):
        sub = args[0]
        key = (id(sub.ring), sub.member_set)
        if key in self._ideal_keys:
            self.counters["rings.ideals.hits"] += 1
        else:
            self._ideal_keys.add(key)

    def _survey_before(self, args):
        if args[0]._survey is None:  # this call builds the survey
            self.counters["radical.ideal_survey.builds"] += 1

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        hooks = {"rings.ideals": self._ideals_before,
                 "radical.ideal_survey": self._survey_before}
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(mod), attr)
            wrapped = self.wrap(name, orig, hooks.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        for name, (mod, cls, meth) in METHODS.items():
            klass = getattr(importlib.import_module(mod), cls)
            setattr(klass, meth,
                    self.wrap(name, getattr(klass, meth), hooks.get(name)))
        verify = importlib.import_module("lrings.verify")
        verify.THEOREMS[:] = [
            dataclasses.replace(
                spec, check=self.wrap(THEOREM_PREFIX + spec.ident, spec.check))
            for spec in verify.THEOREMS]

    def dump(self) -> dict:
        return {"tree": self.root.dump(), "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

FIELDS = ("calls", "total_s", "self_s")


def _per_name(tree: dict) -> dict:
    """name -> {"calls", "total_s", "self_s"}; total_s counts only the
    outermost span of a name, so recursion is not double counted."""
    acc = {}

    def walk(node, active):
        for c in node["children"]:
            row = acc.setdefault(c["name"], dict.fromkeys(FIELDS, 0))
            row["calls"] += c["calls"]
            row["self_s"] += c["self_s"]
            if c["name"] not in active:
                row["total_s"] += c["total_s"]
            walk(c, active | {c["name"]})
    walk(tree, frozenset())
    return acc


# traced name -> the fields reported for it
REPORTED = {
    "core.level_cuts_all_ideals": ("calls", "self_s"),
    "rings.Subring": ("calls", "self_s"),
    "core.satisfies_ideal_inequalities": ("calls", "self_s"),
    "radical.ideal_survey": ("calls", "self_s", "total_s"),
    "core.LIdeal": ("calls", "total_s"),
    "core.intersect_many": ("calls", "self_s"),
    "core.sum_ideals": ("calls", "self_s"),
    "radical.enumerate_family": ("calls", "self_s"),
    "radical.prime_radical": ("calls", "total_s"),
    "radical.semiprime_radical": ("calls", "total_s"),
    "radical.radical": ("calls", "self_s"),
    "rings.ideals": ("calls", "self_s"),
    "rings.primary_decomposition": ("calls", "self_s"),
    "core.is_l_subring": ("calls", "self_s"),
    "decomp.decompose": ("calls", "total_s"),
    "decomp.project_level": ("total_s",),
    "decomp.lift_reducedness": ("total_s",),
}


# what a survey build does itself: judge a candidate, or build an ideal
SURVEY_WORK = ("core.satisfies_ideal_inequalities", "core.LIdeal")


def _survey_work(tree: dict) -> int:
    """Calls that `radical.ideal_survey` spans make directly to the names
    in SURVEY_WORK: on the box sweep, one judgement per candidate plus one
    construction per ideal found; on chain lattices, one construction per
    nested cut assignment. Calls nested deeper (inside `LIdeal` or the
    prime tests) are not counted."""
    total = 0
    for c in tree["children"]:
        if c["name"] == "radical.ideal_survey":
            total += sum(g["calls"] for g in c["children"]
                         if g["name"] in SURVEY_WORK)
        total += _survey_work(c)
    return total


def layer_metrics(doc: dict, theorem_ids) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a dumped trace."""
    names = _per_name(doc["tree"])
    counters = doc["counters"]

    def get(name, field):
        return names.get(name, dict.fromkeys(FIELDS, 0))[field]

    out = {}
    for name, fields in REPORTED.items():
        for field in fields:
            out[f"{name}.{field}"] = (get(name, field),
                                      "count" if field == "calls" else "s")
    out["radical.ideal_survey.builds"] = (
        counters["radical.ideal_survey.builds"], "count")
    out["radical.survey_candidates"] = (_survey_work(doc["tree"]), "count")
    calls = get("rings.ideals", "calls")
    out["rings.ideals.hit_ratio"] = (
        counters["rings.ideals.hits"] / calls if calls else 0.0, "ratio")
    out["radical.predicates.self_s"] = (
        sum(get(p, "self_s") for p in PREDICATES), "s")
    for metric, name in (("verify.generate_s", "verify.generate_instances"),
                         ("lattice.make_lattice_s", "lattice.make_lattice"),
                         ("rings.make_ring_s", "rings.make_ring")):
        out[metric] = (get(name, "total_s"), "s")
    for ident in theorem_ids:
        out[f"verify.theorem_s.{ident}"] = (
            get(THEOREM_PREFIX + ident, "total_s"), "s")
    return out


def top_self(doc: dict, n: int = 5) -> list:
    """The n traced names with the most self time, as (name, self_s)."""
    rows = sorted(((v["self_s"], k)
                   for k, v in _per_name(doc["tree"]).items()), reverse=True)
    return [(k, s) for s, k in rows[:n]]
