"""Command-line front door.

Subcommands: validate, compute, decompose, verify. Instance files are
JSON documents with "lattice", "ring" and "subsets" keys; see the README
for the schema. Exit codes: 0 success / all checks passed, 1 validation
or usage error (argparse's own usage errors included), 2 computation
unavailable (cap or hypothesis; for verify, any check skipped for a cap,
or no check run at all), 3 theorem failures found, or two
characterizations that must agree disagree (printed as "inconsistent:").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import CapExceeded, ConsistencyError
from .lattice import LatticeError, make_lattice
from .rings import RingError, make_ring
from .core import (LIdeal, LSubring, LSubset, ValidationError, level_cut,
                   strong_cut, sum_ideals)
from .radical import (ideal_survey, is_primary, is_prime, is_semiprime,
                      prime_radical, radical, semiprime_radical,
                      DEFAULT_CANDIDATE_CAP)
from .decomp import DecompositionError, decompose
from . import verify as verify_mod


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as _UsageError (exit 1), not SystemExit(2)."""

    def error(self, message):
        raise _UsageError(message)


def load_instance_file(path):
    """Parse an instance file into (lattice, ring, mu, named subsets, the
    name of the subset chosen as mu or None for the constant top)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise _UsageError("an instance file holds one JSON object")
    for key in ("lattice", "ring"):
        if key not in doc:
            raise _UsageError(f"instance file lacks the {key!r} key")
    lat = make_lattice(doc["lattice"])
    ring = make_ring(doc["ring"])
    named = doc.get("subsets", {})
    if not isinstance(named, dict):
        raise _UsageError("the 'subsets' key must map names to values")
    subsets = {}
    for name, mapping in named.items():
        subsets[name] = LSubset(ring, lat, mapping)
    mu_name = doc.get("mu", "mu" if "mu" in subsets else None)
    if mu_name is not None:
        if not isinstance(mu_name, str) or mu_name not in subsets:
            raise _UsageError(f"designated subring {mu_name!r} is not among "
                              "the named subsets")
        mu = LSubring(ring, lat, ivalues=subsets[mu_name].ivalues)
    else:
        mu = LSubring.constant_top(ring, lat)
    return lat, ring, mu, subsets, mu_name


def _print_subset(f) -> str:
    return " ".join(f"{x}↦{v}" for x, v in zip(f.ring.elements, f.values))


def _print_cut(ring, cut) -> str:
    ordered = [x for x in ring.elements if x in cut]
    return "{" + ", ".join(ordered) + "}"


def _get_ideal(mu, subsets, name) -> LIdeal:
    if name not in subsets:
        raise _UsageError(f"no subset named {name!r} in the instance file")
    return LIdeal(mu, ivalues=subsets[name].ivalues)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    lat, ring, mu, subsets, mu_name = load_instance_file(args.file)
    c = lat.classify()
    print(f"lattice: {len(lat)} elements, "
          f"chain={'yes' if c['is_chain'] else 'no'}, "
          f"heyting={'yes' if c['is_complete_heyting'] else 'no'}")
    print(f"ring: {ring.name}, {len(ring)} elements")
    print(f"mu: valid L-subring ({_print_subset(mu)})")
    status = 0
    for name, f in subsets.items():
        if name == mu_name:
            continue
        try:
            eta = LIdeal(mu, ivalues=f.ivalues)
        except ValidationError as e:
            print(f"{name}: NOT an ideal ({e})")
            status = 1
            continue
        print(f"{name}: ideal=yes prime={'yes' if is_prime(eta) else 'no'} "
              f"semiprime={'yes' if is_semiprime(eta) else 'no'} "
              f"primary={'yes' if is_primary(eta) else 'no'}")
    return status


def cmd_compute(args) -> int:
    lat, ring, mu, subsets, _ = load_instance_file(args.file)
    target = args.target
    if target == "cut":
        if args.at is None:
            raise _UsageError("cut needs --at LEVEL")
        eta = _get_ideal(mu, subsets, args.name)
        cut = strong_cut(eta, args.at) if args.strong else level_cut(eta, args.at)
        print(_print_cut(ring, cut))
        return 0
    if target == "sum":
        if args.other is None:
            raise _UsageError("sum needs a second ideal name")
        a = _get_ideal(mu, subsets, args.name)
        b = _get_ideal(mu, subsets, args.other)
        print(_print_subset(sum_ideals(a, b)))
        return 0
    eta = _get_ideal(mu, subsets, args.name)
    if target == "radical":
        print(_print_subset(radical(eta)))
    elif target == "prime-radical":
        ideal_survey(mu, cap=args.cap)
        print(_print_subset(prime_radical(eta)))
    else:  # semiprime-radical; argparse rejects any other target
        ideal_survey(mu, cap=args.cap)
        print(_print_subset(semiprime_radical(eta)))
    return 0


def cmd_decompose(args) -> int:
    lat, ring, mu, subsets, _ = load_instance_file(args.file)
    eta = _get_ideal(mu, subsets, args.name)
    ideal_survey(mu, cap=args.cap)  # decompose and its reducedness read it
    dec = decompose(eta)
    print(f"factors ({len(dec.factors)}):")
    for i, f in enumerate(dec.factors):
        print(f"  {i}: {_print_subset(f)}")
    print("intersection equals the target: yes")
    print(f"reduced: {'yes' if dec.reduced else 'no'}"
          + ("" if dec.reduced else f" ({dec.describe()})"))
    if args.require_reduced and not dec.reduced:
        print("error: --require-reduced set but the decomposition is not "
              "reduced", file=sys.stderr)
        return 2
    return 0


def _name_list(flag, text) -> tuple[str, ...]:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise _UsageError(f"{flag} names nothing")
    return items


def cmd_verify(args) -> int:
    if args.sample is not None and args.sample < 0:
        raise _UsageError(f"--sample must not be negative, got {args.sample}")
    ids = (None if args.theorems is None
           else _name_list("--theorems", args.theorems))
    if args.report == "":
        raise _UsageError("--report: the path is empty")
    if args.report and not os.path.isdir(os.path.dirname(args.report) or "."):
        raise _UsageError(
            f"--report: the directory of {args.report!r} does not exist")
    if args.report and os.path.isdir(args.report):
        raise _UsageError(f"--report: {args.report!r} is a directory")
    params = verify_mod.SuiteParams(
        rings=_name_list("--rings", args.rings),
        lattices=_name_list("--lattices", args.lattices),
        mu_mode=args.mu,
        sample=args.sample,
        seed=args.seed,
        cap=args.cap,
        gate=not args.no_hypothesis_gate,
    )
    try:
        result = (verify_mod.run_suite(params, ids=ids) if args.report is None
                  else _run_to_report(params, ids, args.report))
    except ValueError as e:
        raise _UsageError(str(e)) from e
    sys.stdout.write(verify_mod.render_text(result))
    return result.verdict[0]


def _run_to_report(params, ids, path):
    """run_suite with its JSON report streamed to a temporary file in the
    directory of path, renamed onto path when the run returns. On an
    exception or an interrupt the temporary file is removed, and a report
    already at path is left as it was."""
    fd, tmp = tempfile.mkstemp(prefix=".lrings-report-", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w") as fh:
            report = verify_mod.JsonReport(fh.write, params)
            result = verify_mod.run_suite(params, ids, report.record)
            report.close(result)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # as open() would have made it
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return result


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lrings",
        description="radicals and primary decompositions of ideals in "
                    "lattice-valued subrings, plus a theorem survey")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate an instance file")
    v.add_argument("file")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("compute", help="compute a radical, sum or cut")
    c.add_argument("file")
    c.add_argument("target", choices=["radical", "prime-radical",
                                      "semiprime-radical", "sum", "cut"])
    c.add_argument("name", help="ideal name from the instance file")
    c.add_argument("other", nargs="?", default=None,
                   help="second ideal name (sum only)")
    c.add_argument("--at", default=None, help="lattice element (cut only)")
    c.add_argument("--strong", action="store_true",
                   help="strong cut instead of level cut")
    c.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP)
    c.set_defaults(func=cmd_compute)

    d = sub.add_parser("decompose", help="primary decomposition of an ideal")
    d.add_argument("file")
    d.add_argument("name")
    d.add_argument("--require-reduced", action="store_true")
    d.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP)
    d.set_defaults(func=cmd_decompose)

    w = sub.add_parser("verify", help="run the theorem survey")
    w.add_argument("--rings", default="Z4,Z6")
    w.add_argument("--lattices", default="chain2,chain3")
    w.add_argument("--mu", choices=["top", "all"], default="top")
    w.add_argument("--sample", type=int, default=None,
                   help="reproducibly sample this many instances per pool "
                        "(default: check every instance)")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--theorems", default=None,
                   help="comma-separated theorem ids (default: all)")
    w.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP)
    w.add_argument("--no-hypothesis-gate", action="store_true",
                   help="exploratory mode: evaluate checks even when "
                        "hypotheses fail")
    w.add_argument("--report", default=None,
                   help="write the machine-readable JSON report here")
    w.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "cap", 0) < 0:
            raise _UsageError(f"--cap must not be negative, got {args.cap}")
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValidationError, LatticeError, RingError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CapExceeded as e:
        print(f"unavailable: {e} (try smaller carriers or raise --cap)",
              file=sys.stderr)
        return 2
    except DecompositionError as e:
        print(f"unavailable: {e}", file=sys.stderr)
        return 2
    except ConsistencyError as e:
        print(f"inconsistent: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
