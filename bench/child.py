"""One measurement of `lrings verify` in a fresh process.

    python3 bench/child.py [--setup-only] [--trace FILE] --report FILE
                           -- VERIFY_ARGS...

Set-up is importing `lrings` and building the workload's rings and
lattices. When it is done the child prints `ready` on its own line, so the
parent can time set-up from process start. It then runs
`lrings.cli.main(["verify", *VERIFY_ARGS, "--report", FILE])`, the code
path the CLI uses, and prints one JSON line: the exit code, `verify_s` (the
wall time of that call) and the peak resident memory of this process.

With `--trace FILE` the tracer is installed before set-up and its span tree
is written to FILE after verify returns. After verify, outside the timed
region, the crisp ideals of every ring `Zn` in the workload are compared
with the independent answer: the ideals of Z/n are dZ/n for the divisors
d of n.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _names(argv, flag):
    return [s.strip() for s in argv[argv.index(flag) + 1].split(",")
            if s.strip()]


def zn_ideals_agree(ring) -> bool:
    """Crisp ideals of the whole ring Zn, against the divisors of n."""
    from lrings.rings import Subring
    n = len(ring)
    expected = {frozenset(str(k) for k in range(0, n, d))
                for d in range(1, n + 1) if n % d == 0}
    found = Subring.whole(ring).ideals()
    return len(found) == len(expected) and set(found) == expected


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started. VmHWM belongs
    to the process image, unlike ru_maxrss, which Linux carries over from
    the parent that spawned this process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--report", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None)
    p.add_argument("verify_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    vargs = [a for a in args.verify_args if a != "--"]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    importlib.import_module("lrings")
    cli = importlib.import_module("lrings.cli")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    lattice_mod = importlib.import_module("lrings.lattice")
    rings_mod = importlib.import_module("lrings.rings")
    for name in _names(vargs, "--rings"):
        rings_mod.make_ring(name)
    for name in _names(vargs, "--lattices"):
        lattice_mod.make_lattice(name)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # keep the rings verify builds, so the ideal check reads the ideals
    # verify used (and cached) instead of enumerating them again
    built = {}
    verify_mod = importlib.import_module("lrings.verify")
    make_ring = verify_mod.make_ring

    def recording_make_ring(spec):
        ring = make_ring(spec)
        built[ring.name] = ring
        return ring
    verify_mod.make_ring = recording_make_ring

    text = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(text):
        code = cli.main(["verify", *vargs, "--report", args.report])
    verify_s = time.perf_counter() - t0
    peak_mb = peak_rss_mb()

    if tracer is not None:
        tracer.paused = True
        with open(args.trace, "w") as fh:
            json.dump(tracer.dump(), fh)
    result = {"exit": code, "verify_s": verify_s, "peak_rss_mb": peak_mb,
              "zn_ideals_ok": {
                  r: zn_ideals_agree(built.get(r) or rings_mod.make_ring(r))
                  for r in _names(vargs, "--rings")
                  if r[:1] == "Z" and r[1:].isdigit()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
