"""Benchmark for `lrings verify`: time to a verdict on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`. Each
measurement is one fresh child process (`child.py`), one at a time, with
no pool. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics: `setup_s` (median over every
set-up in the run, with set-up-only probes spread between the repetitions),
`verify_s` and `peak_rss_mb` (medians over repetitions); probes and
repetitions together fill about S seconds. `--trace 1` runs verify once
untraced and once traced and reports the per-layer metrics. The workloads
are exhaustive, so `--seed` is accepted and recorded but selects nothing.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import tracer  # noqa: E402

THEOREM_IDS = (
    "T1.7 L1.4 L1.10 L1.11 T2.4 T2.6 T2.9 T2.10 T2.11 T2.12 T2.13 T2.14 "
    "T2.15 T2.16 T2.17 T2.19 T2.20 T2.21 C2.22 T2.23 T2.24 T2.25 C2.26 "
    "L3.4 L3.7 L3.8 L3.11 L3.15 T3.5 T3.9 T3.16").split()
ALL_BUT_T17 = ",".join(t for t in THEOREM_IDS if t != "T1.7")

# Each workload puts most of its time in one layer; README.md says why.
WORKLOADS = {
    "t17-box": ["--rings", "Z7", "--lattices", "chain4,m3",
                "--theorems", "T1.7"],
    "survey-box": ["--rings", "Z9", "--lattices", "m3",
                   "--theorems", ALL_BUT_T17],
    "mu-all": ["--rings", "Z6", "--lattices", "chain4", "--mu", "all",
               "--theorems", ALL_BUT_T17],
    "big-ring": ["--rings", "Z24", "--lattices", "chain2",
                 "--theorems", "L1.10,L3.4,L3.7,L3.15,T2.19,T3.5,T3.9"],
    # tiny carrier for the benchmark's own tests; not in BENCHMARK.json
    "smoke": ["--rings", "Z4", "--lattices", "chain2"],
}

PROBES_PER_REP = 8      # set-up-only children before each repetition
MIN_REPS = 2            # verify repetitions per untraced run, at least
RUN_LIMIT_S = 170       # a run that lasts longer gives up, printing no result


class ChildError(RuntimeError):
    pass


def run_child(vargs, tmp, tag, deadline, *, setup_only=False,
              trace=False) -> dict:
    """Start one child, time its set-up from spawn to its `ready` line, and
    return its result plus `setup_s`, the report bytes and the trace. The
    child is killed if it is still running at `deadline` (perf_counter)."""
    report = os.path.join(tmp, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--report", report]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", os.path.join(tmp, f"{tag}.trace.json")]
    cmd += ["--", *vargs]
    # bytecode is cached under out/ whatever the caller's environment says,
    # so set-up time never includes compiling the sources
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, env=env) as proc:
        expired = []
        watchdog = threading.Timer(max(deadline - t0, 0.0),
                                   lambda: (expired.append(True), proc.kill()))
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, err = proc.communicate()
        except BaseException:  # interrupt or SIGTERM
            proc.kill()
            proc.communicate()
            raise
        finally:
            watchdog.cancel()
    if expired:
        raise ChildError(f"{tag}: the run exceeded {RUN_LIMIT_S} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise ChildError(f"{tag}: child exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    out = {"setup_s": setup_s}
    if setup_only:
        return out
    out.update(json.loads(rest.strip().splitlines()[-1]))
    with open(report, "rb") as fh:
        out["report_bytes"] = fh.read()
    if trace:
        with open(os.path.join(tmp, f"{tag}.trace.json")) as fh:
            out["trace"] = json.load(fh)
    return out


def check_rep(rep: dict, expected: dict, first_bytes) -> list[str]:
    """Gate one repetition: exit code, report contents, byte stability
    against the run's first report, and the independent Zn ideal check."""
    out = []
    if rep["exit"] != 0:
        out.append(f"lrings verify exited {rep['exit']}")
    out += gate.problems(json.loads(rep["report_bytes"]), expected)
    if first_bytes is not None and rep["report_bytes"] != first_bytes:
        out.append("--report bytes differ between repetitions")
    for ring, ok in rep["zn_ideals_ok"].items():
        if not ok:
            out.append(f"crisp ideals of {ring} are not the dZ/n")
    return out


def measure(workload: str, seconds: float, trace: bool) -> dict:
    vargs = WORKLOADS[workload]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[workload]
    os.makedirs(OUT, exist_ok=True)
    reps, setups, issues = [], [], []
    deadline = time.perf_counter() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run_child(vargs, tmp, "warm", deadline, setup_only=True)  # pycache
        if trace:
            reps.append(run_child(vargs, tmp, "plain", deadline))
            reps.append(run_child(vargs, tmp, "traced", deadline, trace=True))
        else:
            # set-up probes are spread between the repetitions, so they
            # sample the whole run; repeat while the next round of probes
            # and repetition is expected to end in time
            start = time.perf_counter()
            while True:
                for _ in range(PROBES_PER_REP):
                    setups.append(run_child(vargs, tmp, f"setup{len(setups)}",
                                            deadline, setup_only=True)
                                  ["setup_s"])
                reps.append(run_child(vargs, tmp, f"rep{len(reps)}", deadline))
                elapsed = time.perf_counter() - start
                if (len(reps) >= MIN_REPS
                        and elapsed + elapsed / len(reps) > seconds):
                    break
    first = reps[0]["report_bytes"]
    for i, rep in enumerate(reps):
        issues += [f"rep {i}: {p}" for p in check_rep(rep, expected, first)]
    counts = [gate.totals(json.loads(r["report_bytes"])) for r in reps]
    return {"reps": reps, "setups": setups + [r["setup_s"] for r in reps],
            "issues": issues,
            "attempted": sum(sum(c.values()) for c in counts),
            "failed": sum(c["fail"] + c["skip_cap"] for c in counts),
            "last_counts": counts[-1]}


def end_to_end(m: dict) -> dict:
    reps = m["reps"]
    return {
        "setup_s": {"value": statistics.median(m["setups"]), "unit": "s"},
        "verify_s": {"value": statistics.median(r["verify_s"] for r in reps),
                     "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"]
                                                   for r in reps),
                        "unit": "MB"},
    }


def per_layer(m: dict, workload: str) -> dict:
    plain, traced = m["reps"]
    out = {k: {"value": v, "unit": u} for k, (v, u) in
           tracer.layer_metrics(traced["trace"], THEOREM_IDS).items()}
    for status in gate.STATUSES:
        out[f"verify.checks.{status}"] = {"value": m["last_counts"][status],
                                          "unit": "count"}
    out["trace.overhead_frac"] = {
        "value": traced["verify_s"] / plain["verify_s"] - 1, "unit": "ratio"}
    with open(os.path.join(OUT, f"trace-{workload}.json"), "w") as fh:
        json.dump(traced["trace"], fh, indent=1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only: every workload is exhaustive")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "lrings", "__init__.py")):
        print(f"error: no lrings sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seconds, bool(args.trace))
    except ChildError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics = per_layer(m, args.workload) if args.trace else end_to_end(m)
    for issue in m["issues"]:
        print(f"GATE: {issue}", file=sys.stderr)
    spread = [min(m["setups"]), *statistics.quantiles(m["setups"], n=4)]
    print(f"workload={args.workload} seed={args.seed} (recorded; exhaustive "
          f"workload) reps={len(m['reps'])} setups={len(m['setups'])} "
          f"setup_s_min_quartiles={[round(v, 4) for v in spread]} "
          f"verify_s={[round(r['verify_s'], 3) for r in m['reps']]}")
    if args.trace:
        top = tracer.top_self(m["reps"][1]["trace"])
        print("top self time: "
              + ", ".join(f"{k}={s:.3f}s" for k, s in top))
    print(json.dumps({"correct": not m["issues"], "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0 if not m["issues"] else 1


if __name__ == "__main__":
    sys.exit(main())
