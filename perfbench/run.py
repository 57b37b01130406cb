"""measurefde benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  Each repetition is a fresh interpreter (child.py) that imports
`measurefde.cli`, runs the workload through `cli.main`, and checks the
outputs.  Repetitions start until --seconds have passed.

--trace 0 reports the end-to-end metrics as medians over the repetitions:
  wall_s       seconds inside cli.main, output files included
  setup_s      seconds to import measurefde.cli in a fresh interpreter,
               over at least MIN_SETUP_SAMPLES interpreters
  peak_rss_mb  peak resident set of the interpreter that ran the workload
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of tracer.py, medians over the traced ones, plus
trace.overhead_frac (traced against untraced wall time).  The spans of the
last traced repetition and the metrics go to .perfbench/trace/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A repetition fails when the child exits
nonzero or its outputs miss a check (workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracer import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# a run must end within 180 s; stop starting repetitions well before that
TIME_LIMIT = 170.0
MIN_SETUP_SAMPLES = 5
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# one thread everywhere: the program is serial and the host has two cores
CHILD_ENV = {"MFDE_THREADS": "1", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def provenance() -> dict:
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": None, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_revision": None, "git_dirty": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                    "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=10)
            info["git_revision"] = rev.stdout.strip() or None
            info["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


class Runner:
    """Starts child interpreters and keeps the run inside TIME_LIMIT."""

    def __init__(self, args):
        self.args = args
        self.t_start = time.monotonic()
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(SRC)}
        self.scratch = STATE / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def child(self, workload: str | None, trace_file: Path | None = None,
              run_id: int = 0) -> dict:
        """One child interpreter; returns its JSON result or a failure entry."""
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")),
               "--src", str(SRC), "--scratch", str(self.scratch),
               "--seed", str(self.args.seed), "--run-id", str(run_id)]
        if workload is not None:
            cmd += ["--workload", workload]
        if self.args.small:
            cmd.append("--small")
        if self.args.perturb:
            cmd.append("--perturb")
        if trace_file is not None:
            cmd += ["--trace-file", str(trace_file)]
        timeout = max(1.0, TIME_LIMIT - self.elapsed())
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"failures": [f"timed out after {timeout:.0f} s"]}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"failures": [f"child exit code {proc.returncode}: "
                                 + " | ".join(tail)]}
        return json.loads(lines[-1])

    def has_time_for(self, last: float) -> bool:
        """Whether another repetition as long as the last one still fits."""
        return self.elapsed() + 1.5 * last < TIME_LIMIT


def _median(values):
    return statistics.median(values) if values else None


def _passing(reps, key):
    """The repetitions holding `key` whose outputs passed every check; all
    that hold it if none passed, so that a failed run is still reported."""
    have = [rep for rep in reps if key in rep]
    return [rep for rep in have if not rep.get("failures")] or have


def run_plain(r: Runner, workload: str) -> tuple[list[dict], dict]:
    reps = []
    while True:
        t0 = r.elapsed()
        reps.append(r.child(workload))
        if r.elapsed() >= r.args.seconds or not r.has_time_for(r.elapsed() - t0):
            break
    setups = [rep["setup_s"] for rep in reps if "setup_s" in rep]
    while len(setups) < MIN_SETUP_SAMPLES and r.has_time_for(2.0):
        extra = r.child(None)
        if "setup_s" not in extra:
            break
        setups.append(extra["setup_s"])
    timed = _passing(reps, "wall_s")
    metrics = {"wall_s": _median([rep["wall_s"] for rep in timed]),
               "setup_s": _median(setups),
               "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in timed])}
    return reps, {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END}


def trace_stem(args) -> Path:
    return STATE / "trace" / (f"{args.workload}-seed{args.seed}"
                              + ("-small" if args.small else ""))


def run_traced(r: Runner, workload: str) -> tuple[list[dict], dict]:
    spans = trace_stem(r.args).with_suffix(".npz")
    spans.parent.mkdir(parents=True, exist_ok=True)
    reps = []
    while True:
        t0 = r.elapsed()
        reps.append(r.child(workload))
        reps.append(r.child(workload, spans, run_id=len(reps)))
        if r.elapsed() >= r.args.seconds or not r.has_time_for(r.elapsed() - t0):
            break
    plain = [rep["wall_s"] for rep in _passing(reps[0::2], "wall_s")]
    traced = _passing(reps[1::2], "layers")
    metrics = {name: _median([rep["layers"][name] for rep in traced])
               for name, _unit in LAYER_METRICS if name != "trace.overhead_frac"}
    if plain and traced:
        metrics["trace.overhead_frac"] = \
            _median([rep["wall_s"] for rep in traced]) / _median(plain) - 1.0
    return reps, {name: {"value": metrics.get(name), "unit": unit}
                  for name, unit in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help="draws the impulse train of mfde_impulse; the other "
                         "workloads are the paper's fixed problems")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the benchmark's own tests only")
    ap.add_argument("--perturb", action="store_true",
                    help="alter one output before the checks (tests only)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "measurefde" / "cli.py").is_file():
        print(f"error: no measurefde sources under {SRC}", file=sys.stderr)
        return 2

    r = Runner(args)
    run = run_traced if args.trace else run_plain
    reps, metrics = run(r, args.workload)
    for n, rep in enumerate(reps):
        for msg in rep.get("failures", []):
            print(f"repetition {n} failed: {msg}", file=sys.stderr)
    if any(m["value"] is None for m in metrics.values()):
        print("error: no repetition produced measurements", file=sys.stderr)
        return 1
    failed = sum(1 for rep in reps if rep.get("failures"))
    prov = provenance()
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    if args.trace:
        with open(trace_stem(args).with_suffix(".json"), "w") as fh:
            json.dump({**result, "seed": args.seed, "provenance": prov,
                       "repetitions": reps}, fh, indent=1)
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
