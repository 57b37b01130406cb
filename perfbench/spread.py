"""Run-to-run spread of the end-to-end metrics, runs interleaved round-robin.

    python3 perfbench/spread.py [--runs 10]

Runs run.py once per seed 1..runs on every workload of BENCHMARK.json,
rotating the workload order each round so that a slow period on the host
does not land on one workload only.  For each workload and end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json, and writes every run to .perfbench/spread-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        seed = 1 + i
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=200)
            took = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res.update(seed=seed, took_s=took)
            results[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w:13s} seed {seed:3d} {took:5.1f}s attempted={res['attempted']} "
                  f"failed={res['failed']} {vals}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':13s} {'metric':12s} {'median':>9s} {'q1':>9s} {'q3':>9s}"
          f" {'spread':>7s} {'bound':>6s}")
    for w, runs in results.items():
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (med, med, med)
            print(f"{w:13s} {metric:12s} {med:9.4g} {q1:9.4g} {q3:9.4g}"
                  f" {(q3 - q1) / med:7.3f} {bound:6.2f}")
        print(f"{w:13s} failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} repetitions, "
              f"{sum(r['took_s'] for r in runs):.0f} s")
    out = ROOT / ".perfbench" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
