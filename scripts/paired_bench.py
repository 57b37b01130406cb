#!/usr/bin/env python3
"""Interleaved benchmark runs of two checkouts, parent against change.

    python3 scripts/paired_bench.py --parent DIR --change DIR [--workload W] \\
        [--pairs 10] [--seed 0]

Each pair runs the benchmark command of the parent's BENCHMARK.json with
`--workload W --seed N --seconds S --trace 0`, S its run_seconds, once in
each checkout, as a subprocess with the checkout as its working directory,
one run at a time; the side that runs first alternates from pair to pair.
Without --workload, every workload of that file is run in turn, in its
order.  The end-to-end metrics and the direction in which each is better
come from the same file.

Prints one markdown table, one row per workload and metric: the median
[Q1, Q3] of each side, the change/parent ratio of the medians, the number
of pairs in which the change reads better (ties count for neither side),
the number of runs of that workload that failed on either side, and a
verdict from the metric's bound, the first that holds of:

  gain           better in >= 9/10 of the pairs, and the medians differ by
                 more than the parent's interquartile range (IQR)
  regression     the change's median worse than the parent's by more than
                 bound * the parent's median
  unresolved     the parent's IQR above bound * its median, and not every
                 change run better than every parent run
  no regression  otherwise

Exits 1 if any run failed.  Refuses the pair with exit 2, before any run,
when a regular file under the `paths` of the parent's BENCHMARK.json
(`__pycache__` aside) differs between the two checkouts or exists in one
only: a gain is claimed on identical benchmark code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated linearly between the order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def _verdict(bound: float, lower: bool, better: int, pairs: int,
             p_vals: list[float], c_vals: list[float]) -> str:
    """The reading of one metric, as listed in the module docstring."""
    (p1, p_med, p3), c_med = _quartiles(p_vals), _quartiles(c_vals)[1]
    gain = p_med - c_med if lower else c_med - p_med
    if pairs and better >= 0.9 * pairs and gain > p3 - p1:
        return "gain"
    if -gain > bound * abs(p_med):
        return "regression"
    beats_all = max(c_vals) < min(p_vals) if lower else min(c_vals) > max(p_vals)
    if p3 - p1 > bound * abs(p_med) and not beats_all:
        return "unresolved"
    return "no regression"


def summarize(metrics: list[dict], parent: list[dict | None],
              change: list[dict | None]) -> list[dict]:
    """One summary per metric of BENCHMARK.json's end_to_end list.

    parent[i] and change[i] are the metric values of pair i, name -> value,
    or None for a run that failed; a failed run is left out of the medians
    and its pair out of the count of pairs the change is better in.
    """
    failed = sum(run is None for run in parent + change)
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if p is not None and c is not None]
        p_vals = [run[name] for run in parent if run is not None]
        c_vals = [run[name] for run in change if run is not None]
        better = sum((c < p) if lower else (c > p) for p, c in pairs)
        row = {"metric": name, "unit": m["unit"], "pairs": len(pairs),
               "better": better, "failed": failed, "parent": None,
               "change": None, "ratio": None, "verdict": None}
        if p_vals and c_vals:
            row["parent"], row["change"] = _quartiles(p_vals), _quartiles(c_vals)
            row["ratio"] = row["change"][1] / row["parent"][1]
            row["verdict"] = _verdict(m["bound"], lower, better, len(pairs),
                                      p_vals, c_vals)
        rows.append(row)
    return rows


def _fmt(q, unit: str) -> str:
    if q is None:
        return "-"
    digits = 3 if unit == "s" else 2
    q1, med, q3 = q
    return f"{med:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def tables(results: list[tuple[str, list[dict]]]) -> str:
    """One markdown table of the summary rows of each (workload, rows)."""
    lines = ["| workload | metric | parent | change | change/parent "
             "| change better in | failed | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for workload, rows in results:
        for r in rows:
            ratio = "-" if r["ratio"] is None else f"{100.0 * (r['ratio'] - 1.0):+.1f} %"
            lines.append(f"| {workload} | {r['metric']} | {_fmt(r['parent'], r['unit'])} "
                         f"| {_fmt(r['change'], r['unit'])} | {ratio} "
                         f"| {r['better']}/{r['pairs']} | {r['failed']} "
                         f"| {r['verdict'] or '-'} |")
    return "\n".join(lines)


def table(workload: str, rows: list[dict]) -> str:
    """The table of one workload's summary rows."""
    return tables([(workload, rows)])


def workload_names(spec: dict, workload: str | None) -> list[str]:
    """The workload given, or else every workload of the spec in its order."""
    return [workload] if workload else [w["name"] for w in spec["workloads"]]


def benchmark_files(checkout: Path, paths: list[str]) -> dict[str, bytes]:
    """The regular files under the given paths of a checkout, outside
    __pycache__, as relative path -> content."""
    files = {}
    for top in paths:
        root = checkout / top
        for path in [root] if root.is_file() else sorted(root.rglob("*")):
            rel = path.relative_to(checkout)
            if path.is_file() and "__pycache__" not in rel.parts:
                files[rel.as_posix()] = path.read_bytes()
    return files


def benchmark_differences(parent: Path, change: Path, paths: list[str]) -> list[str]:
    """The files under paths that differ between the checkouts or that only
    one of them has."""
    a, b = benchmark_files(parent, paths), benchmark_files(change, paths)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def run_once(checkout: Path, spec: dict, workload: str, args) -> dict | None:
    """The end-to-end metrics of one benchmark run, or None if it failed."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(args.seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if result["failed"]:
        print(f"{checkout}: {result['failed']} of {result['attempted']} "
              "repetitions failed", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    differ = benchmark_differences(args.parent, args.change, spec["paths"])
    if differ:
        print("refused: the benchmark differs between the checkouts in "
              + ", ".join(differ), file=sys.stderr)
        return 2
    results, failed = [], False
    for workload in workload_names(spec, args.workload):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), spec, workload, args))
            print(f"{workload}: pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)
        results.append((workload, summarize(spec["end_to_end"], runs["parent"],
                                            runs["change"])))
        failed = failed or None in runs["parent"] + runs["change"]
    print(tables(results))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
