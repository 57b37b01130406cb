#!/usr/bin/env python3
"""Byte-for-byte comparison of the CLI outputs of two checkouts.

    python3 scripts/same_outputs.py --parent DIR --change DIR [--work DIR]

Runs each invocation of INVOCATIONS once in each checkout, as
`python3 -m measurefde.cli ...` with the checkout's `src/` on PYTHONPATH,
in a directory of its own under the work directory (a temporary one by
default).  Every file a run writes, its stdout (kept as `stdout`) and its
exit code (kept as `exit_code`) are compared byte for byte with the other
checkout's.  Prints one line per invocation and exits 1 on any difference;
exits 2, before any run, when either directory holds no src/measurefde.

The invocations are the four benchmark workloads, with the seed-0 impulse
train, `avg --case sine`, two `integrate` runs (one with jumps and one with
a callable density alone), the tanh example from a negative t0 (the memo's
keep masks) and from t0 = 1e6 (where the solver's settled-time comparison
and the mesh-hit rule are exact float comparisons at large |t|), and a
short `table1` run with the predictor off (the uncompensated branch of
`esc.step`).  The benchmark package of neither
checkout is imported; test_scripts.py checks IMPULSE_TRAIN against it.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# perfbench/workloads.py::impulse_train(0, 2.0)
IMPULSE_TRAIN = (
    "0.105478:0.036907,0.190791:0.021133,0.281639:0.024971,0.380661:0.046825,"
    "0.512531:0.045888,0.616510:0.044615,0.704265:0.035347,0.809180:0.059888,"
    "0.901745:0.059233,1.017403:0.047422,1.112634:0.046018,1.180110:0.047538,"
    "1.314296:0.035557,1.381343:0.025404,1.509186:0.048860,1.587026:0.041014,"
    "1.714527:0.032410,1.801658:0.039433,1.891988:0.055580")
_TANH = ["mfde", "--example", "tanh", "--sigma", "2", "--step", "2e-3"]
# name -> CLI arguments; the runs that write files get "--out run"
INVOCATIONS = {
    "es_table1": ["es", "--preset", "table1", "--t-end", "200", "--dt", "1e-3",
                  "--out", "run"],
    "avg_linear": ["avg", "--case", "linear", "--eps", "0.2,0.1,0.05,0.025",
                   "--L", "1", "--out", "run"],
    "mfde_tanh": _TANH + ["--out", "run"],
    "mfde_impulse": _TANH + ["--out", "run", "--jumps", IMPULSE_TRAIN],
    "avg_sine": ["avg", "--case", "sine", "--out", "run"],
    "integrate_jumps": ["integrate", "--f", "t2", "--density", "one",
                        "--jumps", "0.25:0.5,0.7:1.5", "--from", "0", "--to", "1"],
    "integrate_density": ["integrate", "--f", "sin", "--density", "exp",
                          "--from", "-1", "--to", "2", "--levels", "5"],
    "mfde_negative_t0": ["mfde", "--t0", "-0.5", "--out", "run"],
    "mfde_large_t0": ["mfde", "--t0", "1e6", "--sigma", "0.5", "--out", "run"],
    "es_uncompensated": ["es", "--preset", "table1", "--predictor", "off",
                         "--t-end", "20", "--out", "run"],
}


def run_invocation(checkout: Path, argv: list[str], workdir: Path) -> None:
    """One CLI run of the checkout in workdir, leaving its stdout and exit
    code there as the files `stdout` and `exit_code`."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    proc = subprocess.run([sys.executable, "-m", "measurefde.cli", *argv],
                          cwd=workdir, env=env, capture_output=True)
    (workdir / "stdout").write_bytes(proc.stdout)
    (workdir / "exit_code").write_text(f"{proc.returncode}\n")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare_trees(parent: Path, change: Path) -> tuple[list[str], list[str]]:
    """(the files under both roots with the same bytes, one line for each
    file that differs or that only one root has), both sorted."""
    a, b = _files(parent), _files(change)
    same, differ = [], []
    for name in sorted(a | b):
        if name not in b:
            differ.append(f"only in parent: {name}")
        elif name not in a:
            differ.append(f"only in change: {name}")
        elif filecmp.cmp(parent / name, change / name, shallow=False):
            same.append(name)
        else:
            differ.append(f"differs: {name}")
    return same, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--work", type=Path,
                    help="empty or missing directory for the runs' outputs")
    args = ap.parse_args(argv)
    for side in ("parent", "change"):
        if not (getattr(args, side) / "src" / "measurefde").is_dir():
            ap.error(f"--{side} {getattr(args, side)} holds no src/measurefde")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        total = 0
        for name, cli_args in INVOCATIONS.items():
            for side in ("parent", "change"):
                run_invocation(getattr(args, side), cli_args, work / side / name)
            same, differ = compare_trees(work / "parent" / name, work / "change" / name)
            total += len(differ)
            print(f"{name}: {len(same)} files identical"
                  + "".join(f"\n  {line}" for line in differ))
    print("all outputs identical" if not total else f"{total} differences")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
