"""The benchmark's four workloads: CLI arguments, output checks, references.

Each workload is one `measurefde` CLI invocation.  Three of them are the
paper's fixed problems and ignore the seed; `mfde_impulse` draws its impulse
train from it.  The reduced-size variants (`small=True`) exist only for the
benchmark's own tests and keep every check except where noted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

NAMES = ("es_table1", "avg_linear", "mfde_tanh", "mfde_impulse")
DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
# key outputs must match the recorded reference to 10x the solver tolerance
REF_TOL = 1e-8
RESIDUAL_TOL = 1e-8
# criterion-1 tail bounds of the extremum-seeking run, for t >= ES_TAIL_START,
# around the table1 maximizer THETA_STAR with peak Y_STAR
THETA_STAR, Y_STAR = 8.0, 64.0
ES_TAIL_START = 150.0
ES_BOUNDS = {"theta_err": 0.35, "y_err": 0.10, "u_abs": 0.2}
AVG_SLOPE_RANGE = (0.7, 1.3)

_SIZES = {
    # name: (full, small)
    "es_table1": ({"dt": "1e-3"}, {"dt": "5e-3"}),
    "avg_linear": ({"eps": "0.2,0.1,0.05,0.025", "L": "1"},
                   {"eps": "0.2,0.1", "L": "0.5"}),
    "mfde": ({"sigma": "2", "step": "2e-3"}, {"sigma": "0.5", "step": "1e-2"}),
}

# outputs compared with the reference; the averaging slope is left to its
# range check because a 1e-8 change in the errors moves it by more than 1e-8
_MFDE_KEYS = ("mesh", "values", "post_jump_values")
REFERENCE_KEYS = {
    "es_table1": ("rows", "theta_err", "y_err", "u_abs", "min_margin",
                  "final_row", "pde_rows", "pde_alpha_mean"),
    "avg_linear": ("eps", "sup_error", "J_times_eps", "passed"),
    "mfde_tanh": _MFDE_KEYS,
    "mfde_impulse": _MFDE_KEYS,
}

# the file and column perturb() alters: a key output the reference covers
_PRIMARY = {"es_table1": "_trace.csv", "avg_linear": "_report.csv",
            "mfde_tanh": "_trajectory.csv", "mfde_impulse": "_trajectory.csv"}


def impulse_train(seed: int, sigma: float) -> str:
    """Impulses at 0.1*k +- 0.02 (k = 1 .. sigma/0.1 - 1), sizes 0.02-0.06."""
    rng = np.random.default_rng(seed)
    n = int(round(sigma / 0.1)) - 1
    times = 0.1 * np.arange(1, n + 1) + rng.uniform(-0.02, 0.02, n)
    sizes = rng.uniform(0.02, 0.06, n)
    return ",".join(f"{t:.6f}:{m:.6f}" for t, m in zip(times, sizes))


def cli_args(name: str, seed: int, small: bool, out: str) -> list[str]:
    """Arguments for `measurefde.cli.main`; outputs go to the prefix `out`."""
    if name == "es_table1":
        size = _SIZES[name][small]
        return ["es", "--preset", "table1", "--t-end", "200",
                "--dt", size["dt"], "--out", out]
    if name == "avg_linear":
        size = _SIZES[name][small]
        return ["avg", "--case", "linear", "--eps", size["eps"],
                "--L", size["L"], "--out", out]
    if name in ("mfde_tanh", "mfde_impulse"):
        size = _SIZES["mfde"][small]
        args = ["mfde", "--example", "tanh", "--sigma", size["sigma"],
                "--step", size["step"], "--out", out]
        if name == "mfde_impulse":
            args += ["--jumps", impulse_train(seed, float(size["sigma"]))]
        return args
    raise ValueError(f"unknown workload {name!r}")


def _load_csv(path: str, columns=None) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1,
                                    usecols=columns))


def _last_row(path: str) -> list[float]:
    with open(path, "rb") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - 4096))
        last = fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]
    return [float(v) for v in last.split(",")]


def _summary_results(path: str) -> dict:
    """The `# key = value` result lines of a CLI summary file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("# ") and " = " in line:
                key, value = line[2:].rstrip("\n").split(" = ", 1)
                out[key] = value
    return out


def key_outputs(name: str, out: str) -> dict:
    """The outputs a run is judged by, read back from the files it wrote."""
    if name == "es_table1":
        t, theta, y, u, margin = _load_csv(out + "_trace.csv", (0, 1, 3, 6, 10)).T
        tail = t >= ES_TAIL_START
        pde = _load_csv(out + "_pde.csv")
        return {"rows": float(len(t)),
                "theta_err": float(np.max(np.abs(theta[tail] - THETA_STAR))),
                "y_err": float(np.max(np.abs(y[tail] - Y_STAR))),
                "u_abs": float(np.max(np.abs(u[tail]))),
                "min_margin": float(np.min(margin)),
                "final_row": _last_row(out + "_trace.csv"),
                "pde_rows": float(len(pde)),
                "pde_alpha_mean": float(np.mean(pde[:, 2]))}
    if name == "avg_linear":
        rep = _load_csv(out + "_report.csv")
        return {"eps": rep[:, 0].tolist(), "sup_error": rep[:, 1].tolist(),
                "J_times_eps": rep[:, 2].tolist(), "passed": rep[:, 3].tolist(),
                "slope": float(rep[0, 4]),
                "all_passed": _summary_results(out + "_summary.txt")
                .get("all_passed") == "True"}
    traj = _load_csv(out + "_trajectory.csv")
    return {"mesh": traj[:, 0].tolist(), "values": traj[:, 1].tolist(),
            "post_jump_values": traj[:, 2].tolist(),
            "residual": float(_summary_results(out + "_summary.txt")["residual"])}


def _physical_failures(name: str, k: dict) -> list[str]:
    bad = []
    if name == "es_table1":
        for key, bound in ES_BOUNDS.items():
            if not k[key] <= bound:
                bad.append(f"{key} {k[key]:.6g} exceeds {bound}")
        if not k["min_margin"] > 0.0:
            bad.append(f"feasibility margin reached {k['min_margin']:.6g}")
    elif name == "avg_linear":
        for eps, err, bound in zip(k["eps"], k["sup_error"], k["J_times_eps"]):
            if not err <= bound:
                bad.append(f"eps {eps}: error {err:.6g} above J*eps {bound:.6g}")
        if not k["all_passed"]:
            bad.append("summary does not report all_passed")
        lo, hi = AVG_SLOPE_RANGE
        if not lo <= k["slope"] <= hi:
            bad.append(f"slope {k['slope']:.6g} outside [{lo}, {hi}]")
    elif not k["residual"] < RESIDUAL_TOL:
        bad.append(f"residual {k['residual']:.3e} not below {RESIDUAL_TOL}")
    return bad


def _differs(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return True
    return bool(np.any(np.abs(got - want) > REF_TOL * np.maximum(1.0, np.abs(want))))


def reference_key(name: str, small: bool) -> str:
    return name + ("@small" if small else "")


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check(name: str, out: str, seed: int, small: bool, reference: dict) -> list[str]:
    """Failure messages for one run's outputs; empty when the run is correct.

    The reference comparison covers every workload; for `mfde_impulse` it
    applies only to the seed the reference was recorded with.
    """
    try:
        k = key_outputs(name, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
    bad = _physical_failures(name, k)
    ref = reference.get(reference_key(name, small))
    if ref is None:
        return bad + ["no reference recorded"]
    if ref["seed"] is None or ref["seed"] == seed:
        bad += [f"{key} differs from the reference"
                for key, want in ref["outputs"].items() if _differs(k[key], want)]
    return bad


def perturb(name: str, out: str) -> None:
    """Scale one key output in the written files by 1 + 1e-6.

    Used by the benchmark's tests to show that a wrong output is caught.
    """
    path = out + _PRIMARY[name]
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-6))
    lines[-1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))


def reference_entry(name: str, outputs: dict, seed: int) -> dict:
    """What record_reference.py stores for one workload's run."""
    keys = REFERENCE_KEYS[name]
    return {"seed": seed if name == "mfde_impulse" else None,
            "outputs": {key: outputs[key] for key in keys}}
