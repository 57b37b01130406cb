"""Command-line front end: integrate, mfde, avg and es subcommands.

Configuration uses flat key = value files with [subcommand] section headers
and # comments; explicit command-line flags override file values, which
override the preset (es --preset table1), which overrides built-in defaults.
Every key is a --key flag with _ written as -, and the merged values meet
one set of checks wherever they came from.  Every run writes a summary that
is itself a valid config file, so feeding a summary back with --config
reproduces the run bit for bit.  Exit codes: 0 success, 1 numerical failure
(partial outputs flushed), 2 usage error (nothing written).
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import averaging, esc, mfde, stieltjes
from ._g17 import g17_rows
from .stieltjes import Integrator

# expressions usable for --f and --density (densities must be nonnegative)
EXPRESSIONS = {
    "zero": lambda s: 0.0 * np.asarray(s, dtype=float),
    "one": lambda s: np.ones_like(np.asarray(s, dtype=float)),
    "t": lambda s: np.asarray(s, dtype=float),
    "t2": lambda s: np.asarray(s, dtype=float) ** 2,
    "exp": lambda s: np.exp(np.asarray(s, dtype=float)),
    "cos2": lambda s: np.cos(np.asarray(s, dtype=float)) ** 2,
    "sin": lambda s: np.sin(np.asarray(s, dtype=float)),
}

DEFAULTS = {
    "integrate": {"f": "one", "density": "one", "jumps": "", "from": 0.0,
                  "to": 1.0, "mesh": 0.01, "levels": 6},
    "mfde": {"example": "tanh", "t0": 0.0, "sigma": 2.0, "step": 2e-3,
             "tol": 1e-9, "jumps": "", "out": "mfde_run"},
    "avg": {"case": "linear", "eps": "0.2,0.1,0.05,0.025", "L": 1.0,
            "a0": 1.0, "b0": 1.0, "phi0": 1.0, "eps0": 0.2, "out": "avg_run"},
    "es": {"preset": "", "k": 0.2, "c": 2.0, "a": 0.2, "omega": 8.0,
           "theta_star": 8.0, "y_star": 64.0, "hessian": -1.0,
           "delay": "sin5sq", "predictor": "on", "dt": 1e-3, "t_end": 200.0,
           "pde_grid": 21, "theta_hat0": 0.0, "washout": 1.0,
           "tail_start": -1.0, "out": "es_run"},
}

# the allowed values of the keys that take one of a fixed set
CHOICES = {"f": EXPRESSIONS, "density": EXPRESSIONS, "example": ("tanh",),
           "case": ("linear", "sine"), "preset": ("", "table1"),
           "predictor": ("on", "off")}

_COMMANDS = {"integrate": "Stieltjes integral with oracle ladder",
             "mfde": "solve the delay integral equation",
             "avg": "periodic averaging comparison",
             "es": "extremum-seeking simulation"}
_HELP = {"f": "integrand expression id",
         "density": "integrator density expression id",
         "jumps": "jump list t1:m1,t2:m2,...", "case": "linear | sine",
         "eps": "comma separated epsilon list", "delay": "sin5sq | const:<d>",
         "config": "key = value config file"}

# es keys that set the EsParams field of the same name, but k sets k_gain
_ES_FIELDS = {key: "k_gain" if key == "k" else key for key in DEFAULTS["es"]
              if key == "k" or key in esc.EsParams.__dataclass_fields__}


@dataclass
class RunConfig:
    subcommand: str
    params: dict = field(default_factory=dict)
    out: str = ""


class UsageError(ValueError):
    pass


@contextmanager
def _bad_arguments():
    """Inside, a ValueError comes from checking the run's arguments or
    building its problem: it is raised as a UsageError.  Only setup runs
    inside, so the typed numerical failures never pass through here."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_jumps(text: str):
    if not text:
        return ()
    out = []
    for part in text.split(","):
        try:
            t, m = part.split(":")
            out.append((float(t), float(m)))
        except ValueError as exc:
            raise UsageError(f"bad jump entry {part!r}, want t:magnitude") from exc
    return tuple(out)


def _parse_eps(text: str) -> list[float]:
    try:
        vals = [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"bad eps list {text!r}") from exc
    if not vals:
        raise UsageError("empty eps list")
    if len(set(vals)) < len(vals):
        raise UsageError(f"duplicate eps values in {text!r}")
    return vals


def _build_parser() -> argparse.ArgumentParser:
    """One --key flag per key of a subcommand, with _ written as -."""
    ap = argparse.ArgumentParser(
        prog="measurefde",
        description="Stieltjes integration, delay equation solving, periodic "
                    "averaging checks and extremum-seeking simulation")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in [*DEFAULTS[name], "config"]:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=_HELP.get(key))
    return ap


def _load_config_file(path: str, subcommand: str) -> dict:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str  # keys are case sensitive (L vs l)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config file {path!r}: {exc}") from exc
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    if not cp.has_section(subcommand):
        raise UsageError(f"config file {path!r} has no [{subcommand}] section")
    known = set(DEFAULTS[subcommand])
    out = {}
    for key, value in cp.items(subcommand):
        if key not in known:
            raise UsageError(f"unknown config key {key!r} for [{subcommand}]")
        out[key] = value
    return out


def _table1_layer() -> dict:
    """The Table-1 block as es keys, a layer of defaults for --preset table1."""
    p = esc.table1_params()
    return {key: getattr(p, name) for key, name in _ES_FIELDS.items()}


def parse_args(argv) -> RunConfig:
    """Resolve CLI flags over config-file values over the preset over
    defaults, then check every value against its default's type and the
    allowed values."""
    ns = _build_parser().parse_args(argv)
    subcommand = ns.subcommand
    given = {k: v for k, v in vars(ns).items()
             if k not in ("subcommand", "config") and v is not None}
    if ns.config:
        given = {**_load_config_file(ns.config, subcommand), **given}
    defaults = DEFAULTS[subcommand]
    preset = _table1_layer() if given.get("preset") == "table1" else {}
    merged = {**defaults, **preset, **given}
    for key, value in merged.items():
        if key in CHOICES and value not in CHOICES[key]:
            raise UsageError(f"bad value {value!r} for {key!r}; "
                             f"choose from {sorted(CHOICES[key])}")
        default = defaults[key]
        if isinstance(default, (int, float)):
            try:
                val = float(value)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad numeric value for {key!r}: "
                                 f"{value!r}") from exc
            if isinstance(default, int) and not val.is_integer():
                raise UsageError(f"{key!r} takes an integer, not {value!r}")
            merged[key] = int(val) if isinstance(default, int) else val
    out = str(merged.pop("out", ""))
    return RunConfig(subcommand=subcommand, params=merged, out=out)


def _summary_text(cfg: RunConfig, results: dict) -> str:
    """Round-trippable summary: a config section plus result comments."""
    buf = io.StringIO()
    buf.write(f"[{cfg.subcommand}]\n")
    for key, value in sorted(cfg.params.items()):
        buf.write(f"{key} = {value}\n")
    if cfg.out:
        buf.write(f"out = {cfg.out}\n")
    for key, value in results.items():
        buf.write(f"# {key} = {value}\n")
    return buf.getvalue()


def _write_summary(cfg: RunConfig, results: dict) -> None:
    with open(f"{cfg.out}_summary.txt", "w", newline="\n") as fh:
        fh.write(_summary_text(cfg, results))


# Rows stacked and turned into text per block.  On a 512-row block of the
# 11-column es trace, g17_rows peaks at about 75 bytes per value (0.42 MB,
# the returned text included; tracemalloc), against about 20 bytes of text
# per value; tests/test_blocks.py bounds it at 120.
CSV_BLOCK_ROWS = 512


def _write_csv(path: str, header: str, columns) -> None:
    """Columns as CSV rows, every value %.17g so it round-trips exactly.

    Rows are stacked and turned into text CSV_BLOCK_ROWS at a time, by a
    numpy kernel that writes the bytes "%.17g" gives, so the whole table is
    never held as text at once.
    """
    columns = [np.asarray(col) for col in columns]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            fh.write(g17_rows(np.column_stack([col[lo:lo + CSV_BLOCK_ROWS]
                                               for col in columns])))


# -- subcommand runners --------------------------------------------------------


def _run_integrate(cfg: RunConfig) -> int:
    prm = cfg.params
    a, b, panel, levels = prm["from"], prm["to"], prm["mesh"], prm["levels"]
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError("--from and --to must be finite")
    with _bad_arguments():
        g = Integrator(density=EXPRESSIONS[prm["density"]],
                       jumps=_parse_jumps(prm["jumps"]))
        if not (math.isfinite(panel) and panel > 0):
            raise ValueError("mesh must be finite and positive")
        if levels <= 0:
            raise ValueError("levels must be positive")
    f = EXPRESSIONS[prm["f"]]
    scalar_f = lambda s: float(np.asarray(f(s)))
    value = float(stieltjes.integrate(scalar_f, g, a, b, panel)[0])
    ladder = stieltjes.refine_ladder(scalar_f, g, a, b, levels)
    print(f"value,{value:.17g}")
    print("level,approximation,abs_delta")
    for lvl, approx in enumerate(ladder):
        av = float(np.asarray(approx)[0])
        print(f"{lvl},{av:.17g},{abs(av - value):.17g}")
    return 0


def _run_mfde(cfg: RunConfig) -> int:
    prm = cfg.params
    with _bad_arguments():
        problem = mfde.tanh_kernel_problem(sigma=prm["sigma"], t0=prm["t0"],
                                           tol=prm["tol"],
                                           jumps=_parse_jumps(prm["jumps"]))
        step = prm["step"]
        mfde.build_mesh(problem, step)  # a step it refuses is a usage error
    traj, iters, delta = mfde.solve_picard(problem, step=step)
    defect = mfde.residual(traj, problem)
    _write_csv(f"{cfg.out}_trajectory.csv", "t,value_0,post_jump_value_0",
               (traj.mesh, traj.values[:, 0], traj.post_jump_values[:, 0]))
    results = {"iterations": iters, "final_delta": f"{delta:.3e}",
               "residual": f"{defect:.3e}", "points": len(traj.mesh)}
    _write_summary(cfg, results)
    print(f"mfde: residual {defect:.3e} after {iters} iterations "
          f"({len(traj.mesh)} mesh points) -> {cfg.out}_trajectory.csv")
    return 0


def _avg_problem(cfg: RunConfig) -> averaging.AvgProblem:
    prm = cfg.params
    common = dict(phi_c=prm["phi0"], L=prm["L"], eps0=prm["eps0"])
    if prm["case"] == "linear":
        return averaging.linear_periodic_problem(a0=prm["a0"], b0=prm["b0"],
                                                 **common)
    return averaging.sine_problem(**common)


def _run_avg(cfg: RunConfig) -> int:
    with _bad_arguments():
        problem = _avg_problem(cfg)
    eps_list = _parse_eps(cfg.params["eps"])
    bad = [e for e in eps_list if not 0.0 < e <= problem.eps0]
    if bad:
        raise UsageError(f"eps values outside (0, {problem.eps0}]: {bad}")
    report = averaging.compare(problem, eps_list)
    rows = list(report.rows())
    _write_csv(f"{cfg.out}_report.csv", "eps,sup_error,J_times_eps,pass,slope",
               ([r[0] for r in rows], [r[1] for r in rows],
                [r[2] for r in rows], [float(r[3]) for r in rows],
                [r[4] for r in rows]))
    results = {"slope": report.slope, "J": report.theoretical_J,
               "all_passed": report.all_passed,
               "failures": report.failures or "none"}
    _write_summary(cfg, results)
    print(f"avg: slope {report.slope:.3f}, J {report.theoretical_J:.3g}, "
          f"{'all pass' if report.all_passed else 'FAILURES'} "
          f"-> {cfg.out}_report.csv")
    return 0 if not report.failures else 1


def _es_params(cfg: RunConfig) -> esc.EsParams:
    prm = cfg.params
    delay_id = prm["delay"]
    if not math.isfinite(prm["tail_start"]):
        raise UsageError("--tail-start must be finite")
    if prm["pde_grid"] < 0:
        raise UsageError("--pde-grid must be 0 (no transport view) or positive")
    with _bad_arguments():
        if delay_id == "sin5sq":
            delay_fn, delay_grad = esc.sin5sq_delay, esc.sin5sq_delay_grad
        elif delay_id.startswith("const:"):
            d0 = float(delay_id.split(":", 1)[1])
            if not 0 <= d0 < math.inf:
                raise ValueError("constant delay must be finite and nonnegative")
            delay_fn = esc.constant_delay(d0)
            delay_grad = esc.constant_delay(0.0)
        else:
            raise ValueError(f"unknown delay {delay_id!r}")
        return esc.EsParams(**{name: prm[key] for key, name in _ES_FIELDS.items()},
                            delay_fn=delay_fn, delay_grad=delay_grad,
                            predictor_on=prm["predictor"] == "on")


def _run_es(cfg: RunConfig) -> int:
    params = _es_params(cfg)
    code = 0
    try:
        trace = esc.simulate(params)
        note = ""
    except esc.FeasibilityError as err:
        trace = err.trace
        note = str(err)
        code = 1
    _write_es_outputs(cfg, params, trace, note)
    return code


def _write_es_outputs(cfg: RunConfig, params: esc.EsParams,
                      trace: esc.EsTrace, note: str) -> None:
    _write_csv(f"{cfg.out}_trace.csv",
               "t,theta,theta_hat,y,G,H_hat,U,Gamma,phi,sigma,feas_margin",
               (trace.times, trace.theta, trace.theta_hat, trace.y, trace.G,
                trace.H_hat, trace.U, trace.Gamma, trace.phi_t, trace.sigma_t,
                trace.feas_margin))
    n_x = cfg.params["pde_grid"]
    if n_x > 0 and len(trace.times) > 1:
        diag = esc.transport_diagnostic(trace, n_x=n_x)
        t_rep = np.repeat(diag.times, len(diag.x_grid))
        x_rep = np.tile(diag.x_grid, len(diag.times))
        _write_csv(f"{cfg.out}_pde.csv", "t,x,alpha",
                   (t_rep, x_rep, diag.alpha.reshape(-1)))
    results: dict = {"status": "feasibility-abort" if note else "completed"}
    if note:
        results["error"] = note
    tail_start = cfg.params["tail_start"]
    if tail_start < 0:
        tail_start = 0.75 * params.t_end
    if len(trace.times) and trace.times[-1] > tail_start:
        m = esc.tail_metrics(trace, tail_start)
        results.update(
            tail_start=tail_start,
            theta_err=f"{m['theta_err']:.6g}", y_err=f"{m['y_err']:.6g}",
            u_abs=f"{m['u_abs']:.6g}",
            converged=m["theta_err"] <= params.a + 1.0 / params.omega + 0.05)
        results["min_feas_margin"] = f"{float(np.min(trace.feas_margin)):.6g}"
    results.update(trace.flags)
    _write_summary(cfg, results)
    bits = [f"es: {results['status']}"]
    if "theta_err" in results:
        bits.append(f"tail |theta-theta*|={results['theta_err']}"
                    f" y_err={results['y_err']} (converged={results['converged']})")
    print(", ".join(bits) + f" -> {cfg.out}_trace.csv")


RUNNERS = {"integrate": _run_integrate, "mfde": _run_mfde,
           "avg": _run_avg, "es": _run_es}


def run(cfg: RunConfig) -> int:
    """Execute a resolved config; numeric failures map to exit code 1."""
    try:
        return RUNNERS[cfg.subcommand](cfg)
    except (mfde.ConvergenceError, mfde.HypothesisViolationError,
            averaging.AvgConditionError, esc.AssumptionViolationError,
            stieltjes.IntegrandError, stieltjes.IntegratorDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:               # argparse: --help or a bad flag
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
