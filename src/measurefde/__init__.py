"""Numerical toolkit for measure functional differential equations with
state-dependent delays: Stieltjes integration against nondecreasing
left-continuous integrators, a Picard solver with impulse support, a
periodic-averaging verification harness with an explicit error constant, and
an extremum-seeking simulator with predictor feedback."""

from .stieltjes import (Integrator, QuadConfig, GronwallReport, check_gronwall,
                        integrate, refine_ladder)
from .phase_space import (EXP_WEIGHT, UNIFORM_WEIGHT, BoundCandidates,
                          RegulatedFn, Segment, Weight, check_memory_bounds,
                          check_shift_bound, exp_weight_candidates, phase_norm,
                          segment, shift)
from .mfde import (MfdeProblem, ProblemBounds, Trajectory, check_bounds,
                   gamma_apply, residual, solve_picard, tanh_kernel_problem)
from .averaging import (AvgProblem, AvgReport, compare, error_constant,
                        linear_periodic_problem, sine_problem, solve_averaged,
                        solve_original)
from .esc import (EsParams, EsTrace, PdeDiag, lyapunov_diagnostic, simulate,
                  static_map, step, table1_params, tail_metrics,
                  transport_diagnostic)

__all__ = [
    "Integrator", "QuadConfig", "GronwallReport", "check_gronwall",
    "integrate", "refine_ladder",
    "EXP_WEIGHT", "UNIFORM_WEIGHT", "BoundCandidates", "RegulatedFn", "Segment",
    "Weight", "check_memory_bounds", "check_shift_bound",
    "exp_weight_candidates", "phase_norm",
    "segment", "shift",
    "MfdeProblem", "ProblemBounds", "Trajectory", "check_bounds", "gamma_apply",
    "residual", "solve_picard", "tanh_kernel_problem",
    "AvgProblem", "AvgReport", "compare", "error_constant",
    "linear_periodic_problem", "sine_problem", "solve_averaged",
    "solve_original",
    "EsParams", "EsTrace", "PdeDiag", "lyapunov_diagnostic", "simulate",
    "static_map", "step", "table1_params", "tail_metrics",
    "transport_diagnostic",
]
