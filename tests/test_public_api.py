import dataclasses

import pytest

import measurefde

# the public surface; a name added or removed here is added or removed on purpose
PUBLIC = [
    "AvgProblem", "AvgReport", "BoundCandidates", "EXP_WEIGHT", "EsParams",
    "EsTrace", "GronwallReport", "Integrator", "MfdeProblem", "PdeDiag",
    "ProblemBounds", "RegulatedFn", "Trajectory", "UNIFORM_WEIGHT",
    "Weight", "check_gronwall", "check_memory_bounds", "check_shift_bound",
    "compare", "error_constant", "exp_weight_candidates", "gamma_apply",
    "integrate", "linear_periodic_problem", "phase_norm", "refine_ladder",
    "residual", "segment", "shift", "simulate", "sine_problem",
    "solve_averaged", "solve_original", "solve_picard", "static_map", "step",
    "table1_params", "tail_metrics", "tanh_kernel_problem",
    "transport_diagnostic",
]

# the knobs of each config; a field added or removed here is added or
# removed on purpose
FIELDS = {
    "MfdeProblem": ["bounds", "f", "g", "history_depth", "max_iters", "phi0",
                    "rho_delay", "sigma", "t0", "tol", "weight"],
    "AvgProblem": ["L", "T", "alpha", "consts", "eps0", "f", "g_pert", "h",
                   "history_depth", "max_iters", "phi0", "rho_delay",
                   "solver_tol", "weight"],
    "EsParams": ["a", "c", "delay_fn", "delay_grad", "divergence_cap", "dt",
                 "hessian", "k_gain", "omega", "predictor_on", "t_end",
                 "theta_hat0", "theta_star", "u0", "washout", "y_star"],
}


def test_public_names_are_pinned():
    assert sorted(measurefde.__all__) == PUBLIC
    assert all(hasattr(measurefde, name) for name in PUBLIC)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_config_fields_are_pinned(name):
    cls = getattr(measurefde, name)
    assert sorted(f.name for f in dataclasses.fields(cls)) == FIELDS[name]
