import measurefde

# the public surface; a name added or removed here is added or removed on purpose
PUBLIC = [
    "AvgProblem", "AvgReport", "BoundCandidates", "EXP_WEIGHT", "EsParams",
    "EsTrace", "GronwallReport", "Integrator", "MfdeProblem", "PdeDiag",
    "ProblemBounds", "RegulatedFn", "Trajectory", "UNIFORM_WEIGHT",
    "Weight", "check_gronwall", "check_memory_bounds", "check_shift_bound",
    "compare", "error_constant", "exp_weight_candidates", "gamma_apply",
    "integrate", "linear_periodic_problem", "lyapunov_diagnostic",
    "phase_norm", "refine_ladder", "residual", "segment", "shift", "simulate",
    "sine_problem", "solve_averaged", "solve_original", "solve_picard",
    "static_map", "step", "table1_params", "tail_metrics",
    "tanh_kernel_problem", "transport_diagnostic",
]


def test_public_names_are_pinned():
    assert sorted(measurefde.__all__) == PUBLIC
    assert all(hasattr(measurefde, name) for name in PUBLIC)
