"""Integrator evaluation and a solve far from t = 0 keep memory flat.

Each check runs in a child interpreter (this file run as a script) under a
1 GiB address-space limit, so an evaluation that allocates in proportion to
|t| fails there with MemoryError instead of exhausting the host.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

LIMIT_BYTES = 1 << 30


def _identity_at_1e6():
    import numpy as np

    from measurefde import Integrator
    g = Integrator.identity()
    assert g.value_at(1e6) == 1e6
    assert g.values_at(np.array([1e6, -1e6])).tolist() == [1e6, -1e6]


def _tanh_solve_at_1e6():
    from measurefde import solve_picard, tanh_kernel_problem
    p = tanh_kernel_problem(sigma=0.2, t0=1e6)
    _, _, delta = solve_picard(p, step=2e-3)
    assert delta <= p.tol


def _callable_density_at_1e5():
    import numpy as np

    from measurefde import Integrator
    # 1e8 Simpson nodes: 1.6 GB of nodes and weights if built in one piece
    g = Integrator(density=lambda s: np.ones_like(s))
    assert g.value_at(1e5) == pytest.approx(1e5)
    assert float(g.values_at(np.array([1e5]))[0]) == pytest.approx(1e5)


CHECKS = {"identity_at_1e6": _identity_at_1e6,
          "tanh_solve_at_1e6": _tanh_solve_at_1e6,
          "callable_density_at_1e5": _callable_density_at_1e5}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_flat_memory_under_address_space_limit(name):
    import measurefde
    src = str(Path(measurefde.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, __file__, name], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == f"{name} ok"


if __name__ == "__main__":
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    CHECKS[sys.argv[1]]()
    print(f"{sys.argv[1]} ok")
