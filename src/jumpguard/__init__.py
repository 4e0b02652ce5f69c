"""jumpguard: quantum-jump trajectory simulation of monitored open systems.

Lindblad dynamics for small composite systems, unraveled into jump
trajectories with optional corrective feedback, plus entanglement measures
and reproducible scenario presets with a CSV/JSON command-line front end.
"""

__version__ = "0.1.0"

import os
import sys

# OpenBLAS threads cost CPU on this package's small matrices and save no wall time:
# load numpy with one thread unless it is loaded already or the user chose a count.
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .entanglement import (
    Measure,
    average_entanglement,
    concurrence_2q,
    entanglement_entropy,
    eof_2q,
    measure_state,
    negativity,
)
from .linalg import SpaceLayout, embed, hermitian_eigenvalues, kron, partial_trace, partial_transpose, rk4_step
from .models import (
    CascadeSpec,
    DecayChannel,
    OpenSystemModel,
    ThermalSpec,
    build_qubit_pair,
    build_qutrit_cascade,
    build_qutrit_pair,
    build_thermal_oscillator,
    evolve_master,
    lindblad_rhs,
)
from .scenarios import ScenarioConfig, ScenarioResult, run_scenario
from .trajectories import (
    FeedbackPolicy,
    JumpEvent,
    TrajectoryRecord,
    UnravelingConfig,
    apply_feedback,
    enumerate_trajectories,
    jump_step,
    no_jump_step,
    sample_density_trajectories,
    sample_trajectories,
)
