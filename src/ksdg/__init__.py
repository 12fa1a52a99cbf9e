"""Upwind discontinuous-Galerkin solver for the Keller-Segel system.

The solver advances the classical chemotaxis model (cell density coupled
to a produced, diffusing chemoattractant) with a scheme that conserves
the cell mass exactly, keeps both fields nonnegative, and dissipates a
discrete free energy unconditionally.  The cell density is piecewise
constant with upwind edge fluxes driven by the jump of a regularized
chemical potential; the chemoattractant is continuous piecewise linear
with mass lumping.
"""

from .mesh import (MESH1, MESH2, HypothesesReport, MeshError, TriMesh,
                   build_structured_mesh, pattern_edge_distance,
                   verify_hypotheses)
from .fields import (ModelParams, integrate_cellfield, p1_square_integral,
                     pos_part, project_p0_to_p1_lumped, project_p1_to_p0)
from .vstep import (LinearSolveError, VStepSystem, assemble_v_system,
                    solve_v_step)
from .ustep import (MassDriftError, NewtonDivergenceError, NewtonOperator,
                    NewtonStats, PositivityError, UStepError, aupw_apply,
                    solve_u_step)
from .simulation import (DiagnosticsRow, EnergyLawError, RunResult,
                         SimState, StepFailureError, energy, energy_eps,
                         energy_law_lhs, run, simulate)
from .config import (ConfigError, PRESET_NAMES, RunConfig, dumps_config,
                     evaluate_terms, initial_fields, load_config,
                     preset_initial_conditions)
from .output import (CSV_HEADER, dump_mesh, read_diagnostics_csv,
                     write_diagnostics_csv, write_vtk_snapshot)

__version__ = "0.1.0"

__all__ = [
    "MESH1", "MESH2", "HypothesesReport", "MeshError", "TriMesh",
    "build_structured_mesh", "pattern_edge_distance", "verify_hypotheses",
    "ModelParams", "integrate_cellfield", "p1_square_integral", "pos_part",
    "project_p0_to_p1_lumped", "project_p1_to_p0",
    "LinearSolveError", "VStepSystem", "assemble_v_system", "solve_v_step",
    "MassDriftError", "NewtonDivergenceError", "NewtonOperator",
    "NewtonStats", "PositivityError", "UStepError", "aupw_apply",
    "solve_u_step",
    "DiagnosticsRow", "EnergyLawError", "RunResult", "SimState",
    "StepFailureError",
    "energy", "energy_eps", "energy_law_lhs", "run", "simulate",
    "ConfigError", "PRESET_NAMES", "RunConfig", "dumps_config",
    "evaluate_terms", "initial_fields", "load_config",
    "preset_initial_conditions",
    "CSV_HEADER", "dump_mesh", "read_diagnostics_csv",
    "write_diagnostics_csv", "write_vtk_snapshot",
]
