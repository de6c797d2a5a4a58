"""Finite elements on closed surfaces whose motion is driven by the surface field."""

from .analysis import ErrorAccumulator, ErrorReport, compute_eoc, emit_table
from .assembly import (
    assemble_mass,
    assemble_normal_coupling,
    assemble_normal_load,
    assemble_scalar_load,
    assemble_stiffness,
    discrete_norms,
)
from .mesh import (
    SurfaceMesh,
    export_obj,
    export_surface,
    generate_icosphere,
    mesh_quality,
)
from .problems import (
    ManufacturedSphere,
    ProblemSpec,
    TumorKinetics,
    VelocityLaw,
    example1_problem,
    exact_solution,
    tumor_initial_data,
    tumor_problem,
)
from .stepper import StepperConfig, SystemState, run, step_coupled, step_dynamic

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
