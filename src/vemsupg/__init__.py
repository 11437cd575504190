"""Stabilization-free SUPG virtual elements for advection-diffusion.

The library discretizes 2D advection-dominated transport on general
polygonal meshes.  The discrete diffusion form uses an enlarged-enhancement
projection of gradients whose degree increment is chosen per element by a
coercivity eigenprobe, so no artificial stabilizing term is added; a
classical stabilized scheme is included as a comparison baseline.
"""

from .assemble import (
    DofMap,
    DiscreteSolution,
    GlobalSystem,
    ReducedSystem,
    apply_dirichlet,
    assemble,
    energy_error,
    export_vtk,
    solve,
)
from .errors import (
    ElementQualityError,
    MeshError,
    MeshFormatError,
    ProbeError,
    SolveError,
)
from .forms import (
    ProblemData,
    baseline_vem_forms,
    element_coefficients,
    probe_min_ell,
    projected_gradient_gram,
    sf_forms,
    tilde_c_k,
)
from .geometry import ElementGeometry
from .harness import (
    ConvergenceReport,
    ExperimentConfig,
    generate_mesh,
    probe_table,
    run_convergence,
    run_field,
    solve_problem,
)
from .mesh import (
    PolyMesh,
    RegularityReport,
    check_regularity,
    generate_cartesian,
    generate_concave_pentagons,
    generate_voronoi,
    read_mesh,
    write_mesh,
)
from .problems import PROBLEMS, get_problem, problem_smooth, problem_test1, problem_test2
from .space import DofLayout, LocalSpace

__version__ = "0.1.0"
