"""fermion5d: Cl(3,2) wave mechanics with one time axis too many.

A dense real Clifford-algebra engine for the signature (-,+,+,+,-), a
five-dimensional first-order wave equation for even multivector fields, its
reduction to the four-dimensional Dirac equation (Hestenes form) for fields
flat along the second time axis, the Coulomb bound-state ladder (a series
solver bisects the ladder's condition for the energy and checks that the
series terminates there), and demos of what survives once the flatness
assumption is dropped: an induced scalar potential and a fermionic source
current.  The ``fermion5d`` command line fronts the verification suites.
"""
from .algebra import (
    CL31,
    CL32,
    CL41,
    Multivector,
    Signature,
    SignatureMismatchError,
    blade_product,
    e,
    even_masks,
    kernel_backend,
    pseudoscalar,
    random_multivector,
)
from .beyond import (
    GradeStructureError,
    ScalarPotentialDemo,
    SourceCurrent,
    demo_grid,
    minus_constancy_ratio,
    oscillating_source_pair,
    pair_residuals,
    scalar_potential_residual,
    scalar_potential_residuals,
    source_current,
)
from .constants import ELECTRON_MASS_EV, FINE_STRUCTURE
from .coulomb import (
    CoulombParams,
    RadialSeries,
    RadialSolution,
    solve_radial,
    sommerfeld_energy,
    spectroscopic_label,
)
from .fields import (
    AnalyticField,
    ArrayField,
    ConstantField,
    FiniteDifferenceField,
    PhaseField,
    minkowski_dot,
)
from .report import Check, ReportDocument, make_check
from .spinor import cylinder_check, idempotent_split, pm_split
from .wave import (
    GammaChoice,
    GammaRejectionError,
    PlaneWave,
    build_plane_wave,
    dirac5_residual,
    dirac5_residuals,
    gamma_classify,
    hestenes_dirac_residual,
    hestenes_plane_wave_field,
    hestenes_sample_residuals,
    phase_mixture,
    sector_fields,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "CL31",
    "CL32",
    "CL41",
    "Multivector",
    "Signature",
    "SignatureMismatchError",
    "blade_product",
    "e",
    "even_masks",
    "kernel_backend",
    "pseudoscalar",
    "random_multivector",
    # fields
    "AnalyticField",
    "ArrayField",
    "ConstantField",
    "FiniteDifferenceField",
    "PhaseField",
    "minkowski_dot",
    # pair split
    "cylinder_check",
    "idempotent_split",
    "pm_split",
    # wave equation
    "GammaChoice",
    "GammaRejectionError",
    "PlaneWave",
    "build_plane_wave",
    "dirac5_residual",
    "dirac5_residuals",
    "gamma_classify",
    "hestenes_dirac_residual",
    "hestenes_plane_wave_field",
    "hestenes_sample_residuals",
    "phase_mixture",
    "sector_fields",
    # Coulomb bound states
    "CoulombParams",
    "RadialSeries",
    "RadialSolution",
    "solve_radial",
    "sommerfeld_energy",
    "spectroscopic_label",
    # second-time demos
    "GradeStructureError",
    "ScalarPotentialDemo",
    "SourceCurrent",
    "demo_grid",
    "minus_constancy_ratio",
    "oscillating_source_pair",
    "pair_residuals",
    "scalar_potential_residual",
    "scalar_potential_residuals",
    "source_current",
    # constants and reports
    "ELECTRON_MASS_EV",
    "FINE_STRUCTURE",
    "Check",
    "ReportDocument",
    "make_check",
]
