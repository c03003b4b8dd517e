"""Harmonic analysis on the unit sphere of H^n.

Zonal projection kernels indexed by pairs (h, m) with 2m <= h, with exact
constants from the Weyl dimension formula, finite-difference verification of
the Laplace-Beltrami / sublaplacian eigenvalue formulas, a smooth cone
multiplier acting on discrete measures, and numerical dimension estimation
for example measures.
"""

from .quat_core import AXES, SpherePoint, seeded_rng, sphere_samples, tangent_frame
from .ortho_poly import JacobiParams, cheb_u_scaled, jacobi_eval
from .zonal_kernel import (
    CalibratedKernel,
    KernelIndex,
    calibrate,
    calibrate_bank,
    index_range,
)
from .diffops import (
    DegenerateProbesError,
    EigencheckReport,
    eigencheck,
    gamma_apply,
    l1_l2_identity,
    laplace_beltrami_apply,
)
from .spectral import (
    ConeParams,
    DiscreteMeasure,
    MultiplierResult,
    SpectrumEntry,
    SpectrumReport,
    apply_multiplier,
    cone_gap_check,
    in_cone,
    project_values,
    psi,
    spectrum_scan,
)
from .dimension_lab import (
    ConsistencyReport,
    DimensionEstimate,
    correlation_dimension,
    gen_point_mass,
    gen_sp1_orbit,
    gen_subsphere,
    gen_uniform,
    s_energy,
    theorem_consistency_report,
)

__version__ = "0.1.0"
