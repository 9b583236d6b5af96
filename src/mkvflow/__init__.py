"""Spectral toolbox for mean-field diffusions with rough interaction kernels."""

__version__ = "0.1.0"  # before the imports: experiments records it

from .grids import (
    GridSpec,
    ScalarField,
    VectorField,
    heat_apply,
    bessel_apply,
    gaussian_density,
    grid_delta,
)
from .norms import (
    SobolevIndex,
    local_neg_norm,
    measure_dual_norm,
    measure_dual_bracket,
    operator_exponent_probe,
    heat_norm_exponent,
)
from .kernels import (
    KernelSpec,
    RieszOrder,
    DiracDerivative,
    ConstantVector,
    TimeModulation,
    NemytskiiSpec,
    realize_kernel,
    kernel_norm_study,
    make_kernel,
)
from .metrics import (
    GaussianSpec,
    wasserstein_1d,
    relative_entropy,
)
from .solver import (
    FlowParams,
    MeasureFlow,
    SolveReport,
    phi_apply,
    picard_solve,
    time_shift_solve,
)
from .particles import (
    ParticleEnsemble,
    SimConfig,
    simulate_particles,
    empirical_density,
    chaos_convergence_study,
)
from .experiments import (
    ExperimentConfig,
    RunReport,
    run_experiment,
    fit_exponent,
    emit_report,
    parse_config,
)
