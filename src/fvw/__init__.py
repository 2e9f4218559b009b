"""Fire-vegetation-water reaction-diffusion model: equilibria, linear
stability, diffusion thresholds, wave trains, competition spectra, and
time-domain simulation."""

from .cubic import Classification, MonicCubic, RootSet, hurwitz_negative, imaginary_root_factorization, solve_cubic
from .errors import CFLWarning, NumericalFailure, ValidationError
from .kernels import KernelMoments, kernel_moments, pizzetti_constants
from .model import (
    Equilibrium,
    ModelParams,
    State,
    all_ones,
    coexistence_state,
    equilibria,
    jacobian,
    reaction_rhs,
)
from .simulate import (
    FieldState,
    IntegratorConfig,
    Trajectory,
    integrate_ode,
    simulate_pde,
    single_mode_field,
    uniform_field,
)
from .stability import (
    CompetitionSpectrum,
    DispersionSample,
    DiffusionThreshold,
    PhiCubic,
    StabilityVerdict,
    WaveTrain,
    classify_equilibrium,
    competition_instability,
    competition_matrix,
    dispersion_coefficients,
    dispersion_curve,
    find_k0,
    find_wavetrain,
    mode_attraction,
    mode_matrix,
    phi_cubic,
    slow_eigenvector,
    upsilon,
)

__version__ = "0.1.0"
