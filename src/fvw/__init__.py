"""Fire-vegetation-water reaction-diffusion model: equilibria, linear
stability, diffusion thresholds, wave trains, competition spectra, and
time-domain simulation."""

from .cubic import MonicCubic, RootSet, Verdict, hurwitz_negative, imaginary_root_factorization, solve_cubic
from .errors import (
    CFLViolation,
    CFLWarning,
    DefectiveMatrixWarning,
    DegenerateDiffusion,
    HypothesisViolated,
    NoWaveTrain,
    NumericalFailure,
    SlowDecay,
    StepFailure,
    ValidationError,
    VarsigmaOutOfRange,
)
from .kernels import KernelMoments, kernel_moments, pizzetti_constants
from .model import (
    Equilibrium,
    ModelParams,
    State,
    all_ones,
    coexistence_state,
    coexistence_w,
    equilibria,
    jacobian,
    reaction_rhs,
)
from .simulate import (
    FieldState,
    IntegratorConfig,
    Trajectory,
    integrate_ode,
    linearized_mode_system,
    simulate_pde,
    single_mode_field,
    uniform_field,
)
from .stability import (
    Classification,
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
