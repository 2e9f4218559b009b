import types

import fvw

# The 45 names `fvw` exports; adding or removing one is a public-API change.
PUBLIC_NAMES = {
    "CFLWarning", "Classification", "CompetitionSpectrum", "DiffusionThreshold", "DispersionSample",
    "Equilibrium", "FieldState", "IntegratorConfig", "KernelMoments", "ModelParams", "MonicCubic",
    "NumericalFailure", "PhiCubic", "RootSet", "StabilityVerdict", "State", "Trajectory",
    "ValidationError", "WaveTrain", "all_ones", "classify_equilibrium",
    "coexistence_state", "competition_instability", "competition_matrix",
    "dispersion_coefficients", "dispersion_curve", "equilibria", "find_k0", "find_wavetrain",
    "hurwitz_negative", "imaginary_root_factorization", "integrate_ode", "jacobian", "kernel_moments",
    "mode_attraction", "mode_matrix", "phi_cubic", "pizzetti_constants", "reaction_rhs", "simulate_pde",
    "single_mode_field", "slow_eigenvector", "solve_cubic", "uniform_field", "upsilon",
}


def test_public_names():
    exported = {
        name for name, value in vars(fvw).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
