"""Quasiclassical Brownian motion in nonlinear harmonic potentials:
moments, response function and susceptibility via a Banach-operator
recursion, with a Monte Carlo oracle."""

from .djm import ConvergenceError, DjmSolution, NonFiniteTermError, djm_solve
from .grids import FreqGrid, SampledSignal, Spectrum, TimeGrid
from .kernels import (chi_q, chi_tilde, chi_v, chi_v_dot, noise_correlation,
                      noise_psd, omega0, xi_q0_corr)
from .mc import (Ensemble, MomentEstimate, NoiseEnsemble, estimate_moments,
                 estimate_response, integrate_qcle, sample_noise)
from .moments import (PlateauError, QuadratureError, SpectralQuadrature,
                      estimate_plateau, mean_trajectory, variance,
                      variance_spectrum)
from .params import BathParams, PotentialParams, parabolic
from .response import (ResponseProblem, StepInstabilityError, integrate_duffing,
                       ode_residual, solve_response_windowed, zero_sigma2)
from .susceptibility import (EdgeToleranceError, SusceptibilityProblem,
                             phi_omega, psi_operator,
                             response_from_susceptibility, solve_susceptibility)

__version__ = "0.1.0"

__all__ = [
    "BathParams", "ConvergenceError", "DjmSolution", "EdgeToleranceError",
    "Ensemble", "FreqGrid", "MomentEstimate", "NoiseEnsemble",
    "NonFiniteTermError", "PlateauError", "PotentialParams", "QuadratureError",
    "ResponseProblem", "SampledSignal", "SpectralQuadrature", "Spectrum",
    "StepInstabilityError", "SusceptibilityProblem", "TimeGrid", "chi_q",
    "chi_tilde", "chi_v", "chi_v_dot", "djm_solve", "estimate_moments",
    "estimate_plateau", "estimate_response", "integrate_duffing",
    "integrate_qcle", "mean_trajectory", "noise_correlation", "noise_psd",
    "ode_residual", "omega0", "parabolic", "phi_omega", "psi_operator",
    "response_from_susceptibility", "sample_noise", "solve_response_windowed",
    "solve_susceptibility", "variance", "variance_spectrum", "xi_q0_corr",
    "zero_sigma2",
]
