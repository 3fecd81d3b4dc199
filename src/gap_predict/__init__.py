"""Linear integral predictors for continuous-time signals with a spectral gap."""

from .taper import TaperSpec, eval_taper, taper_inverse_level
from .approx import (Approximant, chebyshev_grid, fit_parity_ls, gamma_to_a,
                     a_to_gamma, eval_psi, sup_error, certify_sup_error,
                     fit_approximant, load_approximant, save_approximant)
from .signal import (QuadratureError, SpectrumSpec, Tone, Bump, bump_density,
                     sample, sample_grid, l1_budget, epsilon1, select_nu,
                     exact_hk, load_spectrum, save_spectrum)
from .predictor import (kernel_eval, predict_convolution, iterated_integrals,
                        EtaState, predict_eta_grid, EtaFit, fit_eta)
from .harness import (ExperimentConfig, ErrorRow, run_sweep, emit_report,
                      write_reports, ConvergenceVerdict, convergence_check)

__version__ = "0.1.0"
