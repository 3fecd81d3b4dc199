"""Linear integral predictors for continuous-time signals with a spectral gap."""

from .taper import TaperSpec, eval_taper
from .approx import (Approximant, chebyshev_grid, fit_parity_ls, eval_psi,
                     certify_sup_error, fit_approximant,
                     load_approximant, save_approximant)
from .signal import (SpectrumSpec, Tone, Bump, sample_grid, epsilon1,
                     select_nu, exact_hk, load_spectrum, save_spectrum)
from .predictor import (kernel_eval, predict_convolution, iterated_integrals,
                        eta_levels, eta_weights, eta_sum, EtaFit, fit_eta)
from .harness import (ExperimentConfig, ErrorRow, run_sweep, emit_report,
                      write_reports, ConvergenceVerdict, convergence_check)

__version__ = "0.1.0"
