"""Linear integral predictors for continuous-time signals with a spectral gap."""

from .taper import TaperSpec, eval_taper
from .approx import (Approximant, fit_approximant, fit_approximants,
                     load_approximant, save_approximant)
from .signal import (SpectrumSpec, Tone, Bump, sample_grid, epsilon1,
                     select_nu, exact_etaP, load_spectrum)
from .predictor import (predict_convolution, iterated_integrals, eta_sum,
                        EtaFit, fit_eta)
from .harness import ExperimentConfig, ErrorRow, run_sweep, write_reports

__version__ = "0.1.0"
