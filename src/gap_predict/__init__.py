"""Linear integral predictors for continuous-time signals with a spectral gap."""

__version__ = "0.1.0"
