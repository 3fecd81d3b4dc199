"""High-frequency taper families.

A taper r is an even, continuous function with r(0) = 1, strictly decreasing
on (0, inf) and vanishing at infinity.  The scaled version r_nu(w) = r(nu * w)
damps high frequencies before the rational-polynomial fit; nu in (0, 1]
controls how slowly the damping sets in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FAMILIES", "TaperSpec", "eval_taper", "taper_to_dict",
           "taper_from_dict"]


def _gauss(y):
    return np.exp(-np.square(y))


def _expo(y):
    return np.exp(-y)


def _lorentz(y):
    return 1.0 / (1.0 + np.square(y))


# family -> r on |y|
_FAMILIES = {
    "gaussian": _gauss,
    "exponential": _expo,
    "lorentzian": _lorentz,
}
FAMILIES = tuple(_FAMILIES)


@dataclass(frozen=True)
class TaperSpec:
    """A taper family together with its frequency scale nu.

    Immutable value type; all evaluations are pure, so instances are safe to
    share across threads.
    """

    family: str
    nu: float

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ValueError(
                f"unknown taper family {self.family!r}; "
                f"choose one of {sorted(_FAMILIES)}")
        if not (0.0 < self.nu <= 1.0):
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")


def eval_taper(spec: TaperSpec, omega):
    """Evaluate r_nu(omega) = r(nu * omega); result in (0, 1], even in omega.

    Accepts scalars or arrays.  Evaluation goes through |omega| so evenness is
    exact in floating point.
    """
    return _FAMILIES[spec.family](spec.nu * np.abs(omega))


def taper_to_dict(spec: TaperSpec) -> dict:
    return {"family": spec.family, "nu": spec.nu}


def taper_from_dict(data: dict) -> TaperSpec:
    return TaperSpec(family=data["family"], nu=float(data["nu"]))
