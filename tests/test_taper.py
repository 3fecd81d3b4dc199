import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gap_predict.taper import (TaperSpec, eval_taper, taper_from_dict,
                               taper_to_dict)

FAMILIES = ("gaussian", "exponential", "lorentzian")

finite_omega = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)
nu_values = st.floats(min_value=1e-6, max_value=1.0)
family = st.sampled_from(FAMILIES)


def test_eval_examples():
    assert eval_taper(TaperSpec("gaussian", 0.5), 0.0) == 1.0
    assert eval_taper(TaperSpec("gaussian", 0.5), 2.0) == pytest.approx(
        math.exp(-1.0), abs=1e-15)
    assert eval_taper(TaperSpec("lorentzian", 1.0), 3.0) == pytest.approx(
        0.1, abs=1e-15)


def test_validation():
    with pytest.raises(ValueError):
        TaperSpec("gaussian", 1.5)
    with pytest.raises(ValueError):
        TaperSpec("gaussian", 0.0)
    with pytest.raises(ValueError):
        TaperSpec("gaussian", -0.2)
    with pytest.raises(ValueError):
        TaperSpec("boxcar", 0.5)


@given(family=family, nu=nu_values, omega=finite_omega)
def test_evenness_exact(family, nu, omega):
    spec = TaperSpec(family, nu)
    assert eval_taper(spec, omega) == eval_taper(spec, -omega)


@given(family=family, nu=nu_values, omega=finite_omega)
def test_range(family, nu, omega):
    val = eval_taper(TaperSpec(family, nu), omega)
    assert 0.0 <= val <= 1.0
    # strictly positive except where exp underflows double precision
    if val == 0.0:
        assert abs(nu * omega) > 25.0


@given(family=family, nu=nu_values,
       om1=st.floats(min_value=1e-6, max_value=1e5),
       om2=st.floats(min_value=1e-6, max_value=1e5))
def test_monotone_decrease(family, nu, om1, om2):
    lo, hi = sorted((om1, om2))
    spec = TaperSpec(family, nu)
    assert eval_taper(spec, hi) <= eval_taper(spec, lo)


@given(family=family, nu=nu_values, omega=finite_omega)
def test_scale_consistency(family, nu, omega):
    assert eval_taper(TaperSpec(family, nu), omega) == \
        eval_taper(TaperSpec(family, 1.0), nu * omega)


def test_vanishes_at_infinity():
    for fam in FAMILIES:
        spec = TaperSpec(fam, 1.0)
        assert eval_taper(spec, 1e8) < 1e-10


def test_serialization_round_trip():
    spec = TaperSpec("lorentzian", 0.25)
    again = taper_from_dict(taper_to_dict(spec))
    assert again == spec
