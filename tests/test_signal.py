import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gap_predict.signal import (Bump, QuadratureError, SpectrumSpec, Tone,
                                bump_density, epsilon1, exact_hk, l1_budget, sample, sample_grid,
                                spectrum_from_dict, spectrum_to_dict, select_nu)
from gap_predict.taper import TaperSpec

# frozen oracle values for the bump {center=2, half_width=0.5, amp=1},
# computed with an independent high-order Gauss-Legendre panel rule
# (16 panels x 80 nodes; doubling the rule moves them by < 3e-17)
BUMP_X0 = 0.07066381054538412          # x(0)
BUMP_X1 = -0.028829367352065052        # x(1), the truth for t=0, T=1
BUMP_L1 = 0.4439938161680794           # integral of |X| over both signs
BUMP_EPS1_GAUSS025 = 0.098638029329892  # epsilon1 for gaussian nu=0.25

BUMP = SpectrumSpec.from_bumps(1.0, [(2.0, 0.5, 1.0)])


def gl_oracle(f, lo, hi, panels=16, order=80):
    """Independent fixed-order Gauss-Legendre panel quadrature."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    acc = 0.0
    for i in range(panels):
        half = 0.5 * (edges[i + 1] - edges[i])
        mid = 0.5 * (edges[i] + edges[i + 1])
        acc += half * np.sum(w * f(half * x + mid))
    return acc


class TestConstruction:
    def test_gap_respected(self):
        with pytest.raises(ValueError):
            SpectrumSpec.from_tones(1.0, [(0.5, 1.0)])
        with pytest.raises(ValueError):
            SpectrumSpec.from_bumps(1.0, [(1.2, 0.5, 1.0)])
        with pytest.raises(ValueError):
            SpectrumSpec.from_bumps(1.0, [(2.0, -0.1, 1.0)])

    def test_negative_tone_folded_to_conjugate(self):
        spec = SpectrumSpec.from_tones(1.0, [(-2.0, 1.0 + 0.5j)])
        assert spec.tones == (Tone(omega=2.0, amplitude=1.0 - 0.5j),)
        direct = SpectrumSpec.from_tones(1.0, [(2.0, 1.0 - 0.5j)])
        for t in (0.0, 0.3, 1.7):
            assert sample(spec, t) == sample(direct, t)

    def test_kind_consistency(self):
        with pytest.raises(ValueError):
            SpectrumSpec(omega_gap=1.0, kind="tones",
                         bumps=(Bump(2.0, 0.5, 1.0),))
        with pytest.raises(ValueError):
            SpectrumSpec(omega_gap=1.0, kind="nope")

    def test_empty_specs_are_zero_signals(self):
        for spec in (SpectrumSpec.from_tones(1.0, []),
                     SpectrumSpec.from_bumps(1.0, [])):
            assert sample(spec, 0.37) == 0.0
            assert l1_budget(spec) == 0.0
            assert exact_hk(spec, 3, 1.0) == 0.0


class TestSample:
    def test_tone_examples(self):
        cos_spec = SpectrumSpec.from_tones(1.0, [(1.0, 1.0)])
        assert sample(cos_spec, 0.0) == pytest.approx(1.0, abs=1e-15)
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0j)])
        assert sample(spec, math.pi / 4) == pytest.approx(-1.0, abs=1e-12)

    def test_bump_against_independent_oracle(self):
        assert sample(BUMP, 0.0) == pytest.approx(BUMP_X0, abs=1e-12)
        oracle = gl_oracle(lambda om: bump_density(BUMP, om) * np.cos(om * 0.0),
                           1.5, 2.5) / np.pi
        assert oracle == pytest.approx(BUMP_X0, abs=1e-15)

    def test_future_values(self):
        # x(t + T), the truth every prediction is measured against
        spec = SpectrumSpec.from_tones(1.0, [(1.0, 1.0)])
        assert sample(spec, 0.0 + math.pi) == pytest.approx(-1.0, abs=1e-12)
        assert sample(BUMP, 0.0 + 1.0) == pytest.approx(BUMP_X1, abs=1e-12)

    def test_realness_and_linearity(self):
        a = SpectrumSpec.from_tones(1.0, [(1.5, 0.7 - 0.2j)])
        b = SpectrumSpec.from_tones(1.0, [(3.0, 0.1 + 0.9j)])
        both = SpectrumSpec.from_tones(
            1.0, [(1.5, 2.0 * (0.7 - 0.2j)), (3.0, -0.5 * (0.1 + 0.9j))])
        for t in np.linspace(-3, 3, 17):
            combined = 2.0 * sample(a, t) - 0.5 * sample(b, t)
            assert isinstance(sample(both, t), float)
            assert sample(both, t) == pytest.approx(combined, abs=1e-12)


class TestSampleGrid:
    def test_matches_pointwise_sample_tones(self):
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 0.5 + 0.25j), (4.5, -0.3)])
        xs = sample_grid(spec, -2.0, 0.37, 12)
        for i, x in enumerate(xs):
            assert x == pytest.approx(sample(spec, -2.0 + 0.37 * i), abs=1e-14)

    @pytest.mark.parametrize("strategy", ["gauss", "fft"])
    def test_matches_pointwise_sample_bump(self, strategy):
        xs = sample_grid(BUMP, -5.0, 0.5, 30, strategy=strategy)
        for i in (0, 7, 19, 29):
            assert xs[i] == pytest.approx(sample(BUMP, -5.0 + 0.5 * i), abs=1e-9)

    def test_auto_strategy_long_grid(self):
        xs = sample_grid(BUMP, -200.0, 1e-2, 40_001)
        i = 12_345
        assert xs[i] == pytest.approx(sample(BUMP, -200.0 + 1e-2 * i), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_grid(BUMP, 0.0, -0.1, 5)
        with pytest.raises(ValueError):
            sample_grid(BUMP, 0.0, 0.1, 0)
        with pytest.raises(ValueError):
            sample_grid(BUMP, 0.0, 0.1, 5, strategy="magic")


class TestBudgets:
    def test_l1_examples(self):
        assert l1_budget(SpectrumSpec.from_tones(1.0, [])) == 0.0
        spec = SpectrumSpec.from_tones(1.0, [(1.0, 0.5), (3.0, 0.25)])
        assert l1_budget(spec) == pytest.approx(1.5, abs=1e-15)
        assert l1_budget(BUMP) == pytest.approx(BUMP_L1, abs=1e-10)

    def test_epsilon1_tone_closed_form(self):
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        taper = TaperSpec("gaussian", 0.5)
        assert epsilon1(spec, taper) == pytest.approx(
            2.0 * (1.0 - math.exp(-1.0)), abs=1e-12)

    def test_epsilon1_bump_against_oracle(self):
        taper = TaperSpec("gaussian", 0.25)
        assert epsilon1(BUMP, taper) == pytest.approx(BUMP_EPS1_GAUSS025, abs=1e-10)
        oracle = 2.0 * gl_oracle(
            lambda om: (1 - np.exp(-(0.25 * om) ** 2)) * bump_density(BUMP, om),
            1.5, 2.5)
        assert oracle == pytest.approx(BUMP_EPS1_GAUSS025, abs=1e-13)

    def test_epsilon1_vanishes_for_tiny_nu(self):
        taper = TaperSpec("gaussian", 1e-9)
        assert epsilon1(BUMP, taper) < 1e-9 * l1_budget(BUMP) * 10
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        assert epsilon1(spec, taper) < 1e-9

    @given(nu1=st.floats(min_value=1e-6, max_value=1.0),
           nu2=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_epsilon1_monotone_in_nu(self, nu1, nu2):
        lo, hi = sorted((nu1, nu2))
        spec = SpectrumSpec.from_tones(1.0, [(1.5, 0.3), (4.0, 0.7j)])
        assert epsilon1(spec, TaperSpec("gaussian", lo)) <= \
            epsilon1(spec, TaperSpec("gaussian", hi)) + 1e-15


class TestSelectNu:
    def test_clamps_at_one_when_budget_is_loose(self):
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        assert select_nu(spec, "gaussian", l1_budget(spec)) == 1.0
        assert select_nu(SpectrumSpec.from_tones(1.0, []), "gaussian", 0.1) == 1.0

    def test_inverts_epsilon1(self):
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        target = 2.0 * (1.0 - math.exp(-1.0))   # epsilon1 at nu = 0.5 exactly
        nu = select_nu(spec, "gaussian", target)
        assert abs(nu - 0.5) <= 1e-3 * 0.5 + 1e-12
        assert epsilon1(spec, TaperSpec("gaussian", nu)) <= target

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            select_nu(BUMP, "gaussian", 0.0)


class TestExactHk:
    def test_tone_examples(self):
        cos_spec = SpectrumSpec.from_tones(1.0, [(1.0, 1.0)])
        assert exact_hk(cos_spec, 1, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
        assert exact_hk(cos_spec, 2, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            exact_hk(BUMP, 0, 0.0)

    @pytest.mark.parametrize("spec", [
        SpectrumSpec.from_tones(1.0, [(2.0, 0.5 - 0.5j)]),
        BUMP,
    ])
    def test_fundamental_theorem_of_calculus(self, spec):
        # d/dt h_1 = x, checked by central differences
        for t in (-1.0, 0.0, 0.8):
            step = 1e-5
            deriv = (exact_hk(spec, 1, t + step) - exact_hk(spec, 1, t - step)) \
                / (2 * step)
            assert deriv == pytest.approx(sample(spec, t), abs=1e-7)

    def test_twofold_difference_recovers_sample(self):
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0), (3.5, 0.25j)])
        step = 1e-4
        t = 0.4
        stencil = [exact_hk(spec, 2, t + j * step) for j in (-1, 0, 1)]
        second = (stencil[0] - 2 * stencil[1] + stencil[2]) / step ** 2
        assert second == pytest.approx(sample(spec, t), abs=1e-5)

    def test_chain_rule_between_levels(self):
        # d/dt h_k = h_{k-1} for the bump oracle as well
        step = 1e-5
        for k in (2, 3):
            deriv = (exact_hk(BUMP, k, 0.5 + step) - exact_hk(BUMP, k, 0.5 - step)) \
                / (2 * step)
            assert deriv == pytest.approx(exact_hk(BUMP, k - 1, 0.5), abs=1e-7)


class TestSerialization:
    def test_round_trip_both_kinds(self):
        tones = SpectrumSpec.from_tones(1.5, [(2.0, 0.5 + 1.0j)])
        assert spectrum_from_dict(spectrum_to_dict(tones)) == tones
        assert spectrum_from_dict(spectrum_to_dict(BUMP)) == BUMP

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            spectrum_from_dict({"omega_gap": 1.0, "kind": "chirp"})
