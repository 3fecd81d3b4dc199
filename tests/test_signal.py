import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gap_predict import signal
from gap_predict.signal import (Bump, SpectrumSpec, Tone, epsilon1, exact_etaP,
                                sample_grid, spectral_mass,
                                spectrum_from_dict, select_nu)
from gap_predict.taper import TaperSpec

import oracles
from oracles import bump_density, l1_budget, sample, spectrum_to_dict

# frozen oracle values for the bump {center=2, half_width=0.5, amp=1},
# computed with an independent high-order Gauss-Legendre panel rule
# (16 panels x 80 nodes; doubling the rule moves them by < 3e-17)
BUMP_X0 = 0.07066381054538412          # x(0)
BUMP_X1 = -0.028829367352065052        # x(1), the truth for t=0, T=1
BUMP_L1 = 0.4439938161680794           # integral of |X| over both signs
BUMP_EPS1_GAUSS025 = 0.098638029329892  # epsilon1 for gaussian nu=0.25

BUMP = SpectrumSpec.from_bumps(1.0, [(2.0, 0.5, 1.0)])
# two bumps of one sign whose supports overlap on [1.8, 2.5]
PAIR = SpectrumSpec.from_bumps(1.0, [(2.0, 0.5, 1.0), (2.3, 0.5, 1.0)])


def agrees(value, ref):
    """Agreement with a QUADPACK oracle value."""
    return abs(value - ref) <= 1e-10 * max(1.0, abs(ref))


def gl_oracle(f, lo, hi, panels=16, order=80):
    """Independent fixed-order Gauss-Legendre panel quadrature; an f that
    returns one row per integrand gets one integral per row."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    acc = 0.0
    for i in range(panels):
        half = 0.5 * (edges[i + 1] - edges[i])
        mid = 0.5 * (edges[i] + edges[i + 1])
        acc += half * np.sum(w * f(half * x + mid), axis=-1)
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

    @pytest.mark.parametrize("build,field", [
        (lambda v: SpectrumSpec.from_tones(v, [(2.0, 1.0)]), "omega_gap"),
        (lambda v: SpectrumSpec.from_bumps(v, [(2.0, 0.5, 1.0)]), "omega_gap"),
        (lambda v: SpectrumSpec.from_tones(1.0, [(v, 1.0)]), "tone omega"),
        (lambda v: SpectrumSpec.from_tones(1.0, [(2.0, complex(v, 1.0))]),
         "tone amplitude"),
        (lambda v: SpectrumSpec.from_tones(1.0, [(2.0, complex(1.0, v))]),
         "tone amplitude"),
        (lambda v: SpectrumSpec.from_bumps(1.0, [(v, 0.5, 1.0)]),
         "bump center"),
        (lambda v: SpectrumSpec.from_bumps(1.0, [(2.0, v, 1.0)]),
         "bump half_width"),
        (lambda v: SpectrumSpec.from_bumps(1.0, [(2.0, 0.5, v)]),
         "bump amplitude"),
    ], ids=["tone-gap", "bump-gap", "omega", "re", "im", "center",
            "half_width", "amplitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, build, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(value)

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
            assert np.array_equal(exact_etaP(spec, 1.0, 3, 1.0), np.zeros(3))
        # a bump spec without bumps takes the bump path with an empty rule,
        # which gives the bits of the branches it replaced: +0.0 samples, an
        # eps1 of +0.0, and the signed zeros of the closed form over no
        # tones, (-i)^(j+1) times +0, so -0 where j = 1 mod 4
        spec = SpectrumSpec.from_bumps(1.0, [])
        nodes, weights = signal._bump_rule(spec, 5.0)
        assert nodes.shape == weights.shape == (0,)
        for t0, dt, n in ((0.0, 0.1, 7), (-3.0, 0.01, 1000), (5.0, 0.5, 1)):
            x = sample_grid(spec, t0, dt, n)
            assert x.shape == (n,) and not x.view(np.int64).any()
        for family in ("gaussian", "exponential", "lorentzian"):
            eps1 = epsilon1(spec, TaperSpec(family, 0.3))
            assert eps1 == 0.0 and not math.copysign(1.0, eps1) < 0
        for t in (0.0, -2.5, 3.0):
            etaP = exact_etaP(spec, 1.0, 9, t)
            assert etaP.tolist() == [0.0] * 9
            assert np.signbit(etaP).tolist() == [j % 4 == 1 for j in range(9)]
            assert np.array_equal(
                etaP.view(np.int64),
                exact_etaP(SpectrumSpec.from_tones(1.0, []), 1.0, 9,
                           t).view(np.int64))


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

    def test_matches_pointwise_sample_bump(self):
        xs = sample_grid(BUMP, -5.0, 0.5, 30)
        for i in (0, 7, 19, 29):
            assert xs[i] == pytest.approx(sample(BUMP, -5.0 + 0.5 * i), abs=1e-9)

    def test_overlapping_bumps_counted_once(self):
        # each bump's own density weights its own panels; summing the
        # densities over every bump's panels counted the overlap twice
        times = -5.0 + 0.5 * np.arange(30)
        ref = np.array([sample(PAIR, t) for t in times])
        assert np.abs(sample_grid(PAIR, -5.0, 0.5, 30) - ref).max() <= 1e-9

    def test_bump_rule_shared_read_only(self):
        # |t| below 1 gives the same panel counts, so one rule serves both
        rule = signal._bump_rule(PAIR, 0.5)
        assert signal._bump_rule(PAIR) is rule
        assert signal._bump_rule(PAIR, 150.0) is not rule
        for part in rule:
            assert not part.flags.writeable

    # lengths that leave the sampler's last block of ceil(sqrt(n)) samples
    # part empty (n = 1 is one block of one); the grids start 150 time units
    # out, where the rule needs more panels than at t = 0, and the longest
    # one runs through t = 0 to +150
    GRIDS = [(1, -150.0, 0.375), (31, -150.0, 0.375), (33, -150.0, 0.375),
             (801, -150.0, 0.375)]

    @pytest.mark.parametrize("spec", [BUMP, PAIR], ids=["bump", "pair"])
    @pytest.mark.parametrize("n,t0,dt", GRIDS)
    def test_gauss_sampler_against_quadpack(self, spec, n, t0, dt):
        xs = sample_grid(spec, t0, dt, n)
        assert xs.shape == (n,)
        for i in sorted({0, n // 2, n - 2, n - 1} - {-1}):
            assert xs[i] == pytest.approx(sample(spec, t0 + dt * i), abs=1e-9)

    @pytest.mark.parametrize("spec", [BUMP, PAIR], ids=["bump", "pair"])
    @pytest.mark.parametrize("n,t0,dt", GRIDS)
    def test_gauss_sampler_at_every_point(self, spec, n, t0, dt):
        # every sample against an 80-node Gauss-Legendre rule per bump with
        # 64 panels, a phase of at most 2.4 rad per panel out to |t| = 150;
        # max|x| is x(0), where a nonnegative spectrum peaks, and rounding
        # scales with it, not with the far smaller samples near t = -150
        times = t0 + dt * np.arange(n)
        ref = sum(gl_oracle(
            lambda om: np.cos(np.outer(times, om))
            * bump_density(SpectrumSpec(spec.omega_gap, "bump", bumps=(b,)),
                           om),
            b.center - b.half_width, b.center + b.half_width, panels=64)
            for b in spec.bumps) / np.pi
        peak = sample(spec, 0.0)
        assert np.abs(sample_grid(spec, t0, dt, n) - ref).max() <= 1e-12 * peak

    def test_auto_strategy_long_grid(self):
        xs = sample_grid(BUMP, -200.0, 1e-2, 40_001)
        i = 12_345
        assert xs[i] == pytest.approx(sample(BUMP, -200.0 + 1e-2 * i), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_grid(BUMP, 0.0, -0.1, 5)
        with pytest.raises(ValueError):
            sample_grid(BUMP, 0.0, 0.1, 0)

    @pytest.mark.parametrize("spec", [
        SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), BUMP], ids=["tones", "bump"])
    def test_refuses_more_samples_than_the_cap(self, monkeypatch, spec):
        # 2^25 samples is the most any grid may hold, tones and bumps alike;
        # 1e15 samples are refused before the grid or a rule is made
        def no_rule(*args):
            raise AssertionError("bump rule built")

        monkeypatch.setattr(signal, "_bump_rule", no_rule)
        with pytest.raises(ValueError, match=r"^a grid of 1e\+15 samples is "
                           r"over the limit of 2\^25 = 33554432$"):
            sample_grid(spec, 0.0, 1e-9, 10 ** 15)

    @pytest.mark.parametrize("n", [2 ** 25 + 1, math.inf, math.nan])
    def test_grid_size_limit(self, n):
        assert signal.grid_size(2 ** 25) == 2 ** 25
        with pytest.raises(ValueError, match="over the limit of 2\\^25"):
            signal.grid_size(n)

    def test_refuses_a_grid_over_the_workspace_cap(self, monkeypatch):
        # two samples 1e7 time units out need 16 million rule nodes; the
        # refusal comes before the rule is built
        def no_rule(*args):
            raise AssertionError("bump rule built")

        monkeypatch.setattr(signal, "_bump_rule", no_rule)
        with pytest.raises(ValueError, match=r"n=2 points out to "
                           r"\|t\|=1e\+07 needs 16000032 bump rule nodes.*"
                           r"shorter grid or one nearer t = 0"):
            sample_grid(BUMP, -1e7, 1.0, 2)


@pytest.mark.parametrize("spec", [BUMP, PAIR], ids=["bump", "pair"])
class TestAgainstQuadpack:
    """The bump rule against adaptive QUADPACK at absolute tolerance 1e-10."""

    def test_exact_etaP(self, spec):
        for t in (-50.0, -7.3, 0.0, 2.5, 50.0):
            etaP = exact_etaP(spec, 1.0, 32, t)
            for j in range(32):
                assert agrees(etaP[j], oracles.exact_etaP(spec, 1.0, j, t)), \
                    (j, t)

    @pytest.mark.parametrize("family", ["gaussian", "exponential",
                                        "lorentzian"])
    def test_epsilon1(self, spec, family):
        for nu in (0.01, 0.1, 0.3, 1.0):
            taper = TaperSpec(family, nu)
            assert agrees(epsilon1(spec, taper),
                          oracles.epsilon1(spec, taper)), nu


class TestBudgets:
    def test_l1_examples(self):
        assert l1_budget(SpectrumSpec.from_tones(1.0, [])) == 0.0
        spec = SpectrumSpec.from_tones(1.0, [(1.0, 0.5), (3.0, 0.25)])
        assert l1_budget(spec) == pytest.approx(1.5, abs=1e-15)
        assert l1_budget(BUMP) == pytest.approx(BUMP_L1, abs=1e-10)

    @pytest.mark.parametrize("spec", [
        SpectrumSpec.from_tones(1.0, []),
        SpectrumSpec.from_tones(1.0, [(1.0, 0.5), (3.0, 0.25j)]), BUMP, PAIR,
        SpectrumSpec.from_bumps(1.0, [(2.0, 0.5, 3.0), (4.0, 0.5, -0.6)])],
        ids=["no_tones", "tones", "bump", "overlap", "opposite_signs"])
    def test_spectral_mass_is_the_l1_budget(self, spec):
        assert agrees(spectral_mass(spec), l1_budget(spec))

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

    def test_epsilon1_bounds_opposite_sign_overlap(self):
        # where bumps of opposite sign overlap, |X| < sum of the bumps'
        # magnitudes, so eps1 is an upper bound there
        spec = SpectrumSpec.from_bumps(1.0, [(2.0, 0.5, 1.0),
                                             (2.3, 0.5, -0.6)])
        taper = TaperSpec("gaussian", 0.3)
        assert epsilon1(spec, taper) > oracles.epsilon1(spec, taper) + 1e-3

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

    @pytest.mark.parametrize("spec", [
        SpectrumSpec.from_tones(1.0, [(2.0, 1.0), (3.0, 0.4j)]), BUMP, PAIR,
    ], ids=["tones", "bump", "pair"])
    @pytest.mark.parametrize("family", ["gaussian", "exponential",
                                        "lorentzian"])
    def test_equals_a_bisection_over_epsilon1(self, spec, family):
        # the bisection select_nu documents, with epsilon1 itself as the loss
        def loss(nu):
            return epsilon1(spec, TaperSpec(family, nu))

        def bisect(target):
            assert loss(1.0) > target
            lo, hi = 1e-12, 1.0
            while hi / lo > 1.0 + 1e-3:
                mid = np.sqrt(lo * hi)
                if loss(mid) <= target:
                    lo = mid
                else:
                    hi = mid
            return float(lo)

        # the first midpoint is nu = 1e-6; a target at or just below its
        # loss makes that comparison a tie, which a loss differing from
        # epsilon1 in the last bit there breaks the other way
        tie = loss(1e-6)
        for target in (0.01, 0.05, 0.2, tie, np.nextafter(tie, 0.0)):
            assert select_nu(spec, family, target) == bisect(target), target

    def test_rejects_nan_target(self):
        # every comparison with NaN is false, so an `eps1_target <= 0`
        # check let it through to the bisection floor nu = 1e-12
        with pytest.raises(ValueError, match="eps1_target must be positive"):
            select_nu(BUMP, "gaussian", math.nan)


class TestExactEtaP:
    def test_tone_examples(self):
        # x = cos t: etaP_0 = D^-1 x = sin t, etaP_1 = omega_gap D^-2 x =
        # -omega_gap cos t
        cos_spec = SpectrumSpec.from_tones(1.0, [(1.0, 1.0)])
        assert exact_etaP(cos_spec, 1.0, 2, math.pi / 2)[0] == \
            pytest.approx(1.0, abs=1e-12)
        assert exact_etaP(cos_spec, 0.5, 2, 0.0)[1] == \
            pytest.approx(-0.5, abs=1e-12)
        assert exact_etaP(cos_spec, 1.0, 0, 0.0).shape == (0,)

    @pytest.mark.parametrize("spec", [
        SpectrumSpec.from_tones(1.0, [(1.0, 0.5 - 0.5j), (2.5, 0.3)]),
        BUMP, PAIR,
    ], ids=["tones", "bump", "pair"])
    def test_leading_constants_do_not_depend_on_d(self, spec):
        for t in (-50.0, -7.3, 0.0, 2.5):
            etaP = exact_etaP(spec, 1.0, 32, t)
            assert etaP.shape == (32,)
            for d in (1, 5, 31):
                alone = exact_etaP(spec, 1.0, d, t)
                assert np.abs(alone - etaP[:d]).max() <= 1e-15 * max(
                    1.0, np.abs(etaP).max()), (d, t)

    @pytest.mark.parametrize("spec", [
        SpectrumSpec.from_tones(1.0, [(2.0, 0.5 - 0.5j)]),
        BUMP,
    ])
    def test_fundamental_theorem_of_calculus(self, spec):
        # d/dt etaP_0 = y_0 = x, checked by central differences
        for t in (-1.0, 0.0, 0.8):
            step = 1e-5
            deriv = (exact_etaP(spec, 1.0, 1, t + step)[0]
                     - exact_etaP(spec, 1.0, 1, t - step)[0]) / (2 * step)
            assert deriv == pytest.approx(sample(spec, t), abs=1e-7)

    def test_twofold_difference_recovers_sample(self):
        # etaP_1 = omega_gap D^-2 x
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0), (3.5, 0.25j)])
        step = 1e-4
        t = 0.4
        stencil = [exact_etaP(spec, 0.8, 2, t + j * step)[1] for j in (-1, 0, 1)]
        second = (stencil[0] - 2 * stencil[1] + stencil[2]) / step ** 2
        assert second == pytest.approx(0.8 * sample(spec, t), abs=1e-5)

    @pytest.mark.parametrize("spec", [
        SpectrumSpec.from_tones(1.0, [(1.3, 0.5 - 0.5j), (2.5, 0.3)]), BUMP,
    ], ids=["tones", "bump"])
    def test_recurrence_between_levels(self, spec):
        # d/dt etaP_j = y_j, so d/dt etaP_1 = omega_gap etaP_0 and
        # d/dt (etaP_{j+1} - etaP_{j-1}) = 2 omega_gap etaP_j
        gap, step, t = 0.9, 1e-5, 0.5
        deriv = (exact_etaP(spec, gap, 8, t + step)
                 - exact_etaP(spec, gap, 8, t - step)) / (2 * step)
        etaP = exact_etaP(spec, gap, 8, t)
        assert deriv[1] == pytest.approx(gap * etaP[0], abs=1e-7)
        for j in range(1, 7):
            assert deriv[j + 1] - deriv[j - 1] == pytest.approx(
                2.0 * gap * etaP[j], abs=1e-7)


class TestSerialization:
    def test_round_trip_both_kinds(self):
        tones = SpectrumSpec.from_tones(1.5, [(2.0, 0.5 + 1.0j)])
        assert spectrum_from_dict(spectrum_to_dict(tones)) == tones
        assert spectrum_from_dict(spectrum_to_dict(BUMP)) == BUMP

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            spectrum_from_dict({"omega_gap": 1.0, "kind": "chirp"})
