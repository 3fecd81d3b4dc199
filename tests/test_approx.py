import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.chebyshev import chebder, chebval

from gap_predict.approx import (CERT_DENSITY, Approximant, _half_grid,
                                _sigma, approximant_from_dict,
                                approximant_to_dict, fit_approximant,
                                fit_approximants)
from gap_predict.taper import TaperSpec, eval_taper

from oracles import (certified_sup_error, fit_nodes, least_squares_fit,
                     monomial_from_chebyshev, psi, psi_by_complex_recurrence,
                     sign_symmetric_grid)

GAUSS03 = TaperSpec("gaussian", 0.3)

# frozen oracle values: exact-rational normal-equation solve of the d=2 fit
# (T=1, omega_gap=1, gaussian nu=0.3, n=64 grid), computed with Fraction
ORACLE_GAMMA_C2 = 0.4131431265174854
ORACLE_GAMMA_S1 = 0.9019450173837931

# frozen regression constant: certified sup error at d=16, n=128, dense 8
EPS2_D16_REGRESSION = 0.0996029829253331


def random_c(d, rng):
    c = rng.uniform(-1, 1, d + 1)
    c[0] = 0.0
    return c


class TestChebyshevGrid:
    """The w > 0 half of the fit and certification grids."""

    def test_two_nodes_are_endpoints(self):
        assert np.round(_half_grid(1.0, 2), 15).tolist() == [1.0]
        assert np.round(_half_grid(2.0, 2), 15).tolist() == [2.0]

    def test_odd_count_drops_zero_node(self):
        grid = _half_grid(1.0, 9)
        assert len(grid) == 4
        assert np.all(grid >= 1.0)

    def test_even_count_keeps_all(self):
        grid = _half_grid(1.5, 10)
        assert len(grid) == 5
        assert np.all(grid >= 1.5 - 1e-12)

    @pytest.mark.parametrize("n", [64, 65, 1009, 4081])
    @pytest.mark.parametrize("omega_gap", [0.7, 1.0, 1.3])
    def test_sign_symmetric_bit_for_bit(self, n, omega_gap):
        # the fit and the certificate work on the w > 0 half alone: it is
        # the positive half of the oracle's sign-symmetric grid, ascending
        half = _half_grid(omega_gap, n)
        grid = sign_symmetric_grid(omega_gap, n)
        assert len(grid) == 2 * len(half)
        assert np.all(np.diff(half) > 0)
        np.testing.assert_allclose(grid[len(half):], half, rtol=1e-15, atol=0)
        np.testing.assert_allclose(grid[:len(half)], -half[::-1], rtol=1e-15,
                                   atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _half_grid(-1.0, 8)

    @pytest.mark.parametrize("gap", [0.0, np.inf, np.nan, 1e-320])
    def test_refuses_a_gap_it_cannot_place(self, gap):
        # every node of an infinite gap lies at infinity, and 1/1e-320
        # overflows, so that grid would hold w = 0
        with pytest.raises(ValueError, match="omega_gap must be finite and "
                                             "positive with a finite "
                                             f"reciprocal, got {gap!r}"):
            _half_grid(gap, 8)


class TestFit:
    def test_tiny_horizon_kills_sine_part(self):
        c = fit_approximant(1e-9, 1.0, GAUSS03, 6).c
        assert c.shape == (7,) and c[0] == 0.0
        assert np.max(np.abs(c[1::2])) < 1e-6    # odd j: the sine part

    def test_d2_against_exact_rational_oracle(self):
        # independent oracle: single-coefficient normal equations solved in
        # exact rational arithmetic over the same float grid
        grid = sign_symmetric_grid(1.0, 64)
        u = 1.0 / grid
        bc = np.cos(grid) * eval_taper(GAUSS03, grid)
        bs = np.sin(grid) * eval_taper(GAUSS03, grid)
        gc2 = sum(Fraction(float(ui)) ** 2 * Fraction(float(bi))
                  for ui, bi in zip(u, bc)) / sum(Fraction(float(ui)) ** 4 for ui in u)
        gs1 = sum(Fraction(float(ui)) * Fraction(float(bi))
                  for ui, bi in zip(u, bs)) / sum(Fraction(float(ui)) ** 2 for ui in u)
        assert float(gc2) == pytest.approx(ORACLE_GAMMA_C2, rel=1e-15)
        assert float(gs1) == pytest.approx(ORACLE_GAMMA_S1, rel=1e-15)

        # c_2 (T_2(u) - T_2(0)) = 2 c_2 u^2 and c_1 T_1(u) = c_1 u; the
        # monomial form is a_1 = -gamma_s_1, a_2 = -gamma_c_2
        c = fit_approximant(1.0, 1.0, GAUSS03, 2).c
        assert 2.0 * c[2] == pytest.approx(ORACLE_GAMMA_C2, rel=1e-12)
        assert c[1] == pytest.approx(ORACLE_GAMMA_S1, rel=1e-12)
        assert monomial_from_chebyshev(c, 1.0) == pytest.approx(
            [-ORACLE_GAMMA_S1, -ORACLE_GAMMA_C2], rel=1e-12)

    @pytest.mark.parametrize("d", [2, 6, 8, 13, 16, 48])
    @pytest.mark.parametrize("family, nu, omega_gap", [
        ("gaussian", 0.3, 1.0), ("lorentzian", 0.5, 1.3),
        ("exponential", 0.15, 0.7)])
    def test_half_grid_fit_is_the_full_grid_minimizer(
            self, d, family, nu, omega_gap):
        # the sqrt(2)-weighted w > 0 half keeps the minimizer over every
        # node of the sign-symmetric grid of max(8d, 64) nodes, solved
        # independently in complex residuals by the oracle
        taper = TaperSpec(family, nu)
        c = fit_approximant(0.7, omega_gap, taper, d).c
        ref = least_squares_fit(0.7, taper, omega_gap, d, max(8 * d, 64))
        assert c.shape == (d + 1,) and c[0] == 0.0
        assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_rejects_a_degree_below_2_by_its_value(self, d):
        with pytest.raises(ValueError, match=f"d must be >= 2, got d={d}:"):
            fit_approximant(1.0, 1.0, GAUSS03, d)


class TestEvalPsi:
    """psi(i*w) by numpy's Chebyshev series (oracles.psi), the evaluation
    the certificate tests compare against."""

    def test_examples(self):
        # c_2 (T_2(s) - T_2(0)) = 2 c_2 s^2; c_1 T_1(s) = c_1 s, s = gap/w
        assert psi([0.0, 0.0, 0.5], 1.0, 1.0) == pytest.approx(
            1.0 + 0.0j, abs=1e-15)
        assert psi([0.0, 1.0], 1.0, 2.0) == pytest.approx(0.5j, abs=1e-15)
        assert psi([0.0, 1.0], 3.0, 2.0) == pytest.approx(1.5j, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 6, 32, 96])
    @pytest.mark.parametrize("omega_gap", [0.7, 1.0])
    def test_matches_complex_recurrence(self, d, omega_gap):
        rng = np.random.default_rng(d)
        c = random_c(d, rng)
        omega = omega_gap * np.concatenate((rng.uniform(1.0, 10.0, 50),
                                            -rng.uniform(1.0, 10.0, 50)))
        ref = psi_by_complex_recurrence(c, omega_gap, omega)
        assert np.abs(psi(c, omega_gap, omega) - ref).max() < 1e-13 * d

    @pytest.mark.parametrize("d", [2, 9, 32, 96])
    @pytest.mark.parametrize("nodes", [99, 201])
    def test_node_blocks_equal_one_block(self, d, nodes, monkeypatch):
        # the certificate builds its rows a block of nodes at a time, 64 or
        # 192 here; several blocks give one block's certificate bit for bit
        eps2 = fit_approximant(1.0, 1.0, GAUSS03, d).eps2
        monkeypatch.setattr("gap_predict.approx._EVAL_BLOCK", nodes * (d + 1))
        w = _half_grid(1.0, CERT_DENSITY * (max(8 * d, 64) - 1) + 1)
        assert w.size > 2 * nodes
        assert fit_approximant(1.0, 1.0, GAUSS03, d).eps2 == eps2

    def test_decomposition_identity(self):
        # Re psi = sum_{even j} c_j (T_j(s) - T_j(0)), Im psi =
        # sum_{odd j} c_j T_j(s), s = omega_gap / omega
        rng = np.random.default_rng(11)
        c = random_c(9, rng)
        even, odd = c.copy(), c.copy()
        even[1::2] = odd[0::2] = 0.0
        for omega in rng.uniform(1.3, 10.0, 100):
            val = psi(c, 1.3, omega)
            s = 1.3 / omega
            re = chebval(s, even) - chebval(0.0, even)
            assert abs(val.real - re) < 1e-14
            assert abs(val.imag - chebval(s, odd)) < 1e-14

    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           omega=st.floats(min_value=1.0, max_value=1e5))
    def test_vanishing_at_infinity(self, seed, omega):
        # |T_j(s) - T_j(0)| <= j^2 s on [0, 1]
        rng = np.random.default_rng(seed)
        c = random_c(int(rng.integers(1, 13)), rng)
        bound = np.abs(c) @ np.arange(len(c)) ** 2 / omega
        assert abs(psi(c, 1.0, omega)) <= bound + 1e-15


class TestSupError:
    def test_dominates_fit_grid_residual(self):
        approx = fit_approximant(1.0, 1.0, GAUSS03, 8)
        grid = sign_symmetric_grid(1.0, fit_nodes(approx.d))
        target = np.exp(1j * grid) * eval_taper(GAUSS03, grid)
        resid = np.abs(target - psi(approx.c, 1.0, grid)).max()
        assert approx.eps2 >= resid - 1e-15

    def test_regression_d16(self):
        approx = fit_approximant(1.0, 1.0, GAUSS03, 16)
        assert fit_nodes(16) == 128
        eps2_8 = certified_sup_error(1.0, 1.0, GAUSS03, approx.c, 128, 8)
        assert eps2_8 == pytest.approx(EPS2_D16_REGRESSION, rel=1e-9)

    def test_denser_grid_never_lowers_grid_maximum(self):
        # the x16 grid contains the x8 grid, so it can only report less when
        # the x8 value is its far-tail term, whose s_min shrinks with density
        grid_set = 0
        for d in (4, 8, 16):
            for nu in (0.3, 0.5):
                taper = TaperSpec("gaussian", nu)
                approx = fit_approximant(1.0, 1.0, taper, d)
                n = fit_nodes(d)
                eps2_8 = certified_sup_error(1.0, 1.0, taper, approx.c, n, 8)
                grid = sign_symmetric_grid(1.0, 8 * (n - 1) + 1)
                grid_8 = np.abs(np.exp(1j * grid) * eval_taper(taper, grid)
                                - psi(approx.c, 1.0, grid)).max()
                assert approx.eps2 >= grid_8 * (1.0 - 1e-14)
                if eps2_8 == pytest.approx(grid_8, rel=1e-14):
                    grid_set += 1
        assert grid_set >= 4

    @given(d=st.integers(min_value=2, max_value=40),
           family=st.sampled_from(["gaussian", "exponential", "lorentzian"]),
           nu=st.floats(min_value=0.01, max_value=1.0),
           T=st.floats(min_value=0.01, max_value=20.0),
           omega_gap=st.floats(min_value=0.2, max_value=5.0))
    def test_half_grid_certificate_equals_full_grid_oracle(
            self, d, family, nu, T, omega_gap):
        # psi's evaluation error scales with sum |c_j|, not with eps2, which
        # can be far smaller on a good fit
        approx = fit_approximant(T, omega_gap, TaperSpec(family, nu), d)
        ref = certified_sup_error(T, omega_gap, approx.taper, approx.c,
                                  fit_nodes(d), CERT_DENSITY)
        scale = 1.0 + 2.0 * np.abs(approx.c).sum()
        assert abs(approx.eps2 - ref) <= 1e-14 * scale

    def test_tail_term_certifies_a_close_fit(self):
        # at gap 5 and T = 0.1 the d = 32 fit is so close that the far-tail
        # term, not the grid maximum, is eps2
        approx = fit_approximant(0.1, 5.0, TaperSpec("gaussian", 0.5), 32)
        n = fit_nodes(32)
        grid = sign_symmetric_grid(5.0, CERT_DENSITY * (n - 1) + 1)
        grid_max = np.abs(np.exp(0.1j * grid) * eval_taper(approx.taper, grid)
                          - psi(approx.c, 5.0, grid)).max()
        assert approx.eps2 > 10.0 * grid_max
        assert approx.eps2 == pytest.approx(certified_sup_error(
            0.1, 5.0, approx.taper, approx.c, n, CERT_DENSITY), rel=1e-12)

    @pytest.mark.parametrize("d", [8, 32, 96])
    def test_tail_term_bounds_psi_beyond_the_grid(self, d):
        # psi sampled finely on (0, s_min], the frequencies past the
        # innermost certification node, stays within the far-tail term
        approx = fit_approximant(1.0, 1.0, GAUSS03, d)
        w_max = _half_grid(1.0, CERT_DENSITY * (fit_nodes(d) - 1) + 1)[-1]
        c = approx.c
        s = np.linspace(0.0, 1.0 / w_max, 2001)[1:]
        j = np.arange(d + 1)
        slope = abs(chebval(0.0, chebder(np.where(j % 2 == 1, c, 0.0))))
        s_min = s[-1]
        tail = slope * s_min + s_min ** 2 * (np.abs(c) @ j ** 2) / (
            1.0 - s_min ** 2) ** 1.5
        assert np.abs(psi(c, 1.0, 1.0 / s)).max() <= tail
        assert tail < approx.eps2


class TestLargeDegree:
    """The Chebyshev-basis fit stays full rank past the monomial fit's
    limit of d = 34, and its certificate, taken from c, keeps improving."""

    @pytest.mark.parametrize("d", [36, 40, 48, 64, 96])
    def test_fits_without_rank_failure(self, d):
        approx = fit_approximant(1.0, 1.0, GAUSS03, d)
        assert np.isfinite(approx.eps2)

    def test_eps2_strictly_decreases_to_d40(self):
        # and on to d = 96: 0.213, 0.0996, 0.0618, 0.0236, 0.0189, 0.0084,
        # 3.7e-3, 5.6e-4
        eps2 = [fit_approximant(1.0, 1.0, GAUSS03, d).eps2
                for d in (8, 16, 24, 32, 40, 48, 64, 96)]
        assert all(b < a for a, b in zip(eps2, eps2[1:])), eps2
        assert eps2[-1] < 1e-3


class TestFitApproximants:
    """Every taper of a degree fitted in one pass, each bit for bit as it
    is fitted alone."""

    TAPERS = [TaperSpec(family, nu)
              for family in ("gaussian", "lorentzian", "exponential")
              for nu in (0.5, 0.3, 0.15)]

    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_batch_position_changes_no_bit(self, d):
        # each taper first and last in a rotation of the batch; a stacked
        # least-squares solve or product moves c and eps2 in the last bits
        alone = [fit_approximant(1.0, 1.0, taper, d) for taper in self.TAPERS]
        n = len(self.TAPERS)
        for k in range(n):
            batch = fit_approximants(1.0, 1.0,
                                     self.TAPERS[k:] + self.TAPERS[:k], d)
            for i, fit in enumerate(batch):
                ref = alone[(k + i) % n]
                assert fit.taper == ref.taper
                assert np.array_equal(fit.c, ref.c), (fit.taper, d)
                assert fit.eps2 == ref.eps2, (fit.taper, d)
                assert fit.d == ref.d

    def test_each_taper_of_a_batch_matches_the_oracles(self):
        # the minimizer over the sign-symmetric fit grid, and the
        # certificate over the full grid CERT_DENSITY times as dense
        for fit in fit_approximants(1.0, 1.0, self.TAPERS, 8):
            ref = least_squares_fit(1.0, fit.taper, 1.0, 8, 64)
            assert np.linalg.norm(fit.c - ref) <= 1e-12 * np.linalg.norm(ref)
            eps2 = certified_sup_error(1.0, 1.0, fit.taper, fit.c, 64,
                                       CERT_DENSITY)
            assert abs(fit.eps2 - eps2) <= 1e-14 * (
                1.0 + 2.0 * np.abs(fit.c).sum())

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_refuses_a_non_positive_horizon_before_any_fit(self, T,
                                                           monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted")

        monkeypatch.setattr(np.linalg, "lstsq", no_fit)
        for call in (lambda: fit_approximants(T, 1.0, [GAUSS03], 8),
                     lambda: fit_approximant(T, 1.0, GAUSS03, 8)):
            with pytest.raises(ValueError, match="^T must be positive$"):
                call()

    def test_no_tapers_no_fits(self):
        assert fit_approximants(1.0, 1.0, [], 8) == []

    @pytest.mark.parametrize("T", [1e308, -1e308, 1e306])
    def test_refuses_a_phase_that_overflows_before_any_fit(self, T,
                                                           monkeypatch):
        # the largest w of d = 8's certification grid of 1009 nodes is
        # 1/sin(pi/1008) ~ 320.9, so T*w overflows for these T
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted")

        monkeypatch.setattr(np.linalg, "lstsq", no_fit)
        w_max = float(_half_grid(1.0, CERT_DENSITY * 63 + 1)[-1])
        message = (f"T={T!r} is too large: the phase T*w overflows on the "
                   f"certification grid, whose largest w is {w_max!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: fit_approximants(T, 1.0, [GAUSS03], 8),
                         lambda: fit_approximant(T, 1.0, GAUSS03, 8)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == message

    def test_a_phase_that_stays_finite_is_fitted(self):
        # 1e305 * 320.9 is finite: cos and sin of it are just numbers
        (fit,) = fit_approximants(1e305, 1.0, [GAUSS03], 8)
        assert np.isfinite(fit.eps2)


class TestApproximant:
    @pytest.mark.parametrize("d", [2, 7, 16])
    def test_weights_are_computed_once_and_read_only(self, d):
        # sigma_j c_j, bit for bit, built at the first access and the same
        # array at every later one, which no caller can write into
        approx = fit_approximant(1.0, 1.0, GAUSS03, d)
        weights = approx.weights
        assert approx.weights is weights
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0
        expected = _sigma(d) * approx.c
        assert weights.tobytes() == expected.tobytes()
        assert np.array_equal(weights, (-1.0) ** np.ceil(np.arange(d + 1) / 2)
                              * approx.c)

    def test_fit_runs_and_serializes(self, tmp_path):
        approx = fit_approximant(1.0, 1.0, GAUSS03, 6)
        data = approximant_to_dict(approx)
        assert set(data) == {"T", "omega_gap", "taper", "d", "c", "a",
                             "eps2"}
        again = approximant_from_dict(json.loads(json.dumps(data)))
        assert np.array_equal(again.c, approx.c)
        assert approximant_to_dict(again) == data
        assert again.eps2 == approx.eps2
        assert again.taper == approx.taper

    @pytest.mark.parametrize("d", [2, 8, 16, 32])
    @pytest.mark.parametrize("omega_gap", [0.7, 1.0])
    def test_monomial_view_expands_the_chebyshev_form(self, d, omega_gap):
        # the JSON file's a, a_k the coefficient of (i w)^-k, against
        # numpy's Chebyshev to power conversion of c
        approx = fit_approximant(1.0, omega_gap, GAUSS03, d)
        a = monomial_from_chebyshev(approx.c, omega_gap)
        written = np.array(approximant_to_dict(approx)["a"])
        assert written.shape == (d,)
        assert np.abs(written - a).max() <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("d", [6, 16])
    def test_loads_dict_carrying_parity_coefficients(self, d):
        # files written before the parity coefficients were dropped also
        # carry gamma_c and gamma_s, those written before the single
        # certification density carry dense_factor, and those written before
        # the node count was left to d carry fit_nodes, whatever its value;
        # c is read as it is
        approx = fit_approximant(1.0, 1.0, GAUSS03, d)
        data = approximant_to_dict(approx)
        with_gammas = dict(data, gamma_c=[0.0] * d, gamma_s=[0.0] * d)
        with_density = dict(data, dense_factor=8)
        with_nodes = [dict(data, fit_nodes=nodes, dense_factor=16)
                      for nodes in (64, 7, "many", None)]
        for old in (with_gammas, with_density, *with_nodes):
            again = approximant_from_dict(json.loads(json.dumps(old)))
            assert np.array_equal(again.c, approx.c)
            assert approximant_to_dict(again) == data
            assert again.eps2 == approx.eps2

    def test_default_nodes_rule(self):
        # the fit grid follows d, max(8d, 64) nodes, and no approximant
        # stores it: the fit is the least-squares oracle's on that grid, and
        # the oracle on another grid gives another fit
        for d, nodes in ((4, 64), (8, 64), (12, 96)):
            assert fit_nodes(d) == nodes
            c = fit_approximant(1.0, 1.0, GAUSS03, d).c
            for n in (nodes, nodes + 16):
                ref = least_squares_fit(1.0, GAUSS03, 1.0, d, n)
                close = np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)
                assert close == (n == nodes), (d, n)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Approximant(T=-1.0, omega_gap=1.0, taper=GAUSS03, d=2,
                        c=np.zeros(3), eps2=0.1)
        with pytest.raises(ValueError, match="length d \\+ 1 = 3"):
            Approximant(T=1.0, omega_gap=1.0, taper=GAUSS03, d=2,
                        c=np.zeros(2), eps2=0.1)
        # d = 1 leaves the even part without a basis function, as the fit
        # refuses it
        with pytest.raises(ValueError, match="d must be an integer >= 2, "
                                             "got 1"):
            Approximant(T=1.0, omega_gap=1.0, taper=GAUSS03, d=1,
                        c=np.zeros(2), eps2=0.1)
        # the fit's one gap rule: finite and positive is not enough when
        # 1/gap overflows
        with pytest.raises(ValueError, match="finite reciprocal, got 1e-320"):
            Approximant(T=1.0, omega_gap=1e-320, taper=GAUSS03, d=2,
                        c=np.zeros(3), eps2=0.1)

    @pytest.mark.parametrize("field", ["T", "omega_gap", "eps2", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, bad):
        kwargs = dict(T=1.0, omega_gap=1.0, taper=GAUSS03, d=2,
                      c=np.zeros(3), eps2=0.1)
        if field == "c":
            kwargs["c"] = np.array([0.0, 0.5, bad])
        else:
            kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Approximant(**kwargs)
