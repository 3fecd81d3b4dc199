import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gap_predict.approx import (Approximant, approximant_from_dict,
                                approximant_to_dict, certify_sup_error,
                                chebyshev_grid, eval_psi, fit_approximant,
                                fit_parity_ls)
from gap_predict.taper import TaperSpec, eval_taper

from oracles import certified_sup_error

GAUSS03 = TaperSpec("gaussian", 0.3)

# frozen oracle values: exact-rational normal-equation solve of the d=2 fit
# (T=1, omega_gap=1, gaussian nu=0.3, n=64 grid), computed with Fraction
ORACLE_GAMMA_C2 = 0.4131431265174854
ORACLE_GAMMA_S1 = 0.9019450173837931

# frozen regression constant: certified sup error at d=16, n=128, dense 8
EPS2_D16_REGRESSION = 0.0996029829253331


def gamma_to_a(gamma_c, gamma_s):
    """Test oracle: the sign mapping of the approx module docstring,
    k = 2m: a_k = (-1)^m gamma_c_k;  k = 2m+1: a_k = -(-1)^m gamma_s_k."""
    a = np.zeros(len(gamma_c))
    for k in range(1, len(a) + 1):
        m = k // 2
        if k % 2 == 0:
            a[k - 1] = (-1.0) ** m * gamma_c[k - 1]
        else:
            a[k - 1] = -((-1.0) ** m) * gamma_s[k - 1]
    return a


def parity_gammas(d, rng):
    gamma_c = np.zeros(d)
    gamma_s = np.zeros(d)
    ks = np.arange(1, d + 1)
    gamma_c[ks % 2 == 0] = rng.uniform(-1, 1, np.sum(ks % 2 == 0))
    gamma_s[ks % 2 == 1] = rng.uniform(-1, 1, np.sum(ks % 2 == 1))
    return gamma_c, gamma_s


class TestChebyshevGrid:
    def test_two_nodes_are_endpoints(self):
        assert set(np.round(chebyshev_grid(1.0, 2), 15)) == {-1.0, 1.0}
        assert set(np.round(chebyshev_grid(2.0, 2), 15)) == {-2.0, 2.0}

    def test_odd_count_drops_zero_node(self):
        grid = chebyshev_grid(1.0, 9)
        assert len(grid) == 8
        assert np.all(np.abs(grid) >= 1.0)
        assert np.allclose(np.sort(grid), np.sort(-grid))

    def test_even_count_keeps_all(self):
        grid = chebyshev_grid(1.5, 10)
        assert len(grid) == 10
        assert np.all(np.abs(grid) >= 1.5 - 1e-12)

    @pytest.mark.parametrize("n", [64, 65, 1009, 4081])
    @pytest.mark.parametrize("omega_gap", [0.7, 1.0, 1.3])
    def test_sign_symmetric_bit_for_bit(self, n, omega_gap):
        # the fit and the certificate work on the w > 0 half alone
        grid = chebyshev_grid(omega_gap, n)
        half = len(grid) // 2
        assert np.all(grid[:half] < 0) and np.all(grid[half:] > 0)
        assert np.array_equal(grid[half:], -grid[:half][::-1])
        assert np.all(np.diff(grid) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_grid(1.0, 1)
        with pytest.raises(ValueError):
            chebyshev_grid(-1.0, 8)


class TestFitParityLs:
    def test_tiny_horizon_kills_sine_part(self):
        grid = chebyshev_grid(1.0, 64)
        a = fit_parity_ls(1e-9, GAUSS03, 1.0, 6, grid)
        assert np.max(np.abs(a[0::2])) < 1e-6    # odd k: the sine part

    def test_d2_against_exact_rational_oracle(self):
        # independent oracle: single-coefficient normal equations solved in
        # exact rational arithmetic over the same float grid
        grid = chebyshev_grid(1.0, 64)
        u = 1.0 / grid
        bc = np.cos(grid) * eval_taper(GAUSS03, grid)
        bs = np.sin(grid) * eval_taper(GAUSS03, grid)
        gc2 = sum(Fraction(float(ui)) ** 2 * Fraction(float(bi))
                  for ui, bi in zip(u, bc)) / sum(Fraction(float(ui)) ** 4 for ui in u)
        gs1 = sum(Fraction(float(ui)) * Fraction(float(bi))
                  for ui, bi in zip(u, bs)) / sum(Fraction(float(ui)) ** 2 for ui in u)
        assert float(gc2) == pytest.approx(ORACLE_GAMMA_C2, rel=1e-15)
        assert float(gs1) == pytest.approx(ORACLE_GAMMA_S1, rel=1e-15)

        # a_2 = -gamma_c_2 and a_1 = -gamma_s_1
        a = fit_parity_ls(1.0, GAUSS03, 1.0, 2, grid)
        assert a[1] == pytest.approx(-ORACLE_GAMMA_C2, rel=1e-12)
        assert a[0] == pytest.approx(-ORACLE_GAMMA_S1, rel=1e-12)

    def test_any_grid_gives_its_own_minimizer(self):
        # an asymmetric grid with a repeated node: the fit must minimize the
        # residual over every node as given, here solved independently by
        # unweighted monomial least squares in u = 1/w on the raw grid
        rng = np.random.default_rng(5)
        grid = np.concatenate((rng.uniform(1.0, 9.0, 40),
                               -rng.uniform(1.0, 4.0, 25), [2.5, -2.5, 2.5]))
        d = 6
        a = fit_parity_ls(0.7, GAUSS03, 1.0, d, grid)
        u = 1.0 / grid
        r = eval_taper(GAUSS03, grid)
        ks = np.arange(1, d + 1)
        gamma = np.zeros(d)
        for parity, part in ((0, np.cos), (1, np.sin)):
            k = ks[ks % 2 == parity]
            gamma[k - 1] = np.linalg.lstsq(u[:, None] ** k, part(0.7 * grid) * r,
                                           rcond=None)[0]
        np.testing.assert_allclose(a, gamma_to_a(gamma, gamma), rtol=1e-9)

    def test_rejects_degenerate_degree_and_grid(self):
        grid = chebyshev_grid(1.0, 64)
        with pytest.raises(ValueError):
            fit_parity_ls(1.0, GAUSS03, 1.0, 1, grid)
        with pytest.raises(ValueError):
            fit_parity_ls(1.0, GAUSS03, 1.0, 8, grid[:20])
        # 32 nodes, but only two distinct |w|: fewer rows than columns
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_parity_ls(1.0, GAUSS03, 1.0, 8, np.tile([-2.0, 2.0, 3.0, 3.0], 8))


class TestEvalPsi:
    def test_examples(self):
        assert eval_psi([0.0, -1.0], 1.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert eval_psi([-1.0], 2.0) == pytest.approx(0.5j, abs=1e-15)

    def test_horner_matches_naive_sum(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, 6)
        omega = 3.0
        naive = sum(a[k - 1] * (1j * omega) ** (-k) for k in range(1, 7))
        assert abs(eval_psi(a, omega) - naive) < 1e-14

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            eval_psi([1.0], 0.0)
        with pytest.raises(ValueError):
            eval_psi([1.0], np.array([1.0, 0.0]))

    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           omega=st.floats(min_value=1e-3, max_value=1e4))
    def test_conjugate_symmetry_exact(self, seed, omega):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, int(rng.integers(1, 13)))
        assert eval_psi(a, -omega) == np.conj(eval_psi(a, omega))

    def test_decomposition_identity(self):
        # Re psi = even-k gamma_c sum, Im psi = odd-k gamma_s sum
        rng = np.random.default_rng(11)
        gamma_c, gamma_s = parity_gammas(9, rng)
        a = gamma_to_a(gamma_c, gamma_s)
        ks = np.arange(1, 10)
        for omega in rng.uniform(1.0, 10.0, 100):
            val = eval_psi(a, omega)
            re = np.sum(gamma_c * omega ** (-ks.astype(float)))
            im = np.sum(gamma_s * omega ** (-ks.astype(float)))
            assert abs(val.real - re) < 1e-12
            assert abs(val.imag - im) < 1e-12

    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           omega=st.floats(min_value=1.0, max_value=1e5))
    def test_vanishing_at_infinity(self, seed, omega):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, int(rng.integers(1, 13)))
        assert abs(eval_psi(a, omega)) <= np.sum(np.abs(a)) / abs(omega) + 1e-15


class TestSupError:
    def test_dominates_fit_grid_residual(self):
        approx = fit_approximant(1.0, 1.0, GAUSS03, 8)
        grid = chebyshev_grid(1.0, approx.fit_nodes)
        target = np.exp(1j * grid) * eval_taper(GAUSS03, grid)
        resid = np.abs(target - eval_psi(approx.a, grid)).max()
        assert approx.eps2 >= resid - 1e-15

    def test_degree_zero_edge(self):
        # empty coefficient vector: sup of the bare tapered target, attained
        # at the gap edge by taper monotonicity
        eps2 = certify_sup_error(1.0, 1.0, GAUSS03, np.zeros(0), 64, 8)
        assert eps2 == pytest.approx(float(eval_taper(GAUSS03, 1.0)), rel=1e-13)

    def test_regression_d16(self):
        approx = fit_approximant(1.0, 1.0, GAUSS03, 16, fit_nodes=128)
        eps2_8 = certify_sup_error(1.0, 1.0, GAUSS03, approx.a, 128, 8)
        assert eps2_8 == pytest.approx(EPS2_D16_REGRESSION, rel=1e-9)

    def test_denser_grid_never_lowers_grid_maximum(self):
        # the x16 grid contains the x8 grid, so it can only report less when
        # the x8 value is its far-tail term, whose u_min shrinks with density
        grid_set = 0
        for d in (4, 8, 16):
            for nu in (0.3, 0.5):
                taper = TaperSpec("gaussian", nu)
                approx = fit_approximant(1.0, 1.0, taper, d)
                n = approx.fit_nodes
                eps2_8 = certify_sup_error(1.0, 1.0, taper, approx.a, n, 8)
                eps2_16 = certify_sup_error(1.0, 1.0, taper, approx.a, n, 16)
                assert approx.eps2 == eps2_16
                u_min = 1.0 / np.abs(chebyshev_grid(1.0, 8 * (n - 1) + 1)).max()
                tail_8 = (np.sum(np.abs(approx.a) * u_min ** np.arange(1, d + 1))
                          + float(eval_taper(taper, 1.0 / u_min)))
                if eps2_8 > tail_8:
                    grid_set += 1
                    assert eps2_16 >= eps2_8
        assert grid_set >= 4

    def test_nested_basis_decay_on_fixed_grid(self):
        # on one fixed overdetermined grid the nested bases can only improve
        prev = None
        for d in (4, 8, 12, 16, 20):
            grid = chebyshev_grid(1.0, 192)
            a = fit_parity_ls(1.0, GAUSS03, 1.0, d, grid)
            eps2 = certify_sup_error(1.0, 1.0, GAUSS03, a, 192, 8)
            if prev is not None:
                assert eps2 <= prev + 1e-12
            prev = eps2


    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           d=st.integers(min_value=0, max_value=40),
           family=st.sampled_from(["gaussian", "exponential", "lorentzian"]),
           nu=st.floats(min_value=0.01, max_value=1.0),
           T=st.floats(min_value=0.01, max_value=20.0),
           omega_gap=st.floats(min_value=0.2, max_value=5.0),
           fit_nodes=st.integers(min_value=2, max_value=300),
           dense_factor=st.integers(min_value=1, max_value=16))
    def test_half_grid_certificate_equals_full_grid_oracle(
            self, seed, d, family, nu, T, omega_gap, fit_nodes, dense_factor):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, d) * 10.0 ** rng.uniform(-3, 3)
        taper = TaperSpec(family, nu)
        eps2 = certify_sup_error(T, omega_gap, taper, a, fit_nodes,
                                 dense_factor)
        assert eps2 == pytest.approx(certified_sup_error(
            T, omega_gap, taper, a, fit_nodes, dense_factor), rel=1e-14)


class TestLargeDegree:
    """The Chebyshev-basis fit stays full rank past the monomial fit's
    limit of d = 34."""

    @pytest.mark.parametrize("d", [36, 40, 48, 64, 96])
    def test_fits_without_rank_failure(self, d):
        approx = fit_approximant(1.0, 1.0, GAUSS03, d)
        assert np.isfinite(approx.eps2)

    def test_eps2_strictly_decreases_to_d40(self):
        eps2 = [fit_approximant(1.0, 1.0, GAUSS03, d).eps2
                for d in (8, 16, 24, 32, 40)]
        assert all(b < a for a, b in zip(eps2, eps2[1:])), eps2


class TestApproximant:
    def test_fit_runs_and_serializes(self, tmp_path):
        approx = fit_approximant(1.0, 1.0, GAUSS03, 6)
        data = approximant_to_dict(approx)
        assert set(data) == {"T", "omega_gap", "taper", "d", "a", "eps2",
                             "fit_nodes"}
        again = approximant_from_dict(data)
        assert np.all(again.a == approx.a)
        assert again.eps2 == approx.eps2
        assert again.taper == approx.taper

    def test_loads_dict_carrying_parity_coefficients(self):
        # files written before the parity coefficients were dropped also
        # carry gamma_c and gamma_s, and files written before the single
        # certification density carry dense_factor; only a is read
        approx = fit_approximant(1.0, 1.0, GAUSS03, 6)
        data = approximant_to_dict(approx)
        data["gamma_c"] = [0.0, -approx.a[1], 0.0, approx.a[3], 0.0,
                           -approx.a[5]]
        data["gamma_s"] = [-approx.a[0], 0.0, approx.a[2], 0.0,
                           -approx.a[4], 0.0]
        assert np.array_equal(gamma_to_a(data["gamma_c"], data["gamma_s"]),
                              approx.a)
        with_density = dict(approximant_to_dict(approx), dense_factor=8)
        for old in (data, with_density):
            again = approximant_from_dict(json.loads(json.dumps(old)))
            assert np.array_equal(again.a, approx.a)
            assert again.eps2 == approx.eps2

    def test_default_nodes_rule(self):
        assert fit_approximant(1.0, 1.0, GAUSS03, 4).fit_nodes == 64
        assert fit_approximant(1.0, 1.0, GAUSS03, 12).fit_nodes == 96

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Approximant(T=-1.0, omega_gap=1.0, taper=GAUSS03, d=2,
                        a=np.zeros(2), eps2=0.1, fit_nodes=64)

    @pytest.mark.parametrize("field", ["T", "omega_gap", "eps2", "a"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, bad):
        kwargs = dict(T=1.0, omega_gap=1.0, taper=GAUSS03, d=2,
                      a=np.zeros(2), eps2=0.1, fit_nodes=64)
        if field == "a":
            kwargs["a"] = np.array([0.5, bad])
        else:
            kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Approximant(**kwargs)
