"""Closed-form Gaussian dependence and the noise-injection curve."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from depscale import (
    GaussianJoint,
    NoiseCurve,
    NotPositiveDefiniteError,
    NotScalarError,
    gaussian_d,
    gaussian_r,
    lambda_max,
    noise_curve,
)


def scalar(rho, v11=1.0, v22=1.0):
    return GaussianJoint(v11=[[v11]], v12=[[rho]], v22=[[v22]])


def test_scalar_half():
    assert gaussian_r(scalar(0.5)) == 0.5
    assert gaussian_d(scalar(0.5)) == 0.25


def test_zero_cross_block_means_independence():
    g = GaussianJoint(v11=np.eye(2), v12=np.zeros((2, 2)), v22=np.eye(2))
    assert gaussian_r(g) == 0.0
    assert gaussian_d(g) == 0.0


def test_diagonal_cross_block():
    g = GaussianJoint(v11=np.eye(2), v12=np.diag([0.6, 0.3]), v22=np.eye(2))
    assert_allclose(lambda_max(g), 0.36, atol=1e-12)
    assert_allclose(gaussian_r(g), 0.6, atol=1e-12)


def test_scalar_consistency_is_exact():
    rng = np.random.default_rng(30)
    for _ in range(50):
        v11 = rng.uniform(0.1, 4.0)
        v22 = rng.uniform(0.1, 4.0)
        c = rng.uniform(-0.95, 0.95)
        v12 = c * np.sqrt(v11 * v22)
        g = scalar(v12, v11, v22)
        assert gaussian_r(g) == abs(v12) / np.sqrt(v11 * v22)


def test_negative_correlation_gives_same_r():
    assert gaussian_r(scalar(-0.9)) == 0.9


def test_invariance_under_invertible_linear_maps():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.standard_normal((m + n, m + n))
        full = a @ a.T + 0.5 * np.eye(m + n)
        g = GaussianJoint(v11=full[:m, :m], v12=full[:m, m:], v22=full[m:, m:])
        ax = rng.standard_normal((m, m)) + 2 * np.eye(m)
        by = rng.standard_normal((n, n)) + 2 * np.eye(n)
        h = GaussianJoint(
            v11=ax @ g.v11 @ ax.T,
            v12=ax @ g.v12 @ by.T,
            v22=by @ g.v22 @ by.T,
        )
        assert abs(gaussian_r(g) - gaussian_r(h)) <= 1e-8


def test_r_stays_in_unit_interval():
    rng = np.random.default_rng(32)
    for _ in range(20):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.standard_normal((m + n, m + n))
        full = a @ a.T + 0.1 * np.eye(m + n)
        g = GaussianJoint(v11=full[:m, :m], v12=full[:m, m:], v22=full[m:, m:])
        assert 0.0 <= gaussian_r(g) <= 1.0


class TestNoiseCurve:
    def test_zero_noise_recovers_r(self):
        g = scalar(0.5)
        curve = noise_curve(g, np.array([0.0]))
        assert curve.r_values[0] == gaussian_r(g)

    def test_unit_noise_shrinks_by_sqrt_two(self):
        curve = noise_curve(scalar(0.5), np.array([-1.0, 0.0, 1.0]), var_z=1.0)
        assert_allclose(curve.r_values[0], 0.5 / np.sqrt(2.0), atol=1e-15)
        # even in the noise scale: identical arithmetic at +1 and -1
        assert curve.r_values[0] == curve.r_values[2]

    def test_large_noise_kills_dependence(self):
        curve = noise_curve(scalar(0.9), np.array([0.0, 10.0, 100.0]))
        assert curve.r_values[2] < curve.r_values[1] < curve.r_values[0]
        assert curve.r_values[2] < 0.01

    def test_matches_pointwise_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho = rng.uniform(-0.9, 0.9)
            var_z = rng.uniform(0.2, 3.0)
            lam = np.sort(rng.uniform(-3, 3, size=7))
            curve = noise_curve(scalar(rho), lam, var_z=var_z)
            want = np.abs(rho) / np.sqrt(1.0 + lam**2 * var_z)
            assert_allclose(curve.r_values, want, atol=1e-12)

    def test_is_gaussian_r_of_each_noisy_joint_bit_for_bit(self):
        rng = np.random.default_rng(34)
        for v11, v12, v22 in [(1.0, 0.8, 1.0), (2.0, -0.3, 0.7), (0.5, 0.49, 3.1)]:
            g = GaussianJoint(v11=[[v11]], v12=[[v12]], v22=[[v22]])
            lam = np.sort(rng.uniform(-50, 50, size=200))
            var_z = rng.uniform(0.2, 3.0)
            curve = noise_curve(g, lam, var_z=var_z)
            want = [
                gaussian_r(GaussianJoint(v11=g.v11, v12=g.v12, v22=g.v22 + (el * el) * var_z))
                for el in lam
            ]
            assert curve.r_values.tolist() == want

    def test_overflowing_noise_gives_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = noise_curve(scalar(0.8), np.array([0.0, 1e200]))
        assert curve.r_values.tolist() == [0.8, 0.0]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_lambda(self, bad):
        with pytest.raises(NotPositiveDefiniteError, match="finite"):
            noise_curve(scalar(0.5), np.array([0.0, bad]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_noise_variance(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            noise_curve(scalar(0.5), np.array([0.0]), var_z=bad)

    def test_requires_scalar_joint(self):
        g = GaussianJoint(v11=np.eye(2), v12=np.zeros((2, 2)), v22=np.eye(2))
        with pytest.raises(NotScalarError):
            noise_curve(g, np.array([0.0]))

    def test_requires_positive_noise_variance(self):
        with pytest.raises(NotPositiveDefiniteError):
            noise_curve(scalar(0.5), np.array([0.0]), var_z=0.0)

    def test_container_rejects_a_dip(self):
        with pytest.raises(ValueError, match="rise toward lambda"):
            NoiseCurve(
                lambdas=np.array([0.0, 1.0, 2.0]),
                r_values=np.array([0.5, 0.3, 0.4]),
            )

    def test_container_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            NoiseCurve(
                lambdas=np.array([1.0, 0.0]), r_values=np.array([0.3, 0.5])
            )
