import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import d_e_kappa, e_kappa, log_e, scaled_limit_residual
from rational_logit.kexp import log_e_kappa


def e_kappa_direct(kappa, z):
    # literal evaluation of the defining formula, only safe for moderate z
    if kappa == 0.0:
        return math.exp(z)
    return (kappa * z + math.sqrt(kappa * kappa * z * z + 1.0)) ** (1.0 / kappa)


class TestLogEKappa:
    def test_kappa_zero_is_identity(self):
        assert log_e(0.0, -3.7) == -3.7

    def test_kappa_one(self):
        # e_1(0.75) = 0.75 + sqrt(0.5625 + 1) = 2
        assert log_e(1.0, 0.75) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_kappa_half(self):
        # (0.75 + 1.25)^2 = 4
        assert log_e(0.5, 1.5) == pytest.approx(math.log(4.0), rel=1e-14)

    def test_matches_direct_formula(self):
        for kappa in (0.1, 0.3, 0.7, 1.0):
            for z in (-20.0, -1.0, 0.0, 0.5, 30.0):
                assert log_e(kappa, z) == pytest.approx(
                    math.log(e_kappa_direct(kappa, z)), rel=1e-12, abs=1e-14)

    def test_no_overflow_for_extreme_argument(self):
        # arguments like U/eta with eta = 1e-4 must stay finite in log space
        assert np.isfinite(log_e(1.0, 1e8))
        assert np.isfinite(log_e(1e-3, -1e8))

    def test_vectorized(self):
        z = np.linspace(-5, 5, 11)
        out = log_e_kappa(0.5, z)
        assert out.shape == z.shape

    def test_array_kappa_matches_scalar_calls(self):
        # one kappa per entry of z gives each entry the bits of its own scalar
        # call, on both sides of the series switch at |kappa z| = 1e-8
        rng = np.random.default_rng(7)
        kappas = np.concatenate([rng.uniform(1e-12, 1.0, 2000), [1e-12, 0.5, 1.0, 1e-3]])
        zs = np.concatenate([rng.uniform(-50.0, 50.0, 2000), [1e-3, 1e-9, -2e-8, 1e-5]])
        scalar = [log_e_kappa(k, np.array([z]))[0] for k, z in zip(kappas, zs)]
        assert np.array_equal(log_e_kappa(kappas, zs), scalar)
        assert np.any(np.abs(kappas * zs) < 1e-8) and np.any(np.abs(kappas * zs) >= 1e-8)

    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 1.0])
    def test_series_branch_matches_both_branch_reference(self, kappa):
        # the reference evaluates the series and asinh branches everywhere
        # and picks one per entry; the library core and the scalar helper must
        # give the same bits. |kappa z| spans 1e-300 .. 1e3, straddles the 1e-8
        # switch, and underflows to 0 for the smallest subnormal z
        mags = np.concatenate([np.logspace(-300, 3, 607) / kappa,
                               np.array([1e-8 * (1.0 - 2.0 ** -52), 1e-8,
                                         1e-8 * (1.0 + 2.0 ** -52)]) / kappa,
                               [5e-324, 1e-320, 1e-310, 0.0]])
        z = np.concatenate([mags, -mags])
        w = kappa * z
        assert np.any(w == 0.0) and np.any(np.abs(w) < 1e-8) and np.any(np.abs(w) >= 1e-8)
        with np.errstate(invalid="ignore"):
            reference = np.where(np.abs(w) < 1e-8, z * (1.0 - w * w / 6.0),
                                 np.arcsinh(w) / kappa)
        for out in (log_e(kappa, z), log_e_kappa(kappa, z)):
            assert np.array_equal(out, reference)
            assert np.array_equal(np.signbit(out), np.signbit(reference))
        for zi, ref in zip(z[::41], reference[::41]):
            assert log_e(kappa, float(zi)) == ref

    @given(st.floats(0.0, 1.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_strictly_increasing(self, kappa, z1, z2):
        lo, hi = min(z1, z2), max(z1, z2)
        if hi - lo <= 1e-9 * max(1.0, abs(lo), abs(hi)):
            return  # below roundoff resolution of asinh
        assert log_e(kappa, lo) < log_e(kappa, hi)

    @given(st.floats(-10.0, 10.0))
    def test_continuity_in_kappa_at_zero(self, z):
        # |asinh(kz)/k - z| ~ k^2 z^3 / 6, which is 1.67e-6 at |z| = 10
        assert abs(log_e(1e-4, z) - z) <= 1.7e-6

    def test_zero_at_origin(self):
        for kappa in (0.0, 0.25, 1.0):
            assert log_e(kappa, 0.0) == 0.0


class TestEKappa:
    def test_one_at_origin(self):
        assert e_kappa(0.37, 0.0) == 1.0

    def test_kappa_one_value(self):
        assert e_kappa(1.0, 0.75) == pytest.approx(2.0, rel=1e-14)

    def test_reflection_point(self):
        assert e_kappa(1.0, -0.75) == pytest.approx(0.5, rel=1e-14)

    @given(st.floats(0.0, 1.0), st.floats(-50.0, 50.0))
    def test_reflection_identity(self, kappa, z):
        assert e_kappa(kappa, z) * e_kappa(kappa, -z) == pytest.approx(1.0, rel=1e-12)

    def test_growth_like_power(self):
        # for kappa = 1, e_kappa(z) ~ 2z as z -> +inf
        z = 1e6
        assert e_kappa(1.0, z) / (2.0 * z) == pytest.approx(1.0, rel=1e-5)

    def test_overflow_goes_to_inf(self):
        assert e_kappa(0.0, 1e4) == math.inf


class TestDEKappa:
    def test_unit_at_origin(self):
        assert d_e_kappa(1.0, 0.0) == 1.0

    def test_kappa_one_value(self):
        # e_1(0.75)/sqrt(0.5625 + 1) = 2 / 1.25
        assert d_e_kappa(1.0, 0.75) == pytest.approx(1.6, rel=1e-14)

    def test_kappa_zero_is_exp(self):
        assert d_e_kappa(0.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-14)

    @given(st.floats(0.0, 1.0), st.floats(-10.0, 10.0))
    @settings(max_examples=200)
    def test_matches_central_difference(self, kappa, z):
        h = 1e-5 * max(1.0, abs(z))
        fd = (e_kappa(kappa, z + h) - e_kappa(kappa, z - h)) / (2.0 * h)
        assert d_e_kappa(kappa, z) == pytest.approx(fd, rel=1e-6)


class TestScaledLimitResidual:
    def test_frozen_value(self):
        # kappa=1, eta=0.2, u=1: |0.5 + sqrt(0.25 + 0.01) - 1|
        expected = abs(0.5 + math.sqrt(0.25 + 0.01) - 1.0)
        assert scaled_limit_residual(1.0, 0.2, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.009902, abs=1e-6)

    def test_decreasing_in_eta(self):
        # halving eta at least halves the residual (it is O(eta^2) here)
        for kappa in (0.25, 0.5, 1.0):
            for u in (0.1, 1.0, 2.0):
                res = [scaled_limit_residual(kappa, eta, u) for eta in (0.1, 0.05, 0.025)]
                assert res[0] > res[1] > res[2] > 0.0
                assert res[1] <= 0.75 * res[0]
                assert res[2] <= 0.75 * res[1]

    def test_ratio_to_eta_bounded(self):
        etas = np.logspace(-1, -5, 9)
        for kappa in (0.25, 0.5, 1.0):
            for u in np.linspace(0.1, 2.0, 8):
                ratios = [scaled_limit_residual(kappa, eta, u) / eta for eta in etas]
                # bounded by the coarsest-eta ratio: the residual is o(eta)
                assert max(ratios) <= ratios[0] + 1e-12

    def test_rejects_kappa_zero(self):
        with pytest.raises(ValueError):
            scaled_limit_residual(0.0, 0.1, 1.0)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            scaled_limit_residual(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            scaled_limit_residual(1.0, 0.1, -1.0)
