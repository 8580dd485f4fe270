import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

from seslab import (
    ConfigError,
    FormatError,
    ScaleSet,
    ShapeError,
    basis_filter,
    build_basis,
    hermite,
    hermite_gaussian,
    load_basis,
    save_basis,
    scale_set_from_alpha,
)
from seslab.basis import check_basis_fits
from seslab.fileio import sidecar_path

# Explicit probabilist's polynomials H_0..H_6, written out by hand and kept
# independent of the recurrence implementation.
EXPLICIT = {
    0: lambda x: np.ones_like(np.asarray(x, dtype=float)),
    1: lambda x: x,
    2: lambda x: x**2 - 1,
    3: lambda x: x**3 - 3 * x,
    4: lambda x: x**4 - 6 * x**2 + 3,
    5: lambda x: x**5 - 10 * x**3 + 15 * x,
    6: lambda x: x**6 - 15 * x**4 + 45 * x**2 - 15,
}


class TestHermite:
    def test_anchor_values(self):
        assert hermite(0, 3.7) == 1.0
        assert hermite(2, 2.0) == 3.0
        assert hermite(4, 1.0) == -2.0

    def test_first_orders_on_grid(self):
        xs = np.linspace(-5, 5, 101)
        for n, poly in EXPLICIT.items():
            assert np.abs(hermite(n, xs) - poly(xs)).max() <= 1e-9

    def test_recurrence_against_numpy_hermite_e(self):
        xs = np.linspace(-4, 4, 37)
        for n in range(9):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            assert np.abs(hermite(n, xs) - hermite_e.hermeval(xs, coeffs)).max() <= 1e-8

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 5), x=st.floats(-5, 5, allow_nan=False))
    def test_recurrence_identity(self, n, x):
        lhs = hermite(n + 1, x)
        rhs = x * hermite(n, x) - n * hermite(n - 1, x) if n >= 1 else x
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            hermite(-1, 0.0)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="capped"):
            hermite(11, 0.0)


class TestBasisFilter:
    def test_gaussian_member_positive_and_symmetric(self):
        for sigma in (0.8, 1.5, 3.0):
            f = basis_filter(sigma, 0, 0, 7)
            assert (f > 0).all()
            assert np.abs(f - f[::-1, :]).max() == 0.0
            assert np.abs(f - f[:, ::-1]).max() == 0.0
            assert np.abs(f - f.T).max() == 0.0

    def test_first_order_parity(self):
        f = basis_filter(1.2, 1, 0, 7)
        assert np.abs(f + f[::-1, :]).max() <= 1e-15  # odd along rows (u)
        assert np.abs(f - f[:, ::-1]).max() <= 1e-15  # even along columns (v)

    def test_matches_independent_evaluation(self):
        # Independent code path: numpy's probabilist Hermite evaluator.
        sigma, n, m, k = 1.5, 2, 2, 7
        offsets = np.arange(k, dtype=float) - k // 2
        uu, vv = np.meshgrid(offsets, offsets, indexing="ij")
        cn = np.zeros(n + 1)
        cn[n] = 1.0
        cm = np.zeros(m + 1)
        cm[m] = 1.0
        expected = (
            hermite_e.hermeval(uu / sigma, cn)
            * hermite_e.hermeval(vv / sigma, cm)
            * np.exp(-(uu**2 + vv**2) / sigma**2)
            / sigma**2
        )
        raw = hermite_gaussian(sigma, n, m, uu, vv)
        assert np.abs(raw - expected).max() <= 1e-12

    def test_unit_l2_norm(self):
        for sigma, n, m in [(0.9, 0, 0), (1.5, 2, 2), (2.4, 3, 1)]:
            f = basis_filter(sigma, n, m, 9)
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12

    def test_dilation_covariance_off_grid(self):
        # psi_{s*sigma}(s*u, s*v) * s^2 == psi_sigma(u, v) for the raw profile
        rng = np.random.default_rng(5)
        us = rng.uniform(-3, 3, size=50)
        vs = rng.uniform(-3, 3, size=50)
        for s in (0.7, 1.3, 2.0):
            for n, m in [(0, 0), (1, 2), (3, 3)]:
                lhs = hermite_gaussian(1.1 * s, n, m, s * us, s * vs) * s * s
                rhs = hermite_gaussian(1.1, n, m, us, vs)
                assert np.abs(lhs - rhs).max() <= 1e-12

    def test_even_extent_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            basis_filter(1.0, 0, 0, 6)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            basis_filter(0.0, 0, 0, 7)


class TestScaleSet:
    def test_alpha_point_one(self):
        ss = scale_set_from_alpha(0.1, 3)
        assert ss.sigmas == pytest.approx((1 / 1.2, 1 / 1.1, 1.0), abs=1e-15)
        assert ss.alpha == 0.1

    def test_alpha_point_zero_five(self):
        ss = scale_set_from_alpha(0.05, 3)
        assert ss.sigmas == pytest.approx((1 / 1.1, 1 / 1.05, 1.0), abs=1e-15)

    def test_single_scale_ignores_alpha(self):
        for alpha in (0.05, 0.1, 0.5):
            assert scale_set_from_alpha(alpha, 1).sigmas == (1.0,)

    def test_two_scales(self):
        assert scale_set_from_alpha(0.2, 2).sigmas == pytest.approx((1 / 1.2, 1.0))

    def test_invalid_alpha(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                scale_set_from_alpha(alpha, 3)

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="count"):
            scale_set_from_alpha(0.1, 4)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="ascending"):
            ScaleSet((1.0, 0.5))
        with pytest.raises(ValueError, match="positive"):
            ScaleSet((-1.0, 1.0))

    @pytest.mark.parametrize("sigmas", [(math.nan,), (0.5, math.nan), (math.inf,), (0.5, math.inf)])
    def test_non_finite_sigmas_rejected(self, sigmas):
        # NaN passes both the sign and the ordering comparisons
        with pytest.raises(ValueError, match="finite"):
            ScaleSet(sigmas)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_non_finite_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="finite"):
            scale_set_from_alpha(0.1, 3).scaled(factor)

    def test_scaled_preserves_ratios(self):
        ss = scale_set_from_alpha(0.1, 3).scaled(2.4)
        assert ss.sigmas[2] / ss.sigmas[0] == pytest.approx(1.2, abs=1e-12)
        assert ss.sigmas[2] == pytest.approx(2.4)
        assert ss.alpha == 0.1


class TestBuildBasis:
    def test_full_seven_by_seven_shape(self):
        basis = build_basis(scale_set_from_alpha(0.1, 3), max_order=6, k=7)
        assert basis.filters.shape == (3, 49, 7, 7)
        assert len(basis.orders) == 49
        assert basis.orders[0] == (0, 0)
        assert basis.orders[-1] == (6, 6)

    def test_single_gaussian(self):
        basis = build_basis(ScaleSet((1.0,)), max_order=0, k=5)
        assert basis.filters.shape == (1, 1, 5, 5)

    def test_deterministic(self):
        a = build_basis(scale_set_from_alpha(0.1, 3), 4, 9)
        b = build_basis(scale_set_from_alpha(0.1, 3), 4, 9)
        assert np.array_equal(a.filters, b.filters)

    def test_member_count_precondition(self):
        with pytest.raises(ShapeError, match="64 members exceeds the 49 pixels"):
            build_basis(ScaleSet((1.0,)), max_order=7, k=7)

    def test_all_filters_unit_norm(self):
        basis = build_basis(scale_set_from_alpha(0.1, 3).scaled(2.4), 3, 9)
        norms = np.linalg.norm(basis.filters.reshape(3, 16, -1), axis=2)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_gram_smallest_singular_value(self):
        # linear independence of the 49 members at fixed sigma
        for scale_set in (scale_set_from_alpha(0.1, 3), scale_set_from_alpha(0.1, 3).scaled(2.0)):
            basis = build_basis(scale_set, max_order=6, k=7)
            for si in range(basis.num_scales):
                mat = basis.filters[si].reshape(basis.num_basis, -1)
                smallest = np.linalg.svd(mat, compute_uv=False).min()
                assert smallest > 1e-8

    def test_basis_too_large_for_memory_is_refused_before_any_filter(self):
        # The k x k envelope of k = 100001 (74.5 GiB) used to raise MemoryError.
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^a basis of k 100001 \(3 scales of 4 100001x100001 filters\)"):
                build_basis(scale_set_from_alpha(0.1, 3), max_order=1, k=100001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize(("scales", "max_order", "k"), [(1, 0, 201), (3, 3, 101), (2, 6, 63), (3, 10, 41)])
    def test_peak_stays_within_the_plan(self, scales, max_order, k):
        tracemalloc.start()
        try:
            build_basis(scale_set_from_alpha(0.1, scales), max_order=max_order, k=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * check_basis_fits(scales, max_order, k)


@pytest.mark.parametrize(
    "sigmas, max_order, k",
    [((2.8,), 0, 1), ((2.8 / 1.2, 2.8 / 1.1, 2.8), 2, 5), ((2.8 / 1.2, 2.8 / 1.1, 2.8), 3, 11), ((0.7, 1.5), 6, 7), ((1.9,), 10, 11)],
)
def test_build_basis_equals_basis_filter_calls_bitwise(sigmas, max_order, k):
    # build_basis shares one envelope and one recurrence per axis across a sigma's members.
    basis = build_basis(ScaleSet(sigmas), max_order=max_order, k=k)
    expected = np.array([[basis_filter(s, n, m, k) for n, m in basis.orders] for s in sigmas])
    assert basis.filters.tobytes() == expected.tobytes()


def test_save_load_roundtrip(tmp_path):
    basis = build_basis(scale_set_from_alpha(0.1, 3).scaled(2.0), max_order=2, k=7)
    path = tmp_path / "basis.f64"
    save_basis(path, basis)
    back = load_basis(path)
    assert np.array_equal(back.filters, basis.filters)
    assert back.sigmas.sigmas == pytest.approx(basis.sigmas.sigmas)
    assert back.orders == basis.orders
    assert back.k == 7


@pytest.mark.parametrize(
    "change, message",
    [
        ({"sigmas": None}, "basis is missing sigmas"),
        ({"k": 7}, r"3 sigmas, 9 orders and k 7 need a tensor of shape \[3, 9, 7, 7\], got \[3, 9, 5, 5\]"),
        ({"orders": [[0, 0]]}, r"3 sigmas, 1 orders and k 5 need a tensor of shape \[3, 1, 5, 5\]"),
        ({"sigmas": [2.0]}, r"1 sigmas, 9 orders and k 5 need a tensor of shape \[1, 9, 5, 5\]"),
        ({"sigmas": [3.0, 2.0, 1.0]}, "strictly ascending"),
        ({"sigmas": "123"}, "sigmas must be a list"),
        ({"orders": [[0, 0, 0]] * 9}, "every order must be an"),
        ({"k": 5.0}, "k must be an integer"),
        ({"kind": "filter-bank"}, "kind must be 'steerable-basis', got 'filter-bank'"),
        ({"gain": 2.0}, "unknown keys in basis"),
    ],
    ids=["no-sigmas", "k", "one-order", "one-sigma", "unordered", "sigmas-text", "triples", "float-k", "kind", "unknown"],
)
def test_load_basis_checks_its_sidecar(tmp_path, change, message):
    # Each of these loaded silently or raised KeyError or a bare ValueError.
    path = tmp_path / "basis.f64"
    save_basis(path, build_basis(scale_set_from_alpha(0.1, 3), max_order=2, k=5))
    meta = json.loads(sidecar_path(path).read_text())
    meta.update(change)
    sidecar_path(path).write_text(json.dumps({key: value for key, value in meta.items() if value is not None}))
    with pytest.raises(FormatError, match=message):
        load_basis(path)
