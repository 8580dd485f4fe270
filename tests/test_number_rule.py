"""The one rule for integer and real arguments (errors.is_integer and errors.as_real)."""

import math
from fractions import Fraction

import numpy as np
import pytest

import seslab
from seslab import (
    CameraIntrinsics,
    DegenerateGeometryError,
    inverse_log_polar,
    log_polar,
    scale_mapping,
    scale_transform,
    ssim,
)
from seslab.errors import as_real, is_integer

BIG = 10**400


@pytest.mark.parametrize(
    ("value", "expected"),
    [(3, True), (np.int64(3), True), (-BIG, True), (True, False), (np.bool_(True), False), (3.0, False), ("3", False)],
    ids=repr,
)
def test_is_integer(value, expected):
    assert is_integer(value) is expected


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        (0.8, 0.8),
        (Fraction(4, 5), 0.8),
        (np.float64(0.25), 0.25),
        (7, 7.0),
        (BIG, math.inf),
        (-BIG, -math.inf),
        (Fraction(1, BIG), 0.0),
        (math.inf, math.inf),
    ],
    ids=repr,
)
def test_as_real_of_a_real(value, expected):
    real = as_real(value)
    assert type(real) is float and real == expected


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, 1j, [1.0], math.nan], ids=repr)
def test_as_real_is_nan_for_a_bool_or_a_non_real(value):
    assert math.isnan(as_real(value))


@pytest.fixture
def image():
    return seslab.synth_image("gaussian-blobs", 24, 30, seed=4)


def test_fraction_scale_factor_is_its_float(image):
    # A Fraction used to raise TypeError from np.isfinite.
    assert scale_transform(image, Fraction(4, 5)).tobytes() == scale_transform(image, 0.8).tobytes()


def test_bool_scale_factor_rejected(image):
    # True used to pass as s = 1 and return a copy.
    with pytest.raises(ValueError, match="scale factor must be positive and finite, got True"):
        scale_transform(image, True)


@pytest.mark.parametrize("data_range", [math.nan, math.inf, True, "1"], ids=repr)
def test_ssim_data_range_must_be_a_positive_finite_real(image, data_range):
    # nan and inf used to give a nan score.
    with pytest.raises(ValueError, match="data_range must be a positive finite real"):
        ssim(image, image, data_range=data_range)


@pytest.mark.parametrize("s", [math.nan, math.inf, True, 0.0], ids=repr)
def test_scale_mapping_factor_must_be_positive_and_finite(s):
    # nan used to fail only later, in the sampler.
    with pytest.raises(DegenerateGeometryError, match="scale factor must be positive and finite"):
        scale_mapping(CameraIntrinsics.centered(700.0, 64, 48), s)


@pytest.mark.parametrize("r_min", [True, math.nan, BIG, "1"], ids=["True", "nan", "10**400", "str"])
def test_log_polar_r_min_must_be_a_real_in_range(image, r_min):
    # True used to run as r_min = 1.0.
    with pytest.raises(ValueError, match="r_min must lie in"):
        log_polar(image, r_min=r_min)
    with pytest.raises(ValueError, match="r_min must lie in"):
        inverse_log_polar(image, image.shape, r_min=r_min)


@pytest.mark.parametrize(
    "center",
    [(BIG, 0), (0, -BIG), (True, 3), (5, False), (math.nan, 3), ("5", 3)],
    ids=["10**400-row", "-10**400-col", "True-row", "False-col", "nan-row", "str-row"],
)
def test_log_polar_center_must_be_reals_in_the_image(image, center):
    # (10**400, 0) used to raise OverflowError.
    with pytest.raises(ValueError, match="lies outside"):
        log_polar(image, center=center)
    with pytest.raises(ValueError, match="lies outside"):
        inverse_log_polar(image, image.shape, center=center)


def test_fraction_center_and_r_min_are_their_floats(image):
    exact = dict(center=(Fraction(23, 2), Fraction(29, 3)), r_min=Fraction(3, 2))
    floats = dict(center=(11.5, 29 / 3), r_min=1.5)
    assert log_polar(image, **exact).tobytes() == log_polar(image, **floats).tobytes()
    lp = log_polar(image, **floats)
    assert inverse_log_polar(lp, image.shape, **exact).tobytes() == inverse_log_polar(lp, image.shape, **floats).tobytes()
