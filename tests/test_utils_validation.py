"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import DimensionalityError, ValidationError
from repro.utils.validation import (
    check_count,
    check_matrix,
    check_positive,
    check_power_of_two,
    check_probability,
    check_unit_cube,
    check_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValidationError, match="x must be > 0"):
            check_positive(0.0, "x")

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0, "x", strict=False)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValidationError):
            check_positive(float("nan"), "x")
        with pytest.raises(ValidationError):
            check_positive(float("inf"), "x")

    def test_returns_float(self):
        assert isinstance(check_positive(3, "x"), float)


class TestCheckCount:
    def test_accepts_whole_numbers(self):
        assert check_count(3, "n") == 3
        assert check_count(np.int64(0), "n", floor=0) == 0
        assert type(check_count(np.int32(5), "n")) is int

    @pytest.mark.parametrize("value", [0, -1, 2.7, 3.0, True, "4", None])
    def test_rejects_fractions_bools_and_values_below_the_floor(self, value):
        with pytest.raises(ValidationError, match="n must be an integer >= 1"):
            check_count(value, "n")


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            check_probability(1.01, "p")
        with pytest.raises(ValidationError):
            check_probability(-0.01, "p")


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 64, 512, 4096])
    def test_accepts_powers(self, value):
        assert check_power_of_two(value, "d") == value

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 100, 511])
    def test_rejects_non_powers(self, value):
        with pytest.raises(DimensionalityError):
            check_power_of_two(value, "d")


class TestCheckVector:
    def test_coerces_list(self):
        out = check_vector([1, 2, 3], "v")
        assert out.dtype == np.float64
        assert out.shape == (3,)

    def test_enforces_dim(self):
        with pytest.raises(DimensionalityError, match="length 4"):
            check_vector([1.0, 2.0], "v", dim=4)

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_vector(np.zeros((2, 2)), "v")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_vector([1.0, float("nan")], "v")


class TestCheckMatrix:
    def test_coerces(self):
        out = check_matrix([[1, 2], [3, 4]], "m")
        assert out.shape == (2, 2)

    def test_enforces_columns(self):
        with pytest.raises(DimensionalityError, match="3 columns"):
            check_matrix(np.zeros((2, 2)), "m", dim=3)

    def test_min_rows(self):
        with pytest.raises(ValidationError, match="at least 2"):
            check_matrix(np.zeros((1, 2)), "m", min_rows=2)

    def test_rejects_vector(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_matrix(np.zeros(4), "m")


class TestCheckUnitCube:
    def test_accepts_and_clips_tolerance(self):
        out = check_unit_cube(np.array([0.0, 1.0, 0.5]), "x")
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rejects_clearly_outside(self):
        with pytest.raises(ValidationError, match="unit cube"):
            check_unit_cube(np.array([0.5, 1.5]), "x")

    def test_clips_epsilon_overshoot(self):
        out = check_unit_cube(np.array([1.0 + 1e-12, -1e-12]), "x")
        assert out[0] == 1.0
        assert out[1] == 0.0
