"""Shared containers: profile validation and parameter derivations."""

import numpy as np
import pytest

from bmlandau.core import PhysParams, SampledProfile


class TestSampledProfile:
    def test_basic_construction(self):
        prof = SampledProfile("r", [0.0, 0.5, 1.0], [1.0, 2.0, 3.0], {"op": "demo"})
        assert prof.coordinate == "r"
        assert prof.metadata["op"] == "demo"
        assert prof.step() == pytest.approx(0.5)

    def test_complex_values(self):
        prof = SampledProfile("theta", [0.1, 0.2], np.array([1j, 2.0 + 1j]))
        assert prof.values.dtype == complex  # the values keep their dtype

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledProfile("r", [0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SampledProfile("r", [0.0, 1.0], [1.0, 2.0, 3.0])

    def test_step_requires_uniform_grid(self):
        prof = SampledProfile("r", [0.0, 0.1, 0.3], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="uniformly spaced"):
            prof.step()

    def test_step_requires_two_points(self):
        with pytest.raises(ValueError, match="too short"):
            SampledProfile("r", [0.5], [1.0]).step()


class TestPhysParamsDerived:
    def test_natural_units(self):
        p = PhysParams()
        assert p.beta == pytest.approx(0.5)
        assert p.omega_c == pytest.approx(1.0)

    def test_derived_recomputed_not_stored(self):
        # frozen dataclass: the derived scales are properties of the primaries
        p = PhysParams(B=2.0)
        assert p.beta == pytest.approx(1.0)
        with pytest.raises(Exception):
            p.B = 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"charge": float("nan")},
            {"charge": float("inf")},
            {"hbar": float("inf")},
            {"mass": float("inf")},
            {"B": float("inf")},
            {"B": float("nan")},
        ],
    )
    def test_non_finite_constants_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            PhysParams(**kwargs)
