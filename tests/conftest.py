"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from bmlandau import specfun as sf


@pytest.fixture
def sweeps(monkeypatch):
    """Grid sizes of the sweeps made during the test: one per region of a hyp1f1 evaluation.

    A sweep is a series (``_sum_series``), the polynomial recurrence of
    1F1 or the continuation of a complex 1F1 along its rays
    (``_ray_sweep``), each over the grid points of its region, for all
    the (a, b) groups it sweeps together.
    """
    sizes = []
    for name, grid_at in (("_sum_series", 0), ("_kummer_polynomial", 2), ("_ray_sweep", 1)):
        monkeypatch.setattr(sf, name, _counted(getattr(sf, name), grid_at, sizes))
    return sizes


def _counted(core, grid_at, sizes):
    def counted(*args, **kwargs):
        sizes.append(np.size(args[grid_at]))
        return core(*args, **kwargs)

    return counted
