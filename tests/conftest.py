"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from bmlandau import specfun as sf


@pytest.fixture
def sweeps(monkeypatch):
    """Grid sizes of the series sweeps (one per hyp1f1 or bessel_j evaluation) made during the test."""
    sizes = []
    core = sf._sum_series

    def counted(like, *args, **kwargs):
        sizes.append(np.size(like))
        return core(like, *args, **kwargs)

    monkeypatch.setattr(sf, "_sum_series", counted)
    return sizes
