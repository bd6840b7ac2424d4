"""Every norm is 1-homogeneous, N(lam u) = lam N(u), at every amplitude.

Tables and dyadic aggregates carry L_p norms, and grid.lp_norm_values (by
max |values|) and grid.power_table (by an exact power of two) rescale wherever
a p-th power sum would leave the float range, so the identity holds to
rounding for lam as small as 1e-300 and as large as 1e300, at p up to 400 and
at p = inf.
"""

import functools
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from mixnorm import (
    Box,
    besov_norm_diff,
    besov_norm_fourier,
    besov_norm_integral,
    lp_norm,
    sobolev_norm_fourier,
    sobolev_norm_full,
    sobolev_norm_reduced,
)
from mixnorm.families import random_smooth_field

FIELD = random_smooth_field(3, Box((-4.0, -4.0), (4.0, 4.0)), 64, band_cells=8)
REL = 1e-12

NORMS = {
    "lp": lp_norm,
    "besov_diff": lambda u, p: besov_norm_diff(u, 1.0, p, 2),
    "besov_integral": lambda u, p: besov_norm_integral(u, 1.0, p, 2),
    "besov_fourier": lambda u, p: besov_norm_fourier(u, 1.0, p),
    "sobolev_fourier": lambda u, p: sobolev_norm_fourier(u, 1, p),
    "sobolev_full": lambda u, p: sobolev_norm_full(u, 1, p),
    "sobolev_reduced": lambda u, p: sobolev_norm_reduced(u, 1, p),
}
BESOV_P = [1.0, 1.5, 2.0, 3.0, 8.0, 64.0, 400.0, math.inf]
SOBOLEV_P = [1.5, 2.0, 3.0, 8.0, 64.0, 400.0]  # the Sobolev norms need 1 < p < inf
CASES = [(name, p) for name in NORMS for p in (SOBOLEV_P if name.startswith("sobolev") else BESOV_P)]


@functools.lru_cache(maxsize=None)
def unit_norm(name, p):
    return NORMS[name](FIELD, p)


@pytest.mark.parametrize("name, p", CASES)
@settings(max_examples=3, deadline=None)
@given(lam=st.floats(min_value=1e-300, max_value=1e300))
@example(lam=1e-300)
@example(lam=1e300)
def test_norm_is_homogeneous_at_every_amplitude(name, p, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = NORMS[name](FIELD.with_values(lam * FIELD.values), p)
    assert got == pytest.approx(lam * unit_norm(name, p), rel=REL)
