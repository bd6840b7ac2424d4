import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixnorm import (
    Box,
    GridError,
    GridFunction,
    GridMismatchError,
    NumericalAnomalyError,
    coarsen,
    crop,
    dyadic_dilate,
    lp_norm,
    pointwise_multiply,
    sample,
    shift,
    tensor_product,
)
from mixnorm.differences import _check_besov_params
from mixnorm.fourier import _check_order
from mixnorm.grid import _check_p, lp_norm_values

UNIT = Box((0.0,), (1.0,))


def test_box_validation():
    with pytest.raises(GridError):
        Box((0.0,), (0.0,))
    with pytest.raises(GridError):
        Box((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0))
    assert Box((0.0, -1.0), (2.0, 1.0)).volume == pytest.approx(4.0)


def test_norm_params_validation():
    # the parameter checks of the norms that read the parameters
    _check_besov_params(r=1.0, p=2.0, m_diff=2)
    _check_p(math.inf)
    _check_order(3)
    with pytest.raises(GridError):
        _check_p(0.5)
    with pytest.raises(GridError):
        _check_besov_params(r=1.5, p=2.0, m_diff=1)


def test_sample_constant():
    u = sample(lambda x: np.ones_like(x), UNIT, 4)
    assert np.array_equal(u.values, np.ones(4))


def test_sample_linear_nodes():
    u = sample(lambda x: x, UNIT, 4)
    assert np.array_equal(u.values, np.array([0.0, 0.25, 0.5, 0.75]))


def test_sample_sine_quarter_nodes():
    u = sample(lambda x: np.sin(2 * np.pi * x), UNIT, 4)
    assert np.allclose(u.values, [0.0, 1.0, 0.0, -1.0], atol=1e-15)


def test_sample_rejects_nonfinite_with_location():
    with pytest.raises(GridError, match="0.5"), np.errstate(divide="ignore"):
        sample(lambda x: 1.0 / (x - 0.5), UNIT, 4)


def test_lp_norm_unit_mass_2d():
    u = sample(lambda x, y: np.ones_like(x), Box((0.0, 0.0), (1.0, 1.0)), (16, 16))
    assert lp_norm(u, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_lp_norm_linear_against_integral_oracle():
    n = 1024
    u = sample(lambda x: x, UNIT, n)
    # independent oracle: analytic integral of x over [0, 1] is 1/2; the exact
    # left-endpoint Riemann sum is (n - 1) / (2 n)
    loop = sum(j / n for j in range(n)) / n
    val = lp_norm(u, 1.0)
    assert val == pytest.approx(loop, rel=1e-13)
    assert abs(val - 0.5) < 1e-3


def test_lp_norm_sup_modification():
    u = GridFunction(UNIT, np.array([3.0, -4.0]))
    assert lp_norm(u, math.inf) == 4.0


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(-50, 50), min_size=2, max_size=32),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
)
def test_lp_norm_hoelder_consistency(vals, p):
    u = GridFunction(Box((0.0,), (2.0,)), np.asarray(vals))
    bound = lp_norm(u, math.inf)
    if not math.isinf(p):
        bound *= u.box.volume ** (1.0 / p)
    assert lp_norm(u, p) <= bound * (1 + 1e-12)


def test_pointwise_multiply_identity():
    v = sample(lambda x: np.sin(x), UNIT, 32)
    one = sample(lambda x: np.ones_like(x), UNIT, 32)
    assert np.array_equal(pointwise_multiply(one, v).values, v.values)


def test_pointwise_multiply_matches_loop_oracle():
    rng = np.random.default_rng(5)
    a = GridFunction(UNIT, rng.standard_normal(17))
    b = GridFunction(UNIT, rng.standard_normal(17))
    prod = pointwise_multiply(a, b)
    oracle = np.array([a.values[i] * b.values[i] for i in range(17)])
    assert np.array_equal(prod.values, oracle)


def test_pointwise_multiply_names_mismatched_field():
    a = sample(lambda x: x, UNIT, 16)
    b = sample(lambda x: x, UNIT, 32)
    with pytest.raises(GridMismatchError, match="resolution"):
        pointwise_multiply(a, b)
    c = sample(lambda x: x, Box((0.0,), (2.0,)), 16)
    with pytest.raises(GridMismatchError, match="box"):
        pointwise_multiply(a, c)
    d = sample(lambda x: x, UNIT, 16, extension="periodic")
    with pytest.raises(GridMismatchError, match="extension"):
        pointwise_multiply(a, d)


def test_tensor_product_constant_axis():
    one = sample(lambda x: np.ones_like(x), UNIT, 8)
    v = sample(lambda x: x * x, UNIT, 8)
    T = tensor_product(one, v)
    assert T.d == 2
    for i in range(8):
        assert np.array_equal(T.values[i], v.values)


def test_tensor_norm_factorization_exact():
    rng = np.random.default_rng(11)
    u = GridFunction(UNIT, rng.standard_normal(64))
    v = GridFunction(Box((-1.0,), (1.0,)), rng.standard_normal(32))
    for p in (1.0, 2.0, 3.0, math.inf):
        lhs = lp_norm(tensor_product(u, v), p)
        rhs = lp_norm(u, p) * lp_norm(v, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_tensor_dimension_overflow():
    u = sample(lambda x, y: x + y, Box((0.0, 0.0), (1.0, 1.0)), (8, 8))
    with pytest.raises(GridError, match="dimension"):
        tensor_product(u, u)


def test_multiply_commutative_associative():
    rng = np.random.default_rng(3)
    fs = [GridFunction(UNIT, rng.standard_normal(33)) for _ in range(3)]
    ab = pointwise_multiply(fs[0], fs[1])
    ba = pointwise_multiply(fs[1], fs[0])
    assert np.array_equal(ab.values, ba.values)
    lhs = pointwise_multiply(ab, fs[2]).values
    rhs = pointwise_multiply(fs[0], pointwise_multiply(fs[1], fs[2])).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def _bump_1d(resolution):
    from mixnorm import base_bump

    return base_bump(Box((-4.0,), (4.0,)), resolution)


def test_dilate_identity_at_zero_levels():
    u = _bump_1d(256)
    assert dyadic_dilate(u, 0) is u


def test_dilate_lp_scaling_matched_grids():
    # the 1/p-homogeneity of the L_p norm under dyadic dilation is exact when
    # both sides read the same samples: compare against the strided subsample
    u = _bump_1d(4096)
    for n in (1, 2, 3):
        v = dyadic_dilate(u, n)
        ref = coarsen(u, 2**n)
        for p in (1.0, 2.0):
            assert lp_norm(v, p) == pytest.approx(2.0 ** (-n / p) * lp_norm(ref, p), rel=1e-10)


def test_dilate_preserves_sup():
    u = _bump_1d(1024)
    v = dyadic_dilate(u, 2)
    assert lp_norm(v, math.inf) == lp_norm(u, math.inf)


def test_dilate_rejects_too_coarse():
    u = _bump_1d(32)
    with pytest.raises(GridError, match="too coarse"):
        dyadic_dilate(u, 3)


def test_shift_identity_and_periodic_roundtrip():
    u = sample(lambda x: np.cos(x), UNIT, 32, extension="periodic")
    assert np.array_equal(shift(u, 0).values, u.values)
    assert np.array_equal(shift(shift(u, 5), -5).values, u.values)


def test_shift_zero_extension_loses_mass():
    u = sample(lambda x: np.ones_like(x), UNIT, 16)
    for cells in (1, 3, 7):
        assert lp_norm(shift(u, cells), 1.0) <= lp_norm(u, 1.0)
    assert lp_norm(shift(u, 4), 1.0) == pytest.approx(0.75, rel=1e-14)


def test_crop_preserves_alignment_and_values():
    u = sample(lambda x, y: x + 2 * y, Box((0.0, 0.0), (1.0, 1.0)), (32, 32))
    c = crop(u, [(8, 24), (0, 16)])
    assert c.n == (16, 16)
    assert c.dx == u.dx
    assert np.array_equal(c.values, u.values[8:24, :16])
    assert c.box.lower[0] == pytest.approx(0.25)


def test_values_immutable():
    u = sample(lambda x: x, UNIT, 8)
    with pytest.raises(ValueError):
        u.values[0] = 1.0
    with pytest.raises(AttributeError):
        u.extension = "periodic"


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 16, 33, 64])
def test_lp_norm_pow_integer_chain_matches_power(p):
    rng = np.random.default_rng(p)
    values = rng.uniform(-3.0, 3.0, (37, 29))
    kept = values.copy()
    got = lp_norm_values(values, p, 0.125)
    want = float(np.sum(np.abs(values) ** float(p)) * 0.125) ** (1.0 / p)
    assert np.array_equal(values, kept)
    if p <= 2:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-14)
    u = GridFunction(Box((0.0, 0.0), (37 * 0.5, 29 * 0.25)), values)  # cell volume 0.125
    assert lp_norm(u, float(p)) == got


@pytest.mark.parametrize("level, p", [(10.0, 400.0), (1e-3, 200.0), (1e-300, 1.5), (1e300, 3.0)])
def test_lp_norm_values_rescales_sums_outside_the_float_range(level, p):
    # the plain powered sum overflows or underflows; the sum formed again
    # from values / max |values| gives the norm level * volume^(1/p)
    values = np.full((6, 5), level)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm_values(values, p, 0.125)
    assert got == pytest.approx(level * 3.75 ** (1.0 / p), rel=1e-14)


@pytest.mark.parametrize("p", [1100.0, 2000.0, 1e4])
def test_lp_norm_values_holds_past_the_subnormal_range_of_p(p):
    # 0.5^p underflows to 0 past p = 1074; dividing by the peak itself makes every term 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm_values(np.full(4, 0.5), p, 1.0)
    assert got == pytest.approx(0.5 * 4.0 ** (1.0 / p), rel=1e-15)


def test_lp_norm_values_raises_when_the_norm_overflows():
    values = np.full(4, 1e308)
    assert lp_norm_values(values, math.inf, 1.0) == 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalAnomalyError, match="overflows"):
            lp_norm_values(values, 1.0, 1.0)
