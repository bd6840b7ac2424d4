import warnings

import numpy as np
import pytest

from mixnorm.profiles import _GL_NODES, _GL_WEIGHTS, _mollifier_integral, mollifier, plateau_bump, smoothstep


@pytest.mark.parametrize("plateau,support", [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (0.5, 3.0)])
def test_plateau_bump_is_one_on_plateau_and_zero_outside_support(plateau, support):
    x = np.linspace(-support - 1.0, support + 1.0, 2001)
    x = np.concatenate([x, [-plateau, plateau, -support, support]])
    y = plateau_bump(x, plateau, support)
    assert np.all(y[np.abs(x) <= plateau] == 1.0)
    assert np.all(y[np.abs(x) >= support] == 0.0)

@pytest.mark.parametrize("plateau,support", [(0.0, 1.0), (1.0, 2.0), (0.5, 3.0)])
def test_plateau_bump_is_monotone_on_the_transition(plateau, support):
    a = np.linspace(plateau, support, 100001)
    y = plateau_bump(a, plateau, support)
    assert np.all(np.diff(y) <= 0.0)
    assert np.all((y >= 0.0) & (y <= 1.0))
    assert np.array_equal(plateau_bump(-a, plateau, support), y)


def _neighbours(s, count):
    # the count floats below s, s itself and the count floats above it
    down, up = [s], [s]
    for _ in range(count):
        down.append(np.nextafter(down[-1], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    return np.array(down[:0:-1] + up)


def test_smoothstep_stays_in_the_unit_interval_and_never_decreases():
    # each half integrates from its own end, so neither end overshoots, and
    # the halves meet at s = 1/2 without a step
    s = np.sort(np.concatenate([np.linspace(0.0, 1.0, 1_000_001), _neighbours(0.5, 50),
                                _neighbours(1.0, 50), _neighbours(0.0, 50)]))
    y = smoothstep(s)
    assert np.all(np.diff(y) >= 0.0)
    assert y.min() == 0.0 and y.max() == 1.0
    half = smoothstep(_neighbours(0.5, 1))
    assert half[1] == 0.5
    assert np.all(np.abs(half - 0.5) <= 4 * np.spacing(0.5))


def test_plateau_bump_rejects_an_empty_transition():
    with pytest.raises(ValueError):
        plateau_bump(0.0, 2.0, 2.0)


def test_smoothstep_ends():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert np.all(smoothstep(np.array([-1.0, -1e-300])) == 0.0)
    assert np.all(smoothstep(np.array([1.0 + 1e-15, 2.0])) == 1.0)


def _masked_integral(tau):
    # the quadrature through mollifier, which masks the nodes outside (-1, 1)
    half = (tau + 1.0) / 2.0
    nodes = -1.0 + half[..., None] * (_GL_NODES + 1.0)
    return half * np.sum(mollifier(nodes) * _GL_WEIGHTS, axis=-1)


def test_mollifier_integral_equals_masked_quadrature():
    rng = np.random.default_rng(3)
    taus = np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 500)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mollifier_integral(taus)
        want = _masked_integral(taus)
    assert np.array_equal(got, want)
    assert got[0] == 0.0


def _unblocked_integral(tau):
    # the quadrature formula over every element at once
    half = (tau + 1.0) / 2.0
    nodes = -1.0 + half[..., None] * (_GL_NODES + 1.0)
    with np.errstate(divide="ignore"):
        values = np.exp(-1.0 / (1.0 - nodes * nodes))
    return half * np.sum(values * _GL_WEIGHTS, axis=-1)


@pytest.mark.parametrize("shape", [(10_000,), (1,), (0,), (), (37, 29)])
def test_blocked_mollifier_integral_equals_unblocked_formula(shape):
    rng = np.random.default_rng(4)
    taus = rng.uniform(-1.0, 1.0, shape)
    if taus.size >= 2:
        taus.flat[:2] = [-1.0, 1.0]
    got = _mollifier_integral(taus)
    assert got.shape == taus.shape
    assert np.array_equal(got, _unblocked_integral(taus))
