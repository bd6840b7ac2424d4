import itertools
import math

import numpy as np
import pytest

from mixnorm import (
    Box,
    GridError,
    GridFunction,
    SpaceSpec,
    cmix_norm,
    derivative,
    dyadic_dilate,
    embedding_ratio,
    lp_norm,
    mixed_sup_lp,
    pointwise_multiply,
    sample,
    sobolev_norm_full,
    sobolev_norm_reduced,
    spectral_derivative,
    tensor_product,
)
from mixnorm.families import base_bump, random_smooth_field

BOX1 = Box((-4.0,), (4.0,))
BOX2 = Box((-4.0, -4.0), (4.0, 4.0))


def test_full_norm_order_zero_is_lp():
    u = random_smooth_field((70, 0), BOX2, 64)
    assert sobolev_norm_full(u, 0, 2.0) == pytest.approx(lp_norm(u, 2.0), rel=1e-14)


def test_full_norm_term_count_d2_m1():
    u = random_smooth_field((70, 1), BOX2, 64)
    manual = sum(
        lp_norm(derivative(u, alpha), 2.0)
        for alpha in itertools.product(range(2), repeat=2)
    )
    assert sobolev_norm_full(u, 1, 2.0) == pytest.approx(manual, rel=1e-13)
    # m = 1: corner set {0, 1}^2 is the whole index set
    assert sobolev_norm_reduced(u, 1, 2.0) == pytest.approx(manual, rel=1e-13)


def test_reduced_norm_d1_m1():
    u = random_smooth_field((70, 2), BOX1, 128)
    want = lp_norm(u, 2.0) + lp_norm(derivative(u, (1,)), 2.0)
    assert sobolev_norm_reduced(u, 1, 2.0) == pytest.approx(want, rel=1e-13)


def test_reduced_below_full():
    for i in range(3):
        u = random_smooth_field((71, i), BOX2, 64)
        assert sobolev_norm_reduced(u, 2, 2.0) <= sobolev_norm_full(u, 2, 2.0) * (1 + 1e-12)


def test_full_reduced_bracket_family():
    ratios = []
    for i in range(6):
        u = random_smooth_field((72, i), BOX2, 64)
        ratios.append(sobolev_norm_full(u, 2, 2.0) / sobolev_norm_reduced(u, 2, 2.0))
    # subset structure bounds the ratio between 1 and the term-count quotient
    assert all(1.0 <= rho <= 9.0 / 4.0 for rho in ratios)


@pytest.mark.parametrize("shape", [(64,), (63,), (32, 31), (31, 32), (15, 16, 17)])
def test_p2_spectral_norms_match_derivative_oracle(shape):
    # white noise fills every bin, the Nyquist bin of even axes included, so
    # the odd-order Nyquist rule and the folding of the rfft half axis both show
    d = len(shape)
    box = Box((-4.0,) * d, (4.0,) * d)
    u = GridFunction(box, np.random.default_rng(71).standard_normal(shape))
    m = 2 if d < 3 else 1
    full = sum(lp_norm(spectral_derivative(u, a), 2.0) for a in itertools.product(range(m + 1), repeat=d))
    reduced = sum(lp_norm(spectral_derivative(u, a), 2.0) for a in itertools.product((0, m), repeat=d))
    assert sobolev_norm_full(u, m, 2.0) == pytest.approx(full, rel=1e-12)
    assert sobolev_norm_reduced(u, m, 2.0) == pytest.approx(reduced, rel=1e-12)


def complex_derivative(u, alpha):
    # reference: one complex transform pair per alpha, the Nyquist mode of an
    # even axis zeroed at odd orders
    out = np.fft.fftn(u.values)
    for axis, (n, dx, a) in enumerate(zip(u.n, u.dx, alpha)):
        mult = (1j * 2.0 * np.pi * np.fft.fftfreq(n, d=dx)) ** a
        if a % 2 == 1 and n % 2 == 0:
            mult[n // 2] = 0.0
        out = out * mult.reshape([-1 if i == axis else 1 for i in range(u.d)])
    return np.fft.ifftn(out).real


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("shape", [(64,), (63,), (32, 31), (31, 32), (15, 16, 17)])
def test_spectral_norms_match_complex_derivatives_away_from_p2(shape, p, monkeypatch):
    d = len(shape)
    u = GridFunction(Box((-4.0,) * d, (4.0,) * d), np.random.default_rng(72).standard_normal(shape))
    m = 2 if d < 3 else 1
    vol = u.cell_volume
    derivs = {a: complex_derivative(u, a) for a in itertools.product(range(m + 1), repeat=d)}
    norm = {a: (np.sum(np.abs(v) ** p) * vol) ** (1 / p) for a, v in derivs.items()}
    corners = set(itertools.product((0, m), repeat=d))
    beta = (1,) + (m,) * (d - 1)
    sup_lp = np.max(np.abs(derivs[beta]), axis=tuple(range(1, d))) if d > 1 else np.abs(derivs[beta])
    forward = []
    rfftn = np.fft.rfftn

    def counted_rfftn(*args, **kwargs):
        forward.append(args[0].shape)
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counted_rfftn)
    calls = [
        (sobolev_norm_full, (u, m, p), sum(norm.values())),
        (sobolev_norm_reduced, (u, m, p), sum(norm[a] for a in corners)),
        (cmix_norm, (u, m), sum(np.max(np.abs(v)) for v in derivs.values())),
        (mixed_sup_lp, (u, beta, 1, p), (np.sum(sup_lp**p) * u.dx[0]) ** (1 / p)),
    ]
    for fn, args, want in calls:
        forward.clear()
        assert fn(*args) == pytest.approx(want, rel=1e-13), fn.__name__
        assert len(forward) == 1, fn.__name__


def test_sobolev_p_range_enforced():
    u = random_smooth_field((72, 7), BOX1, 64)
    with pytest.raises(GridError, match="1 < p"):
        sobolev_norm_full(u, 1, 1.0)
    with pytest.raises(GridError, match="1 < p"):
        sobolev_norm_reduced(u, 1, math.inf)


def test_tensor_factorization_full_norm():
    f = random_smooth_field((73, 0), BOX1, 64, band_fraction=0.2)
    g = random_smooth_field((73, 1), BOX1, 64, band_fraction=0.2)
    lhs = sobolev_norm_full(tensor_product(f, g), 2, 2.0)
    rhs = sobolev_norm_full(f, 2, 2.0) * sobolev_norm_full(g, 2, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_cmix_order_zero_and_constant():
    u = random_smooth_field((74, 0), BOX2, 64)
    assert cmix_norm(u, 0) == pytest.approx(lp_norm(u, math.inf), rel=1e-14)
    c = sample(lambda x, y: np.full_like(x, 1.75), BOX2, (64, 64))
    assert cmix_norm(c, 2) == pytest.approx(1.75, abs=1e-9)


def test_cmix_algebra_constant_logged():
    u = random_smooth_field((74, 1), BOX2, 64)
    v = random_smooth_field((74, 2), BOX2, 64)
    ratio = cmix_norm(pointwise_multiply(u, v), 1) / (cmix_norm(u, 1) * cmix_norm(v, 1))
    # product-rule term count caps the constant for m = 1, d = 2
    assert ratio <= 4.0


def test_mixed_sup_lp_full_split_bit_identical():
    u = random_smooth_field((75, 0), BOX2, 64)
    a = mixed_sup_lp(u, (1, 0), 2, 2.0)
    b = lp_norm(derivative(u, (1, 0)), 2.0)
    assert a == b


def test_mixed_sup_lp_tensor_oracle():
    f = random_smooth_field((75, 1), BOX1, 64, band_fraction=0.2)
    g = random_smooth_field((75, 2), BOX1, 64, band_fraction=0.2)
    T = tensor_product(f, g)
    got = mixed_sup_lp(T, (1, 0), 1, 2.0)
    want = lp_norm(derivative(f, (1,)), 2.0) * lp_norm(g, math.inf)
    assert got == pytest.approx(want, rel=1e-10)


def test_mixed_sup_lp_split_validation():
    u = random_smooth_field((75, 3), BOX2, 64)
    with pytest.raises(GridError, match="split"):
        mixed_sup_lp(u, (1, 0), 0, 2.0)
    with pytest.raises(GridError, match="split"):
        mixed_sup_lp(u, (1, 0), 3, 2.0)


def test_trace_ratio_bounded_on_family():
    ratios = []
    for i in range(5):
        u = random_smooth_field((76, i), BOX2, 64)
        ratios.append(mixed_sup_lp(u, (1, 0), 1, 2.0) / sobolev_norm_full(u, 1, 2.0))
    assert max(ratios) < 3.0


def test_embedding_ratio_bump_finite_and_zero_rejected():
    u = base_bump(BOX1, 1024)
    spec = SpaceSpec("besov", 2.0, r=0.8, m_diff=1)
    rho = embedding_ratio(u, spec)
    assert 0.0 < rho < 1.0
    z = sample(lambda x: np.zeros_like(x), BOX1, 256)
    with pytest.raises(GridError, match="zero"):
        embedding_ratio(z, spec)


def test_embedding_growth_below_threshold():
    # dilated members lose Besov mass faster than sup-norm when r < 1/p
    u = base_bump(BOX1, 8192)
    spec = SpaceSpec("besov", 2.0, r=0.3, m_diff=1)
    r2 = embedding_ratio(dyadic_dilate(u, 2), spec)
    r5 = embedding_ratio(dyadic_dilate(u, 5), spec)
    assert r5 > r2


def test_central_difference_cross_check():
    # compactly supported smooth sample: both realizations agree away from
    # the (zero) boundary, central differences carrying the O(dx^2) error
    u = base_bump(BOX1, 2048)
    spec_d = derivative(u, (1,), "spectral").values
    cent_d = derivative(u, (1,), "central").values
    assert np.max(np.abs(spec_d - cent_d)) < 5e-4 * np.max(np.abs(spec_d))


def test_central_difference_needs_enough_cells():
    u = sample(lambda x: x, BOX1, 5)
    with pytest.raises(GridError, match="interior"):
        derivative(u, (1,), "central")
