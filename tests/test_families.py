import math
import warnings

import numpy as np
import pytest

from mixnorm import (
    Box,
    GridError,
    coarsen,
    dyadic_dilate,
    isotropic_besov_norm,
    lp_norm,
    rate_fit,
    sample,
    tensor_product,
)
from mixnorm.families import (
    base_bump,
    companion_bump,
    dilated_family,
    oscillatory_family,
    oscillatory_profile,
    plateau_bump,
    random_smooth_field,
    random_trig_field,
    tensor_pair_family,
)

BOX1 = Box((-6.0,), (6.0,))


def test_dilated_member_zero_is_base():
    fam = dilated_family(3, 4096)
    base = base_bump(BOX1, 4096)
    assert np.array_equal(fam.members[0].values, base.values)


def test_dilated_self_similarity_bit_exact():
    fam = dilated_family(4, 8192)
    for n in range(4):
        dil = dyadic_dilate(fam.members[n], 1)
        assert np.array_equal(dil.values, fam.members[n + 1].values)


def test_dilated_lp_scaling_matched_grids():
    fam = dilated_family(4, 8192)
    f0 = fam.members[0]
    for n, fn in zip(fam.indices, fam.members):
        if n == 0:
            continue
        ref = coarsen(f0, 2**n)
        for p in (1.0, 2.0):
            assert lp_norm(fn, p) == pytest.approx(
                2.0 ** (-n / p) * lp_norm(ref, p), rel=1e-10
            )


def test_dilated_plateau_sup_is_one():
    fam = dilated_family(6, 2**14)
    for fn in fam.members:
        assert lp_norm(fn, math.inf) == 1.0


def test_dilated_resolution_guard():
    with pytest.raises(GridError, match="16 cells"):
        dilated_family(8, 4096)


def test_dilated_besov_slope_quick():
    fam = dilated_family(5, 2**13)
    series = {n: isotropic_besov_norm(f, 1.0, 2.0, 2) for n, f in zip(fam.indices, fam.members)}
    c, _ = rate_fit(series, "geometric")
    assert 0.3 < c < 0.6


def test_oscillatory_plateau_values_exact():
    fam = oscillatory_family(4, resolution=2**14, n_min=2)
    for n, f in zip(fam.indices, fam.members):
        t = f.nodes(0)
        on_plateau = (t >= 1.0 / n + f.dx[0]) & (t <= 1.0 - f.dx[0])
        want = t[on_plateau] * np.sin(t[on_plateau] ** -1.6)
        assert np.array_equal(f.values[on_plateau], want)


def test_oscillatory_support():
    fam = oscillatory_family(3, resolution=2**14, n_min=3)
    f = fam.members[0]
    t = f.nodes(0)
    outside = (t <= 1.0 / 6.0) | (t >= 1.5)
    assert not np.any(f.values[outside])


def test_oscillatory_sup_norm_window():
    # |t sin(t^-eps)| <= t <= 3/2 on the support; for eps = 1.6 the sup is
    # attained at the plateau edge t = 1 with value sin(1), independent of n
    fam = oscillatory_family(6, resolution=2**15, n_min=4)
    sups = [lp_norm(f, math.inf) for f in fam.members]
    for sup in sups:
        assert 0.75 < sup <= 1.5
        assert sup == pytest.approx(math.sin(1.0), abs=5e-4)


def test_oscillatory_linear_ramp_piecewise():
    # second differences vanish on the plateau and on both linear pieces
    fam = oscillatory_family(2, resolution=2**14, n_min=2)
    f = fam.members[0]
    t = f.nodes(0)
    phi = np.zeros_like(t)
    pos = t > 0.25
    phi[pos] = f.values[pos] / (t[pos] * np.sin(t[pos] ** -1.6))
    second = phi[2:] - 2 * phi[1:-1] + phi[:-2]
    linear_idx = ((t > 0.26) & (t < 0.49)) | ((t > 1.01) & (t < 1.49))
    assert np.max(np.abs(second[linear_idx[1:-1]])) < 1e-10


def test_oscillatory_derivative_growth_rate():
    # spectral-free check of the derivative-norm growth along the family;
    # the law is asymptotic, so measure the per-member constant directly
    fam = oscillatory_family(10, resolution=2**17, n_min=2)
    series = {}
    for n, f in zip(fam.indices, fam.members):
        dx = f.dx[0]
        fp = np.diff(f.values) / dx
        series[n] = float(np.sqrt(np.sum(fp**2) * dx))
    consts = [series[n] / n**1.1 for n in fam.indices]
    assert max(consts) / min(consts) < 1.25
    c, _ = rate_fit({n: series[n] for n in fam.indices if n >= 4}, "power")
    assert abs(c - 1.1) < 0.1


def test_oscillatory_resolution_reduces_n_max():
    with pytest.warns(UserWarning, match="reducing n_max"):
        fam = oscillatory_family(8, resolution=2**12, n_min=1)
    assert fam.indices[-1] < 8


def test_oscillatory_epsilon_warnings():
    with pytest.warns(UserWarning, match="1/p"):
        oscillatory_family(2, epsilon=0.4, resolution=2**14, n_min=2, p=2.0)
    with pytest.warns(UserWarning, match="excluded"):
        oscillatory_family(2, epsilon=1.5, resolution=2**14, n_min=2, p=2.0)


def test_smooth_ramp_derivative_is_lipschitz():
    fam = oscillatory_family(3, ramp="smooth", resolution=2**14, n_min=3)
    f = fam.members[0]
    t = f.nodes(0)
    phi = np.zeros_like(t)
    pos = t > 1.0 / 6.0
    phi[pos] = f.values[pos] / (t[pos] * np.sin(t[pos] ** -1.6))
    dphi = np.diff(phi) / f.dx[0]
    ddphi = np.abs(np.diff(dphi)) / f.dx[0]
    ramp_zone = (t[1:-1] > 1.0 / 6.0 + f.dx[0]) & (t[1:-1] < 1.0 / 3.0 - f.dx[0])
    # bounded second derivative on the join (cubic profile: |phi''| <= 6 (2n)^2)
    assert np.max(ddphi[ramp_zone]) < 6.5 * 36.0


def test_tensor_pair_product_structure():
    base = dilated_family(2, 256)
    g = companion_bump(BOX1, 256)
    fam = tensor_pair_family(base, 2, g)
    for n, (F, G) in zip(fam.indices, fam.members):
        f = base.members[n]
        prod = F.values * G.values
        oracle = np.multiply.outer(f.values, f.values)  # f_n g = f_n on the plateau
        assert np.array_equal(prod, oracle)
        assert lp_norm(F, math.inf) == 1.0


def test_tensor_pair_cross_norm():
    base = dilated_family(2, 256)
    g = companion_bump(BOX1, 256)
    fam = tensor_pair_family(base, 2, g)
    for n, (F, _) in zip(fam.indices, fam.members):
        f = base.members[n]
        got = isotropic_besov_norm(f, 1.0, 2.0, 2) * isotropic_besov_norm(g, 1.0, 2.0, 2)
        from mixnorm import besov_norm_diff

        assert besov_norm_diff(F, 1.0, 2.0, 2) == pytest.approx(got, rel=1e-10)


def test_tensor_pair_rejects_narrow_companion():
    base = dilated_family(1, 512)
    narrow = companion_bump(BOX1, 512, plateau=0.5, support=1.0)
    with pytest.raises(GridError, match="plateau"):
        tensor_pair_family(base, 2, narrow)


def test_tensor_pair_materialization_guard():
    base = dilated_family(2, 8192)
    g = companion_bump(BOX1, 8192)
    with pytest.raises(GridError, match="materializ"):
        tensor_pair_family(base, 3, g)
    fam = tensor_pair_family(base, 3, g, materialize=False)
    assert fam.members == ()
    assert len(fam.base_members) == 3


def test_rate_fit_exact_geometric():
    series = {n: 2.0 ** (0.5 * n) for n in range(8)}
    c, resid = rate_fit(series, "geometric")
    assert c == pytest.approx(0.5, abs=1e-13)
    assert resid <= 1e-12


def test_rate_fit_exact_power():
    series = {n: float(n) ** 2 for n in range(1, 9)}
    c, resid = rate_fit(series, "power")
    assert c == pytest.approx(2.0, abs=1e-12)
    assert resid <= 1e-11


def test_rate_fit_noisy_geometric():
    series = {n: 3.0 * 2.0 ** (0.5 * n) * (1.0 + 0.1 * (-1.0) ** n) for n in range(8)}
    c, _ = rate_fit(series, "geometric")
    # independent least-squares oracle via the normal equations
    xs = np.arange(8.0)
    ys = np.log2(np.array([series[n] for n in range(8)]))
    xbar, ybar = xs.mean(), ys.mean()
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2))
    assert c == pytest.approx(slope, rel=1e-12)
    assert 0.4 <= c <= 0.6


def test_rate_fit_validation():
    with pytest.raises(GridError, match=">= 4"):
        rate_fit({0: 1.0, 1: 2.0, 2: 4.0}, "geometric")
    with pytest.raises(GridError, match="positive"):
        rate_fit({0: 1.0, 1: -2.0, 2: 4.0, 3: 8.0}, "geometric")
    with pytest.raises(GridError, match="model"):
        rate_fit({n: 1.0 for n in range(4)}, "exponential")


def test_random_smooth_field_deterministic_and_windowed():
    box = Box((-4.0, -4.0), (4.0, 4.0))
    a = random_smooth_field((9, 1), box, 64)
    b = random_smooth_field((9, 1), box, 64)
    assert np.array_equal(a.values, b.values)
    xs = a.nodes(0)
    outside = np.abs(xs) >= 2.0
    assert not np.any(a.values[outside][:, None] * np.ones((1, 64)))


@pytest.mark.parametrize("shape", [(96,), (64, 48), (40, 48, 36)])
def test_random_smooth_field_matches_offset_loop_and_meshgrid_window(shape):
    d, band = len(shape), 8
    box = Box((-4.0,) * d, (4.0,) * d)
    u = random_smooth_field((12, d), box, shape, band_cells=band)
    # reference: one coefficient per offset in a Python loop, window sampled on the meshgrid
    rng = np.random.default_rng((12, d))
    side = 2 * band + 1
    draw = rng.standard_normal((side,) * d) + 1j * rng.standard_normal((side,) * d)
    sym = 0.5 * (draw + np.conj(draw[(slice(None, None, -1),) * d]))
    coeffs = np.zeros(shape, dtype=complex)
    for offset in np.ndindex(*(side,) * d):
        coeffs[tuple((o - band) % n for o, n in zip(offset, shape))] = sym[offset]
    values = np.fft.ifftn(coeffs).real * (np.prod(shape) / float(np.sqrt(np.sum(np.abs(sym) ** 2))))
    win = sample(lambda *xs: math.prod(plateau_bump(x, 1.5, 2.0) for x in xs), box, shape)
    assert np.array_equal(u.values, values * win.values)


def test_random_trig_field_band_limited():
    from mixnorm.fourier import band_energy_fraction

    box = Box((-4.0, -4.0), (4.0, 4.0))
    u, b = random_trig_field((10, 0), box, 128, kmax=3, modes=6, octave=2)
    assert band_energy_fraction(u, b) <= 1e-12
    assert u.extension == "periodic"
