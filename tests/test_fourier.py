import math

import numpy as np
import pytest

from mixnorm import (
    Box,
    DyadicSystem,
    GridError,
    NumericalAnomalyError,
    bandlimit,
    besov_norm_fourier,
    build_system,
    difference_maximal_check,
    lp_block,
    lp_norm,
    nikolskij_ratio,
    peetre_maximal,
    sample,
    sobolev_norm_fourier,
    spectral_derivative,
    spectrum,
    system_for,
    tensor_product,
)
from mixnorm.families import random_smooth_field, random_trig_field

BOX1 = Box((-4.0,), (4.0,))
BOX2 = Box((-4.0, -4.0), (4.0, 4.0))


@pytest.mark.parametrize("kind", ["smooth", "sharp"])
def test_partition_of_unity_on_grid(kind):
    sysk = build_system(kind, BOX2, (64, 64))
    for ax in range(2):
        total = sum(sysk.axis_windows[ax][j] for j in range(sysk.j_max[ax] + 1))
        tol = 1e-12 if kind == "smooth" else 0.0
        assert np.max(np.abs(total - 1.0)) <= tol


def test_sharp_windows_disjoint():
    sysk = build_system("sharp", BOX1, 128)
    wins = sysk.axis_windows[0]
    for j in range(len(wins)):
        assert set(np.unique(wins[j])) <= {0.0, 1.0}
        for k in range(j + 1, len(wins)):
            assert not np.any(wins[j] * wins[k])


def test_smooth_window_support():
    sysk = build_system("smooth", BOX1, 256)
    xi = sysk.freqs[0]
    for j in range(1, sysk.j_max[0] + 1):
        w = sysk.axis_windows[0][j]
        outside = (np.abs(xi) < 2.0 ** (j - 1)) | (np.abs(xi) > 3.0 * 2.0 ** (j - 1))
        assert np.max(np.abs(w[outside])) == 0.0


def test_build_system_validation():
    with pytest.raises(GridError, match=">= 16"):
        build_system("smooth", BOX1, 8)
    with pytest.raises(GridError, match="power of two"):
        build_system("smooth", BOX1, 100)
    with pytest.raises(GridError, match="kind"):
        build_system("boxcar", BOX1, 64)


@pytest.mark.parametrize("kind", ["smooth", "sharp"])
def test_block_reconstruction(kind):
    u = random_smooth_field((50, 0), BOX2, 64)
    sysk = system_for(u, kind)
    rec = np.zeros(u.n)
    for k in sysk.levels():
        rec += lp_block(u, k, sysk).values
    assert np.max(np.abs(rec - u.values)) <= 1e-10 * np.max(np.abs(u.values))


def test_block_projection_fixes_bandlimited_input():
    # plant one mode strictly inside a sharp annulus: the block returns it
    sysk = build_system("sharp", BOX1, 256)
    u = sample(lambda x: np.cos(2.0 * np.pi * 0.75 * x), BOX1, 256, extension="periodic")
    xi_mode = 2.0 * np.pi * 0.75
    level = next(
        j for j in range(sysk.j_max[0] + 1)
        if sysk.axis_windows[0][j][np.argmin(np.abs(sysk.freqs[0] - xi_mode))] == 1.0
    )
    block = lp_block(u, (level,), sysk)
    assert np.max(np.abs(block.values - u.values)) < 1e-12


def test_sharp_blocks_orthogonal():
    u = random_smooth_field((51, 0), BOX1, 256)
    sysk = system_for(u, "sharp")
    blocks = [lp_block(u, k, sysk).values for k in sysk.levels()]
    norms = [float(np.sum(b * b)) for b in blocks]
    scale = max(norms)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            inner = float(np.sum(blocks[i] * blocks[j]))  # direct oracle
            assert abs(inner) <= 1e-10 * scale


def test_besov_fourier_zero_and_single_block():
    z = sample(lambda x: np.zeros_like(x), BOX1, 64)
    assert besov_norm_fourier(z, 1.0, 2.0) == 0.0
    sysk = build_system("sharp", BOX1, 256)
    u = sample(lambda x: np.cos(2.0 * np.pi * 1.5 * x), BOX1, 256, extension="periodic")
    xi_mode = 2.0 * np.pi * 1.5
    level = next(
        j for j in range(sysk.j_max[0] + 1)
        if sysk.axis_windows[0][j][np.argmin(np.abs(sysk.freqs[0] - xi_mode))] == 1.0
    )
    got = besov_norm_fourier(u, 0.8, 2.0, sysk)
    assert got == pytest.approx(2.0 ** (0.8 * level) * lp_norm(u, 2.0), rel=1e-12)


def test_sobolev_fourier_parseval():
    u = random_smooth_field((52, 0), BOX2, 64)
    sysk = system_for(u, "sharp")
    assert sobolev_norm_fourier(u, 0, 2.0, sysk) == pytest.approx(lp_norm(u, 2.0), rel=1e-10)


@pytest.mark.parametrize("kind", ["smooth", "sharp"])
@pytest.mark.parametrize("shape", [(256,), (64, 32), (16, 32, 16)])
def test_p2_fourier_norms_match_block_oracle(shape, kind):
    # p = 2 reads block norms off one power spectrum; the oracle forms every block
    d = len(shape)
    u = random_smooth_field((54, d), Box((-4.0,) * d, (4.0,) * d), shape, band_cells=6)
    sysk = system_for(u, kind)
    energy = {k: lp_norm(lp_block(u, k, sysk), 2.0) ** 2 for k in sysk.levels()}
    besov = math.sqrt(sum(2.0 ** (2 * 0.7 * sum(k)) * e for k, e in energy.items()))
    sobolev = math.sqrt(sum(4.0 ** (2 * sum(k)) * e for k, e in energy.items()))
    assert besov_norm_fourier(u, 0.7, 2.0, sysk) == pytest.approx(besov, rel=1e-12)
    assert sobolev_norm_fourier(u, 2, 2.0, sysk) == pytest.approx(sobolev, rel=1e-12)


def test_asymmetric_window_raises_at_p2_as_blocks_do():
    # blocks of a real field are real only for mirror-symmetric windows
    u = random_smooth_field((55, 0), BOX2, 64)
    sysk = system_for(u, "smooth")
    tilted = list(sysk.axis_windows[0])
    tilted[2] = tilted[2] * np.where(sysk.freqs[0] > 0, 1.5, 1.0)
    bad = DyadicSystem("smooth", sysk.shape, sysk.j_max, (tuple(tilted),) + sysk.axis_windows[1:], sysk.freqs)
    with pytest.raises(NumericalAnomalyError):
        besov_norm_fourier(u, 1.0, 3.0, bad)
    with pytest.raises(NumericalAnomalyError):
        besov_norm_fourier(u, 1.0, 2.0, bad)
    with pytest.raises(NumericalAnomalyError):
        sobolev_norm_fourier(u, 1, 2.0, bad)


def test_p2_fourier_weight_overflow_raises():
    u = random_smooth_field((56, 0), BOX2, 64)
    with pytest.raises(NumericalAnomalyError, match="overflows"):
        besov_norm_fourier(u, 1e6, 2.0)


def test_sobolev_fourier_requires_open_p_range():
    u = random_smooth_field((52, 1), BOX1, 64)
    with pytest.raises(GridError, match="1 < p"):
        sobolev_norm_fourier(u, 1, 1.0)
    with pytest.raises(GridError, match="1 < p"):
        sobolev_norm_fourier(u, 1, math.inf)


def test_bandlimit_idempotent_identity_contraction():
    u = random_smooth_field((53, 0), BOX1, 256, window=None)
    b = (20.0,)
    once = bandlimit(u, b)
    twice = bandlimit(once, b)
    assert np.max(np.abs(once.values - twice.values)) < 1e-13
    nyq = math.pi / u.dx[0]
    assert np.max(np.abs(bandlimit(u, (nyq * 1.01,)).values - u.values)) < 1e-12
    assert lp_norm(once, 2.0) <= lp_norm(u, 2.0) * (1 + 1e-12)


def test_nikolskij_identity_case():
    u, b = random_trig_field((54, 0), BOX1, 512, kmax=4, modes=6)
    ratio = nikolskij_ratio(u, (0,), 2.0, 2.0, b)
    assert ratio <= 1.0 + 1e-10
    assert ratio == pytest.approx(1.0, rel=1e-12)


def test_nikolskij_single_mode_oracle():
    # u = cos(b x) exactly on the periodic grid; independent quadrature oracle
    kappa, width = 4, 8.0
    b = 2.0 * math.pi * kappa / width
    u = sample(lambda x: np.cos(b * x), BOX1, 1024, extension="periodic")
    got = nikolskij_ratio(u, (1,), 2.0, 2.0, (b * (1 + 1e-12),))
    xs = BOX1.lower[0] + (width / 1024) * np.arange(1024)
    dstrength = np.sqrt(np.sum((b * np.sin(b * xs)) ** 2) * (width / 1024))
    base = np.sqrt(np.sum(np.cos(b * xs) ** 2) * (width / 1024))
    assert got == pytest.approx(dstrength / (b * (1 + 1e-12) * base), rel=1e-10)


def test_nikolskij_band_sweep_stable():
    ratios = []
    for octave in range(5):
        u, b = random_trig_field((55, 3), BOX1, 1024, kmax=4, modes=6, octave=octave)
        ratios.append(nikolskij_ratio(u, (1,), 2.0, 2.0, b))
    assert max(ratios) / min(ratios) < 2.0


def test_nikolskij_rejects_out_of_band():
    u, b = random_trig_field((55, 4), BOX1, 512, kmax=4, modes=6)
    with pytest.raises(GridError, match="band-limited"):
        nikolskij_ratio(u, (1,), 2.0, 2.0, (b[0] / 8.0,))


def test_spectral_derivative_identity_and_sine():
    u = sample(lambda x: np.sin(2 * np.pi * x), Box((0.0,), (1.0,)), 128, extension="periodic")
    assert spectral_derivative(u, (0,)) is u
    d = spectral_derivative(u, (1,))
    want = 2 * np.pi * np.cos(2 * np.pi * u.nodes(0))
    assert np.max(np.abs(d.values - want)) < 1e-8


def test_spectral_derivative_tensor_factorizes():
    f = random_smooth_field((56, 0), BOX1, 64, band_fraction=0.2)
    g = random_smooth_field((56, 1), BOX1, 64, band_fraction=0.2)
    T = tensor_product(f, g)
    got = spectral_derivative(T, (1, 1))
    oracle = np.multiply.outer(
        spectral_derivative(f, (1,)).values, spectral_derivative(g, (1,)).values
    )
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(got.values - oracle)) < 1e-10 * scale


def test_spectral_derivative_order_cap():
    u = random_smooth_field((56, 2), BOX1, 64)
    with pytest.raises(GridError, match="maximum"):
        spectral_derivative(u, (5,))


def test_peetre_dominates_pointwise_and_constant_case():
    u, b = random_trig_field((57, 0), BOX2, 64, kmax=2, modes=5)
    P = peetre_maximal(u, b, 1.0)
    assert np.all(P.values >= np.abs(u.values) - 1e-14)
    c = sample(lambda x, y: np.full_like(x, -2.5), BOX2, (32, 32))
    Pc = peetre_maximal(c, (4.0, 4.0), 1.0)
    assert np.max(np.abs(Pc.values - 2.5)) < 1e-14


def test_peetre_lp_bound_over_family():
    # a > 1/p: the maximal function stays L_p-comparable to the input
    ratios = []
    for i in range(8):
        u, b = random_trig_field((58, i), BOX2, 64, kmax=2, modes=5)
        ratios.append(lp_norm(peetre_maximal(u, b, 1.0), 2.0) / lp_norm(u, 2.0))
    assert max(ratios) < 5.0


def test_peetre_rejects_bad_exponent():
    u, b = random_trig_field((58, 9), BOX1, 64, kmax=2, modes=3)
    with pytest.raises(GridError, match="positive"):
        peetre_maximal(u, b, 0.0)


def test_difference_maximal_zero_step():
    u, b = random_trig_field((59, 0), BOX2, 64, kmax=2, modes=5)
    assert difference_maximal_check(u, (0, 1), 2, (0.0, 0.0), b, 1.0) == 0.0


def test_difference_maximal_one_dim_reduction():
    u, b = random_trig_field((59, 1), BOX1, 512, kmax=2, modes=5)
    h = 0.4 / b[0]
    got = difference_maximal_check(u, (0,), 2, (h,), b, 1.0)
    # manual form of the single-axis bound
    from mixnorm import mixed_difference
    from mixnorm.differences import snap_step

    h_act = snap_step(h, u.dx[0]) * u.dx[0]
    num = np.abs(mixed_difference(u, (0,), 2, h_act).values)
    P = peetre_maximal(u, b, 1.0).values
    bh = b[0] * h_act
    factor = max(1.0, bh) * min(1.0, bh**2)
    manual = float(np.max(num / (factor * P)))
    assert got == pytest.approx(manual, rel=1e-12)


def test_spectrum_conjugate_symmetry():
    u = random_smooth_field((60, 0), BOX1, 128, window=None)
    co = spectrum(u).coefficients
    flipped = np.conj(np.roll(co[::-1], 1))
    assert np.max(np.abs(co - flipped)) < 1e-10 * np.max(np.abs(co))
