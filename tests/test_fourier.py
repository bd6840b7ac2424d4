import itertools
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
    system_for,
    tensor_product,
)
from mixnorm.families import random_smooth_field, random_trig_field
from mixnorm.fourier import _angular_freqs, _axis_windows, _derivative_symbol, band_energy_fraction
from mixnorm.grid import GridFunction, _dyadic_aggregates, power_table, shift_values
from mixnorm.sobolev import sobolev_norm_full, sobolev_norm_reduced

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
    build_system("smooth", BOX1, 64)  # a cached axis does not bypass the checks of later calls
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
    # blocks of a real field are real only for mirror-symmetric windows; a real
    # inverse transform would symmetrize a tilted one, so every path checks them
    u = random_smooth_field((55, 0), BOX2, 64)
    sysk = system_for(u, "smooth")
    tilted = list(sysk.axis_windows[0])
    tilted[2] = tilted[2] * np.where(sysk.freqs[0] > 0, 1.5, 1.0)
    bad = DyadicSystem("smooth", sysk.shape, sysk.j_max, (tuple(tilted),) + sysk.axis_windows[1:], sysk.freqs)
    calls = [
        lambda: besov_norm_fourier(u, 1.0, 3.0, bad),
        lambda: besov_norm_fourier(u, 1.0, 2.0, bad),
        lambda: besov_norm_fourier(u, 1.0, math.inf, bad),
        lambda: sobolev_norm_fourier(u, 1, 2.0, bad),
        lambda: sobolev_norm_fourier(u, 1, 3.0, bad),
        lambda: lp_block(u, (0, 0), bad),
    ]
    for call in calls:
        with pytest.raises(NumericalAnomalyError, match="mirror-symmetric"):
            call()


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_p2_fourier_weight_overflow_raises(p):
    u = random_smooth_field((56, 0), BOX2, 64)
    with pytest.raises(NumericalAnomalyError, match="overflows"):
        besov_norm_fourier(u, 1e6, p)


def complex_masked_inverse(values, masks):
    # reference: the complex transform pair, one mask per axis (None: no mask),
    # whose imaginary residue stays within 1e-10 of the result when the masks are Hermitian
    out = np.fft.fftn(values, norm="ortho")
    for axis, mask in enumerate(masks):
        if mask is not None:
            out = out * mask.reshape([-1 if i == axis else 1 for i in range(values.ndim)])
    block = np.fft.ifftn(out, norm="ortho")
    assert np.max(np.abs(block.imag)) <= 1e-10 * max(float(np.max(np.abs(block))), 1e-300)
    return block.real


def oracle_symbol(xi, a):
    # (i xi)^a, with the unpaired Nyquist mode of an even axis zeroed at odd a
    mult = (1j * xi) ** a
    if a % 2 == 1 and xi.shape[0] % 2 == 0:
        mult[xi.shape[0] // 2] = 0.0
    return mult


def system_on(u, kind):
    # build_system takes powers of two only; the windows are defined on any grid
    freqs = tuple(_angular_freqs(u))
    windows = tuple(tuple(_axis_windows(xi, kind)) for xi in freqs)
    return DyadicSystem(kind, u.n, tuple(len(w) - 1 for w in windows), windows, freqs)


def oracle_blocks(u, sysk):
    return {k: complex_masked_inverse(u.values, [sysk.axis_windows[i][ki] for i, ki in enumerate(k)])
            for k in sysk.levels()}


# odd and even axes, an odd last axis among them; white noise fills every bin,
# the Nyquist bin of even axes included
ORACLE_SHAPES = [(64,), (45,), (32, 16), (31, 17), (16, 15), (8, 9, 10), (15, 16, 17)]


def noise(shape, extension):
    d = len(shape)
    values = np.random.default_rng([*shape, extension == "zero"]).standard_normal(shape)
    return GridFunction(Box((-4.0,) * d, (4.0,) * d), values, extension)


@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_real_transforms_match_complex_oracle(shape, extension):
    u = noise(shape, extension)
    d = len(shape)
    for kind in ("smooth", "sharp"):
        sysk = system_on(u, kind)
        for k, want in oracle_blocks(u, sysk).items():
            got = lp_block(u, k, sysk).values
            # a block's rounding error scales with the whole spectrum, not with the block
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(u.values)), (kind, k)
    xi = _angular_freqs(u)
    b = [0.4 * float(np.max(np.abs(x))) for x in xi]
    want = complex_masked_inverse(u.values, [(np.abs(x) <= bi).astype(float) for x, bi in zip(xi, b)])
    assert np.max(np.abs(bandlimit(u, b).values - want)) <= 1e-13 * np.max(np.abs(want))
    for alpha in [(1,) * d, (2,) * d, (3,) + (0,) * (d - 1), (0,) * (d - 1) + (1,), (4, 1, 2)[:d]]:
        want = complex_masked_inverse(u.values, [oracle_symbol(x, a) for x, a in zip(xi, alpha)])
        got = spectral_derivative(u, alpha).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), alpha


@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_fourier_norms_match_complex_block_oracle(shape, extension):
    u = noise(shape, extension)
    vol = u.cell_volume
    for kind in ("smooth", "sharp"):
        sysk = system_on(u, kind)
        blocks = oracle_blocks(u, sysk)
        for p in (1.0, 1.5, 3.0, math.inf):
            if math.isinf(p):
                want = max(2.0 ** (0.7 * sum(k)) * np.max(np.abs(b)) for k, b in blocks.items())
            else:
                want = sum(2.0 ** (0.7 * sum(k) * p) * np.sum(np.abs(b) ** p) * vol for k, b in blocks.items()) ** (1 / p)
            assert besov_norm_fourier(u, 0.7, p, sysk) == pytest.approx(want, rel=1e-13), (kind, p)
        square_sum = sum(4.0 ** sum(k) * b * b for k, b in blocks.items())
        for p in (1.5, 3.0):
            want = (np.sum(np.sqrt(square_sum) ** p) * vol) ** (1 / p)
            assert sobolev_norm_fourier(u, 1, p, sysk) == pytest.approx(want, rel=1e-13), (kind, p)


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
    # and difference_maximal_check rejects it alike
    u, b = random_trig_field((55, 4), BOX1, 512, kmax=4, modes=6)
    narrow = (b[0] / 8.0,)
    with pytest.raises(GridError, match="band-limited") as nikolskij:
        nikolskij_ratio(u, (1,), 2.0, 2.0, narrow)
    with pytest.raises(GridError, match="band-limited") as maximal:
        difference_maximal_check(u, (0,), 2, [0.1], narrow, 1.0)
    assert str(nikolskij.value) == str(maximal.value)


BAND_CALLS = {
    "bandlimit": lambda u, b: bandlimit(u, b),
    "band_energy_fraction": lambda u, b: band_energy_fraction(u, b),
    "nikolskij_ratio": lambda u, b: nikolskij_ratio(u, (1, 0), 2.0, 2.0, b),
    "difference_maximal_check": lambda u, b: difference_maximal_check(u, (0,), 2, [0.1], b, 1.0),
}


@pytest.mark.parametrize("b", [0.0, -1.0])
@pytest.mark.parametrize("name", sorted(BAND_CALLS))
def test_band_bounds_must_be_positive_everywhere(name, b):
    u, _ = random_trig_field((55, 5), BOX2, 64, kmax=2, modes=3)
    with pytest.raises(GridError, match="band bounds must be positive"):
        BAND_CALLS[name](u, b)


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


def peetre_per_offset(u, b, a):
    # reference: the per-offset loop, one shifted copy of the field per offset
    bv = tuple(b)
    acc = np.abs(u.values)
    for axis in range(u.d):
        n = u.n[axis]
        dxv = u.dx[axis]
        if u.extension == "periodic":
            offsets = range(-(n // 2), n // 2 + 1)
        else:
            offsets = range(-(n - 1), n)
        out = np.zeros_like(acc)
        for si in offsets:
            w = (1.0 + abs(bv[axis] * dxv * si)) ** (-a)
            cand = shift_values(acc, axis, -si, u.extension)
            np.maximum(out, w * cand, out=out)
        acc = out
    return acc


def peetre_fields(shape, seed):
    # a generic field, one that is zero on most lines of every axis, one that
    # is nonzero on a few scattered nodes only, and a constant one
    rng = np.random.default_rng(seed)
    generic = rng.standard_normal(shape)
    zero_lines = generic.copy()
    for axis in range(len(shape)):
        keep = np.zeros(shape[axis], dtype=bool)
        keep[rng.choice(shape[axis], size=(shape[axis] + 2) // 3, replace=False)] = True
        zero_lines *= keep.reshape([-1 if i == axis else 1 for i in range(len(shape))])
    sparse = np.where(rng.random(shape) < 0.03, generic, 0.0)
    return {"generic": generic, "zero_lines": zero_lines, "sparse": sparse,
            "constant": np.full(shape, -2.5)}


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("extension", ["periodic", "zero"])
@pytest.mark.parametrize("shape", [(45,), (64,), (32, 32), (31, 17), (8, 9, 10), (33, 40, 17)],
                         ids=lambda s: "x".join(map(str, s)))
def test_peetre_matches_per_offset_loop(shape, extension, a):
    d = len(shape)
    box = Box((-4.0,) * d, (4.0,) * d)
    b = (0.7, 6.0, 40.0)[:d]  # anisotropic: slow, medium and fast decay of the weight
    for name, values in peetre_fields(shape, [*shape, extension == "periodic"]).items():
        u = GridFunction(box, values, extension)
        assert np.array_equal(peetre_maximal(u, b, a).values, peetre_per_offset(u, b, a)), name


@pytest.mark.parametrize("periodic", [True, False])
def test_line_max_convolution_with_rising_weights(periodic):
    # the per-line stop bounds far offsets by the largest weight at that
    # distance or beyond, so weights need not decrease
    from mixnorm.fourier import _max_convolve_lines

    rng = np.random.default_rng(61)
    n = 40
    reach = n // 2 if periodic else n - 1
    weights = list(rng.uniform(0.0, 0.05, reach + 1))
    weights[0] = 1.0
    weights[reach - 2] = 0.9  # a far offset that still wins
    src = np.abs(rng.standard_normal((12, n))) * rng.uniform(0.0, 3.0, (12, 1))
    src[3] = 0.0
    src[5] = 1.5
    expected = line_max_per_offset(src, weights, periodic)
    # the helper runs its lines down the columns
    assert np.array_equal(_max_convolve_lines(np.ascontiguousarray(src.T), weights, periodic).T, expected)


def line_max_per_offset(src, weights, periodic):
    # reference: rows of max over |s| < len(weights) of weights[|s|] * src[:, j - s]
    extension = "periodic" if periodic else "zero"
    expected = np.zeros_like(src)
    for s in range(-(len(weights) - 1), len(weights)):
        expected = np.maximum(expected, weights[abs(s)] * shift_values(src, 1, -s, extension))
    return expected


@pytest.mark.parametrize("periodic", [True, False])
def test_line_max_convolution_gathers_lines_that_stop_apart(periodic, monkeypatch):
    # zero lines stop at the first test, densely spiked lines within a few
    # offsets, sparsely spiked ones later, and lines with one spike at their
    # end run to the last offset; so the live lines are gathered more than once
    import mixnorm.fourier as fourier

    n = 61
    reach = n // 2 if periodic else n - 1
    weights = [(1.0 + 0.05 * s) ** -1.0 for s in range(reach + 1)]
    rng = np.random.default_rng(62)
    src = np.zeros((16, n))
    for line, gap in zip(range(4, 16, 4), (3, 20, n)):
        src[line:line + 4, ::gap] = rng.uniform(0.5, 2.0, (4, len(range(0, n, gap))))
    src[12:] = src[12:, ::-1]  # one spike at the last node
    seen = []

    def spy(lines, k, periodic, out):
        assert lines.flags.c_contiguous and out.flags.c_contiguous
        seen.append((lines.shape[1], k))
        real_neighbour_max(lines, k, periodic, out)

    real_neighbour_max = fourier._neighbour_max
    monkeypatch.setattr(fourier, "_neighbour_max", spy)
    got = fourier._max_convolve_lines(np.ascontiguousarray(src.T), weights, periodic).T
    assert np.array_equal(got, line_max_per_offset(src, weights, periodic))
    assert len({width for width, _ in seen}) >= 3
    if not periodic:
        assert any(2 * k > n for _, k in seen)


def test_peetre_peak_memory_stays_flat():
    # the lines, a copy of them and one scratch array, each of the field's
    # size; the gathers of live lines reuse their memory
    import tracemalloc

    u, b = random_trig_field((7, 0), BOX2, 256, 4, 8, 0)
    tracemalloc.start()
    try:
        peetre_maximal(u, b, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * u.values.nbytes


def test_peetre_rejects_bad_exponent():
    u, b = random_trig_field((58, 9), BOX1, 64, kmax=2, modes=3)
    with pytest.raises(GridError, match="positive"):
        peetre_maximal(u, b, 0.0)


def test_difference_maximal_zero_step():
    u, b = random_trig_field((59, 0), BOX2, 64, kmax=2, modes=5)
    assert difference_maximal_check(u, (0, 1), 2, [(0.0, 0.0)], b, 1.0) == [0.0]


def test_difference_maximal_one_dim_reduction():
    u, b = random_trig_field((59, 1), BOX1, 512, kmax=2, modes=5)
    h = 0.4 / b[0]
    (got,) = difference_maximal_check(u, (0,), 2, [(h,)], b, 1.0)
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


@pytest.mark.parametrize("n", [15, 16, 63, 64])
def test_real_inverse_masks_are_hermitian(n):
    # a real inverse transform reads half the bins of its last axis, so every
    # mask must satisfy s[-k mod n] = conj s[k]: the derivative symbols ...
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=8.0 / n)
    mirror = -np.arange(n) % n
    for a in range(5):
        s = _derivative_symbol(xi, a)
        assert np.max(np.abs(s[mirror] - np.conj(s))) <= 1e-13 * np.max(np.abs(s)), a
    # ... and the windows of both system kinds, which on powers of two are the builder's
    for kind in ("smooth", "sharp"):
        windows = system_on(GridFunction(BOX1, np.zeros(n)), kind).axis_windows[0]
        if n & (n - 1) == 0:
            assert np.array_equal(build_system(kind, BOX1, n).axis_windows[0], windows)
        for w in windows:
            assert np.array_equal(w[mirror], w), kind


@pytest.mark.parametrize("kind", ["smooth", "sharp"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_memoized_windows_are_read_only_and_match_a_fresh_build(kind, n):
    sysk = build_system(kind, BOX1, n)
    windows, xi = sysk.axis_windows[0], sysk.freqs[0]
    for arr in (windows, windows[0], xi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    fresh_xi = 2.0 * np.pi * np.fft.fftfreq(n, d=8.0 / n)
    assert np.array_equal(xi, fresh_xi)
    assert np.array_equal(windows, _axis_windows(fresh_xi, kind))
    # a later system on the same axis reads the same arrays, however its resolution is spelled
    assert np.array_equal(build_system(kind, BOX1, (n,)).axis_windows[0], windows)
    assert build_system(kind, BOX2, (n, n)).axis_windows[1] is windows


def uncached_p2_norms(u):
    # the cached p = 2 norms from power_table(u.values, ...), which keeps no spectrum
    windows = [np.asarray(w) for w in system_for(u, "smooth").axis_windows]
    blocks = power_table(u.values, [[w**2 for w in windows]], u.cell_volume)[0]
    levels = np.indices(blocks.shape).sum(axis=0)
    besov = _dyadic_aggregates(blocks[None], 0.7 * levels, 2.0)[0]
    symbols = [np.array([np.abs(_derivative_symbol(xi, a)) ** 2 for a in range(2)]) for xi in _angular_freqs(u)]
    derivs = power_table(u.values, [symbols], u.cell_volume)[0]
    full = sum(float(derivs[alpha]) for alpha in itertools.product(range(2), repeat=u.d))
    reduced = sum(float(derivs[alpha]) for alpha in sorted(set(itertools.product((0, 1), repeat=u.d))))
    masks = [(np.abs(xi[None]) <= 3.0).astype(float) for xi in _angular_freqs(u)]
    inside, total = (float(t.sum()) for t in power_table(u.values, [masks, [None] * u.d], 1.0))
    return {"besov_fourier": besov, "sobolev_full": full, "sobolev_reduced": reduced,
            "band_energy": max(0.0, 1.0 - (inside / total) ** 2),
            **{f"sobolev_fourier_{m}": _dyadic_aggregates(blocks[None], m * levels, 2.0)[0] for m in (1, 2)}}


CACHED_P2_NORMS = {
    "besov_fourier": lambda u: besov_norm_fourier(u, 0.7, 2.0),
    "sobolev_full": lambda u: sobolev_norm_full(u, 1, 2.0),
    "sobolev_reduced": lambda u: sobolev_norm_reduced(u, 1, 2.0),
    "band_energy": lambda u: band_energy_fraction(u, 3.0),
    "sobolev_fourier_1": lambda u: sobolev_norm_fourier(u, 1, 2.0),
    "sobolev_fourier_2": lambda u: sobolev_norm_fourier(u, 2, 2.0),
}


@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("shape", [(256,), (64, 32), (16, 32, 16)])
def test_p2_norms_off_the_cached_spectrum_equal_the_uncached_oracle(shape, extension):
    d = len(shape)
    base = random_smooth_field((57, d), Box((-4.0,) * d, (4.0,) * d), shape, band_cells=6)
    u = GridFunction(base.box, base.values, extension)
    oracle = uncached_p2_norms(u)
    # at p = 2 the square-function Sobolev norm is the Besov norm of smoothness m, bit for bit
    sys = system_for(u, "smooth")
    for m in (1, 2):
        assert sobolev_norm_fourier(u, m, 2.0, sys) == besov_norm_fourier(u, m, 2.0, sys)
    # every order of first use: the slot is filled by whichever norm comes first
    for names in (list(CACHED_P2_NORMS), list(reversed(CACHED_P2_NORMS))):
        fresh = u.with_values(u.values)
        for name in names:
            assert CACHED_P2_NORMS[name](fresh) == oracle[name], (name, names)
    # a new field from a filled one carries no stale spectrum
    once = {name: norm(u) for name, norm in CACHED_P2_NORMS.items()}
    doubled = u.with_values(2.0 * u.values)
    for name in ("sobolev_full", "sobolev_reduced"):
        assert CACHED_P2_NORMS[name](doubled) == 2.0 * once[name]
    assert besov_norm_fourier(doubled, 0.7, 2.0) == uncached_p2_norms(doubled)["besov_fourier"]
    assert besov_norm_fourier(doubled, 0.7, 2.0) == pytest.approx(2.0 * oracle["besov_fourier"], rel=1e-14)
    assert band_energy_fraction(doubled, 3.0) == oracle["band_energy"]
