import itertools
import math

import numpy as np
import pytest

from mixnorm import (
    Box,
    DegenerateStepWarning,
    GridError,
    GridFunction,
    NumericalAnomalyError,
    all_direction_sets,
    besov_norm_diff,
    besov_norm_integral,
    difference_table,
    directional_difference,
    isotropic_besov_norm,
    leibniz_difference,
    lp_norm,
    mixed_difference,
    mixed_leibniz_terms,
    modulus,
    pointwise_multiply,
    sample,
    tensor_product,
)
from mixnorm.families import random_smooth_field

UNIT = Box((0.0,), (1.0,))
BOX1 = Box((-4.0,), (4.0,))
BOX2 = Box((-4.0, -4.0), (4.0, 4.0))


def rel_err(a, b):
    scale = max(np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def test_direction_sets():
    assert all_direction_sets(2) == [(), (0,), (1,), (0, 1)]
    assert len(all_direction_sets(3)) == 8


def test_first_difference_of_linear_is_constant():
    n = 64
    u = sample(lambda x: x, UNIT, n)
    h = 1.0 / n
    d = directional_difference(u, 0, 1, h)
    assert np.allclose(d.values[:-1], h, atol=1e-15)


def test_second_difference_of_square():
    n = 128
    u = sample(lambda x: x * x, UNIT, n)
    h = 4.0 / n
    d = directional_difference(u, 0, 2, h)
    interior = d.values[: n - 8]
    assert np.allclose(interior, 2 * h * h, atol=1e-13)


def test_zero_step_degenerates_with_warning():
    u = sample(lambda x: x, UNIT, 32)
    with pytest.warns(DegenerateStepWarning):
        d = directional_difference(u, 0, 1, 1e-9)
    assert not np.any(d.values)


def test_mixed_difference_empty_set_is_identity():
    u = sample(lambda x, y: x * y, BOX2, (16, 16))
    assert mixed_difference(u, (), 1, 0.5) is u


def test_mixed_difference_order_canonical():
    rng = np.random.default_rng(0)
    u = GridFunction(BOX2, rng.standard_normal((32, 32)))
    a = mixed_difference(u, (0, 1), 2, (0.5, 0.25))
    b = mixed_difference(u, (1, 0), 2, (0.5, 0.25))
    assert np.array_equal(a.values, b.values)


def test_mixed_difference_tensor_factorizes():
    rng = np.random.default_rng(1)
    f = GridFunction(BOX1, rng.standard_normal(32))
    g = GridFunction(BOX1, rng.standard_normal(32))
    T = tensor_product(f, g)
    got = mixed_difference(T, (0, 1), (2, 1), (0.5, 0.25))
    # 1-d oracle per factor
    df = directional_difference(f, 0, 2, 0.5)
    dg = directional_difference(g, 0, 1, 0.25)
    oracle = np.multiply.outer(df.values, dg.values)
    assert rel_err(got.values, oracle) < 1e-13


def test_modulus_empty_set_is_lp_norm():
    u = sample(lambda x: np.sin(x), BOX1, 128)
    for p in (1.0, 2.0, math.inf):
        assert modulus(u, (), 1, 0.5, p) == lp_norm(u, p)


def test_modulus_annihilates_low_degree_polynomials():
    u = sample(lambda x, y: 0.3 + 0.2 * x + 0.1 * y + 0.05 * x * y, Box((0.0, 0.0), (1.0, 1.0)), (64, 64))
    for e in [(0,), (1,), (0, 1)]:
        assert modulus(u, e, 2, 0.5, math.inf, interior=True) <= 1e-14


def test_modulus_monotone_in_scale():
    u = random_smooth_field((21, 0), BOX1, 512, band_fraction=0.1)
    ts = np.linspace(0.05, 1.0, 10)
    vals = [modulus(u, (0,), 2, float(t), 2.0) for t in ts]
    for a, b in zip(vals, vals[1:]):
        assert b >= a * (1 - 1e-12)


def test_modulus_below_one_cell_degenerates():
    u = sample(lambda x: x, UNIT, 16)
    with pytest.warns(DegenerateStepWarning):
        assert modulus(u, (0,), 1, 0.01, 2.0) == 0.0


def test_besov_zero_function():
    z = sample(lambda x: np.zeros_like(x), BOX1, 256)
    assert besov_norm_diff(z, 1.0, 2.0, 2) == 0.0
    assert besov_norm_integral(z, 1.0, 2.0, 2) == 0.0


def test_besov_d1_equals_isotropic():
    u = random_smooth_field((22, 0), BOX1, 512, band_fraction=0.1)
    assert besov_norm_diff(u, 0.7, 2.0, 1) == isotropic_besov_norm(u, 0.7, 2.0, 1)


def test_besov_requires_order_above_smoothness():
    u = random_smooth_field((22, 1), BOX1, 256)
    with pytest.raises(GridError, match="m_diff"):
        besov_norm_diff(u, 1.5, 2.0, 1)


def test_besov_rejects_coarse_grid():
    u = sample(lambda x: x, BOX1, 16)  # dx = 0.5 leaves one dyadic level
    with pytest.raises(GridError, match="coarse"):
        besov_norm_diff(u, 1.0, 2.0, 2)


def test_besov_tensor_cross_norm():
    f = random_smooth_field((23, 0), BOX1, 128, band_fraction=0.2)
    g = random_smooth_field((23, 1), BOX1, 128, band_fraction=0.2)
    T = tensor_product(f, g)
    for p in (2.0, math.inf):
        lhs = besov_norm_diff(T, 1.0, p, 2)
        rhs = isotropic_besov_norm(f, 1.0, p, 2) * isotropic_besov_norm(g, 1.0, p, 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_besov_dominates_lp():
    for i in range(3):
        u = random_smooth_field((24, i), BOX1, 256)
        for p in (1.0, 2.0, math.inf):
            assert besov_norm_diff(u, 0.5, p, 1) >= lp_norm(u, p)


@pytest.mark.parametrize("norm", [besov_norm_diff, besov_norm_integral])
def test_difference_norm_overflow_raises(norm):
    # 2^(r k p) at p = 400 leaves the float range, as in the Fourier norm
    u = random_smooth_field((58, 0), BOX2, 64)
    with pytest.raises(NumericalAnomalyError, match="overflows"):
        norm(u, 1.0, 400.0, 2)


def test_besov_integral_brackets_diff_norm():
    # empirical two-sided bracket across a small seeded family, one constant
    ratios = []
    for i in range(6):
        u = random_smooth_field((25, i), BOX1, 512, band_fraction=0.15)
        ratios.append(
            besov_norm_integral(u, 1.0, 2.0, 2) / besov_norm_diff(u, 1.0, 2.0, 2)
        )
    c = max(max(ratios), 1.0 / min(ratios))
    assert c < 10.0


def test_constant_patch_interior_differences_vanish():
    u = sample(lambda x: plateau_like(x), BOX1, 512)
    d = directional_difference(u, 0, 1, 0.25)
    nodes = u.nodes(0)
    inside = np.abs(nodes) < 0.5  # stencil stays in the plateau [-1, 1]
    assert np.max(np.abs(d.values[inside])) == 0.0
    assert isotropic_besov_norm(u, 0.5, 2.0, 1) > lp_norm(u, 2.0)


def plateau_like(x):
    from mixnorm.profiles import plateau_bump

    return plateau_bump(x, 1.0, 2.0)


def test_leibniz_identity_matches_direct_difference():
    rng = np.random.default_rng(7)
    psi = random_smooth_field((26, 0), BOX1, 256, band_fraction=0.2)
    phi = random_smooth_field((26, 1), BOX1, 256, band_fraction=0.2)
    for m in (1, 2, 3):
        h = float(rng.uniform(0.05, 0.5))
        lhs = leibniz_difference(psi, phi, m, h)
        rhs = directional_difference(pointwise_multiply(psi, phi), 0, m, h)
        assert rel_err(lhs.values, rhs.values) < 1e-12


def test_leibniz_collapses_for_constant_factor():
    psi = random_smooth_field((27, 0), BOX1, 256)
    one = sample(lambda x: np.ones_like(x), BOX1, 256)
    got = leibniz_difference(psi, one, 2, 0.3)
    want = directional_difference(psi, 0, 2, 0.3)
    assert rel_err(got.values, want.values) < 1e-13


def test_leibniz_first_order_two_term_oracle():
    psi = random_smooth_field((28, 0), BOX1, 128)
    phi = random_smooth_field((28, 1), BOX1, 128)
    h = 0.25
    got = leibniz_difference(psi, phi, 1, h)
    # direct expansion: (D psi)(x) phi(x) + psi(x + h) (D phi)(x)
    from mixnorm.grid import shift_values

    cells = round(h / psi.dx[0])
    dpsi = shift_values(psi.values, 0, cells, "zero") - psi.values
    dphi = shift_values(phi.values, 0, cells, "zero") - phi.values
    oracle = dpsi * phi.values + shift_values(psi.values, 0, cells, "zero") * dphi
    assert rel_err(got.values, oracle) < 1e-13


def test_mixed_leibniz_terms_sum_to_product_difference():
    f = random_smooth_field((29, 0), BOX2, 48, band_fraction=0.3)
    g = random_smooth_field((29, 1), BOX2, 48, band_fraction=0.3)
    for m in (1, 2):
        terms = mixed_leibniz_terms(f, g, (0, 1), m, (0.4, 0.3))
        assert len(terms) == (2 * m + 1) ** 2
        total = np.zeros(f.n)
        for _, term in terms:
            total += term.values
        direct = mixed_difference(pointwise_multiply(f, g), (0, 1), 2 * m, (0.4, 0.3))
        assert rel_err(total, direct.values) < 1e-12


def test_mixed_leibniz_empty_set():
    f = random_smooth_field((30, 0), BOX1, 64)
    g = random_smooth_field((30, 1), BOX1, 64)
    terms = mixed_leibniz_terms(f, g, (), 2, 0.5)
    assert len(terms) == 1
    assert terms[0][0] == (0,)
    assert np.array_equal(terms[0][1].values, f.values * g.values)


from hypothesis import given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10), min_size=8, max_size=40),
    m=st.integers(1, 3),
    cells=st.integers(1, 3),
    p=st.sampled_from([1.0, 2.0, math.inf]),
)
def test_difference_triangle_bound(vals, m, cells, p):
    u = GridFunction(Box((0.0,), (1.0,)), np.asarray(vals), "periodic")
    d = directional_difference(u, 0, m, cells * u.dx[0])
    assert lp_norm(d, p) <= 2.0**m * lp_norm(u, p) * (1 + 1e-12)


def test_besov_sup_modification_runs():
    u = random_smooth_field((31, 0), BOX1, 256)
    val = besov_norm_diff(u, 0.5, math.inf, 1)
    assert val >= lp_norm(u, math.inf)
    assert math.isfinite(val)


# --- the difference-table kernel against direct oracles ---------------------

TABLE_SHAPES = {1: (40,), 2: (18, 14), 3: (9, 10, 8)}
TABLE_MAGS = [1, 2, 5]


def _sparse_field(d, extension, seed):
    # random values in a block that leaves a zero margin on every side, so the
    # zero-extended kernel crops before it pads
    rng = np.random.default_rng(seed)
    shape = TABLE_SHAPES[d]
    values = np.zeros(shape)
    values[tuple(slice(2, n - 3) for n in shape)] = rng.standard_normal([n - 5 for n in shape])
    return GridFunction(Box((0.0,) * d, tuple(n / 8.0 for n in shape)), values, extension)


def _oracle_pow(u, e, m, steps, p):
    # direct mixed difference on the values zero-padded by the full reach on
    # both sides (zero extension) or on the torus itself (periodic)
    if u.extension == "zero":
        reach = m * max(abs(s) for s in steps)
        values = np.pad(u.values, reach)
        lo = tuple(a - reach * dx for a, dx in zip(u.box.lower, u.dx))
        hi = tuple(b + reach * dx for b, dx in zip(u.box.upper, u.dx))
        u = GridFunction(Box(lo, hi), values, "zero")
    h = [0.0] * u.d
    for a, s in zip(e, steps):
        h[a] = s * u.dx[a]
    norm = lp_norm(mixed_difference(u, e, m, h), p)
    return norm if math.isinf(p) else norm**p


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("m", [1, 2])
def test_parseval_table_matches_padded_oracle(d, extension, m):
    u = _sparse_field(d, extension, 40 + d)
    sets = all_direction_sets(d)[1:]
    tables = difference_table(u, sets, m, [TABLE_MAGS] * d, 2.0)
    for e in sets:
        assert tables[e].shape == (len(TABLE_MAGS),) * len(e)
        for idx in np.ndindex(*tables[e].shape):
            steps = [TABLE_MAGS[i] for i in idx]
            want = _oracle_pow(u, e, m, steps, 2.0)
            assert tables[e][idx] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_direct_table_equal_for_both_step_signs(d, extension, p):
    u = _sparse_field(d, extension, 50 + d)
    sets = all_direction_sets(d)[1:]
    tables = difference_table(u, sets, 2, [TABLE_MAGS] * d, p)
    for e in sets:
        for idx in np.ndindex(*tables[e].shape):
            steps = [TABLE_MAGS[i] for i in idx]
            for signs in itertools.product((1, -1), repeat=len(e)):
                signed = [sg * s for sg, s in zip(signs, steps)]
                want = _oracle_pow(u, e, 2, signed, p)
                assert tables[e][idx] == pytest.approx(want, rel=1e-12)


def test_table_of_zero_function_is_zero():
    z = GridFunction(BOX2, np.zeros((32, 32)))
    tables = difference_table(z, [(0,), (0, 1)], 2, [[1, 3], [2]], 2.0)
    assert tables[(0,)].tolist() == [0.0, 0.0]
    assert tables[(0, 1)].tolist() == [[0.0], [0.0]]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_besov_norm_reads_zero_extension_on_the_whole_line(p):
    # cos x cos y reaches the edge of [-4, 4]^2; its differences there read
    # zeros beyond the box, exactly as in a box twice as wide, and as on a
    # torus wide enough that no difference wraps around
    u = sample(lambda x, y: np.cos(x) * np.cos(y), BOX2, (128, 128))
    wide = np.zeros((256, 256))
    wide[64:192, 64:192] = u.values
    big = Box((-8.0, -8.0), (8.0, 8.0))
    narrow = besov_norm_diff(u, 1.0, p, 2)
    assert besov_norm_diff(GridFunction(big, wide), 1.0, p, 2) == pytest.approx(narrow, rel=1e-12)
    torus = besov_norm_diff(GridFunction(big, wide, "periodic"), 1.0, p, 2)
    assert torus == pytest.approx(narrow, rel=1e-12)
    if p == 2.0:
        # box-restricted differences would give about 32.6
        assert narrow == pytest.approx(46.27, rel=1e-3)
