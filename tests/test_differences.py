import functools
import itertools
import math
import warnings

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
    difference_maximal_check,
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
    shift,
    tensor_product,
)
from mixnorm.differences import _dyadic_levels, _fast_length, admissible_cells, ladder_cells
from mixnorm.families import dilated_member, random_smooth_field, random_trig_field
from mixnorm import differences
from mixnorm.grid import _dyadic_aggregates, lp_norm_values, power_table, shift_values

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
    # the level plan is cached per spacing; a raise is not, so every call raises
    for _ in range(2):
        with pytest.raises(GridError, match="coarse"):
            besov_norm_diff(u, 1.0, 2.0, 2)


def test_besov_tensor_cross_norm():
    f = random_smooth_field((23, 0), BOX1, 128, band_fraction=0.2)
    g = random_smooth_field((23, 1), BOX1, 128, band_fraction=0.2)
    T = tensor_product(f, g)
    for p in (2.0, 400.0, math.inf):
        lhs = besov_norm_diff(T, 1.0, p, 2)
        rhs = isotropic_besov_norm(f, 1.0, p, 2) * isotropic_besov_norm(g, 1.0, p, 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_besov_dominates_lp():
    for i in range(3):
        u = random_smooth_field((24, i), BOX1, 256)
        for p in (1.0, 2.0, math.inf):
            assert besov_norm_diff(u, 0.5, p, 1) >= lp_norm(u, p)


def _quarter_amplitude_field(n):
    u = random_smooth_field((58, 0), BOX2, n)
    return u.with_values(0.25 * u.values / np.max(np.abs(u.values)))


@pytest.mark.parametrize("norm", [besov_norm_diff, besov_norm_integral])
def test_difference_norm_overflow_raises(norm):
    # at p = 400 the weighted terms 2^(r|k|) omega_k fit a float, though their
    # p-th powers do not: the norm is finite.  At r = 200 (2^(200|k|)) the norm
    # itself leaves the float range, and that raises
    u = random_smooth_field((58, 0), BOX2, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(norm(u, 1.0, 400.0, 2))
    with pytest.raises(NumericalAnomalyError, match="overflows"):
        norm(u, 200.0, 2.0, 201)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("norm", [besov_norm_diff, besov_norm_integral])
def test_difference_norm_weight_overflow_raises_without_warnings(norm, n):
    # amplitude 1/4 at p = 400: a finite norm, with no numpy warning; a norm
    # that overflows through its dyadic weights raises, again with no warning
    # first (on the 64^2 grid: the 256^2 one pads to 6500^2 at m_diff = 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(norm(_quarter_amplitude_field(n), 1.0, 400.0, 2))
        with pytest.raises(NumericalAnomalyError, match="overflows"):
            norm(_quarter_amplitude_field(64), 200.0, 2.0, 201)


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


from hypothesis import example, given, settings, strategies as st


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


def _oracle_norm(u, e, m, steps, p):
    # L_p norm of the direct mixed difference on the values zero-padded by the
    # full reach on both sides of each axis of e (zero extension) or on the
    # torus itself (periodic)
    if u.extension == "zero":
        reach = [0] * u.d
        for a, s in zip(e, steps):
            reach[a] = m * abs(s)
        values = np.pad(u.values, [(r, r) for r in reach])
        lo = tuple(a - r * dx for a, r, dx in zip(u.box.lower, reach, u.dx))
        hi = tuple(b + r * dx for b, r, dx in zip(u.box.upper, reach, u.dx))
        u = GridFunction(Box(lo, hi), values, "zero")
    h = [0.0] * u.d
    for a, s in zip(e, steps):
        h[a] = s * u.dx[a]
    return lp_norm(mixed_difference(u, e, m, h), p)


def test_difference_orders_below_one_are_checked_alike():
    u = sample(np.sin, BOX1, 64)
    calls = [lambda: directional_difference(u, 0, 0, 0.5),
             lambda: leibniz_difference(u, u, 0, 0.5),
             lambda: mixed_leibniz_terms(u, u, (0,), 0, 0.5)]
    messages = set()
    for call in calls:
        with pytest.raises(GridError, match="order must be >= 1") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


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
            want = _oracle_norm(u, e, m, steps, 2.0)
            assert tables[e][idx] == pytest.approx(want, rel=1e-12)


def _unsplit_inputs(u, m, magnitudes):
    # the values and transform shape of one p = 2 kernel over every step: the
    # nonzero bounding box, zero-padded past the reach of the largest step
    values = u.values
    shape = values.shape
    if u.extension == "zero":
        nz = np.nonzero(values)
        values = values[tuple(slice(i.min(), i.max() + 1) for i in nz)]
        shape = [_fast_length(n + m * max(mags, default=0)) for n, mags in zip(values.shape, magnitudes)]
    return values, shape


def _unsplit_tables(u, sets, m, magnitudes):
    # differences._parseval_tables with every step's gathered symbol at the steps as given,
    # none clipped to the support's extent, padded past the reach of the largest step
    values, shape = _unsplit_inputs(u, m, magnitudes)
    sets = [tuple(e) for e in sets]
    return differences._parseval_tables([values], sets, [m] * u.d, magnitudes, shape, u.cell_volume)[0]


def _stepwise_parseval_tables(u, sets, m, magnitudes):
    # the p = 2 tables with one difference-symbol array per step s, built as
    # (4 sin^2[k s mod n])^m: the oracle of the gathered symbol in the p = 2
    # kernel, on its transform length
    values, shape = _unsplit_inputs(u, m, magnitudes)
    weights = []
    for axis, (n, mags) in enumerate(zip(shape, magnitudes)):
        k = np.arange(n // 2 + 1 if axis == len(shape) - 1 else n)
        sin2 = np.sin(np.pi / n * np.arange(n)) ** 2
        weights.append(np.array([(4.0 * sin2[k * s % n]) ** m for s in mags]))
    weight_sets = [[w if a in e else None for a, w in enumerate(weights)] for e in sets]
    return dict(zip(sets, power_table(values, weight_sets, u.cell_volume, shape)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_parseval_table_equals_stepwise_symbols(d, extension, m):
    u = _sparse_field(d, extension, 60 + d)
    sets = all_direction_sets(d)
    mags = [TABLE_MAGS] * d
    got = _unsplit_tables(u, sets, m, mags)
    want = _stepwise_parseval_tables(u, sets, m, mags)
    assert all(np.array_equal(got[e], want[e]) for e in sets)
    # modulus gives the axes outside its direction set no steps
    lone = [TABLE_MAGS] + [[]] * (d - 1)
    got = _unsplit_tables(u, [(0,)], m, lone)
    assert np.array_equal(got[(0,)], _stepwise_parseval_tables(u, [(0,)], m, lone)[(0,)])


@pytest.mark.parametrize("m", [1, 2])
def test_parseval_table_past_the_int32_index_bound(m):
    # s k reaches 69_999 * (n // 2) > 2^31 on the padded axis
    rng = np.random.default_rng(80 + m)
    values = np.zeros(64)
    values[5:55] = rng.standard_normal(50)
    u = GridFunction(Box((0.0,), (8.0,)), values)
    mags = [[1, 69_999]]
    n = _fast_length(50 + m * 69_999)
    assert 69_999 * (n // 2) >= 2**31
    got = _unsplit_tables(u, [(0,)], m, mags)[(0,)]
    assert np.array_equal(got, _stepwise_parseval_tables(u, [(0,)], m, mags)[(0,)])


@pytest.mark.parametrize("extension", ["zero", "periodic"])
def test_parseval_table_gathers_more_steps_than_one_block(extension):
    # past 2^13 bins the kernel gathers the symbol at most 3 steps at a time: 19
    # steps make full blocks and a partial one, each equal to the per-step symbol
    rng = np.random.default_rng(110)
    values = np.zeros(20_000)
    values[3:-2] = rng.standard_normal(values.size - 5)
    u = GridFunction(Box((0.0,), (2500.0,)), values, extension)
    mags = [list(range(1, 20))]
    assert _unsplit_inputs(u, 2, mags)[1][0] // 2 + 1 > 2**13
    got = _unsplit_tables(u, [(0,)], 2, mags)[(0,)]
    assert np.array_equal(got, _stepwise_parseval_tables(u, [(0,)], 2, mags)[(0,)])


def test_fast_length_is_the_smallest_5_smooth_length():
    def smooth(k):
        for q in (2, 3, 5):
            while k % q == 0:
                k //= q
        return k == 1

    smooth_lengths = [k for k in range(1, 2100) if smooth(k)]
    for n in range(1, 2001):
        assert _fast_length(n) == next(k for k in smooth_lengths if k >= n)


# nonzero blocks and steps whose support + reach is no 5-smooth length on some axis
PADDING_BLOCKS = {1: (37,), 2: (19, 13), 3: (11, 7, 9)}
PADDING_MAGS = [1, 2, 5, 7]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fast_length_padding_equals_padding_by_the_reach(d, extension, m):
    # a longer zero padding moves only rounding: the tables match the ones
    # padded by exactly the reach (periodic fields keep their torus length)
    rng = np.random.default_rng(90 + d)
    block = PADDING_BLOCKS[d]
    values = np.zeros([b + 4 for b in block])
    values[tuple(slice(2, 2 + b) for b in block)] = rng.standard_normal(block)
    u = GridFunction(Box((0.0,) * d, tuple(n / 8.0 for n in values.shape)), values, extension)
    sets = all_direction_sets(d)[1:]
    mags = [PADDING_MAGS] * d
    got = difference_table(u, sets, m, mags, 2.0)
    if extension == "zero":
        cropped = values[tuple(slice(2, 2 + b) for b in block)]
        shape = [b + m * max(PADDING_MAGS) for b in block]
        assert any(_fast_length(n) != n for n in shape)
    else:
        cropped, shape = values, values.shape
    want = differences._parseval_tables([cropped], sets, [m] * d, mags, shape, u.cell_volume)[0]
    for e in sets:
        np.testing.assert_allclose(got[e], want[e], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("p", [1.0, 3.0, 400.0, math.inf])
def test_direct_table_equal_for_both_step_signs(d, extension, p):
    u = _sparse_field(d, extension, 50 + d)
    sets = all_direction_sets(d)[1:]
    tables = difference_table(u, sets, 2, [TABLE_MAGS] * d, p)
    for e in sets:
        for idx in np.ndindex(*tables[e].shape):
            steps = [TABLE_MAGS[i] for i in idx]
            for signs in itertools.product((1, -1), repeat=len(e)):
                signed = [sg * s for sg, s in zip(signs, steps)]
                want = _oracle_norm(u, e, 2, signed, p)
                assert tables[e][idx] == pytest.approx(want, rel=1e-12)


def test_table_of_zero_function_is_zero():
    z = GridFunction(BOX2, np.zeros((32, 32)))
    tables = difference_table(z, [(0,), (0, 1)], 2, [[1, 3], [2]], 2.0)
    assert tables[(0,)].tolist() == [0.0, 0.0]
    assert tables[(0, 1)].tolist() == [[0.0], [0.0]]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("step", [0, -3, -25])
def test_table_rejects_steps_below_one_cell(step, p):
    # the tables run over positive magnitudes; at p = 2 a negative step used to wrap
    # on the zero-padded period and give a wrong norm instead of an error
    u = _sparse_field(2, "zero", 52)
    with pytest.raises(GridError, match="at least one cell"):
        difference_table(u, [(0,)], 2, [[3, step], []], p)


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


# --- the slice-based difference kernel against the shift loop it replaced ---


def _shift_loop_diff(values, axis, m, cells, extension):
    # m + 1 zero-filled (or rolled) shifted copies, summed in order l = 0..m
    out = np.zeros_like(values)
    for ell in range(m + 1):
        w = (-1.0) ** (m - ell) * math.comb(m, ell)
        out += w * shift_values(values, axis, ell * cells, extension)
    return out


def _shift_loop_table(u, sets, m, mags, p):
    # the direct table over the crop padded by the largest reach below the
    # support, differenced with the shift loop, reduced to L_p norms with `**`
    values, pad = u.values, [0] * u.d
    if u.extension == "zero":
        nz = np.nonzero(values)
        values = values[tuple(slice(i.min(), i.max() + 1) for i in nz)]
        pad = [m * max(mags[a]) for a in range(u.d)]

    def fill(table, arr, e, index):
        if len(index) == len(e):
            a = np.abs(arr)
            table[index] = np.max(a) if math.isinf(p) else (np.sum(a**p) * u.cell_volume) ** (1.0 / p)
            return
        axis = e[len(index)]
        for i, s in enumerate(mags[axis]):
            fill(table, _shift_loop_diff(arr, axis, m, s, u.extension), e, index + (i,))

    out = {}
    for e in sets:
        out[e] = np.empty([len(mags[a]) for a in e])
        fill(out[e], np.pad(values, [(pad[a] if a in e else 0, 0) for a in range(u.d)]), e, ())
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, math.inf])
def test_direct_table_matches_shift_loop(d, extension, m, p):
    u = _sparse_field(d, extension, 60 + d)
    sets = all_direction_sets(d)[1:]
    mags = [TABLE_MAGS] * d
    got = difference_table(u, sets, m, mags, p)
    want = _shift_loop_table(u, sets, m, mags, p)
    for e in sets:
        assert got[e].shape == want[e].shape
        assert np.max(np.abs(got[e] - want[e]) / want[e]) <= 1e-14


@pytest.mark.parametrize("extension", ["zero", "periodic"])
def test_direct_table_differences_axis_0_innermost(extension, monkeypatch):
    # the most repeated difference runs along axis 0, whose shifted slices are
    # blocks of whole rows: once per entry there, once per step on axis 1
    u = _sparse_field(2, extension, 64)
    mags = [[1, 2, 5], [1, 3, 4, 6]]
    axes = []

    def spy(values, axis, m, cells, extension):
        axes.append(axis)
        return real_diff_values(values, axis, m, cells, extension)

    real_diff_values = differences._diff_values
    monkeypatch.setattr(differences, "_diff_values", spy)
    table = difference_table(u, [(0, 1)], 2, mags, 3.0)[(0, 1)]
    assert table.shape == (3, 4)
    assert axes.count(0) == len(mags[0]) * len(mags[1])
    assert axes.count(1) == len(mags[1])


def _edge_field(d, extension, seed):
    # random values up to every box edge, so windows and wraps carry mass
    rng = np.random.default_rng(seed)
    shape = TABLE_SHAPES[d]
    return GridFunction(Box((0.0,) * d, tuple(n / 8.0 for n in shape)), rng.standard_normal(shape), extension)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
def test_same_grid_differences_match_shift_loop(d, extension):
    u = _edge_field(d, extension, 70 + d)
    for axis, m, cells in itertools.product(range(d), (1, 2, 3), (1, 2, -1, -3, 7)):
        got = directional_difference(u, axis, m, cells * u.dx[axis])
        assert np.array_equal(got.values, _shift_loop_diff(u.values, axis, m, cells, extension))


@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_interior_modulus_matches_shift_loop(extension, p):
    u = _edge_field(2, extension, 80)
    m, t = 2, (0.5, 0.4)
    signed = [[s for mag in ladder_cells(t[a], u.dx[a]) for s in (mag, -mag)] for a in range(2)]
    want = 0.0
    for combo in itertools.product(*signed):
        if any(m * abs(s) >= u.n[a] for a, s in enumerate(combo)):
            continue
        arr, sl = u.values, [slice(None)] * 2
        for a, s in enumerate(combo):
            arr = _shift_loop_diff(arr, a, m, s, extension)
            sl[a] = slice(-m * s, None) if s < 0 else slice(0, u.n[a] - m * s)
        a = np.abs(arr[tuple(sl)])
        want = max(want, np.max(a) if math.isinf(p) else np.sum(a**p) * u.cell_volume)
    want = want if math.isinf(p) else want ** (1.0 / p)
    got = modulus(u, (0, 1), m, t, p, interior=True)
    if p == 3.0:  # the integer-power chain rounds apart from `**`
        assert got == pytest.approx(want, rel=1e-14)
    else:
        assert got == want


@pytest.mark.parametrize("extension, d", [pytest.param(ext, d, id=ext if d == 2 else f"{ext}-{d}d")
                                          for d in (2, 3) for ext in ("zero", "periodic")])
def test_leibniz_expansions_match_shift_loop(extension, d):
    f, g = _edge_field(d, extension, 90), _edge_field(d, extension, 91)
    last = d - 1
    for m, cells in itertools.product((1, 2, 3), (2, -3)):
        want = np.zeros(f.n)
        for j in range(m + 1):
            left = f.values if m == j else _shift_loop_diff(f.values, last, m - j, cells, extension)
            left = shift_values(left, last, j * cells, extension)
            right = g.values if j == 0 else _shift_loop_diff(g.values, last, j, cells, extension)
            want += math.comb(m, j) * left * right
        got = leibniz_difference(f, g, m, cells * f.dx[last], axis=last)
        assert np.array_equal(got.values, want)
    m, cells, axes = 1, (2, -3, 1)[:d], tuple(range(d))
    terms = mixed_leibniz_terms(f, g, axes, m, [c * dx for c, dx in zip(cells, f.dx)])
    assert [u_e for u_e, _ in terms] == list(itertools.product(range(2 * m + 1), repeat=d))
    for u_e, term in terms:
        left, right = f.values, g.values
        for a in axes:
            if 2 * m - u_e[a] > 0:
                left = _shift_loop_diff(left, a, 2 * m - u_e[a], cells[a], extension)
        for a in axes:
            left = shift_values(left, a, u_e[a] * cells[a], extension)
            if u_e[a] > 0:
                right = _shift_loop_diff(right, a, u_e[a], cells[a], extension)
        coeff = 1.0
        for ui in u_e:
            coeff *= math.comb(2 * m, ui)
        assert np.array_equal(term.values, coeff * left * right)


# every entry point that takes a direction set or an axis, called as (u, b, axis) on a 2-d field u
# of band bound b, so that difference_maximal_check's band check passes
DIRECTION_SET_CALLS = {
    "directional_difference": lambda u, b, axis: directional_difference(u, axis, 2, 0.5),
    "mixed_difference": lambda u, b, axis: mixed_difference(u, (0, axis), 2, 0.5),
    "modulus": lambda u, b, axis: modulus(u, (axis,), 2, 0.5, 2.0),
    "difference_table_p2": lambda u, b, axis: difference_table(u, [(0, axis)], 2, [[1, 2]] * 2, 2.0),
    "difference_table_p3": lambda u, b, axis: difference_table(u, [(0, axis)], 2, [[1, 2]] * 2, 3.0),
    "difference_maximal_check": lambda u, b, axis: difference_maximal_check(u, (axis,), 2, [0.1], b, 1.0),
    "leibniz_difference": lambda u, b, axis: leibniz_difference(u, u, 2, 0.5, axis=axis),
    "mixed_leibniz_terms": lambda u, b, axis: mixed_leibniz_terms(u, u, (axis,), 1, 0.5),
}


@pytest.mark.parametrize("name", sorted(DIRECTION_SET_CALLS))
@pytest.mark.parametrize("axis", [2, -1])
def test_direction_sets_out_of_range_raise_everywhere(name, axis):
    u, b = random_trig_field((92, 0), BOX2, 64, kmax=2, modes=3)
    with pytest.raises(GridError, match="direction set"):
        DIRECTION_SET_CALLS[name](u, b, axis)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zero_extension_crop_is_the_nonzero_bounding_box(d, monkeypatch):
    # the p = 2 kernel receives the values cropped to the bounding box of
    # their nonzeros, as np.nonzero gives it
    seen, real = [], differences._parseval_tables

    def spy(crops, *rest):
        seen.extend(crops)
        return real(crops, *rest)

    monkeypatch.setattr(differences, "_parseval_tables", spy)
    shape = TABLE_SHAPES[d]
    box = Box((0.0,) * d, tuple(n / 8.0 for n in shape))
    sets = all_direction_sets(d)[1:]
    corners = list(itertools.product(*[(0, n - 1) for n in shape]))
    rng = np.random.default_rng(70 + d)
    fields = []
    for points in [[tuple(rng.integers(n) for n in shape)], *[[c] for c in corners], corners]:
        values = np.zeros(shape)
        for at in points:
            values[at] = rng.standard_normal()
        fields.append(values)
    for values in fields:
        seen.clear()
        difference_table(GridFunction(box, values), sets, 2, [TABLE_MAGS] * d, 2.0)
        nz = np.nonzero(values)
        assert len(seen) == 1 and np.array_equal(seen[0], values[tuple(slice(i.min(), i.max() + 1) for i in nz)])
    # the zero field returns zero tables without a transform
    seen.clear()
    tables = difference_table(GridFunction(box, np.zeros(shape)), sets, 2, [TABLE_MAGS] * d, 2.0)
    assert not seen
    assert all(np.array_equal(tables[e], np.zeros((len(TABLE_MAGS),) * len(e))) for e in sets)


# --- steps that clear the support against direct oracles --------------------

CLEARING_P = [1.0, 2.0, 3.0, 400.0, math.inf]


@st.composite
def supported_fields(draw):
    # a zero-extended field on a box of up to 9 cells per axis (6 in 3-d) that is
    # nonzero exactly on a random block in it, and per axis the steps L - 1, L,
    # L + 1 and 3L around the block's extent L, in a random order
    d = draw(st.integers(1, 3))
    box = [draw(st.integers(1, 6 if d == 3 else 9)) for _ in range(d)]
    lo = [draw(st.integers(0, n - 1)) for n in box]
    extent = [draw(st.integers(1, n - a)) for a, n in zip(lo, box)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros(box)
    values[tuple(slice(a, a + n) for a, n in zip(lo, extent))] = (
        rng.uniform(0.5, 2.0, extent) * rng.choice([-1.0, 1.0], extent))
    mags = [draw(st.permutations([s for s in (n - 1, n, n + 1, 3 * n) if s >= 1])) for n in extent]
    return GridFunction(Box((0.0,) * d, tuple(n / 8.0 for n in box)), values), mags


@settings(max_examples=60, deadline=None)
@given(field=supported_fields(), m=st.integers(1, 3), p=st.sampled_from(CLEARING_P))
def test_tables_with_steps_that_clear_the_support_match_the_direct_oracle(field, m, p):
    u, mags = field
    sets = all_direction_sets(u.d)
    tables = difference_table(u, sets, m, mags, p)
    for e in sets:
        assert tables[e].shape == tuple(len(mags[a]) for a in e)
        for idx in itertools.product(*(range(len(mags[a])) for a in e)):
            want = _oracle_norm(u, e, m, [mags[a][i] for a, i in zip(e, idx)], p)
            assert tables[e][idx] == pytest.approx(want, rel=1e-12, abs=0.0), (e, idx)


@settings(max_examples=30, deadline=None)
@given(field=supported_fields(), m=st.integers(1, 3))
def test_p2_kernel_pads_past_the_near_steps_only(field, m):
    # one transform of the crop at the steps clipped to its extent L per axis, padded to
    # _fast_length(L + m * largest clipped step), so to at least (m + 1) L when a step
    # clears the support
    u, mags = field
    seen, real = [], differences._parseval_tables

    def spy(crops, sets, orders, magnitudes, shape, cell_volume):
        seen.extend((values, [list(steps) for steps in magnitudes], list(shape)) for values in crops)
        return real(crops, sets, orders, magnitudes, shape, cell_volume)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(differences, "_parseval_tables", spy)
        difference_table(u, all_direction_sets(u.d)[1:], m, mags, 2.0)
    crop, _ = _unsplit_inputs(u, m, mags)
    clipped = [[min(s, n) for s in steps] for steps, n in zip(mags, crop.shape)]
    assert len(seen) == 1
    values, kernel_mags, shape = seen[0]
    assert np.array_equal(values, crop)
    assert kernel_mags == clipped
    assert shape == [_fast_length(n + m * max(steps)) for n, steps in zip(crop.shape, clipped)]
    assert all(length >= (m + 1) * n for length, n, steps in zip(shape, crop.shape, mags) if max(steps) >= n)


@settings(max_examples=60, deadline=None)
@given(field=supported_fields(), m=st.integers(1, 3), p=st.sampled_from([1.0, 2.0, 3.0, math.inf]))
def test_steps_that_clear_the_support_read_the_entry_at_its_extent(field, m, p):
    # every step s >= L on an axis gives the entry of the step L, bit for bit
    u, mags = field
    crop, _ = _unsplit_inputs(u, m, mags)
    sets = all_direction_sets(u.d)[1:]
    tables = difference_table(u, sets, m, mags, p)
    at_extent = [[steps.index(n) if s >= n else i for i, s in enumerate(steps)]
                 for steps, n in zip(mags, crop.shape)]
    for e in sets:
        for idx in itertools.product(*(range(len(mags[a])) for a in e)):
            far = tuple(at_extent[a][i] for a, i in zip(e, idx))
            assert tables[e][idx] == tables[e][far], (e, idx)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
def test_tables_without_far_steps_take_the_unsplit_kernel(d, extension):
    # periodic fields, and supports at least as long as every step, keep one
    # transform over all steps at the full padding, bit for bit
    u = _edge_field(d, extension, 100 + d)
    sets = all_direction_sets(d)
    mags = [TABLE_MAGS] * d
    got = difference_table(u, sets, 2, mags, 2.0)
    want = _unsplit_tables(u, sets, 2, mags)
    assert all(np.array_equal(got[e], want[e]) for e in sets)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("norm", [besov_norm_diff, besov_norm_integral])
def test_besov_norms_of_a_fine_dilate_match_the_unsplit_kernel(norm, n, monkeypatch):
    # at 2^16 on [-6, 6] the support of member 4 (1365 cells) or 8 (85 cells) is
    # shorter than the coarse steps (up to 5461 cells), which clear it
    u = dilated_member(Box((-6.0,), (6.0,)), 2**16, n)
    nz = np.flatnonzero(u.values)
    assert max(differences._level_plan(u.dx)[0][0]) >= nz[-1] - nz[0] + 1
    got = norm(u, 1.0, 2.0, 2)
    calls = []

    def unsplit(fields, sets, m, mags, p):
        calls.append(p)
        return [_unsplit_tables(f, sets, m, mags) for f in fields]

    monkeypatch.setattr(differences, "_difference_tables", unsplit)
    # u keeps its table, so the oracle runs on a fresh field of the same values
    assert got == pytest.approx(norm(u.with_values(u.values), 1.0, 2.0, 2), rel=1e-13, abs=0.0)
    assert calls == [2.0]


def besov_norm_per_level(u, r, p, m_diff):
    # besov_norm_diff with one gather and one max per level vector: the oracle
    # of its prefix-max reading
    ks = _dyadic_levels(u.dx)
    scale_sets = [[admissible_cells(2.0**-k, dx) for k in range(kmax + 1)] for dx, kmax in zip(u.dx, ks)]
    mags = [sorted(set().union(*levels)) for levels in scale_sets]
    sets = all_direction_sets(u.d)[1:]
    tables = difference_table(u, sets, m_diff, mags, p)
    total = lp_norm(u, p)
    for e in sets:
        where = [[[mags[a].index(s) for s in cells] for cells in scale_sets[a]] for a in e]
        shape_k = tuple(ks[a] + 1 for a in e)
        omega = np.empty(shape_k)
        for kvec in np.ndindex(*shape_k):
            omega[kvec] = np.max(tables[e][np.ix_(*(w[k] for w, k in zip(where, kvec)))])
        for pos in range(len(e)):
            omega = np.flip(np.maximum.accumulate(np.flip(omega, axis=pos), axis=pos), axis=pos)
        total += _dyadic_aggregates(omega[None], r * np.indices(shape_k).sum(axis=0), p)[0]
    return total


# (box widths, shape): the coarsest spacing _dyadic_levels accepts (dx = 1/8,
# its minimum of 2 per axis) and an anisotropic grid with 4, 2 and 3 per axis
LEVEL_GRIDS = {
    1: [((1.0,), (8,)), ((1.0,), (32,))],
    2: [((1.0, 1.0), (8, 8)), ((1.0, 2.0), (32, 24))],
    3: [((1.0, 1.0, 1.0), (8, 8, 8)), ((1.0, 2.0, 1.0), (32, 24, 16))],
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_besov_norm_diff_equals_per_level_oracle(d, extension, p):
    rng = np.random.default_rng(90 + d)
    for widths, shape in LEVEL_GRIDS[d]:
        values = np.zeros(shape)
        # a zero margin on the low side, so the zero-extended table crops
        values[tuple(slice(1, None) for _ in shape)] = rng.standard_normal([n - 1 for n in shape])
        u = GridFunction(Box((0.0,) * d, widths), values, extension)
        assert besov_norm_diff(u, 1.0, p, 2) == besov_norm_per_level(u, 1.0, p, 2)


# --- one table for both difference forms --------------------------------------

# spacings width / n: n from 8 to 4,099 in strides of 7 on widths 1 to 12, every
# power of two up to 2^16 on the widest box, and the equiv grid 8 / 256
PLAN_SPACINGS = sorted({w / n for w in range(1, 13) for n in range(8, 4100, 7)}
                       | {12.0 / 2**j for j in range(3, 17)} | {8.0 / 256})


def _integral_panels(dxv, kmax):
    # (cells, k) per nonempty panel [2^-k-1, 2^-k], k < kmax: the whole-cell step
    # nearest 3/4 of 2^-k clipped into the panel, as the integral form has always probed it
    out = []
    for k in range(kmax):
        s_lo = int(math.floor(2.0 ** -(k + 1) / dxv + 1e-12)) + 1
        s_hi = int(math.floor(2.0**-k / dxv + 1e-12))
        if s_lo <= s_hi:
            out.append((min(max(int(np.rint(0.75 * 2.0**-k / dxv)), s_lo), s_hi), k))
    return out


def _ladder(dxv, kmax):
    return sorted(set().union(*(admissible_cells(2.0**-k, dxv) for k in range(kmax + 1))))


def test_integral_panel_steps_are_ladder_steps():
    swept = 0
    for dxv in PLAN_SPACINGS:
        try:
            (kmax,) = _dyadic_levels((dxv,))
        except GridError:
            continue
        swept += 1
        (mags,), _, (panels,) = differences._level_plan.__wrapped__((dxv,))
        ladder = _ladder(dxv, kmax)
        assert list(mags) == ladder, dxv
        assert [(mags[i], k) for k, i in panels] == _integral_panels(dxv, kmax), dxv
        assert all(s in ladder for s, _ in _integral_panels(dxv, kmax)), dxv
    assert swept > 6000


def besov_norm_integral_oracle(u, r, p, m_diff, plan_steps):
    # the integral form with one loop over its panels, from an unshared
    # difference_table at the ladder's steps (plan_steps) or at the panel steps alone
    panels = [_integral_panels(dxv, kmax) for dxv, kmax in zip(u.dx, _dyadic_levels(u.dx))]
    offset = 0.0 if math.isinf(p) else (1.0 + math.log2(-math.expm1(-r * p * math.log(2.0)) / (r * p))) / p
    weights = [[-r * math.log2(s * dxv) if math.isinf(p) else r * (k + 1) + offset for s, k in ps]
               for ps, dxv in zip(panels, u.dx)]
    if plan_steps:
        mags = [_ladder(dxv, kmax) for dxv, kmax in zip(u.dx, _dyadic_levels(u.dx))]
    else:
        mags = [[s for s, _ in ps] for ps in panels]
    sets = all_direction_sets(u.d)[1:]
    tables = difference_table(u, sets, m_diff, mags, p)
    total = lp_norm(u, p)
    for e in sets:
        norms = tables[e]
        for pos, a in enumerate(e):
            norms = norms[(slice(None),) * pos + ([mags[a].index(s) for s, _ in panels[a]],)]
        total += _dyadic_aggregates(norms[None], functools.reduce(np.add.outer, [weights[a] for a in e], 0.0), p)[0]
    return total


def _table_keys(u):
    # the difference tables a field keeps, in the order they were formed (its memo also keeps
    # its L_p norms)
    return [key for key in u._memo if key[0] == "tables"]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_both_difference_forms_read_one_table_in_either_order(d, extension, p):
    rng = np.random.default_rng(120 + d)
    widths, shape = LEVEL_GRIDS[d][1]
    values = np.zeros(shape)
    values[tuple(slice(1, None) for _ in shape)] = rng.standard_normal([n - 1 for n in shape])
    u = GridFunction(Box((0.0,) * d, widths), values, extension)
    want_diff = besov_norm_per_level(u, 1.0, p, 2)
    want = besov_norm_integral_oracle(u, 1.0, p, 2, plan_steps=True)
    for first, second in ((besov_norm_diff, besov_norm_integral), (besov_norm_integral, besov_norm_diff)):
        fresh = u.with_values(u.values)
        got = {norm: norm(fresh, 1.0, p, 2) for norm in (first, second)}
        assert got[besov_norm_diff] == want_diff, first.__name__
        assert got[besov_norm_integral] == want, first.__name__
        assert _table_keys(fresh) == [("tables", 2, p)]
    # the panel steps alone move only the padding of the p = 2 transform
    assert want == pytest.approx(besov_norm_integral_oracle(u, 1.0, p, 2, plan_steps=False), rel=1e-13, abs=0.0)


def test_field_memo_keeps_read_only_tables_per_order_and_p():
    u = random_smooth_field(5, BOX2, 64, band_cells=8)
    plan = differences._level_plan(u.dx)[0]
    sets = all_direction_sets(2)[1:]
    besov_norm_integral(u, 1.0, 2.0, 2)
    besov_norm_diff(u, 1.0, 3.0, 2)
    besov_norm_diff(u, 1.0, 2.0, 3)
    assert _table_keys(u) == [("tables", 2, 2.0), ("tables", 2, 3.0), ("tables", 3, 2.0)]
    for _, m, p in _table_keys(u):
        tables = u._memo[("tables", m, p)]
        want = difference_table(u, sets, m, plan, p)
        assert list(tables) == sets and all(np.array_equal(tables[e], want[e]) for e in sets)
        for table in tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0.0
    assert u.with_values(u.values)._memo == {}


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_integral_alone_differences_only_its_panel_steps_off_p_2(p, monkeypatch):
    # at every p the integral on a field without the shared table forms and keeps that
    # table at the plan's steps, not at its panel steps alone
    u = random_smooth_field(6, BOX2, 64, band_cells=8)
    mags = differences._level_plan(u.dx)[0]
    seen, real = [], differences._difference_tables
    monkeypatch.setattr(differences, "_difference_tables",
                        lambda v, sets, m, steps, q: seen.append([list(s) for s in steps]) or real(v, sets, m, steps, q))
    alone = besov_norm_integral(u, 1.0, p, 2)
    assert seen == [[list(s) for s in mags]] and _table_keys(u) == [("tables", 2, p)]
    # the difference form then reads that table, and a second integral reads its rows: the same bits
    besov_norm_diff(u, 1.0, p, 2)
    seen.clear()
    assert besov_norm_integral(u, 1.0, p, 2) == alone and seen == []


# a windowed field supported on the nodes 17..47 of each axis of the 64^2 grid,
# and the unwindowed periodic field of the same seed
SHIFT_FIELD = random_smooth_field(3, BOX2, 64, band_cells=8)
SUPPORT = [(int(a.min()), int(a.max())) for a in np.nonzero(SHIFT_FIELD.values)]
PERIODIC_FIELD = GridFunction(BOX2, random_smooth_field(3, BOX2, 64, band_cells=8, window=None).values,
                              "periodic")
TRANSLATED_NORMS = (besov_norm_diff, besov_norm_integral)
SHIFT_P = [1.0, 2.0, 3.0, math.inf]


@settings(max_examples=8, deadline=None)
@given(cells=st.tuples(*(st.integers(hi - 63, lo) for lo, hi in SUPPORT)))
@example(cells=tuple(lo for lo, _ in SUPPORT))
@example(cells=tuple(hi - 63 for _, hi in SUPPORT))
def test_whole_cell_translation_keeps_zero_extended_norms(cells):
    # node j takes the value at j + cells, so the support stays inside the box for
    # hi - 63 <= cells <= lo; the zero-extended tables then crop to the same input
    moved = shift(SHIFT_FIELD, cells)
    assert np.count_nonzero(moved.values) == np.count_nonzero(SHIFT_FIELD.values)
    for norm in TRANSLATED_NORMS:
        for p in SHIFT_P:
            assert norm(moved, 1.0, p, 2) == norm(SHIFT_FIELD, 1.0, p, 2), (norm.__name__, p)


@settings(max_examples=8, deadline=None)
@given(cells=st.tuples(st.integers(-100, 100), st.integers(-100, 100)))
def test_whole_cell_translation_keeps_periodic_norms(cells):
    moved = shift(PERIODIC_FIELD, cells)
    assert np.array_equal(moved.values, np.roll(PERIODIC_FIELD.values, [-c for c in cells], axis=(0, 1)))
    for norm in TRANSLATED_NORMS:
        for p in SHIFT_P:
            assert norm(moved, 1.0, p, 2) == pytest.approx(norm(PERIODIC_FIELD, 1.0, p, 2), rel=1e-13)


# --- the p = 2 symbol rows -----------------------------------------------------


@pytest.mark.parametrize("n, steps", [
    (43_740, [1, 2, 3, 7, 64, 341, 1365, 2730, 5461]),
    (21_870, [5461, 1, 4096, 3, 2730]),
    (32_768, list(range(1, 40))),
    # steps at and past the period wrap
    (1000, [999, 1000, 1001, 2500, 5461, 1]),
    (640, [5, 300, 2, 700, 1, 299, 301, 3000, 7]),
    # the ids of these cases are in use, and so stay fixed
], ids=["43740-steps0-None", "21870-steps1-None", "32768-steps2-None", "1000-steps3-None", "640-steps4-300"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_symbol_rows_gather_the_symbol_at_s_k_mod_n(n, steps, m):
    symbol = (4.0 * np.sin(np.pi / n * np.arange(n)) ** 2) ** m
    for bins in (n // 2 + 1, n):
        rows = differences._symbol_rows(n, bins, m, steps)
        k = np.arange(bins)
        assert rows.shape == (len(steps), bins)
        for row, s in zip(rows, steps):
            assert np.array_equal(row, symbol[s * k % n]), s


# --- far steps at p != 2 ---------------------------------------------------------


def _far_step_entry(crop, e, orders, steps, p, vol):
    # an entry as the recursion over the steps forms it: from the last axis of e to the
    # first, every step differences, a far one that clears the support at its extent
    arr = crop
    for a, s in reversed(list(zip(e, steps))):
        arr = differences._diff_values(arr, a, orders[a], min(s, crop.shape[a]), "zero")
    return lp_norm_values(arr, p, vol)


def test_far_steps_off_p_2_difference_each_near_entry_once(monkeypatch):
    # a 4 x 4 support, steps 1..3 on axis 0 and 1..20 on axis 1 (17 of them far): depth
    # first from the last axis of e, the sets (0,), (1,) and (0, 1) take 3 + 20 + (20 + 20 * 3)
    # differences, far steps differenced at the extent 4, and each entry is the oracle's
    rng = np.random.default_rng(130)
    values = np.zeros((6, 6))
    values[1:5, 2:6] = rng.uniform(0.5, 2.0, (4, 4)) * rng.choice([-1.0, 1.0], (4, 4))
    u = GridFunction(Box((0.0, 0.0), (0.75, 0.75)), values)
    mags = [[1, 2, 3], list(range(1, 21))]
    sets = [(0,), (1,), (0, 1)]
    calls, real = [], differences._diff_values
    monkeypatch.setattr(differences, "_diff_values", lambda *args: calls.append(args[1]) or real(*args))
    tables = difference_table(u, sets, 2, mags, 3.0)
    assert calls == [0] * 3 + [1] * 20 + [1, 0, 0, 0] * 20
    monkeypatch.setattr(differences, "_diff_values", real)
    crop = values[1:5, 2:6]
    for e in sets:
        for idx in itertools.product(*(range(len(mags[a])) for a in e)):
            steps = [mags[a][i] for a, i in zip(e, idx)]
            assert tables[e][idx] == _far_step_entry(crop, e, [2, 2], steps, 3.0, u.cell_volume), (e, idx)


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_far_steps_in_three_axes_keep_the_recursion_bits(p):
    # steps far on one, two or all three axes, in no particular order, and an order per axis
    rng = np.random.default_rng(131)
    values = np.zeros((7, 6, 5))
    values[1:4, 2:5, 1:3] = rng.standard_normal((3, 3, 2))
    u = GridFunction(Box((0.0,) * 3, (7 / 8, 6 / 8, 5 / 8)), values)
    mags = [[4, 1, 3, 2], [3, 5, 1], [2, 1, 6]]
    sets = all_direction_sets(3)[1:]
    tables = difference_table(u, sets, [3, 1, 2], mags, p)
    crop = values[1:4, 2:5, 1:3]
    for e in sets:
        for idx in itertools.product(*(range(len(mags[a])) for a in e)):
            steps = [mags[a][i] for a, i in zip(e, idx)]
            assert tables[e][idx] == _far_step_entry(crop, e, [3, 1, 2], steps, p, u.cell_volume), (e, idx)


@pytest.mark.parametrize("steps", [[1, 2, 3], [1, 2, 3, 10, 12]])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_numpy_integer_steps_give_the_tables_of_list_steps(p, extension, steps):
    # a 10-cell support, with steps below it only and with steps at and beyond its extent
    values = np.zeros(64)
    values[20:30] = np.random.default_rng(132).standard_normal(10)
    u = GridFunction(UNIT, values, extension)
    want = difference_table(u, [(0,)], 2, [steps], p)[(0,)]
    got = difference_table(u, [(0,)], 2, [np.array(steps)], p)[(0,)]
    assert np.array_equal(got, want)


# --- the batched difference norm -------------------------------------------------


def _batch_fields(d, extension, seed):
    # fields on one grid: supports of three extents (three, two and one field each), amplitudes
    # from 2^-40 to 2^40, and the zero field; periodic fields all transform at the grid's own shape
    rng = np.random.default_rng(seed)
    widths, shape = LEVEL_GRIDS[d][0]
    box = Box((0.0,) * d, widths)
    fields = []
    for frac, count in ((1.0, 3), (0.5, 2), (0.25, 1)):
        extent = [max(2, int(n * frac) - 1) for n in shape]
        for _ in range(count):
            lo = [int(rng.integers(0, n - e + 1)) for n, e in zip(shape, extent)]
            values = np.zeros(shape)
            values[tuple(slice(a, a + e) for a, e in zip(lo, extent))] = (
                rng.standard_normal(extent) * 2.0 ** int(rng.integers(-40, 41)))
            fields.append(GridFunction(box, values, extension))
    fields.append(GridFunction(box, np.zeros(shape), extension))
    return fields


# per difference form: its public norm, its level reading in the batched driver and its oracle
DIFFERENCE_FORMS = [
    (besov_norm_diff, differences._level_maxima, besov_norm_per_level),
    (besov_norm_integral, differences._panel_norms,
     lambda u, r, p, m: besov_norm_integral_oracle(u, r, p, m, plan_steps=True)),
]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extension", ["zero", "periodic"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_batched_difference_norms_equal_the_batch_of_one(d, extension, p, monkeypatch):
    fields = _batch_fields(d, extension, 140 + d)
    # a field of another spacing joins the batch in a group of its own
    other = GridFunction(Box((0.0,) * d, (1.0,) * d), np.random.default_rng(150 + d).standard_normal((16,) * d),
                         extension)
    want = {}
    for norm, _, oracle in DIFFERENCE_FORMS:
        want[norm] = [norm(f.with_values(f.values), 1.0, p, 2) for f in fields + [other]]
        assert want[norm][:-1] == [oracle(f, 1.0, p, 2) for f in fields], norm.__name__
    stacks, real = [], differences.power_table

    def spy(values, weight_sets, cell_volume, shape):
        stacks.append((values.shape[0], math.prod(shape)))
        return real(values, weight_sets, cell_volume, shape)

    monkeypatch.setattr(differences, "power_table", spy)
    # the default bound, then at p = 2 one small enough that the largest group of one extent
    # spans more than one stack
    for bound in (differences._STACK_POINTS, None) if p == 2.0 else (differences._STACK_POINTS,):
        if bound is None:
            bound = 2 * max(stacks)[1]  # two fields of the largest stack
        monkeypatch.setattr(differences, "_STACK_POINTS", bound)
        for norm, levels, _ in DIFFERENCE_FORMS:
            batch = [f.with_values(f.values) for f in fields] + [other.with_values(other.values)]
            # a field whose table is already formed keeps it and joins no transform
            norm(batch[3], 1.0, p, 2)
            stacks.clear()
            assert differences._besov_norms_diff(batch, 1.0, p, 2, levels) == want[norm], norm.__name__
            if p == 2.0:
                # all but the formed field and, under zero extension, the zero field
                assert sum(size for size, _ in stacks) == len(batch) - 1 - (extension == "zero")
                assert all(size <= max(1, bound // points) for size, points in stacks)
            else:
                assert stacks == []
    if p == 2.0:
        assert max(size for size, _ in stacks) == 2 and len(stacks) > len({points for _, points in stacks})


# spacings of the prefix-rule sweep: a sample of the plan sweep's grids and every power
# of two from 2^3 to 2^16 cells on the widest box
PREFIX_SPACINGS = PLAN_SPACINGS[::5] + [12.0 / 2**j for j in range(3, 17)]


def test_finer_level_steps_are_a_prefix_of_the_sorted_steps():
    swept = 0
    for dxv in PREFIX_SPACINGS:
        try:
            (kmax,) = _dyadic_levels((dxv,))
        except GridError:
            continue
        swept += 1
        (mags,), (ends,), _ = differences._level_plan.__wrapped__((dxv,))
        assert len(ends) == kmax + 1
        for k, end in enumerate(ends):
            finer = set().union(*(admissible_cells(2.0**-j, dxv) for j in range(k, kmax + 1)))
            assert set(mags[: end + 1]) == finer, (dxv, k)
    assert swept > 1000
