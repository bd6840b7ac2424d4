import math

import numpy as np
import pytest

from mixnorm import (
    Box,
    GridError,
    GridFunction,
    SpaceSpec,
    algebra_ratio,
    apply_translate,
    besov_norm_diff,
    build_partition,
    crop,
    localization_ratio,
    lp_norm,
    moser_ratio,
    partition_deviation,
    pointwise_multiply,
    sample,
    shift,
    space_norm,
    sup_norm,
    tensor_pair_terms,
    tensor_product,
    translate_function,
    uniform_norm,
)
from mixnorm.grid import lp_norm_values
from mixnorm.multipliers import _pieces
from mixnorm.families import base_bump, random_smooth_field
from mixnorm.profiles import plateau_bump, smooth_partition_base

BOX1 = Box((-4.0,), (4.0,))
BOX2 = Box((-4.0, -4.0), (4.0, 4.0))
BESOV = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)


def test_partition_sums_to_one_on_inner_box():
    for res in (64, 128):
        pou = build_partition(1.0, BOX2, res)
        assert partition_deviation(pou) <= 1e-10


def test_partition_overlap_count():
    pou = build_partition(1.0, BOX1, 128)
    # at a generic inner node exactly two translates are active per axis
    u = sample(lambda x: np.ones_like(x), BOX1, 128)
    node = 70
    active = 0
    for mu in pou.centers():
        if translate_function(pou, mu).values[node] > 0.0:
            active += 1
    assert active == 2


def test_translates_are_exact_shifts():
    pou = build_partition(1.0, BOX1, 128)
    cells = pou.cells_per_unit[0]
    psi0 = translate_function(pou, (0,))
    psi2 = translate_function(pou, (2,))
    assert np.array_equal(shift(psi0, -2 * cells).values, psi2.values)


def test_partition_requires_lattice_aligned_grid():
    with pytest.raises(GridError, match="lattice"):
        build_partition(1.0, Box((-4.0,), (4.0,)), 100)


def test_partition_reconstructs_functions():
    pou = build_partition(1.0, BOX2, 64)
    u = random_smooth_field((80, 0), BOX2, 64)
    inner = tuple(slice(a, b) for a, b in pou.inner_ranges())
    total = np.zeros(u.n)
    for mu in pou.centers():
        total += apply_translate(pou, u, mu).values
    err = np.abs(total[inner] - u.values[inner])
    assert np.max(err) <= 1e-10 * max(np.max(np.abs(u.values)), 1e-300)


def test_uniform_norm_support_arithmetic():
    pou = build_partition(1.0, BOX2, 64)
    # u supported inside one lattice cell: at most 2^d translates contribute
    u = sample(
        lambda x, y: plateau_bump(x - 0.5, 0.2, 0.45) * plateau_bump(y - 0.5, 0.2, 0.45),
        BOX2,
        (64, 64),
    )
    contributing = sum(
        1 for mu in pou.centers() if np.any(apply_translate(pou, u, mu).values)
    )
    assert contributing == 4


def test_uniform_norm_zero_function():
    pou = build_partition(1.0, BOX2, 64)
    z = sample(lambda x, y: np.zeros_like(x), BOX2, (64, 64))
    assert uniform_norm(z, BESOV, pou) == 0.0


def test_uniform_norm_bounded_by_whole_norm():
    pou = build_partition(1.0, BOX2, 64)
    u = random_smooth_field((81, 0), BOX2, 64)
    uni = uniform_norm(u, BESOV, pou)
    whole = space_norm(u, BESOV)
    assert 0.0 < uni <= 2.0 * whole


def test_sobolev_uniform_norm_forms_only_the_translates_that_meet_u(monkeypatch):
    # the products that miss the support of u are zero and add nothing to the max
    from mixnorm import multipliers

    pou = build_partition(1.0, BOX2, 64)
    u = random_smooth_field((91, 0), BOX2, 64, window=(0.8, 1.6))
    space = SpaceSpec("sobolev", 2.0, m=1)
    want = max(space_norm(apply_translate(pou, u, mu), space) for mu in pou.centers())
    formed, real = [], multipliers.apply_translate
    monkeypatch.setattr(multipliers, "apply_translate", lambda pou, u, mu: formed.append(mu) or real(pou, u, mu))
    assert uniform_norm(u, space, pou) == want
    assert formed == [mu for mu, _, _ in _pieces(pou, u)] and len(formed) < len(pou.centers())


def test_cropped_translate_norm_matches_full_grid():
    # the localized pieces are norm-evaluated on a crop to the translate's
    # support; with zero extension this must be exact
    pou = build_partition(1.0, BOX2, 128)
    u = random_smooth_field((82, 0), BOX2, 128)
    mu = (0, -1)
    piece = {m: piece for m, _, piece in _pieces(pou, u)}[mu]
    full = apply_translate(pou, u, mu)
    a = besov_norm_diff(piece, 1.0, 2.0, 2)
    b = besov_norm_diff(full, 1.0, 2.0, 2)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_cropped_translate_product_is_the_crop_of_the_full_product(d):
    # every center, edge pieces and pieces that miss the support of u included
    box = Box((-4.0,) * d, (4.0,) * d)
    pou = build_partition(1.0, box, 64)
    # random values up to the box edge on the side x_0 < 0, zero beyond
    values = np.random.default_rng(84).standard_normal((64,) * d)
    values[32:] = 0.0
    u = GridFunction(box, values)
    missed, pieces = 0, {mu: (origin, piece) for mu, origin, piece in _pieces(pou, u)}
    for mu in pou.centers():
        full = apply_translate(pou, u, mu)
        if mu not in pieces:
            missed += 1
            assert not np.any(full.values)
            continue
        origin, piece = pieces[mu]
        want = crop(full, [(o, o + k) for o, k in zip(origin, piece.values.shape)])
        assert piece.dx == want.dx and piece.extension == want.extension
        assert np.array_equal(piece.values, want.values)
    assert 0 < missed < len(pou.centers())


def test_cropped_translate_product_rejects_another_grid():
    pou = build_partition(1.0, BOX2, 64)
    with pytest.raises(GridError, match="partition grid"):
        _pieces(pou, random_smooth_field((85, 0), BOX2, 128))


def test_localization_single_bump_single_term():
    pou = build_partition(1.0, BOX2, 128)
    # supported well inside the plateau of psi_(0,0); neighbours see only the
    # transition region, so one term dominates the aggregate
    u = sample(
        lambda x, y: plateau_bump(x, 0.1, 0.3) * plateau_bump(y, 0.1, 0.3),
        BOX2,
        (128, 128),
    )
    ratio = localization_ratio(u, 1.0, 2.0, 2, pou)
    numer = besov_norm_diff(u, 1.0, 2.0, 2)
    single = besov_norm_diff(apply_translate(pou, u, (0, 0)), 1.0, 2.0, 2)
    assert ratio == pytest.approx(numer / single, rel=0.15)


def test_localization_shift_invariance():
    pou = build_partition(1.0, BOX2, 64)
    u = random_smooth_field((83, 0), BOX2, 64, window=(0.8, 1.6))
    cells = pou.cells_per_unit[0]
    ratio_a = localization_ratio(u, 1.0, 2.0, 2, pou)
    ratio_b = localization_ratio(shift(u, (cells, 0)), 1.0, 2.0, 2, pou)
    assert ratio_a == pytest.approx(ratio_b, rel=1e-10)


def test_localization_stable_under_resolution_doubling():
    vals = []
    for res in (64, 128):
        pou = build_partition(1.0, BOX2, res)
        u = random_smooth_field((86, 0), BOX2, res, window=(1.0, 1.8))
        vals.append(localization_ratio(u, 1.0, 2.0, 2, pou))
    assert max(vals) / min(vals) <= 2.0


def test_localization_rejects_zero():
    pou = build_partition(1.0, BOX2, 64)
    z = sample(lambda x, y: np.zeros_like(x), BOX2, (64, 64))
    with pytest.raises(GridError, match="zero"):
        localization_ratio(z, 1.0, 2.0, 2, pou)


LOCALIZED_NORMS = {
    "localization_ratio": lambda u, pou: localization_ratio(u, 1.0, 2.0, 2, pou),
    "uniform_norm-besov": lambda u, pou: uniform_norm(u, BESOV, pou),
    "uniform_norm-sobolev": lambda u, pou: uniform_norm(u, SpaceSpec("sobolev", 2.0, m=1), pou),
}


@pytest.mark.parametrize("name", sorted(LOCALIZED_NORMS))
def test_localized_norms_reject_periodic_fields(name):
    pou = build_partition(1.0, BOX2, 64)
    u = random_smooth_field((83, 1), BOX2, 64, window=(0.8, 1.6))
    with pytest.raises(GridError, match="localized norms require zero extension"):
        LOCALIZED_NORMS[name](GridFunction(BOX2, u.values, "periodic"), pou)


def test_algebra_ratio_resolution_stability():
    vals = []
    for res in (512, 1024):
        f = base_bump(BOX1, res)
        spec = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)
        vals.append(algebra_ratio(f, f, spec))
    assert vals[1] == pytest.approx(vals[0], rel=0.05)


def test_algebra_ratio_plateau_oracle():
    # wide plateau factor: f * g == g exactly on the support of g
    f = sample(lambda x: plateau_bump(x, 2.0, 3.0), BOX1, 512)
    g = sample(lambda x: plateau_bump(x, 0.5, 1.0) * np.cos(3.0 * x), BOX1, 512)
    spec = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)
    ratio = algebra_ratio(f, g, spec)
    expected = space_norm(g, spec) / (space_norm(f, spec) * space_norm(g, spec))
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_algebra_ratio_rejects_zero_norm():
    z = sample(lambda x: np.zeros_like(x), BOX1, 256)
    f = base_bump(BOX1, 256)
    with pytest.raises(GridError, match="zero"):
        algebra_ratio(f, z, SpaceSpec("besov", 2.0, r=1.0, m_diff=2))


def test_moser_ratio_symmetric_case():
    f = base_bump(BOX1, 512)
    spec = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)
    got = moser_ratio(f, f, spec)
    want = space_norm(pointwise_multiply(f, f), spec) / (
        2.0 * space_norm(f, spec) * sup_norm(f)
    )
    assert got == pytest.approx(want, rel=1e-13)


def test_moser_and_algebra_denominators_consistent():
    f = random_smooth_field((84, 0), BOX2, 64)
    g = random_smooth_field((84, 1), BOX2, 64)
    spec = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)
    # same numerator, so the ratios order inversely to their denominators
    alg = algebra_ratio(f, g, spec)
    mos = moser_ratio(f, g, spec)
    denom_alg = space_norm(f, spec) * space_norm(g, spec)
    denom_mos = space_norm(f, spec) * sup_norm(g) + sup_norm(f) * space_norm(g, spec)
    assert alg * denom_alg == pytest.approx(mos * denom_mos, rel=1e-12)


def test_ratio_shift_equivariance_periodic():
    f0 = random_smooth_field((85, 0), BOX2, 64)
    g0 = random_smooth_field((85, 1), BOX2, 64)
    f = GridFunction(BOX2, f0.values, "periodic")
    g = GridFunction(BOX2, g0.values, "periodic")
    spec = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)
    a0, m0 = algebra_ratio(f, g, spec), moser_ratio(f, g, spec)
    fs, gs = shift(f, (8, 16)), shift(g, (8, 16))
    assert algebra_ratio(fs, gs, spec) == pytest.approx(a0, rel=1e-10)
    assert moser_ratio(fs, gs, spec) == pytest.approx(m0, rel=1e-10)


def test_tensor_moser_factorized_matches_materialized():
    # the experiment layer computes tensor-pair ratios from 1-d factors; the
    # materialized 2-d computation must agree to cross-norm exactness
    from mixnorm.families import companion_bump, dilated_family, tensor_pair_family

    base = dilated_family(2, 256, box=(-6.0, 6.0))
    g = companion_bump(Box((-6.0,), (6.0,)), 256)
    fam = tensor_pair_family(base, 2, g)
    spec = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)
    for f, (F, G) in zip(base.members, fam.members):
        direct = moser_ratio(F, G, spec)
        t = tensor_pair_terms(f, 2.0, 3.0, spec, 2)
        fact = t["norm_fg"] / (t["norm_f"] * t["sup_g"] + t["sup_f"] * t["norm_g"])
        assert fact == pytest.approx(direct, rel=1e-10)


def test_tensor_pair_terms_match_materialized_d3():
    # in d = 3 the product carries the companion's square on axis 3, whose
    # norm the factorization forms once; the materialized members are the oracle
    from mixnorm.families import companion_bump, dilated_family, tensor_pair_family

    base = dilated_family(1, 128, box=(-6.0, 6.0))
    fam = tensor_pair_family(base, 3, companion_bump(Box((-6.0,), (6.0,)), 128))
    spec = SpaceSpec("besov", 2.0, r=1.2, m_diff=2)
    for f, (F, G) in zip(base.members, fam.members):
        t = tensor_pair_terms(f, 2.0, 3.0, spec, 3)
        assert t["norm_fg"] / (t["norm_f"] * t["norm_g"]) == pytest.approx(algebra_ratio(F, G, spec), rel=1e-12)
        fact = t["norm_fg"] / (t["norm_f"] * t["sup_g"] + t["sup_f"] * t["norm_g"])
        assert fact == pytest.approx(moser_ratio(F, G, spec), rel=1e-12)


def test_tensor_pair_terms_need_a_besov_space():
    f = base_bump(Box((-6.0,), (6.0,)), 256)
    with pytest.raises(GridError, match="Besov"):
        tensor_pair_terms(f, 2.0, 3.0, SpaceSpec("sobolev", 2.0, m=2), 2)
    with pytest.raises(GridError, match="d in"):
        tensor_pair_terms(f, 2.0, 3.0, BESOV, 4)


def _counted_tensor_norms(monkeypatch, f, plateau):
    # tensor_pair_terms of f (d = 2, companion support 3) and the number of
    # difference norms it forms past the companion's, which the first call caches
    from mixnorm import multipliers

    multipliers.tensor_pair_terms(f, plateau, 3.0, BESOV, 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return besov_norm_diff(*args)

    monkeypatch.setattr(multipliers, "besov_norm_diff", counted)
    return multipliers.tensor_pair_terms(f, plateau, 3.0, BESOV, 2), len(calls)


def test_tensor_norms_reuse_the_factor_norm_where_the_companion_covers_f(monkeypatch):
    from mixnorm.families import dilated_member

    for n in range(3):
        _, calls = _counted_tensor_norms(monkeypatch, dilated_member(Box((-6.0,), (6.0,)), 256, n), 2.0)
        assert calls == 1


def test_tensor_norms_of_a_narrow_companion_match_materialized(monkeypatch):
    # a companion plateau of 0.5 leaves the support of f_0 and f_1 uncovered,
    # so fg differs from f and its norm is formed on its own
    from mixnorm.families import companion_bump, dilated_member

    box = Box((-6.0,), (6.0,))
    g = companion_bump(box, 256, plateau=0.5, support=3.0)
    spec = SpaceSpec("besov", 2.0, r=1.0, m_diff=2)
    for n in (0, 1):
        f = dilated_member(box, 256, n)
        assert not np.array_equal(pointwise_multiply(f, g).values, f.values)
        direct = moser_ratio(tensor_product(f, g), tensor_product(g, f), spec)
        t, calls = _counted_tensor_norms(monkeypatch, f, 0.5)
        assert calls == 2
        fact = t["norm_fg"] / (t["norm_f"] * t["sup_g"] + t["sup_f"] * t["norm_g"])
        assert fact == pytest.approx(direct, rel=1e-10)


# --- localized pieces as one batch -----------------------------------------------


def _piece_loop(u, pou):
    # the per-piece path that the piece stacks replace, the oracle of multipliers._pieces: for
    # each translate mu in turn, (mu, crop(u, support).with_values(psi_mu * u)) when u does not
    # vanish on the translate's support
    out = []
    for mu in pou.centers():
        sl = []
        for i in range(pou.d):
            c = int(round((mu[i] - pou.box.lower[i]) * pou.cells_per_unit[i]))
            wc = pou.width_cells[i]
            g0, g1 = max(0, c - wc + 1), min(pou.shape[i], c + wc)
            if g0 >= g1:
                break
            p0 = g0 - (c - wc + 1)
            sl.append((slice(g0, g1), slice(p0, p0 + (g1 - g0))))
        else:
            sub = u.values[tuple(gs for gs, _ in sl)]
            if np.any(sub):
                block = pou.profiles[0][sl[0][1]]
                for i in range(1, pou.d):
                    block = np.multiply.outer(block, pou.profiles[i][sl[i][1]])
                out.append((mu, crop(u, [(gs.start, gs.stop) for gs, _ in sl]).with_values(sub * block)))
    return out


def _stack_case(d, n, width, kind):
    # a partition of width `width` and a field on a grid of n cells along axis 0 (on [-4, 4]);
    # d = 3 takes 16 cells on [-1, 1] along axes 1 and 2.  kind: "inner" (random values on the
    # middle three quarters of each axis), "edge" (random values up to the box edge on the side
    # x_0 < 0), "hole" (random values but on the support of the translate at 0) or "zero"
    box = Box((-4.0,) + (-1.0,) * (d - 1), (4.0,) + (1.0,) * (d - 1)) if d == 3 else Box((-4.0,) * d, (4.0,) * d)
    shape = (n,) + (16,) * (d - 1) if d == 3 else (n,) * d
    pou = build_partition(width, box, shape)
    values = np.random.default_rng((d, n)).standard_normal(shape)
    if kind == "inner":
        values = np.pad(values[tuple(slice(k // 8, k - k // 8) for k in shape)], [(k // 8, k // 8) for k in shape])
    elif kind == "edge":
        values[n // 2 :] = 0.0
    elif kind == "hole":
        center = [int(round((0 - lo) * k)) for lo, k in zip(box.lower, pou.cells_per_unit)]
        values[tuple(slice(max(c - wc + 1, 0), c + wc) for c, wc in zip(center, pou.width_cells))] = 0.0
    elif kind == "zero":
        values = np.zeros(shape)
    return pou, GridFunction(box, values)


@pytest.mark.parametrize("kind", ["inner", "edge", "hole", "zero"])
@pytest.mark.parametrize("width", [1.0, 1.5])
@pytest.mark.parametrize("n", [64, 96, 128])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_piece_stacks_equal_the_per_piece_loop(d, n, width, kind):
    # each piece keeps the translate, the crop origin, the spacing crop gives it (at 96 cells the
    # crops' spacings differ from u's in the last bit) and every bit of its values; the pieces
    # of one extent are rows of one stack
    pou, u = _stack_case(d, n, width, kind)
    got, want = _pieces(pou, u), _piece_loop(u, pou)
    assert [mu for mu, _, _ in got] == [mu for mu, _ in want]
    for (_, origin, piece), (_, oracle) in zip(got, want):
        assert crop(u, [(o, o + k) for o, k in zip(origin, piece.values.shape)]).box == oracle.box
        assert piece.dx == oracle.dx and piece.extension == oracle.extension
        assert np.array_equal(piece.values, oracle.values)
    assert len({id(piece.values.base) for _, _, piece in got}) == len({piece.values.shape for _, _, piece in got})
    if kind == "hole":
        assert (0,) * d not in [mu for mu, _, _ in got]
    if n == 96 and kind != "zero":
        assert any(piece.dx != u.dx for _, _, piece in got)
    assert (kind == "zero") == (got == [])


def _partition_profiles_loop(base_width, box, resolution):
    # build_partition's profiles with one smooth_partition_base call per residue: the oracle of
    # the per-axis call
    pou = build_partition(base_width, box, resolution)
    profiles = []
    for axis, (cpu, wc) in enumerate(zip(pou.cells_per_unit, pou.width_cells)):
        dx = box.widths[axis] / pou.shape[axis]
        raw = smooth_partition_base(np.arange(-(wc - 1), wc) * dx, base_width)
        period = np.zeros(cpu)
        for res in range(cpu):
            x = res * dx
            mus = range(-int(math.ceil(base_width)) - 1, int(math.ceil(base_width)) + 2)
            period[res] = float(np.sum(smooth_partition_base(np.asarray([x - mu for mu in mus]), base_width)))
        profiles.append(raw / period[np.arange(-(wc - 1), wc) % cpu])
    return pou.profiles, profiles


@pytest.mark.parametrize("base_width", [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.5])
@pytest.mark.parametrize("box, resolution", [
    (BOX1, 64), (BOX1, 96), (BOX2, 128), (BOX2, (64, 96)),
    (Box((-3.0, -2.5), (5.0, 1.5)), (64, 96)), (Box((-1.0, 0.5, -2.0), (1.0, 2.5, 2.0)), (16, 48, 32)),
])
def test_partition_profiles_equal_the_per_residue_loop(base_width, box, resolution):
    # 3.5 lattice units sum 9 translates per residue, past the 8 terms below which numpy sums in
    # order; at 0.5 the sum vanishes half way between lattice points, and build_partition raises
    if base_width == 0.5:
        with pytest.raises(GridError, match="vanishes"):
            build_partition(base_width, box, resolution)
        return
    got, want = _partition_profiles_loop(base_width, box, resolution)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_localization_makes_no_grid_function_per_piece(monkeypatch):
    # the pieces go to the batch as crops: the GridFunctions a ratio makes do not grow with
    # the number of pieces
    made, real = [], GridFunction.__init__
    monkeypatch.setattr(GridFunction, "__init__", lambda self, *args: made.append(1) or real(self, *args))
    counts = []
    for n, window in ((64, (0.4, 0.8)), (128, (1.5, 2.5))):
        pou = build_partition(1.0, BOX2, n)
        u = random_smooth_field((89, 0), BOX2, n, window=window)
        made.clear()
        localization_ratio(u, 1.0, 2.0, 2, pou)
        counts.append((len(_pieces(pou, u)), len(made)))
    assert counts[0][0] < counts[1][0] and counts[0][1] == counts[1][1]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("width, n", [(1.5, 64), (1.0, 96)])
def test_localized_norms_equal_the_per_piece_loop(p, width, n):
    # the batch gives each piece, and the whole field, the bits of its own besov_norm_diff;
    # 1.5 lattice units per bump make pieces of several crop extents, and at 96 cells the
    # crops' spacings differ in the last bit, so their level plans and cell volumes do
    pou = build_partition(width, BOX2, n)
    u = random_smooth_field((87, 0), BOX2, n, window=(1.0, 2.5))
    pieces = [piece for _, piece in _piece_loop(u, pou)]
    assert len({(piece.n, piece.dx) for piece in pieces}) > 1
    norms = [besov_norm_diff(piece, 1.0, p, 2) for piece in pieces]
    fresh = u.with_values(u.values)
    want = besov_norm_diff(u, 1.0, p, 2) / lp_norm_values(np.asarray(norms), p, 1.0)
    assert localization_ratio(fresh, 1.0, p, 2, pou) == want
    space = SpaceSpec("besov", p, r=1.0, m_diff=2)
    assert uniform_norm(u.with_values(u.values), space, pou) == max(norms)


def test_localization_transforms_each_stack_of_pieces_once(monkeypatch):
    # one rfftn per stack of same-extent crops, each at most _STACK_POINTS points (or one
    # field), and every field transformed once: fewer transforms than pieces
    from mixnorm import differences

    pou = build_partition(1.0, BOX2, 128)
    u = random_smooth_field((88, 0), BOX2, 128, window=(1.0, 2.5))
    pieces = _piece_loop(u, pou)
    stacks, real = [], np.fft.rfftn

    def spy(values, s=None, axes=None, **kwargs):
        stacks.append((values.shape[0], math.prod(s)))
        return real(values, s=s, axes=axes, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", spy)
    localization_ratio(u, 1.0, 2.0, 2, pou)
    assert sum(size for size, _ in stacks) == len(pieces) + 1
    assert all(size <= max(1, differences._STACK_POINTS // points) for size, points in stacks)
    assert len(stacks) < len(pieces) / 2
