"""Explicit test-function families with known norm-growth rates, and the
slope fitting that turns a measured series into an empirical rate.

Boxes default to dyadic-friendly bounds so sampled node coordinates and all
dyadic dilations are exact in floating point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import Box, GridError, GridFunction, sample, tensor_product
from .profiles import plateau_bump, smoothstep

DILATED_BOX = (-6.0, 6.0)
OSCILLATORY_BOX = (-2.25, 3.75)


@dataclass(frozen=True)
class TestFamily:
    """Indexed sequence of grid functions (or pairs) with a rate model.

    kind: "dilated_bump", "oscillatory_linear", "oscillatory_smooth" or
    "tensor_pair".  members holds GridFunctions, or (F_n, G_n) pairs for the
    tensor kind; all members share one grid.  rate_model declares how norms
    along the family are expected to scale ("geometric": ~ 2^(c n),
    "power": ~ n^c).
    """

    kind: str
    indices: tuple[int, ...]
    members: tuple = field(repr=False)
    rate_model: str
    params: dict = field(default_factory=dict)
    base_members: tuple = field(default=(), repr=False)
    companion: GridFunction | None = field(default=None, repr=False)


def base_bump(grid_box: Box, resolution: int) -> GridFunction:
    """Smooth bump with plateau [-1, 1], support [-2, 2], sup exactly 1."""
    return sample(lambda t: plateau_bump(t, 1.0, 2.0), grid_box, resolution)


def companion_bump(
    grid_box: Box, resolution: int, plateau: float = 2.0, support: float = 3.0
) -> GridFunction:
    """Wide plateau bump used as the inert tensor factor."""
    return sample(lambda t: plateau_bump(t, plateau, support), grid_box, resolution)


def dilated_family(
    n_max: int,
    resolution: int,
    box: tuple[float, float] = DILATED_BOX,
    n_min: int = 0,
) -> TestFamily:
    """Dyadic dilates f_n(t) = f(2^n t) of the base bump.

    Members are sampled from the closed form at exact dyadic node positions,
    so f_{n+1} coincides bit-for-bit with the one-level dyadic dilation of
    f_n.  The finest member must keep at least 16 cells across its support.
    """
    if n_min < 0 or n_max < n_min:
        raise GridError(f"invalid index range [{n_min}, {n_max}]")
    grid_box = Box((box[0],), (box[1],))
    dx = (box[1] - box[0]) / resolution
    finest_cells = 4.0 * 2.0**-n_max / dx
    if finest_cells < 16:
        raise GridError(
            f"resolution {resolution} leaves {finest_cells:.1f} < 16 cells across "
            f"the support of member n={n_max}"
        )
    members = []
    for n in range(n_min, n_max + 1):
        scale = 2.0**n
        members.append(sample(lambda t: plateau_bump(scale * t, 1.0, 2.0), grid_box, resolution))
    return TestFamily(
        kind="dilated_bump",
        indices=tuple(range(n_min, n_max + 1)),
        members=tuple(members),
        rate_model="geometric",
        params={"box": box, "resolution": resolution},
    )


def _ramp_linear(t: np.ndarray, n: int) -> np.ndarray:
    lo, knee = 1.0 / (2 * n), 1.0 / n
    out = np.zeros(t.shape)
    up = (t > lo) & (t < knee)
    out[up] = 2.0 * n * (t[up] - lo)
    out[(t >= knee) & (t <= 1.0)] = 1.0
    down = (t > 1.0) & (t < 1.5)
    out[down] = 2.0 * (1.5 - t[down])
    return out


def _ramp_smooth(t: np.ndarray, n: int) -> np.ndarray:
    # cubic Hermite joins: the ramp derivative is Lipschitz
    lo, knee = 1.0 / (2 * n), 1.0 / n
    out = np.zeros(t.shape)
    up = (t > lo) & (t < knee)
    s = (t[up] - lo) / (knee - lo)
    out[up] = s * s * (3.0 - 2.0 * s)
    out[(t >= knee) & (t <= 1.0)] = 1.0
    down = (t > 1.0) & (t < 1.5)
    s = (t[down] - 1.0) / 0.5
    out[down] = 1.0 - s * s * (3.0 - 2.0 * s)
    return out


def oscillatory_profile(t: np.ndarray, n: int, epsilon: float, ramp: str) -> np.ndarray:
    """phi_n(t) * t * sin(t^-epsilon), zero for t <= 1/(2n) and t >= 3/2."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 1.0 / (2 * n)
    tp = t[pos]
    phi = _ramp_linear(tp, n) if ramp == "linear" else _ramp_smooth(tp, n)
    out[pos] = phi * tp * np.sin(tp ** (-epsilon))
    return out


def oscillatory_family(
    n_max: int,
    epsilon: float = 1.6,
    ramp: str = "linear",
    resolution: int = 2**15,
    box: tuple[float, float] = OSCILLATORY_BOX,
    n_min: int = 1,
    p: float | None = None,
) -> TestFamily:
    """Chirp family f_n with a ramped cutoff moving toward the singularity.

    The grid must resolve the oscillation at the support edge:
    dx <= (1/(2 n))^(1+epsilon) / 8; if violated, n_max is reduced with a
    warning.  When p is given, epsilon > 1/p and epsilon != 1 + 1/p are
    checked as warnings only.
    """
    if ramp not in ("linear", "smooth"):
        raise GridError(f"ramp must be 'linear' or 'smooth', got {ramp!r}")
    if n_min < 1 or n_max < n_min:
        raise GridError(f"invalid index range [{n_min}, {n_max}]")
    if not epsilon > 0:
        raise GridError(f"epsilon must be positive, got {epsilon}")
    if p is not None:
        if epsilon <= 1.0 / p:
            warnings.warn(f"epsilon={epsilon} <= 1/p={1.0 / p}: growth rates degenerate")
        if abs(epsilon - (1.0 + 1.0 / p)) < 1e-12:
            warnings.warn(f"epsilon={epsilon} equals 1 + 1/p: excluded parameter")
    grid_box = Box((box[0],), (box[1],))
    dx = (box[1] - box[0]) / resolution
    n_ok = n_max
    while n_ok >= n_min and dx > (1.0 / (2 * n_ok)) ** (1.0 + epsilon) / 8.0:
        n_ok -= 1
    if n_ok < n_min:
        raise GridError(
            f"resolution {resolution} cannot resolve the oscillation even at n={n_min}"
        )
    if n_ok < n_max:
        warnings.warn(
            f"resolution {resolution} resolves oscillations only up to n={n_ok}; "
            f"reducing n_max from {n_max}"
        )
        n_max = n_ok
    members = []
    for n in range(n_min, n_max + 1):
        members.append(
            sample(lambda t: oscillatory_profile(t, n, epsilon, ramp), grid_box, resolution)
        )
    return TestFamily(
        kind=f"oscillatory_{ramp}",
        indices=tuple(range(n_min, n_max + 1)),
        members=tuple(members),
        rate_model="power",
        params={"epsilon": epsilon, "ramp": ramp, "box": box, "resolution": resolution},
    )


MATERIALIZE_LIMIT = 2**24  # grid nodes per tensor member


def tensor_pair_family(
    base: TestFamily,
    d: int,
    companion: GridFunction,
    materialize: bool = True,
) -> TestFamily:
    """Pairs (F_n, G_n): F_n carries f_n on axis 1, G_n on axis 2, the wide
    companion bump everywhere else.

    The companion plateau must cover the support of every base member (so the
    product F_n * G_n carries f_n on both leading axes exactly).  With
    materialize=False only the 1-d factors are stored; norms of members then
    come from the exact tensor factorization of the discrete norms.
    """
    if d not in (2, 3):
        raise GridError(f"tensor pairs need d in {{2, 3}}, got {d}")
    if companion.d != 1:
        raise GridError("companion must be one-dimensional")
    for f in base.members:
        if f.d != 1:
            raise GridError("base members must be one-dimensional")
        if f.box != companion.box or f.n != companion.n:
            raise GridError("companion grid must match the base family grid")
        covered = companion.values[f.values != 0.0]
        if covered.size and not np.all(covered == 1.0):
            raise GridError("companion plateau too narrow for the base support")
    members: tuple = ()
    if materialize:
        nodes = base.members[0].n[0] ** d
        if nodes > MATERIALIZE_LIMIT:
            raise GridError(
                f"materializing {d}-d members at this resolution needs {nodes} nodes "
                f"(> {MATERIALIZE_LIMIT}); use materialize=False and factorized norms"
            )
        pairs = []
        for f in base.members:
            fn_first = tensor_product(f, companion)
            gn_first = tensor_product(companion, f)
            for _ in range(d - 2):
                fn_first = tensor_product(fn_first, companion)
                gn_first = tensor_product(gn_first, companion)
            pairs.append((fn_first, gn_first))
        members = tuple(pairs)
    return TestFamily(
        kind="tensor_pair",
        indices=base.indices,
        members=members,
        rate_model=base.rate_model,
        params={**base.params, "d": d, "base_kind": base.kind},
        base_members=base.members,
        companion=companion,
    )


def rate_fit(
    series: dict[int, float] | Sequence[tuple[int, float]],
    model: str,
) -> tuple[float, float]:
    """Least-squares exponent of a positive series against an index.

    model "geometric" fits log2(value) against n (value ~ 2^(c n)); model
    "power" fits log(value) against log(n) (value ~ n^c).  Returns the slope
    and the maximum absolute log-domain deviation of the fit.
    """
    if isinstance(series, dict):
        items = sorted(series.items())
    else:
        items = sorted(series)
    if len(items) < 4:
        raise GridError(f"rate fit needs >= 4 points, got {len(items)}")
    ns = np.asarray([k for k, _ in items], dtype=float)
    vals = np.asarray([v for _, v in items], dtype=float)
    if np.any(vals <= 0.0):
        raise GridError("rate fit needs positive values")
    if model == "geometric":
        x, y = ns, np.log2(vals)
    elif model == "power":
        if np.any(ns <= 0.0):
            raise GridError("power model needs positive indices")
        x, y = np.log(ns), np.log(vals)
    else:
        raise GridError(f"model must be 'geometric' or 'power', got {model!r}")
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return float(slope), residual


def random_smooth_field(
    seed_key,
    box: Box,
    shape: Sequence[int] | int,
    band_fraction: float | None = None,
    band_cells: int = 16,
    window: tuple[float, float] | None = (1.5, 2.0),
) -> GridFunction:
    """Seeded band-limited field, optionally windowed to compact support.

    Coefficients are planted at the integer frequency vectors |kappa|_inf <=
    band_cells in a fixed order, so the same seed denotes the same continuum
    function at every resolution (refining the grid only refines the
    sampling).  band_fraction, when given, converts to cells against the
    smallest axis.  The field is normalized by its spectral L2 mass and, if
    window is given, multiplied by the plateau bump prod_i plateau_bump(x_i),
    which confines the support with margin.
    """
    if isinstance(shape, int):
        shape = (shape,) * box.d
    shape = tuple(int(n) for n in shape)
    if band_fraction is not None:
        band_cells = int(band_fraction * min(shape) / 2.0)
    if band_cells < 1:
        raise GridError(f"band_cells must be >= 1, got {band_cells}")
    if 2 * band_cells >= min(shape):
        raise GridError(f"band {band_cells} exceeds the grid Nyquist range")
    rng = np.random.default_rng(seed_key)
    d = box.d
    side = 2 * band_cells + 1
    draw = rng.standard_normal((side,) * d) + 1j * rng.standard_normal((side,) * d)
    # hermitian part of the draw: real field, resolution-independent content
    flip = tuple(slice(None, None, -1) for _ in range(d))
    sym = 0.5 * (draw + np.conj(draw[flip]))
    coeffs = np.zeros(shape, dtype=complex)
    kappa = np.arange(-band_cells, band_cells + 1)
    coeffs[np.ix_(*(kappa % n for n in shape))] = sym
    mass = float(np.sqrt(np.sum(np.abs(sym) ** 2)))
    values = np.fft.ifftn(coeffs).real * (np.prod(shape) / mass)
    u = GridFunction(box, values, "zero")
    if window is not None:
        plateau, support = window
        win = math.prod(
            plateau_bump(u.nodes(a), plateau, support).reshape([-1 if i == a else 1 for i in range(d)])
            for a in range(d)
        )
        u = u.with_values(u.values * win)
    return u


def random_trig_field(
    seed_key,
    box: Box,
    shape: Sequence[int] | int,
    kmax: int = 4,
    modes: int = 8,
    octave: int = 0,
) -> tuple[GridFunction, tuple[float, ...]]:
    """Seeded trigonometric sum, exactly band-limited, scalable by octaves.

    Returns (u, b): u(x) = sum_j a_j cos(2^octave w <kappa_j, x> + theta_j)
    with integer modes |kappa|_inf <= kmax and w = 2 pi / box width per axis;
    b is the exact per-axis angular band bound 2^octave * w * kmax.
    """
    if isinstance(shape, int):
        shape = (shape,) * box.d
    shape = tuple(int(n) for n in shape)
    rng = np.random.default_rng(seed_key)
    d = box.d
    kappas = rng.integers(-kmax, kmax + 1, size=(modes, d))
    for row in range(modes):  # no constant modes
        if not np.any(kappas[row]):
            kappas[row, 0] = 1
    amps = rng.standard_normal(modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, modes)
    base = [2.0 * np.pi / w for w in box.widths]
    scale = 2.0**octave

    def expr(*coords):
        out = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)))
        for a, kappa, theta in zip(amps, kappas, phases):
            phase = np.zeros_like(out)
            for axis in range(d):
                phase = phase + scale * base[axis] * kappa[axis] * coords[axis]
            out += a * np.cos(phase + theta)
        return out

    # the modes are exactly box-periodic, so differences may wrap
    u = sample(expr, box, shape, extension="periodic")
    b = tuple(scale * base[axis] * kmax * (1.0 + 1e-9) for axis in range(d))
    return u, b
