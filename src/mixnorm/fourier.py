"""Dyadic frequency decompositions and Fourier-side norms.

The discrete transform uses the unitary FFT convention (norm="ortho"), so
Parseval identities hold exactly on the grid; the continuous-transform
normalization constant (2 pi)^(-d/2) per axis is absorbed into this
convention and cancels in every ratio this library reports.

Frequencies are angular: xi = 2 pi * fftfreq(n, dx).  The top dyadic level
per axis is chosen as ceil(log2(max |xi|)), which makes the last window agree
with the generating formula at every retained frequency while the level sums
telescope to exactly 1, so block reconstruction is exact for all inputs.

Every transform is real: blocks, band limits and derivatives take one rfftn
of the field, mask it per axis and return the irfftn of the result.  That is
the transform of a real field only when each mask is Hermitian.  Derivative
symbols are Hermitian by the Nyquist rule.  Windows are Hermitian when they
are mirror-symmetric; every path that reads a DyadicSystem checks that first
and raises NumericalAnomalyError otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import (GridError, GridFunction, NumericalAnomalyError, _as_shape, _binary_exponent, _dyadic_aggregate,
                   lp_norm, lp_norm_values)
from .differences import _as_axis_vector, _check_besov_params, mixed_difference, snap_step
from .profiles import smoothstep


def _angular_freqs(u: GridFunction) -> list[np.ndarray]:
    return [2.0 * np.pi * np.fft.fftfreq(n, d=dxv) for n, dxv in zip(u.n, u.dx)]


MAX_SPECTRAL_ORDER = 4


def _check_order(a: int) -> int:
    # a derivative order, or the Sobolev order m, that spectral symbols take; returned as an int
    if not (float(a).is_integer() and 0 <= a <= MAX_SPECTRAL_ORDER):
        raise GridError(f"order {a} is not an integer in 0..{MAX_SPECTRAL_ORDER}, the configured maximum")
    return int(a)


def _check_sobolev_params(m: int, p: float) -> None:
    _check_order(m)
    if not 1.0 < p < math.inf:
        raise GridError(f"sobolev norms require 1 < p < inf, got {p}")


def _derivative_symbol(xi: np.ndarray, a: int) -> np.ndarray:
    # (i xi)^a; odd orders zero the unpaired Nyquist mode of an even grid
    mult = (1j * xi) ** a
    n = xi.shape[0]
    if a % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    return mult


def smooth_cutoff(xi: np.ndarray) -> np.ndarray:
    """Low-pass window: 1 on [-1, 1], 0 outside (-3/2, 3/2), C-infinity.

    The transition is the integrated-mollifier ramp from profiles.
    """
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros(a.shape)
    out[a <= 1.0] = 1.0
    trans = (a > 1.0) & (a < 1.5)
    if np.any(trans):
        out[trans] = 1.0 - smoothstep((a[trans] - 1.0) / 0.5)
    return out


@dataclass(frozen=True)
class DyadicSystem:
    """Family of 1-d frequency windows per axis, indexed by dyadic level.

    kind "smooth": level 0 is the low-pass cutoff, level j >= 1 is the
    difference of two dilates of it (supported where 2^(j-1) <= |xi| <=
    3 * 2^(j-1)).  kind "sharp": level 0 is the indicator of [-1, 1], level j
    the indicator of the dyadic annulus (2^(j-1), 2^j].  Windows sum to 1 at
    every retained frequency; sharp windows partition the grid exactly.
    build_system gives each axis one shared read-only (level, frequency) matrix.
    """

    kind: str
    shape: tuple[int, ...]
    j_max: tuple[int, ...]
    axis_windows: tuple[Sequence[np.ndarray], ...] = field(repr=False)
    freqs: tuple[np.ndarray, ...] = field(repr=False)

    def levels(self) -> itertools.product:
        return itertools.product(*(range(j + 1) for j in self.j_max))


def _axis_windows(xi: np.ndarray, kind: str) -> list[np.ndarray]:
    xi_max = float(np.max(np.abs(xi)))
    j_top = max(1, int(math.ceil(math.log2(xi_max))))
    a = np.abs(xi)
    wins: list[np.ndarray] = []
    if kind == "smooth":
        prev = smooth_cutoff(xi)  # level 0
        wins.append(prev)
        for j in range(1, j_top + 1):
            cur = smooth_cutoff(xi / 2.0**j)
            wins.append(cur - prev)
            prev = cur
        # grid frequencies satisfy |xi| <= 2^j_top, so the top window already
        # equals 1 - cutoff(xi / 2^(j_top - 1)) there; force the telescoping
        # closure exactly:
        wins[-1] = 1.0 - smooth_cutoff(xi / 2.0 ** (j_top - 1))
    elif kind == "sharp":
        wins.append((a <= 1.0).astype(float))
        for j in range(1, j_top):
            wins.append(((a > 2.0 ** (j - 1)) & (a <= 2.0**j)).astype(float))
        wins.append((a > 2.0 ** (j_top - 1)).astype(float))
    else:
        raise GridError(f"kind must be 'smooth' or 'sharp', got {kind!r}")
    return wins


def _check_power_of_two(n: int) -> None:
    if n & (n - 1):
        raise GridError(f"resolution must be a power of two, got {n}")


def _check_samples(n: int) -> None:
    if n < 16:
        raise GridError(f"resolution must be >= 16 per axis, got {n}")


@functools.lru_cache(maxsize=64)
def _axis_system(kind: str, n: int, dx: float) -> tuple[np.ndarray, np.ndarray]:
    # the angular frequencies of one axis and its (level, frequency) window matrix, read-only
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    windows = np.array(_axis_windows(xi, kind))
    xi.flags.writeable = windows.flags.writeable = False
    return xi, windows


def build_system(kind: str, box, resolution: Sequence[int] | int) -> DyadicSystem:
    """Dyadic decomposition of unity on the frequency grid of a box.

    Resolution must be a power of two, at least 16 per axis; it is checked on
    every call.  Each axis's frequencies and (level, frequency) window matrix
    are built once per (kind, n, dx) and shared, read-only, by every system
    that has that axis.
    """
    resolution = _as_shape(resolution, box.d)
    for n in resolution:
        _check_samples(n)
        _check_power_of_two(n)
    freqs, axis_windows = zip(*(_axis_system(kind, n, w / n) for w, n in zip(box.widths, resolution)))
    return DyadicSystem(kind, resolution, tuple(len(w) - 1 for w in axis_windows), axis_windows, freqs)


def system_for(u: GridFunction, kind: str = "smooth") -> DyadicSystem:
    return build_system(kind, u.box, u.n)


def _masked_inverse(
    spec: np.ndarray, axis_masks: Sequence[np.ndarray | None], shape: Sequence[int]
) -> np.ndarray:
    """Real field of the given shape whose rfftn is spec times one mask per
    axis (None: no mask).

    Each mask spans its whole axis; the last axis reads its bins 0..n//2.
    Masks must be Hermitian, s[-k mod n] = conj s[k], for the product to be
    the transform of a real field.
    """
    out = spec
    for axis, mask in enumerate(axis_masks):
        if mask is not None:
            out = out * mask[: spec.shape[axis]].reshape([-1 if i == axis else 1 for i in range(spec.ndim)])
    return np.fft.irfftn(out, s=shape, axes=range(len(shape)), norm="ortho")


def _checked_windows(u: GridFunction, sys: DyadicSystem) -> list[np.ndarray]:
    # the per-axis window matrices (level, frequency) of a system built for u's grid; the
    # blocks of a real field are real exactly when every window is mirror-symmetric, and a
    # real inverse transform would silently symmetrize any other, so this is their one guard
    if tuple(u.n) != sys.shape:
        raise GridError(f"system built for shape {sys.shape}, function has {u.n}")
    windows = [np.asarray(w) for w in sys.axis_windows]
    for axis, w in enumerate(windows):
        if np.max(np.abs(w - w[:, -np.arange(w.shape[1]) % w.shape[1]])) > 1e-10:
            raise NumericalAnomalyError(f"axis {axis}: a window is not mirror-symmetric, so blocks are complex")
    return windows


def lp_block(u: GridFunction, k: Sequence[int], sys: DyadicSystem) -> GridFunction:
    """Frequency-localized block: inverse transform of the windowed spectrum."""
    windows = _checked_windows(u, sys)
    k = tuple(int(v) for v in k)
    for i, ki in enumerate(k):
        if not 0 <= ki <= sys.j_max[i]:
            raise GridError(f"level {ki} out of range 0..{sys.j_max[i]} on axis {i}")
    spec = np.fft.rfftn(u.values, norm="ortho")
    return u.with_values(_masked_inverse(spec, [w[ki] for w, ki in zip(windows, k)], u.n))


def _blocks(u: GridFunction, sys: DyadicSystem):
    windows = _checked_windows(u, sys)
    spec = np.fft.rfftn(u.values, norm="ortho")
    for k in sys.levels():
        yield k, _masked_inverse(spec, [w[ki] for w, ki in zip(windows, k)], u.n)


def _block_norms(u: GridFunction, sys: DyadicSystem) -> np.ndarray:
    # L_2 norm of every block, indexed by level, from one power spectrum
    windows = _checked_windows(u, sys)
    return u._power_table([[w**2 for w in windows]], u.cell_volume)[0]


def besov_norm_fourier(
    u: GridFunction, r: float, p: float, sys: DyadicSystem | None = None
) -> float:
    """Littlewood-Paley Besov norm: dyadically weighted l_p aggregate of block
    L_p norms, with the max modification at p = inf; p = 2 forms no block."""
    _check_besov_params(r, p)
    if sys is None:
        sys = system_for(u, "smooth")
    if p == 2.0:
        norms = _block_norms(u, sys)
    else:
        norms = np.reshape([lp_norm_values(block, p, u.cell_volume) for _, block in _blocks(u, sys)],
                           [j + 1 for j in sys.j_max])
    return _dyadic_aggregate(norms, r * np.indices(norms.shape).sum(axis=0), p)


def sobolev_norm_fourier(
    u: GridFunction, m: int, p: float, sys: DyadicSystem | None = None
) -> float:
    """Square-function Sobolev norm: L_p norm of the weighted block square sum.

    The square-function characterization needs 1 < p < infinity; p = 2 forms no block.
    """
    _check_sobolev_params(m, p)
    if sys is None:
        sys = system_for(u, "smooth")
    if p == 2.0:
        norms = _block_norms(u, sys)
        return _dyadic_aggregate(norms, m * np.indices(norms.shape).sum(axis=0), 2.0)
    # the square function of u / 2^e times 2^e: exact scalings that keep every square in range
    e = _binary_exponent(u.values)
    acc = np.zeros(u.n)
    for k, block in _blocks(u.with_values(np.ldexp(u.values, -e)), sys):
        acc += 4.0 ** (sum(k) * m) * block * block
    return lp_norm_values(np.ldexp(np.sqrt(acc), e), p, u.cell_volume)


def bandlimit(u: GridFunction, b: Sequence[float] | float) -> GridFunction:
    """Zero all spectral content outside the box prod [-b_i, b_i] (angular)."""
    bv = _as_axis_vector(b, u.d, "b")
    for bi in bv:
        if not bi > 0:
            raise GridError(f"band bounds must be positive, got {bv}")
    masks = [(np.abs(xi) <= bi).astype(float) for xi, bi in zip(_angular_freqs(u), bv)]
    return u.with_values(_masked_inverse(np.fft.rfftn(u.values, norm="ortho"), masks, u.n))


def band_energy_fraction(u: GridFunction, b: Sequence[float] | float) -> float:
    """Fraction of spectral energy outside the band (0 for band-limited input)."""
    bv = _as_axis_vector(b, u.d, "b")
    masks = [(np.abs(xi[None]) <= bi).astype(float) for xi, bi in zip(_angular_freqs(u), bv)]
    inside, total = (float(t.sum()) for t in u._power_table([masks, [None] * u.d], 1.0))
    return 0.0 if total == 0.0 else max(0.0, 1.0 - (inside / total) ** 2)


def _check_band_limited(u: GridFunction, b: Sequence[float]) -> None:
    if band_energy_fraction(u, b) > 1e-8:
        raise GridError("input is not band-limited to b (relative out-of-band energy > 1e-8)")


def spectral_derivative(u: GridFunction, alpha: Sequence[int] | int) -> GridFunction:
    """Mixed derivative D^alpha via Fourier multipliers (i xi)^alpha.

    The input is treated as periodized over its box; smooth compactly
    supported samples with margin make this exact to spectral accuracy.  The
    unpaired Nyquist mode is zeroed for odd orders.
    """
    av = tuple(_check_order(a) for a in _as_axis_vector(alpha, u.d, "alpha"))
    return next(_derivatives(u, [av]))


def _derivatives(u: GridFunction, alphas):
    # D^alpha u for each alpha in turn (checked orders), all from one forward transform;
    # an all-zero alpha yields u itself
    freqs = _angular_freqs(u)
    spec = None
    for alpha in alphas:
        if not any(alpha):
            yield u
            continue
        if spec is None:
            spec = np.fft.rfftn(u.values, norm="ortho")
        symbols = [_derivative_symbol(xi, a) if a else None for a, xi in zip(alpha, freqs)]
        yield u.with_values(_masked_inverse(spec, symbols, u.n))


def _check_exponents(p0: float, p: float) -> None:
    if not 1.0 <= p0 <= p:
        raise GridError(f"need 1 <= p0 <= p, got p0={p0}, p={p}")


def nikolskij_ratio(
    u: GridFunction,
    alpha: Sequence[int] | int,
    p0: float,
    p: float,
    b: Sequence[float] | float,
) -> float:
    """Measured constant of the band-limited derivative inequality.

    ||D^alpha u||_p divided by prod b_i^(alpha_i + 1/p0 - 1/p) * ||u||_p0;
    finiteness across a band sweep exhibits the inequality with a uniform
    constant.  Requires p0 <= p and u band-limited to b.
    """
    _check_exponents(p0, p)
    bv = _as_axis_vector(b, u.d, "b")
    av = tuple(int(a) for a in _as_axis_vector(alpha, u.d, "alpha"))
    _check_band_limited(u, bv)
    denom_norm = lp_norm(u, p0)
    if denom_norm == 0.0:
        raise GridError("nikolskij ratio undefined for the zero function")
    scale = 1.0
    for bi, ai in zip(bv, av):
        scale *= bi ** (ai + 1.0 / p0 - 1.0 / p)  # 1 / inf is 0
    num = lp_norm(spectral_derivative(u, av), p)
    return num / (scale * denom_norm)


_STOP_EVERY = 8  # offsets between two tests of the per-line early stop


def _neighbour_max(src: np.ndarray, k: int, periodic: bool, out: np.ndarray) -> None:
    # out[j] = max(src[j - k], src[j + k]) over the indices that exist (wrapped
    # when periodic, k <= n // 2), 0 where neither does; slices whole rows only
    n = src.shape[0]
    if periodic:
        np.maximum(src[n - k:], src[k:2 * k], out=out[:k])
        np.maximum(src[:n - 2 * k], src[2 * k:], out=out[k:n - k])
        np.maximum(src[n - 2 * k:n - k], src[:k], out=out[n - k:])
    elif 2 * k <= n:
        out[:k] = src[k:2 * k]
        np.maximum(src[:n - 2 * k], src[2 * k:], out=out[k:n - k])
        out[n - k:] = src[n - 2 * k:n - k]
    else:
        out[:n - k] = src[k:]
        out[n - k:k] = 0.0
        out[k:] = src[:n - k]


def _max_convolve_lines(src: np.ndarray, weights: Sequence[float], periodic: bool) -> np.ndarray:
    """Columns of max over |s| < len(weights) of weights[|s|] * src[j - s].

    src (n, lines), C-ordered and nonnegative, is overwritten by the result,
    which is returned.  One line per column makes every shifted slice a block
    of whole rows, one contiguous loop in numpy (a slice offset along the last
    axis runs several times slower).  A line stops as soon as tail[k] *
    max(line of src) <= min(line of out), tail[k] being the largest weight at
    distance k or more: rounding is monotone, so no farther offset can raise
    any node of the line and the result is exact.  Stopped lines are dropped
    once half the lines, later a quarter of the live ones, have stopped:
    np.take gathers the rest in C order (a[:, idx] gives F order) into the
    work arrays' own memory, since fresh arrays of each size fragment the heap.
    """
    tail = np.maximum.accumulate(np.asarray(weights, dtype=float)[::-1])[::-1]
    res = src  # out's lines end in res[:, cols]; until the first gather, out is res
    src, cols, top = src.copy(), np.arange(src.shape[1]), src.max(axis=0)
    out = np.multiply(res, weights[0], out=res)
    tmp = np.empty_like(src)
    for k in range(1, len(weights)):
        if (k - 1) % _STOP_EVERY == 0:
            done = tail[k] * top <= out.min(axis=0)
            if done.all():
                break
            if np.count_nonzero(done) * (2 if out is res else 4) >= done.size:
                # src moves into tmp's memory, out into src's and tmp into out's;
                # the first time, out is res and tmp takes its own second half
                keep = np.flatnonzero(~done)
                size, mem = src.shape[0] * keep.size, [a.reshape(-1) for a in (src, out, tmp)]
                # mode="clip": with "raise", take writes via a temporary copy
                src = np.take(src, keep, axis=1, out=mem[2][:size].reshape(-1, keep.size), mode="clip")
                if out is not res:
                    res[:, cols[done]] = out[:, done]
                tmp = (mem[2][size:2 * size] if out is res else mem[1][:size]).reshape(src.shape)
                out = np.take(out, keep, axis=1, out=mem[0][:size].reshape(src.shape), mode="clip")
                cols, top = cols[keep], top[keep]
        # +s and -s share a weight, and w * max(x, y) == max(w * x, w * y) in floats
        _neighbour_max(src, k, periodic, tmp)
        np.multiply(tmp, weights[k], out=tmp)
        np.maximum(out, tmp, out=out)
    if out is not res:
        res[:, cols] = out
    return res


def _check_decay(a: float) -> None:
    if not a > 0:
        raise GridError(f"decay exponent a must be positive, got {a}")


def peetre_maximal(u: GridFunction, b: Sequence[float] | float, a: float) -> GridFunction:
    """Weighted sliding supremum sup_z |u(x - z)| / prod (1 + |b_i z_i|)^a.

    The offset search runs over all grid offsets within the box span (the
    field vanishes outside, so exterior offsets cannot win).  The separable
    weight makes the joint maximum a sequence of per-axis max-convolutions,
    each run with the axis first (whole-row slices) and an exact early stop.
    """
    _check_decay(a)
    bv = _as_axis_vector(b, u.d, "b")
    periodic = u.extension == "periodic"
    acc = np.abs(u.values)
    for axis, (n, dxv) in enumerate(zip(u.n, u.dx)):
        # periodic: wrapped twins repeat the same values at larger |z|, so the
        # nearest representative per residue suffices
        reach = n // 2 if periodic else n - 1
        weights = [(1.0 + abs(bv[axis] * dxv * s)) ** (-a) for s in range(reach + 1)]
        lines = np.ascontiguousarray(np.moveaxis(acc, axis, 0))
        del acc  # frees the previous axis's result while this axis runs
        _max_convolve_lines(lines.reshape(n, -1), weights, periodic)
        acc = np.moveaxis(lines, 0, axis)
    return u.with_values(acc)


def difference_maximal_check(
    u: GridFunction,
    e: Sequence[int],
    m: int | Sequence[int],
    steps: Sequence[float | Sequence[float]],
    b: Sequence[float] | float,
    a: float,
) -> list[float]:
    """Worst-case ratio of a mixed difference against its maximal-function bound,
    one per step h of `steps`.

    max over nodes of |D_h^{m,e} u| / (prod_i max(1,|b_i h_i|^a) *
    min(1,|b_i h_i|^{m_i}) * P_{b,a} u); uniform boundedness over step and
    band sweeps exhibits the difference-maximal inequality.  P_{b,a} u is
    built once for the whole sweep.
    """
    axes = sorted(set(int(x) for x in e))
    mv = _as_axis_vector(m, u.d, "m")
    bv = _as_axis_vector(b, u.d, "b")
    _check_band_limited(u, bv)
    pmax = peetre_maximal(u, bv, a).values
    safe = pmax > 0.0
    ratios = []
    for h in steps:
        hv = _as_axis_vector(h, u.d, "h")
        # the difference snaps each step to whole cells; the bound factor must use
        # the same snapped step to stay consistent with the numerator
        h_act = list(hv)
        factor = 1.0
        for axis in axes:
            h_act[axis] = snap_step(float(hv[axis]), u.dx[axis]) * u.dx[axis]
            bh = abs(bv[axis] * h_act[axis])
            factor *= max(1.0, bh**a) * min(1.0, bh ** mv[axis])
        if factor == 0.0:
            ratios.append(0.0)
            continue
        num = np.abs(mixed_difference(u, axes, mv, h_act).values)
        dead = ~safe & (num > 1e-13 * max(float(np.max(num)), 1e-300))
        if np.any(dead):
            raise NumericalAnomalyError(
                "maximal function vanishes where the difference does not"
            )
        ratios.append(float(np.max(num[safe] / (factor * pmax[safe]))) if np.any(safe) else 0.0)
    return ratios
