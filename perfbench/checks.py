"""Checks on mixnorm's outputs, made apart from the program.

Each check tests a property the method must have, or compares with a separate
computation (Parseval from np.fft, a brute-force maximum); none compares with
a stored copy of earlier output.  A check returns a list of failure messages,
empty when it passes.  `self_test` shows that every check rejects a perturbed
value; run it alone from the repository root with
`PYTHONPATH=src python3 perfbench/checks.py`.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

import mixnorm as mx


def parse_csv(payload: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(payload.decode("utf-8"))))


def at_most(name: str, value: float, limit: float) -> list[str]:
    return [] if value <= limit else [f"{name} = {value!r} > {limit}"]


def at_least(name: str, value: float, limit: float) -> list[str]:
    return [] if value >= limit else [f"{name} = {value!r} < {limit}"]


def close(name: str, value: float, reference: float, rtol: float) -> list[str]:
    gap = abs(value - reference) / max(abs(reference), 1e-300)
    return [] if gap <= rtol else [f"{name}: {value!r} vs {reference!r}, relative gap {gap:.3e} > {rtol}"]


def within(name: str, value: float, target: float, tol: float) -> list[str]:
    return [] if abs(value - target) <= tol else [f"{name} = {value!r} outside {target} +/- {tol}"]


def increasing(name: str, values: list[float]) -> list[str]:
    ok = all(b > a for a, b in zip(values, values[1:]))
    return [] if ok else [f"{name} not increasing: {values}"]


def same_bytes(name: str, payload: bytes, reference: bytes) -> list[str]:
    return [] if payload == reference else [f"{name}: csv bytes differ from the first pass"]


def parseval_sobolev(values: np.ndarray, dx: tuple[float, ...], m: int, reduced: bool) -> float:
    """sum over alpha of sqrt(cell volume * sum |xi^alpha|^2 |F|^2).

    alpha runs over {0..m}^d, or over the corners {0, m}^d when reduced; the
    Nyquist bin is zeroed on each axis of odd order, as for a real spectral
    derivative.
    """
    power = np.abs(np.fft.fftn(values, norm="ortho")) ** 2
    orders = (0, m) if reduced else range(m + 1)
    total = 0.0
    for alpha in sorted(set(itertools.product(orders, repeat=values.ndim))):
        energy = power
        for axis, a in enumerate(alpha):
            n = values.shape[axis]
            weight = (2.0 * np.pi * np.fft.fftfreq(n, d=dx[axis])) ** (2 * a)
            if a % 2 == 1 and n % 2 == 0:
                weight[n // 2] = 0.0
            shape = [1] * values.ndim
            shape[axis] = n
            energy = energy * weight.reshape(shape)
        total += math.sqrt(math.prod(dx) * float(np.sum(energy)))
    return total


def peetre_brute_force(values: np.ndarray, dx: tuple[float, float], b: tuple[float, float],
                       a: float) -> np.ndarray:
    """max over every 2-d offset z of |u(x - z)| / prod (1 + |b_i z_i|)^a, periodic u."""
    mag = np.abs(values)
    n0, n1 = values.shape
    best = np.zeros_like(mag)
    for s0 in range(-(n0 - 1), n0):
        for s1 in range(-(n1 - 1), n1):
            w = ((1.0 + abs(b[0] * dx[0] * s0)) * (1.0 + abs(b[1] * dx[1] * s1))) ** (-a)
            np.maximum(best, w * np.roll(mag, (s0, s1), axis=(0, 1)), out=best)
    return best


def max_relative_gap(values: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(values - reference))) / max(float(np.max(np.abs(reference))), 1e-300)


def random_member(cfg, key) -> mx.GridFunction:
    """The seeded field the CLI builds for this config and seed key."""
    return mx.random_smooth_field(key, cfg.box(), cfg.resolution, band_cells=cfg.band_cells,
                                  window=(cfg.window_plateau, cfg.window_support))


def members(rows: list[dict[str, str]], summary: str) -> tuple[list[dict[str, str]], dict[str, str]]:
    """Member rows, and the one summary row named `summary`."""
    last = [row for row in rows if row["member"] == summary]
    if len(last) != 1:
        raise ValueError(f"expected one {summary!r} row, found {len(last)}")
    return [row for row in rows if row["member"] != summary], last[0]


def check_equiv(cfg, rows) -> list[str]:
    per_member, bracket = members(rows, "C")
    fails = []
    for row in per_member:
        u = random_member(cfg, (cfg.seed, int(row["member"])))
        for col, reduced in (("sobolev_full", False), ("sobolev_reduced", True)):
            ref = parseval_sobolev(u.values, u.dx, cfg.m, reduced)
            fails += close(f"member {row['member']} {col} vs Parseval", float(row[col]), ref, 1e-10)
    for col in ("ratio_diff_fourier", "ratio_diff_integral", "ratio_full_reduced"):
        fails += at_most(f"bracket {col}", float(bracket[col]), 10.0)
    return fails


def localized_crop(piece: mx.GridFunction, reach_units: int) -> mx.GridFunction:
    """Crop around the support of piece, padded by reach_units lattice units."""
    ranges = []
    for axis, idx in enumerate(np.nonzero(piece.values)):
        pad = reach_units * int(round(1.0 / piece.dx[axis]))
        ranges.append((max(0, int(idx.min()) - pad), min(piece.n[axis], int(idx.max()) + 1 + pad)))
    return mx.crop(piece, ranges)


def check_localize(cfg, rows) -> list[str]:
    _, bracket = members(rows, "C")
    fails = at_most("bracket C", float(bracket["ratio"]), 5.0)
    # zero extension: a piece's norm on a crop padded by the whole difference
    # reach (m_diff steps, each below one lattice unit) equals its norm on
    # the full grid
    u = random_member(cfg, (cfg.seed, 0))
    pou = mx.build_partition(cfg.base_width, cfg.box(), cfg.resolution)
    full = mx.apply_translate(pou, u, (0, 0))
    on_crop = mx.besov_norm_diff(localized_crop(full, cfg.m_diff), cfg.r, cfg.p, cfg.m_diff)
    on_full = mx.besov_norm_diff(full, cfg.r, cfg.p, cfg.m_diff)
    return fails + close("piece (0, 0) norm on crop vs full grid", on_crop, on_full, 1e-12)


def check_moser_tensor(cfg, rows) -> list[str]:
    series, fit = members(rows, "fit")
    ratios = [float(row["ratio"]) for row in series if int(row["member"]) >= 2]
    fails = within("moser slope", float(fit["fit_exponent"]), 0.5, 0.1)
    return fails + increasing("moser ratios for n >= 2", ratios)


def check_algebra_tensor(cfg, rows) -> list[str]:
    # r > 1/p: the space is an algebra, so the ratio does not grow
    _, fit = members(rows, "fit")
    return at_most("|algebra slope|", abs(float(fit["fit_exponent"])), 0.05)


def check_peetre(cfg, rows) -> list[str]:
    fails = []
    for row in rows:  # P_{b,a}u >= |u| pointwise (offset z = 0)
        if row["member"] != "sweep":
            fails += at_least(f"peetre ratio {row['member']}", float(row["ratio"]), 1.0)
    _, sweep = members(rows, "sweep")
    fails += at_most("peetre sweep spread", float(sweep["ratio"]), 4.0)
    u, b = mx.random_trig_field((cfg.seed, 0), cfg.box(), 32, cfg.kmax_modes, cfg.modes, 0)
    gap = max_relative_gap(mx.peetre_maximal(u, b, cfg.a).values,
                           peetre_brute_force(u.values, u.dx, b, cfg.a))
    return fails + at_most("peetre_maximal vs brute force at 32^2", gap, 1e-12)


def check_algebra_pairs(cfg, rows) -> list[str]:
    f = random_member(cfg, (cfg.seed, 0))  # the first factor of pair 0
    norm_2f = mx.besov_norm_diff(f.with_values(2.0 * f.values), cfg.r, cfg.p, cfg.m_diff)
    first = next(row for row in rows if row["member"] == "0")
    return close("||2f|| vs 2 ||f||", norm_2f, 2.0 * float(first["norm_f"]), 1e-12)


CHECKS = {  # (workload, experiment) -> check of one experiment run's rows
    ("equiv_p2", "equiv"): check_equiv,
    ("localize_p2", "localize"): check_localize,
    ("tensor_1d", "moser"): check_moser_tensor,
    ("tensor_1d", "algebra"): check_algebra_tensor,
    ("general_p3", "peetre"): check_peetre,
    ("general_p3", "algebra"): check_algebra_pairs,
}


def self_test() -> list[str]:
    """Every check passes its true value and rejects a perturbed one.

    The values come from numpy alone, so a fault in mixnorm shows in the
    workload checks, not here.
    """
    rng = np.random.default_rng(7)
    values = rng.standard_normal((16, 12))
    dx = (0.5, 0.25)
    # space-side L2 norms of real spectral derivatives, against Parseval
    spectrum = np.fft.fftn(values, norm="ortho")
    direct = 0.0
    for alpha in itertools.product(range(3), repeat=2):
        mult = spectrum
        for axis, a in enumerate(alpha):
            n = values.shape[axis]
            factor = (1j * 2.0 * np.pi * np.fft.fftfreq(n, d=dx[axis])) ** a
            if a % 2 == 1:
                factor[n // 2] = 0.0
            mult = mult * factor.reshape((n, 1) if axis == 0 else (1, n))
        deriv = np.fft.ifftn(mult, norm="ortho").real
        direct += math.sqrt(math.prod(dx) * float(np.sum(deriv**2)))
    parseval = parseval_sobolev(values, dx, 2, reduced=False)
    brute = peetre_brute_force(values[:8, :8], (0.5, 0.5), (3.0, 2.0), 1.0)
    bumped = brute.copy()
    bumped[3, 5] *= 1.0 + 1e-9
    norm = 1.2345678901234567

    cases = [  # (check, its arguments at the true value, at a perturbed value)
        (close, ("parseval", direct, parseval, 1e-10), ("parseval", direct * (1 + 1e-9), parseval, 1e-10)),
        (at_most, ("bracket", 10.0, 10.0), ("bracket", 10.001, 10.0)),
        (close, ("crop", norm, norm, 1e-12), ("crop", norm * (1 + 1e-11), norm, 1e-12)),
        (within, ("slope", 0.45, 0.5, 0.1), ("slope", 0.61, 0.5, 0.1)),
        (increasing, ("ratios", [1.0, 1.2, 1.5]), ("ratios", [1.0, 1.5, 1.2])),
        (at_most, ("|slope|", 0.0, 0.05), ("|slope|", 0.051, 0.05)),
        (at_least, ("peetre", 1.0, 1.0), ("peetre", 1.0 - 1e-12, 1.0)),
        (at_most, ("spread", 3.9, 4.0), ("spread", 4.01, 4.0)),
        (lambda n, x, y, t: at_most(n, max_relative_gap(x, y), t),
         ("brute", brute, brute, 1e-12), ("brute", bumped, brute, 1e-12)),
        (close, ("homog", 2 * norm, 2 * norm, 1e-12), ("homog", 2 * norm * (1 + 1e-11), 2 * norm, 1e-12)),
        (same_bytes, ("csv", b"a,b\n1,2\n", b"a,b\n1,2\n"), ("csv", b"a,b\n1,3\n", b"a,b\n1,2\n")),
    ]
    fails = []
    for check, good, bad in cases:
        if check(*good):
            fails.append(f"self-test: {good[0]} rejects its true value: {check(*good)}")
        if not check(*bad):
            fails.append(f"self-test: {bad[0]} accepts a perturbed value")
    return fails


if __name__ == "__main__":
    problems = self_test()
    print("\n".join(problems) if problems else "all checks reject their perturbed values")
    raise SystemExit(1 if problems else 0)
