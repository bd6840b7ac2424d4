"""Configuration-driven experiment runner.

Usage: mixnorm <experiment> [--config FILE] [--describe] [--key value]...

Config files are flat key=value text (one pair per line, # comments);
command-line --key value pairs override file values.  Output is a CSV or JSON
table whose bytes are fully determined by (config, seed) regardless of worker
count; wall-clock timings and the timestamp live in a separate metadata
sidecar <output>.meta.json.  MIXNORM_WORKERS caps process-level parallelism
over family members.

Exit codes: 0 success, 2 validation error, 3 numerical anomaly, 4 I/O error.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import Box, GridError, GridFunction, _check_p, lp_norm
from .differences import _as_axis_vector, _check_besov_params, _dyadic_levels, besov_norm_diff, besov_norm_integral
from .fourier import (NumericalAnomalyError, _check_decay, _check_exponents, _check_order, _check_power_of_two,
                      _check_samples, _check_sobolev_params, besov_norm_fourier, nikolskij_ratio, peetre_maximal)
from .sobolev import _check_split, cmix_norm, mixed_sup_lp, sobolev_norm_full, sobolev_norm_reduced
from .spaces import SpaceSpec, embedding_ratio, sup_norm
from .profiles import _check_plateau
from .multipliers import (_algebra_denominator, _check_tensor_space, _moser_denominator, build_partition,
                          localization_ratio, pair_terms, tensor_pair_terms)
from .families import (_check_band, _check_chirp, _check_dilation, _check_members, _check_window,
                       dilated_member, oscillatory_member, random_smooth_field, random_trig_field, rate_fit, rate_model)


class ValidationError(ValueError):
    """A configuration field violates a module precondition."""

    def __init__(self, fields: str, message: str):
        self.fields = fields
        super().__init__(f"{fields}: {message}")


@dataclass
class ExperimentConfig:
    """Flat parameter set; every row of the output carries this snapshot."""

    experiment: str
    d: int = 2
    resolution: int = 256
    box_lo: float = -4.0
    box_hi: float = 4.0
    p: float = 2.0
    r: float = 1.0
    m: int = 2
    m_diff: int = 2
    space: str = "besov"
    family: str = "random"
    n_min: int = 0
    n_max: int = 8
    epsilon: float = 1.6
    ramp: str = "linear"
    count: int = 10
    band_cells: int = 16
    window_plateau: float = 1.5
    window_support: float = 2.0
    companion_plateau: float = 2.0
    companion_support: float = 3.0
    base_width: float = 1.0
    a: float = 1.0
    alpha: tuple[int, ...] = (1, 1)
    p0: float = 2.0
    octaves: int = 5
    kmax_modes: int = 4
    modes: int = 8
    beta: tuple[int, ...] = (1, 0)
    n_split: int = 1
    seed: int = 0
    output: str = ""
    format: str = "csv"

    def box(self) -> Box:
        return Box((self.box_lo,) * self.d, (self.box_hi,) * self.d)

    def box1(self) -> Box:
        return Box((self.box_lo,), (self.box_hi,))

    def snapshot(self) -> dict:
        # I/O destination fields are sidecar metadata, not experiment parameters
        out = {}
        for f in dataclasses.fields(self):
            if f.name in ("output", "format"):
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            out[f"param_{f.name}"] = v
        return out


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValidationError(key, "unknown configuration key")
    target = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if target == "int":
            return int(raw)
        if target == "float":
            return math.inf if raw in ("inf", "Inf", "INF") else float(raw)
        if target == "tuple[int, ...]":
            return tuple(int(x) for x in raw.split(",") if x.strip() != "")
        return raw
    except ValueError as err:
        raise ValidationError(key, f"cannot parse {raw!r}: {err}") from None


def load_config(experiment: str, path: str | None, overrides: dict[str, str]) -> ExperimentConfig:
    cfg = ExperimentConfig(experiment=experiment)
    pairs: dict[str, str] = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError("config", f"line {line_no}: expected key=value, got {line!r}")
                key, raw = line.split("=", 1)
                pairs[key.strip()] = raw
    pairs.update(overrides)
    for key, raw in pairs.items():
        if key == "experiment":
            raise ValidationError(key, "experiment is the positional argument")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def _require(cond: bool, fields: str, message: str) -> None:
    if not cond:
        raise ValidationError(fields, message)


def _check(fields: str, check: Callable, *args) -> None:
    """Call a module's check with configuration values; its error names these fields."""
    try:
        check(*args)
    except GridError as err:
        raise ValidationError(fields, str(err)) from None


def validate(cfg: ExperimentConfig) -> None:
    """Check every module precondition reachable from this configuration: the
    shared fields, then the record's checks, which call the modules' own."""
    _require(cfg.experiment in EXPERIMENTS, "experiment", f"must be one of {tuple(EXPERIMENTS)}")
    _require(1 <= cfg.d <= 3, "d", "dimension must lie in 1..3")
    _require(cfg.box_lo < cfg.box_hi, "box_lo,box_hi", "need box_lo < box_hi")
    _check("resolution", _check_samples, cfg.resolution)
    _require(cfg.seed >= 0, "seed", "seed must be nonnegative")
    _require(cfg.format in ("csv", "json"), "format", "format must be csv or json")
    for check in EXPERIMENTS[cfg.experiment].checks:
        check(cfg)


def _dx(cfg: ExperimentConfig) -> float:
    return (cfg.box_hi - cfg.box_lo) / cfg.resolution


def _check_besov(cfg: ExperimentConfig) -> None:
    _check("p,r,m_diff", _check_besov_params, cfg.r, cfg.p, cfg.m_diff)
    _check("resolution,box_lo,box_hi", _dyadic_levels, (_dx(cfg),))


def _check_sobolev(cfg: ExperimentConfig) -> None:
    _check("p,m", _check_sobolev_params, cfg.m, cfg.p)


def _check_pow2(cfg: ExperimentConfig) -> None:
    _check("resolution", _check_power_of_two, cfg.resolution)


def _check_count(cfg: ExperimentConfig) -> None:
    _require(cfg.count >= 1, "count", "family count must be positive")


def _check_random(cfg: ExperimentConfig) -> None:
    _check_count(cfg)
    _check("band_cells,resolution", _check_band, cfg.band_cells, cfg.resolution)
    _check("window_plateau,window_support", _check_plateau, cfg.window_plateau, cfg.window_support)
    _check("window_support,box_lo,box_hi", _check_window, cfg.box(), (cfg.resolution,) * cfg.d,
           (cfg.window_plateau, cfg.window_support))


def _check_family(cfg: ExperimentConfig, **dims: tuple[int, ...]) -> None:
    """cfg.family is one of the keywords, cfg.d one of its dimensions, and the
    family's members fit the grid."""
    _require(cfg.family in dims, "family", f"{cfg.experiment} family must be {'|'.join(dims)}")
    _require(cfg.d in dims[cfg.family], "d,family", f"{cfg.family} members need d in {dims[cfg.family]}")
    if cfg.family == "random":
        _check_random(cfg)
    if cfg.family in ("random", "zero"):
        return
    oscillatory = cfg.family.endswith("oscillatory")
    _check("n_min,n_max", _check_members, cfg.n_min, cfg.n_max, 1 if oscillatory else 0)
    if oscillatory:
        # the oscillation bound tightens with n, so the last member decides
        _check("epsilon,ramp,resolution,n_max", _check_chirp, _dx(cfg), cfg.n_max, cfg.epsilon, cfg.ramp)
    else:
        _check("resolution,n_max", _check_dilation, _dx(cfg), cfg.n_max)


def _check_random_fields(cfg: ExperimentConfig) -> None:
    _require(cfg.d == 2, "d", f"{cfg.experiment} experiment runs in d = 2")
    _check_random(cfg)


def _sobolev_columns(cfg: ExperimentConfig) -> bool:
    # derivative norms need a smooth member (the chirps are not) and 1 < p < inf
    return cfg.family != "oscillatory" and 1.0 < cfg.p < math.inf


def _check_norm(cfg: ExperimentConfig) -> None:
    _check_pow2(cfg)
    _check_besov(cfg)
    _check_family(cfg, dilated=(1,), oscillatory=(1,), random=(1, 2), zero=(1, 2))
    if _sobolev_columns(cfg):
        _check_sobolev(cfg)


def _check_band_sweep(cfg: ExperimentConfig) -> None:
    _require(cfg.octaves >= 2, "octaves", "band sweep needs >= 2 octaves")
    _check_count(cfg)
    _require(cfg.kmax_modes >= 1 and cfg.modes >= 1, "kmax_modes,modes", "need modes")
    top = 2.0 ** (cfg.octaves - 1) * cfg.kmax_modes
    _require(top <= cfg.resolution / 4.0, "octaves,kmax_modes,resolution",
             "top octave exceeds a quarter of the Nyquist index range")


def _check_nikolskij(cfg: ExperimentConfig) -> None:
    _check("alpha,d", _as_axis_vector, cfg.alpha, cfg.d, "alpha")
    for a in cfg.alpha:
        _check("alpha", _check_order, a)
    _check("p0,p", _check_exponents, cfg.p0, cfg.p)


def _check_peetre(cfg: ExperimentConfig) -> None:
    _check("a", _check_decay, cfg.a)
    _check("p", _check_p, cfg.p)


def _pair_space(cfg: ExperimentConfig) -> SpaceSpec:
    if cfg.space == "sobolev":
        return SpaceSpec("sobolev", cfg.p, m=cfg.m)
    return SpaceSpec(cfg.space, cfg.p, r=cfg.r, m_diff=cfg.m_diff)


def _check_pair(cfg: ExperimentConfig) -> None:
    _check("space", _pair_space, cfg)
    if cfg.family.startswith("tensor_"):
        _check("space", _check_tensor_space, cfg.space)
        _check("companion_plateau,companion_support", _check_plateau, cfg.companion_plateau, cfg.companion_support)
    _check_family(cfg, tensor_dilated=(2, 3), tensor_oscillatory=(2, 3), random=(2,))
    if cfg.space == "sobolev":
        _check_sobolev(cfg)
    else:
        _check_besov(cfg)


def _check_trace(cfg: ExperimentConfig) -> None:
    _check("n_split,d", _check_split, cfg.n_split, cfg.d)
    _check("beta,d", _as_axis_vector, cfg.beta, cfg.d, "beta")
    _require(all(0 <= x <= cfg.m for x in cfg.beta), "beta,m", "need 0 <= beta_i <= m")


@dataclass
class ResultRow:
    """One measurement: experiment id, member id, named values, wall time."""

    experiment: str
    member: str
    values: dict
    wall_time: float = 0.0


def _seeded_members(cfg: ExperimentConfig) -> list[str]:
    return [str(i) for i in range(cfg.count)]


def _family_members(cfg: ExperimentConfig) -> list[str]:
    if cfg.family == "random":
        return _seeded_members(cfg)
    if cfg.family == "zero":
        return ["0"]
    return [str(n) for n in range(cfg.n_min, cfg.n_max + 1)]


def _band_members(cfg: ExperimentConfig) -> list[str]:
    return [f"{j}:{i}" for j in range(cfg.octaves) for i in range(cfg.count)]


def _random_member(cfg: ExperimentConfig, i: int) -> GridFunction:
    return random_smooth_field(
        (cfg.seed, i), cfg.box(), cfg.resolution,
        band_cells=cfg.band_cells,
        window=(cfg.window_plateau, cfg.window_support),
    )


def _family_member(cfg: ExperimentConfig, n: int) -> GridFunction:
    """Member n of cfg.family; for a tensor family, its 1-d factor."""
    if cfg.family == "random":
        return _random_member(cfg, n)
    if cfg.family == "zero":
        return GridFunction(cfg.box(), np.zeros((cfg.resolution,) * cfg.d))
    if cfg.family.endswith("dilated"):
        return dilated_member(cfg.box1(), cfg.resolution, n)
    return oscillatory_member(cfg.box1(), cfg.resolution, n, cfg.epsilon, cfg.ramp)


def _pair_terms(cfg: ExperimentConfig, member: str) -> dict:
    """norm_f, norm_g, norm_fg, sup_f and sup_g of the member's pair (f, g)."""
    n = int(member)
    if cfg.family == "random":
        return pair_terms(_random_member(cfg, 2 * n), _random_member(cfg, 2 * n + 1), _pair_space(cfg))
    return tensor_pair_terms(_family_member(cfg, n), cfg.companion_plateau, cfg.companion_support,
                             _pair_space(cfg), cfg.d)


def _norm_row(cfg: ExperimentConfig, member: str) -> dict:
    u = _family_member(cfg, int(member))
    vals = {"lp": lp_norm(u, cfg.p), "besov_diff": besov_norm_diff(u, cfg.r, cfg.p, cfg.m_diff),
            "besov_integral": besov_norm_integral(u, cfg.r, cfg.p, cfg.m_diff),
            "besov_fourier": besov_norm_fourier(u, cfg.r, cfg.p)}
    if _sobolev_columns(cfg):
        vals.update(sobolev_full=sobolev_norm_full(u, cfg.m, cfg.p),
                    sobolev_reduced=sobolev_norm_reduced(u, cfg.m, cfg.p), cmix=cmix_norm(u, cfg.m))
    else:
        vals.update(sobolev_full="", sobolev_reduced="", cmix="")
    return vals


def _equiv_row(cfg: ExperimentConfig, member: str) -> dict:
    u = _random_member(cfg, int(member))
    nd = besov_norm_diff(u, cfg.r, cfg.p, cfg.m_diff)
    nf = besov_norm_fourier(u, cfg.r, cfg.p)
    ni = besov_norm_integral(u, cfg.r, cfg.p, cfg.m_diff)
    sf = sobolev_norm_full(u, cfg.m, cfg.p)
    sr = sobolev_norm_reduced(u, cfg.m, cfg.p)
    return {"besov_diff": nd, "besov_fourier": nf, "besov_integral": ni,
            "sobolev_full": sf, "sobolev_reduced": sr,
            "ratio_diff_fourier": nd / nf, "ratio_diff_integral": nd / ni, "ratio_full_reduced": sf / sr}


def _algebra_row(cfg: ExperimentConfig, member: str) -> dict:
    t = _pair_terms(cfg, member)
    return {"norm_f": t["norm_f"], "norm_g": t["norm_g"], "norm_fg": t["norm_fg"],
            "ratio": t["norm_fg"] / _algebra_denominator(t)}


def _moser_row(cfg: ExperimentConfig, member: str) -> dict:
    t = _pair_terms(cfg, member)
    denom = _moser_denominator(t)
    return {"numerator": t["norm_fg"], "denominator": denom, "ratio": t["norm_fg"] / denom}


def _localize_row(cfg: ExperimentConfig, member: str) -> dict:
    u = _random_member(cfg, int(member))
    pou = build_partition(cfg.base_width, cfg.box(), cfg.resolution)
    return {"ratio": localization_ratio(u, cfg.r, cfg.p, cfg.m_diff, pou)}


def _band_row(ratio: Callable) -> Callable:
    """Task of a band sweep: ratio(cfg, u, b) of the member's trig field u, band b."""
    def task(cfg: ExperimentConfig, member: str) -> dict:
        octave, i = (int(x) for x in member.split(":"))
        u, b = random_trig_field((cfg.seed, i), cfg.box(), cfg.resolution,
                                 cfg.kmax_modes, cfg.modes, octave)
        return {"octave": octave, "b": b[0], "ratio": ratio(cfg, u, b)}
    return task


def _trace_row(cfg: ExperimentConfig, member: str) -> dict:
    u = _random_member(cfg, int(member))
    tn = mixed_sup_lp(u, cfg.beta, cfg.n_split, cfg.p)
    sf = sobolev_norm_full(u, cfg.m, cfg.p)
    return {"trace_norm": tn, "sobolev_full": sf, "ratio": tn / sf}


def _embed_row(cfg: ExperimentConfig, member: str) -> dict:
    u = _family_member(cfg, int(member))
    ratio = embedding_ratio(u, SpaceSpec("besov", cfg.p, r=cfg.r, m_diff=cfg.m_diff))
    return {"sup_norm": sup_norm(u), "space_norm": sup_norm(u) / ratio, "ratio": ratio}


def _bracket(*columns: str) -> Callable:
    """Summary row 'C': per column, the smallest C with every ratio in [1/C, C]."""
    def summary(cfg: ExperimentConfig, rows: list[ResultRow]) -> list[ResultRow]:
        vals = {}
        for col in columns:
            rs = [row.values[col] for row in rows]
            vals[col] = max(max(rs), 1.0 / min(rs))
        return [ResultRow(cfg.experiment, "C", vals)]
    return summary


def _max_row(cfg: ExperimentConfig, rows: list[ResultRow]) -> list[ResultRow]:
    return [ResultRow(cfg.experiment, "max", {"ratio": max(row.values["ratio"] for row in rows)})]


def _fit_row(cfg: ExperimentConfig, rows: list[ResultRow]) -> list[ResultRow]:
    series = {int(row.member): row.values["ratio"] for row in rows}
    if len(series) < 4 or not all(v > 0 for v in series.values()):
        return []
    c_hat, resid = rate_fit(series, rate_model(cfg.family))
    return [ResultRow(cfg.experiment, "fit", {"fit_exponent": c_hat, "fit_residual": resid})]


def _pair_summary(cfg: ExperimentConfig, rows: list[ResultRow]) -> list[ResultRow]:
    # seed indices carry no order to fit a rate against
    if cfg.family == "random":
        return _max_row(cfg, rows)
    return _fit_row(cfg, rows)


def _sweep_summary(cfg: ExperimentConfig, rows: list[ResultRow]) -> list[ResultRow]:
    aggs: dict[int, list] = {}
    for row in rows:
        aggs.setdefault(int(row.values["octave"]), []).append(row.values["ratio"])
    out = [ResultRow(cfg.experiment, f"agg:{j}", {"octave": j, "ratio": max(aggs[j])}) for j in sorted(aggs)]
    spread = max(row.values["ratio"] for row in out) / min(row.values["ratio"] for row in out)
    return out + [ResultRow(cfg.experiment, "sweep", {"ratio": spread})]


class Experiment(NamedTuple):
    """One experiment: value columns, description, checks of the fields only it
    reads, member ids, per-member task and summary rows.  report has no members:
    run hands it to _run_report."""

    columns: tuple[str, ...]
    description: str
    checks: tuple[Callable[[ExperimentConfig], None], ...] = ()
    members: Callable[[ExperimentConfig], list[str]] | None = None
    task: Callable[[ExperimentConfig, str], dict] | None = None
    summary: Callable[[ExperimentConfig, list[ResultRow]], list[ResultRow]] | None = None


EXPERIMENTS = {
    "norm": Experiment(
        ("lp", "besov_diff", "besov_integral", "besov_fourier", "sobolev_full", "sobolev_reduced", "cmix"),
        "Norm battery per family member: L_p, difference/integral/fourier Besov norms, full/reduced Sobolev and C-mix norms (derivative-based columns are empty for non-smooth oscillatory members).",
        (_check_norm,), _family_members, _norm_row, lambda cfg, rows: []),
    "equiv": Experiment(
        ("besov_diff", "besov_fourier", "besov_integral", "sobolev_full", "sobolev_reduced",
         "ratio_diff_fourier", "ratio_diff_integral", "ratio_full_reduced"),
        "Norm-equivalence ratios per seeded random member plus a final bracket row 'C' with the smallest C such that every ratio lies in [1/C, C].",
        (_check_pow2, _check_besov, _check_random_fields, _check_sobolev), _seeded_members, _equiv_row,
        _bracket("ratio_diff_fourier", "ratio_diff_integral", "ratio_full_reduced")),
    "algebra": Experiment(
        ("norm_f", "norm_g", "norm_fg", "ratio", "fit_exponent", "fit_residual"),
        "Multiplication-algebra ratio norm(fg)/(norm(f) norm(g)) over tensor_dilated pairs (fitted geometric slope), tensor_oscillatory pairs (fitted power exponent) or seeded random pairs (with max row).",
        (_check_pair,), _family_members, _algebra_row, _pair_summary),
    "moser": Experiment(
        ("numerator", "denominator", "ratio", "fit_exponent", "fit_residual"),
        "Moser-type ratio norm(fg)/(norm(f) sup(g) + sup(f) norm(g)) along the tensor counterexample families (with fitted growth exponent) or seeded random pairs (with max row).",
        (_check_pair,), _family_members, _moser_row, _pair_summary),
    "localize": Experiment(
        ("ratio",),
        "Besov norm over the l_p aggregate of bump-localized norms per member, plus bracket row 'C'.",
        (_check_besov, _check_random_fields), _seeded_members, _localize_row, _bracket("ratio")),
    "nikolskij": Experiment(
        ("octave", "b", "ratio"),
        "Band-limited derivative inequality constant across a dyadic band sweep; per-octave 'agg' rows and a final 'sweep' max/min row.",
        (_check_band_sweep, _check_nikolskij), _band_members,
        _band_row(lambda cfg, u, b: nikolskij_ratio(u, cfg.alpha, cfg.p0, cfg.p, b)), _sweep_summary),
    "peetre": Experiment(
        ("octave", "b", "ratio"),
        "Maximal-function L_p bound constant across a dyadic band sweep; per-octave 'agg' rows and a final 'sweep' max/min row.",
        (_check_band_sweep, _check_peetre), _band_members,
        _band_row(lambda cfg, u, b: lp_norm(peetre_maximal(u, b, cfg.a), cfg.p) / lp_norm(u, cfg.p)), _sweep_summary),
    "trace": Experiment(
        ("trace_norm", "sobolev_full", "ratio"),
        "Mixed sup/L_p trace functional against the full Sobolev norm per member, plus a 'max' row.",
        (_check_random_fields, _check_sobolev, _check_trace), _seeded_members, _trace_row, _max_row),
    "embed": Experiment(
        ("sup_norm", "space_norm", "ratio", "fit_exponent", "fit_residual"),
        "sup-norm / space-norm along the dilated family (fitted geometric slope) or the oscillatory family (fitted power exponent).",
        (_check_besov, lambda cfg: _check_family(cfg, dilated=(1,), oscillatory=(1,)),
         lambda cfg: _require(cfg.n_max - cfg.n_min >= 3, "n_min,n_max", "rate fit needs >= 4 members")),
        _family_members, _embed_row, _fit_row),
    "report": Experiment(
        ("check", "value"),
        "Small battery across all experiments; rows are (check, value) pairs."),
}


def _member_task(payload: tuple) -> tuple[str, dict, float]:
    """Per-member computation; pure function of (experiment, config, member)."""
    exp, cfg_dict, member = payload
    cfg = ExperimentConfig(**cfg_dict)
    t0 = time.perf_counter()
    vals = EXPERIMENTS[exp].task(cfg, member)
    return member, vals, time.perf_counter() - t0


def worker_count() -> int:
    raw = os.environ.get("MIXNORM_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValidationError("MIXNORM_WORKERS", f"cannot parse {raw!r}") from None


def parallel_map(payloads: list, workers: int) -> list:
    if workers <= 1 or len(payloads) <= 1:
        return [_member_task(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as ex:
        return list(ex.map(_member_task, payloads))


def run(cfg: ExperimentConfig) -> list[ResultRow]:
    """Execute the configured experiment; deterministic given (config, seed)."""
    validate(cfg)
    if cfg.experiment == "report":
        return _run_report(cfg)
    exp = EXPERIMENTS[cfg.experiment]
    cfg_dict = dataclasses.asdict(cfg)
    payloads = [(cfg.experiment, cfg_dict, m) for m in exp.members(cfg)]
    results = parallel_map(payloads, worker_count())
    rows = [ResultRow(cfg.experiment, m, vals, wall) for m, vals, wall in results]
    rows.extend(exp.summary(cfg, rows))
    for row in rows:
        for key, v in row.values.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise NumericalAnomalyError(f"non-finite value in column {key!r}")
    return rows


def _run_report(cfg: ExperimentConfig) -> list[ResultRow]:
    # quick battery at reduced scale; one (check, value) row per headline number
    checks: list[tuple[str, float]] = []
    sub = dataclasses.replace(cfg, experiment="equiv", d=2, resolution=64, count=3,
                              r=1.0, p=2.0, m=2, m_diff=2, box_lo=-4.0, box_hi=4.0)
    rows = run(sub)
    for col in ("ratio_diff_fourier", "ratio_diff_integral", "ratio_full_reduced"):
        checks.append((f"equiv_bracket_{col}", rows[-1].values[col]))
    sub = dataclasses.replace(cfg, experiment="moser", family="tensor_dilated", d=2,
                              resolution=4096, n_min=0, n_max=4, r=1.0, p=2.0, m_diff=2,
                              box_lo=-6.0, box_hi=6.0)
    rows = run(sub)
    checks.append(("moser_dilated_slope", rows[-1].values["fit_exponent"]))
    sub = dataclasses.replace(cfg, experiment="peetre", d=2, resolution=64, count=2,
                              octaves=3, kmax_modes=2, a=1.0, box_lo=-4.0, box_hi=4.0)
    rows = run(sub)
    checks.append(("peetre_sweep_spread", rows[-1].values["ratio"]))
    return [ResultRow("report", name, {"check": name, "value": val}) for name, val in checks]


def _format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def emit(rows: list[ResultRow], fmt: str, path: str, cfg: ExperimentConfig | None = None,
         elapsed: float | None = None) -> None:
    """Write rows as CSV or JSON (deterministic bytes), timings to a sidecar.

    The sidecar's total_wall_time is `elapsed`, the caller's wall time of the
    run (null when not given); member_time_sum adds up the per-member times.
    """
    if not rows:
        raise ValidationError("rows", "no results")
    columns = EXPERIMENTS[rows[0].experiment].columns
    cols = ["experiment", "member"]
    snapshot = cfg.snapshot() if cfg is not None else {}
    cols += list(snapshot)
    cols += list(columns)
    records = []
    for row in rows:
        rec = {"experiment": row.experiment, "member": row.member}
        rec.update(snapshot)
        for c in columns:
            rec[c] = row.values.get(c, "")
        records.append(rec)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for rec in records:
            writer.writerow([_format_value(rec[c]) for c in cols])
        payload = buf.getvalue()
    else:
        payload = json.dumps([{c: rec[c] for c in cols} for rec in records], indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_times": {row.member: row.wall_time for row in rows},
        "total_wall_time": elapsed,
        "member_time_sum": sum(row.wall_time for row in rows),
        "workers": worker_count(),
    }
    with open(path + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")


def describe(experiment: str) -> str:
    exp = EXPERIMENTS[experiment]
    return (
        f"experiment {experiment}\n"
        f"  {exp.description}\n"
        f"  value columns: {', '.join(exp.columns)}\n"
        f"  every row also carries the full parameter snapshot as param_* columns\n"
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("experiments:", ", ".join(EXPERIMENTS))
        return 0
    experiment = argv.pop(0)
    config_path = None
    overrides: dict[str, str] = {}
    want_describe = False
    try:
        if experiment not in EXPERIMENTS:
            raise ValidationError("experiment", f"must be one of {tuple(EXPERIMENTS)}")
        i = 0
        while i < len(argv):
            tok = argv[i]
            if tok == "--describe":
                want_describe = True
                i += 1
                continue
            if not tok.startswith("--"):
                raise ValidationError("arguments", f"expected --key value, got {tok!r}")
            if i + 1 >= len(argv):
                raise ValidationError(tok[2:], "missing value")
            if tok == "--config":
                config_path = argv[i + 1]
            else:
                overrides[tok[2:]] = argv[i + 1]
            i += 2
        if want_describe:
            print(describe(experiment))
            return 0
        cfg = load_config(experiment, config_path, overrides)
        if not cfg.output:
            cfg.output = f"mixnorm_{experiment}.{cfg.format}"
        t0 = time.perf_counter()
        rows = run(cfg)
        emit(rows, cfg.format, cfg.output, cfg, elapsed=time.perf_counter() - t0)
    except (ValidationError, GridError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalAnomalyError as err:
        print(f"numerical anomaly: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
