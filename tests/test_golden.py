"""Golden values: every CLI experiment at small configurations, compared with
the values stored in golden_values.json.

Each configuration runs through `cli.run` and `cli.emit` (JSON), so the check
sees the value columns and members that a user sees; the param_* snapshot
columns are left out, since they restate the configuration.  Numbers must
agree to 1e-12 relative.  A fitted slope or residual also passes within 1e-12
absolute: along a flat series (the tensor_dilated algebra ratio) it is
rounding noise of about 1e-16.  The `describe` text of every experiment must
match exactly.

Running this file re-captures golden_values.json from the current code:

    PYTHONPATH=src python tests/test_golden.py

Do that only in a change that moves values on purpose, and name the entries
that moved in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

import pytest

from mixnorm.cli import ExperimentConfig, describe, emit, run

GOLDEN = Path(__file__).with_name("golden_values.json")
EXPERIMENT_NAMES = ("norm", "equiv", "algebra", "moser", "localize", "nikolskij",
                    "peetre", "trace", "embed", "report")
REL = 1e-12
FIT_FLOOR = 1e-12
FIT_COLUMNS = ("fit_exponent", "fit_residual")

_SMALL = dict(d=2, resolution=64, seed=101)
_DILATED = dict(resolution=1024, box_lo=-6.0, box_hi=6.0, n_min=0, n_max=3, r=1.2)
_CHIRP = dict(resolution=2**14, box_lo=-2.25, box_hi=3.75, r=0.4, m_diff=1, n_min=1, n_max=4)
_SWEEP = dict(_SMALL, octaves=3, kmax_modes=2, count=1)

CONFIGS = {
    "norm_random": dict(_SMALL, experiment="norm", family="random", count=2),
    "norm_zero": dict(_SMALL, experiment="norm", family="zero"),
    "norm_dilated": dict(_DILATED, experiment="norm", family="dilated", d=1),
    "norm_oscillatory": dict(_CHIRP, experiment="norm", family="oscillatory", d=1, n_min=2, n_max=3),
    "equiv": dict(_SMALL, experiment="equiv", count=2),
    "algebra_random": dict(_SMALL, experiment="algebra", family="random", count=2, p=3.0, r=1.2),
    "algebra_random_sobolev": dict(_SMALL, experiment="algebra", family="random", space="sobolev", count=1),
    "algebra_tensor_dilated_d2": dict(_DILATED, experiment="algebra", family="tensor_dilated", d=2),
    "algebra_tensor_dilated_d3": dict(_DILATED, experiment="algebra", family="tensor_dilated", d=3),
    "algebra_tensor_oscillatory": dict(_CHIRP, experiment="algebra", family="tensor_oscillatory", d=2),
    "moser_random": dict(_SMALL, experiment="moser", family="random", count=2),
    "moser_tensor_dilated_d2": dict(_DILATED, experiment="moser", family="tensor_dilated", d=2),
    "moser_tensor_dilated_d3": dict(_DILATED, experiment="moser", family="tensor_dilated", d=3),
    "moser_tensor_oscillatory": dict(_CHIRP, experiment="moser", family="tensor_oscillatory", d=2),
    "localize": dict(_SMALL, experiment="localize", count=1),
    "nikolskij": dict(_SWEEP, experiment="nikolskij"),
    "peetre": dict(_SWEEP, experiment="peetre", p=3.0),
    "trace": dict(_SMALL, experiment="trace", count=2),
    "embed_dilated": dict(_DILATED, experiment="embed", family="dilated", d=1, r=0.3, m_diff=1),
    "embed_oscillatory": dict(_CHIRP, experiment="embed", family="oscillatory", d=1),
    "report": dict(experiment="report"),
}


def _emitted(kwargs: dict, directory: str) -> list[dict]:
    cfg = ExperimentConfig(**kwargs)
    path = Path(directory) / f"{cfg.experiment}.json"
    emit(run(cfg), "json", str(path), cfg)
    records = json.loads(path.read_text(encoding="utf-8"))
    return [{k: v for k, v in rec.items() if not k.startswith("param_")} for rec in records]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _close(column: str, got, want) -> bool:
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    tol = REL * abs(want)
    if column in FIT_COLUMNS:
        tol = max(tol, FIT_FLOOR)
    return abs(got - want) <= tol


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_values(name, tmp_path):
    want = _golden()["runs"][name]
    got = _emitted(CONFIGS[name], str(tmp_path))
    assert [list(rec) for rec in got] == [list(rec) for rec in want]
    assert [rec["member"] for rec in got] == [rec["member"] for rec in want]
    for g, w in zip(got, want):
        moved = {c: (g[c], w[c]) for c in w if not _close(c, g[c], w[c])}
        assert not moved, f"{name}, member {w['member']}: (got, golden) {moved}"


def test_golden_describe():
    assert {e: describe(e) for e in EXPERIMENT_NAMES} == _golden()["describe"]


def capture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: _emitted(kwargs, tmp) for name, kwargs in CONFIGS.items()}
    golden = {"runs": runs, "describe": {e: describe(e) for e in EXPERIMENT_NAMES}}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
