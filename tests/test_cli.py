import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mixnorm.cli import (
    ExperimentConfig,
    ResultRow,
    ValidationError,
    describe,
    emit,
    load_config,
    main,
    run,
    validate,
)
from mixnorm.fourier import build_system
from mixnorm.grid import Box, GridError

SRC = Path(__file__).resolve().parents[1] / "src"  # the checkout's package


def test_load_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("count=5\nresolution=64  # comment\n\n# full line comment\np=inf\nalpha=2, 0\n")
    cfg = load_config("equiv", str(cfg_file), {"count": "7", "seed": "3", "beta": "0,1,"})
    assert cfg.count == 7  # override wins
    assert cfg.resolution == 64
    assert math.isinf(cfg.p)
    assert cfg.seed == 3
    # integer tuples from a file line and from an override, a trailing comma dropped
    assert cfg.alpha == (2, 0) and cfg.beta == (0, 1)


def test_load_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ValidationError, match="unknown"):
        load_config("equiv", None, {"resolutionn": "64"})


def test_load_config_rejects_bad_value():
    with pytest.raises(ValidationError, match="parse"):
        load_config("equiv", None, {"resolution": "two"})


def test_load_config_rejects_bad_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("resolution 64\n")
    with pytest.raises(ValidationError, match="key=value"):
        load_config("equiv", str(cfg_file), {})


def test_validate_catches_module_preconditions():
    bad = [
        dict(experiment="equiv", m_diff=1, r=1.5),
        dict(experiment="equiv", resolution=100),
        dict(experiment="equiv", d=1),
        dict(experiment="norm", family="sinusoid"),
        dict(experiment="moser", family="tensor_dilated", n_min=5, n_max=2),
        dict(experiment="nikolskij", octaves=9, kmax_modes=8, resolution=64),
        dict(experiment="trace", n_split=3),
        dict(experiment="embed", n_min=0, n_max=2),
        dict(experiment="norm", family="oscillatory", d=1, n_min=1, resolution=64),
        dict(experiment="moser", family="tensor_dilated", n_max=10, resolution=1024),
        dict(experiment="embed", resolution=4096, n_min=0, n_max=4),
        dict(experiment="embed", family="dilated", d=2, resolution=4096, n_min=0, n_max=4),
        dict(experiment="algebra", space="sobolev", p=1.0),
        dict(experiment="algebra", space="sobolev", p=math.inf),
        dict(experiment="algebra", space="sobolev", m=5),
        dict(experiment="equiv", m=5),
        dict(experiment="nikolskij", alpha=(5, 0)),
        dict(experiment="equiv", band_cells=0),
        dict(experiment="moser", space="sobolev", p=1.0),
        dict(experiment="algebra", family="tensor_dilated", space="sobolev",
             resolution=1024, box_lo=-6.0, box_hi=6.0, n_max=3),
        dict(experiment="equiv", resolution=64, count=1, window_plateau=3.0, window_support=2.0),
        dict(experiment="moser", family="tensor_dilated", resolution=1024, box_lo=-6.0, box_hi=6.0, n_max=3,
             companion_plateau=4.0, companion_support=3.0),
        dict(experiment="equiv", box_lo=3.0, box_hi=5.0, resolution=64, count=1),
        dict(experiment="trace", box_lo=3.0, box_hi=5.0, resolution=64, count=1),
        dict(experiment="equiv", box_lo=2.0, box_hi=6.0, resolution=64, count=1),
        dict(experiment="trace", box_lo=2.0, box_hi=6.0, resolution=64, count=1),
    ]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            validate(ExperimentConfig(**kwargs))


def test_tensor_pairs_reject_a_sobolev_space(tmp_path, monkeypatch, capsys):
    # tensor pair terms are difference norms, so a sobolev label would be wrong
    dilated = dict(family="tensor_dilated", resolution=1024, box_lo=-6.0, box_hi=6.0, n_max=3)
    chirp = dict(family="tensor_oscillatory", resolution=2**14, box_lo=-2.25, box_hi=3.75, n_min=1, n_max=4)
    for experiment in ("algebra", "moser"):
        for family in (dilated, chirp):
            validate(ExperimentConfig(experiment=experiment, **family))
            with pytest.raises(ValidationError) as err:
                validate(ExperimentConfig(experiment=experiment, space="sobolev", **family))
            assert err.value.fields == "space"
    monkeypatch.chdir(tmp_path)
    # the space is named first, before the default grid's too-fine n_max
    assert main(["algebra", "--family", "tensor_dilated", "--space", "sobolev"]) == 2
    assert "space:" in capsys.readouterr().err


def test_random_pair_rows_equal_the_library_ratios():
    from mixnorm import SpaceSpec, algebra_ratio, moser_ratio, random_smooth_field

    box = Box((-4.0, -4.0), (4.0, 4.0))
    f, g = (random_smooth_field((101, i), box, 64, band_cells=16, window=(1.5, 2.0)) for i in (0, 1))
    for space, spec in (("besov", SpaceSpec("besov", 3.0, r=1.2, m_diff=2)),
                        ("sobolev", SpaceSpec("sobolev", 3.0, m=2))):
        for experiment, ratio in (("algebra", algebra_ratio), ("moser", moser_ratio)):
            cfg = ExperimentConfig(experiment=experiment, family="random", space=space, d=2, resolution=64,
                                   p=3.0, r=1.2, m=2, m_diff=2, count=1, seed=101)
            assert run(cfg)[0].values["ratio"] == ratio(f, g, spec)


def test_validate_and_build_system_share_the_sample_rule():
    with pytest.raises(GridError) as built:
        build_system("smooth", Box((-4.0,), (4.0,)), 8)
    with pytest.raises(ValidationError) as validated:
        validate(ExperimentConfig(experiment="localize", resolution=8))
    assert str(validated.value) == f"resolution: {built.value}"


def test_validate_checks_only_what_the_experiment_reads():
    # peetre reads no family, so a family that cannot fit this grid is no error
    validate(ExperimentConfig(experiment="peetre", family="tensor_dilated", n_max=10,
                              resolution=64, octaves=3, kmax_modes=2, count=1))
    # nor does it form a difference norm, so one dyadic level is enough
    validate(ExperimentConfig(experiment="peetre", resolution=32, octaves=2, kmax_modes=2, count=1))
    # localize forms no Sobolev norm, so p may be 1 or inf
    for p in (1.0, math.inf):
        validate(ExperimentConfig(experiment="localize", p=p, resolution=64, count=1))
    # the band sweeps form no Besov norm, so r and m_diff are not read
    validate(ExperimentConfig(experiment="peetre", r=3.0, m_diff=2))
    validate(ExperimentConfig(experiment="nikolskij", r=-1.0))


@pytest.mark.parametrize("n_max", [2, 3])
def test_rate_fit_row_needs_four_members(n_max):
    cfg = ExperimentConfig(experiment="algebra", family="tensor_dilated", d=2, resolution=1024,
                           box_lo=-6.0, box_hi=6.0, n_min=0, n_max=n_max)
    members = [row.member for row in run(cfg)]
    assert members == [str(n) for n in range(n_max + 1)] + (["fit"] if n_max + 1 >= 4 else [])


def test_norm_experiment_zero_function():
    cfg = ExperimentConfig(experiment="norm", family="zero", d=2, resolution=64)
    rows = run(cfg)
    assert len(rows) == 1
    for col in ("lp", "besov_diff", "besov_integral", "besov_fourier", "sobolev_full"):
        assert rows[0].values[col] == 0.0


def test_norm_experiment_oscillatory_blanks_derivative_columns():
    cfg = ExperimentConfig(
        experiment="norm", family="oscillatory", d=1, resolution=2**14,
        box_lo=-2.25, box_hi=3.75, r=0.4, m_diff=1, n_min=2, n_max=3,
    )
    rows = run(cfg)
    assert rows[0].values["sobolev_full"] == ""
    assert rows[0].values["besov_diff"] > 0


def test_run_rows_deterministic_and_worker_independent(tmp_path, monkeypatch):
    cfg = ExperimentConfig(experiment="equiv", count=3, resolution=64, seed=11)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    monkeypatch.setenv("MIXNORM_WORKERS", "1")
    emit(run(cfg), "csv", str(path_a), cfg)
    monkeypatch.setenv("MIXNORM_WORKERS", "2")
    emit(run(cfg), "csv", str(path_b), cfg)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_equiv_member_forms_one_difference_table_and_no_full_inverse_transform(monkeypatch):
    # both difference forms read one table per member, and the random field is
    # summed on its window's support with no inverse transform at all
    import numpy as np

    from mixnorm import cli as cli_mod, differences

    cfg = ExperimentConfig(experiment="equiv", count=3, resolution=64, seed=11)
    want = [cli_mod._equiv_row(cfg, str(i)) for i in range(cfg.count)]
    tables, inverses = [], []
    real_table, real_ifftn, real_ifft = differences._difference_tables, np.fft.ifftn, np.fft.ifft

    def table_spy(*args):
        tables.append(args[0])
        return real_table(*args)

    def ifftn_spy(*args, **kwargs):
        inverses.append(args[0].shape)
        return real_ifftn(*args, **kwargs)

    def ifft_spy(*args, **kwargs):
        inverses.append(args[0].shape)
        return real_ifft(*args, **kwargs)

    monkeypatch.setattr(differences, "_difference_tables", table_spy)
    monkeypatch.setattr(np.fft, "ifftn", ifftn_spy)
    monkeypatch.setattr(np.fft, "ifft", ifft_spy)
    for i in range(cfg.count):
        tables.clear()
        assert cli_mod._equiv_row(cfg, str(i)) == want[i]
        assert len(tables) == 1
    assert inverses == []


def test_emit_rejects_empty():
    with pytest.raises(ValidationError, match="no results"):
        emit([], "csv", "/tmp/never.csv")


def test_emit_csv_json_value_round_trip(tmp_path):
    cfg = ExperimentConfig(experiment="equiv", count=2, resolution=64, seed=4)
    rows = run(cfg)
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    emit(rows, "csv", str(csv_path), cfg)
    emit(rows, "json", str(json_path), cfg)
    with open(csv_path) as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads(json_path.read_text())
    assert len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        for key in ("besov_diff", "ratio_diff_fourier"):
            if crow[key] == "":
                assert jrow[key] == ""
            else:
                # 17 significant digits: exact double round-trip
                assert float(crow[key]) == jrow[key]


def test_emit_writes_metadata_sidecar(tmp_path):
    cfg = ExperimentConfig(experiment="equiv", count=2, resolution=64)
    rows = run(cfg)
    out = tmp_path / "r.csv"
    emit(rows, "csv", str(out), cfg)
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert "timestamp" in meta and "wall_times" in meta
    assert meta["total_wall_time"] is None
    assert meta["member_time_sum"] == pytest.approx(sum(meta["wall_times"].values()))
    before = out.read_bytes()
    emit(rows, "csv", str(out), cfg, elapsed=1.25)
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["total_wall_time"] == 1.25
    assert meta["member_time_sum"] == pytest.approx(sum(meta["wall_times"].values()))
    assert out.read_bytes() == before


def test_rows_carry_parameter_snapshot(tmp_path):
    cfg = ExperimentConfig(experiment="equiv", count=2, resolution=64, seed=9)
    out = tmp_path / "r.csv"
    emit(run(cfg), "csv", str(out), cfg)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert row["param_seed"] == "9"
        assert row["param_resolution"] == "64"
        assert "param_output" not in row


def test_describe_mentions_columns():
    text = describe("equiv")
    assert "ratio_diff_fourier" in text
    assert "param_" in text


def test_main_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["equiv", "--count", "2", "--resolution", "64"]) == 0
    assert (tmp_path / "mixnorm_equiv.csv").exists()
    assert main(["unknown-exp"]) == 2
    assert main(["equiv", "--resolution", "100"]) == 2
    assert main(["equiv", "--count"]) == 2
    assert main(["equiv", "--resolution", "64", "--count", "1", "--window_plateau", "3", "--window_support", "2"]) == 2
    assert main(["moser", "--family", "tensor_dilated", "--resolution", "1024", "--box_lo", "-6", "--box_hi", "6",
                 "--n_max", "3", "--companion_plateau", "4", "--companion_support", "3"]) == 2
    for experiment in ("equiv", "trace"):  # a window that holds no node
        for lo, hi in (("3", "5"), ("2", "6")):
            assert main([experiment, "--box_lo", lo, "--box_hi", hi, "--resolution", "64", "--count", "1"]) == 2
    assert main(["equiv", "--count", "2", "--resolution", "64",
                 "--output", "/nonexistent-dir/x.csv"]) == 4
    assert main(["equiv", "--describe"]) == 0
    (tmp_path / "e.cfg").write_text("count=2\nresolution=64\noutput=from_file.csv\n")
    assert main(["equiv", "--config", "e.cfg"]) == 0
    assert (tmp_path / "from_file.csv").exists()
    assert main(["equiv", "--config", "missing.cfg"]) == 4


def test_main_reports_numerical_anomaly(monkeypatch, tmp_path):
    import mixnorm.cli as cli_mod

    def poisoned(payload):
        exp, cfg_dict, member = payload
        return member, {"ratio": math.inf}, 0.0

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "_member_task", poisoned)
    assert cli_mod.main(["localize", "--count", "1", "--resolution", "64"]) == 3


def test_main_reports_weight_overflow_as_numerical_anomaly(tmp_path, monkeypatch):
    # at p = 400 every norm fits a float (their p-th power sums do not), and the
    # run succeeds without a warning; at r = 200 the dyadic weights 2^(r |k|)
    # carry the difference norm past the float range, and the run exits 3
    monkeypatch.chdir(tmp_path)
    args = ["norm", "--family", "random", "--d", "2", "--resolution", "64", "--count", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--p", "400"]) == 0
    assert main(args + ["--r", "200", "--m_diff", "201"]) == 3


def test_main_sidecar_records_elapsed_time(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["equiv", "--count", "2", "--resolution", "64", "--output", "e.csv"]) == 0
    meta = json.loads((tmp_path / "e.csv.meta.json").read_text())
    assert 0.0 < meta["total_wall_time"]
    assert meta["member_time_sum"] == pytest.approx(sum(meta["wall_times"].values()))


def test_cli_subprocess_end_to_end(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mixnorm.cli", "equiv", "--count", "2",
         "--resolution", "64", "--output", str(out)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    payload = out.read_bytes()
    assert payload.endswith(b"\n") and b"\r" not in payload  # UTF-8, LF endings


def test_report_experiment_runs():
    rows = run(ExperimentConfig(experiment="report"))
    checks = {row.values["check"] for row in rows}
    assert "moser_dilated_slope" in checks
    assert all(math.isfinite(row.values["value"]) for row in rows)


def test_worker_env_validation(monkeypatch):
    monkeypatch.setenv("MIXNORM_WORKERS", "many")
    from mixnorm.cli import worker_count

    with pytest.raises(ValidationError):
        worker_count()
