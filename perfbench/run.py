"""End-to-end benchmark of mixnorm's experiment layer.

Usage, from the repository root:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A workload is the set of configs in perfbench/configs/<name>/, one file per
experiment.  One pass runs each of them through `cli.run` and `cli.emit`, the
calls `mixnorm <experiment>` makes after parsing its arguments.  An untimed
first pass gives the reference csv bytes and warms caches; timed passes
follow until --seconds have gone by.  Every pass's csv bytes must equal the
first pass's, and the first pass's rows go through the checks in checks.py,
so each operation (one experiment run) is checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median pass
time, the median set-up time of fresh processes and this process's peak
resident memory.  --trace 1 alternates untraced and traced passes and
reports the per-layer metrics, from spans recorded around every call into a
layer's public functions (spans.py).  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

import os

# one process, one thread: pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["MIXNORM_WORKERS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9  # timed fresh processes per run, after one that warms caches


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(p.name for p in CONFIGS.iterdir() if p.is_dir()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def setup_seconds(seed: int, paths: list[Path]) -> float:
    """Median set-up time over fresh processes, each timed from inside."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(seed), *map(str, paths)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


class Workload:
    """The configs of one workload and the operations run on them."""

    def __init__(self, cli, checks, name: str, seed: int, outdir: Path):
        self.cli = cli
        self.checks = checks
        self.name = name
        self.paths = sorted((CONFIGS / name).glob("*.cfg"))
        self.cfgs = [cli.load_config(p.stem, str(p), {"seed": str(seed),
                                                       "output": str(outdir / f"{p.stem}.csv")})
                     for p in self.paths]
        self.reference: dict[str, bytes | None] = {}
        self.attempted = 0
        self.failed: dict[str, int] = {cfg.experiment: 0 for cfg in self.cfgs}
        self.errors: list[str] = []

    def one_pass(self) -> float:
        """Run every experiment once; return the wall time of run plus emit."""
        raised = {}
        t0 = time.perf_counter()
        for cfg in self.cfgs:
            try:
                self.cli.emit(self.cli.run(cfg), cfg.format, cfg.output, cfg)
            except Exception as err:  # a failed operation is counted, the run goes on
                raised[cfg.experiment] = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        for cfg in self.cfgs:
            exp = cfg.experiment
            self.attempted += 1
            payload = None if exp in raised else Path(cfg.output).read_bytes()
            reference = self.reference.setdefault(exp, payload)
            if payload is None:
                problems = [raised[exp]]
            elif reference is None:
                problems = ["the first pass raised, so there is no reference"]
            else:
                problems = self.checks.same_bytes(exp, payload, reference)
            if problems:
                self.failed[exp] += 1
                self.errors.extend(problems)
        return elapsed

    def check(self) -> None:
        """Check the reference output; a failure fails every run of that experiment."""
        passes = self.attempted // len(self.cfgs)
        for cfg in self.cfgs:
            exp = cfg.experiment
            payload = self.reference[exp]
            if payload is None:
                continue
            try:
                problems = self.checks.CHECKS[(self.name, exp)](cfg, self.checks.parse_csv(payload))
            except Exception as err:  # a check that cannot run fails its experiment
                problems = [f"check raised {type(err).__name__}: {err}"]
            if problems:
                self.failed[exp] = passes
                self.errors.extend(f"{exp}: {p}" for p in problems)


def run_untraced(work: Workload, seconds: float) -> dict[str, float]:
    work.one_pass()
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(work.one_pass())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("pass times (s):", " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
    return {"run_s": statistics.median(times), "peak_rss_mb": peak_mb}


def run_traced(work: Workload, seconds: float, spans, trace_path: Path) -> dict[str, float]:
    work.one_pass()
    tracer = spans.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(work.one_pass())
            continue
        lo = tracer.mark()
        tracer.install()
        try:
            traced.append(work.one_pass())
        finally:
            tracer.restore()
        layers.append(tracer.summary(lo, tracer.mark()))
    tracer.write(str(trace_path))
    print("untraced pass times (s):", " ".join(f"{t:.4f}" for t in plain), file=sys.stderr)
    print("traced pass times (s):", " ".join(f"{t:.4f}" for t in traced), file=sys.stderr)
    out = {}
    for key, first in layers[0].items():
        # counts repeat exactly from pass to pass; times take the median
        out[key] = statistics.median(row[key] for row in layers) if key.endswith("_s") else first
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def main() -> int:
    args = parse_args()
    if not (SRC / "mixnorm" / "__init__.py").is_file():
        print(f"perfbench: no mixnorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mixnorm import cli

    if Path(cli.__file__).resolve().parent != SRC / "mixnorm":
        print(f"perfbench: imported mixnorm from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import spans

    problems = checks.self_test()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    seed = args.seed % 2**32
    outdir = OUT / f"{args.workload}.{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        work = Workload(cli, checks, args.workload, seed, outdir)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{seed}.json"
            values = run_traced(work, args.seconds, spans, trace_path)
        else:
            values = {"setup_s": setup_seconds(seed, work.paths)}
            values.update(run_untraced(work, args.seconds))
        work.check()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    for line in work.errors:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']!r:>24} {metric['unit']}", file=sys.stderr)
    failed = sum(work.failed.values())
    print(json.dumps({"correct": failed == 0, "attempted": work.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
