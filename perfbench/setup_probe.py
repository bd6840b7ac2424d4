"""Set-up time of one workload, measured inside a fresh process.

Usage, from the repository root:
    PYTHONPATH=src python3 perfbench/setup_probe.py <seed> <config.cfg>...

Times importing mixnorm, loading each config (experiment = file stem, seed
and output overridden as the benchmark does) and passing `validate`, then
prints the seconds taken.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

from mixnorm import cli  # noqa: E402

seed, paths = sys.argv[1], sys.argv[2:]
for path in paths:
    stem = Path(path).stem
    cfg = cli.load_config(stem, path, {"seed": seed, "output": f"{stem}.csv"})
    cli.validate(cfg)
print(repr(time.perf_counter() - t0))
