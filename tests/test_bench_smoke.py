"""The benchmark's smoke run: a few ops per workload, every per-layer metric
named in BENCHMARK.json reported, and every output digest equal to the one
recorded in bench/digests.json."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[1] for line in lines] == ["orbit", "quantize", "survey"], lines
    assert all(line.endswith(": ok") for line in lines), lines
