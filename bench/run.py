"""wildstrat benchmark: fixed exact-arithmetic workloads, end to end and per layer.

    python3 bench/run.py --workload orbit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke
    python3 bench/run.py --record-digests --workload orbit --seed 1

Single process, one client in a closed loop: each op starts when the previous
one ends; no threads, no pool.  A run sets the workload up from cold (imports,
root data, inputs from the seed) at least five times and for at least two
seconds, and reports the median as ``setup_s``.  A full collection after each
set-up frees the modules it replaced, so their count leaves memory unchanged.
It then runs passes over the workload's problem list for ``--seconds``: always
one whole pass, then op after op while the next op, at its first-pass time,
still ends in time.

``wall_s`` is the sum over the problems of each one's mean time over all its
runs.  On a shared machine the speed of a core swings from millisecond to
millisecond and from second to second; a mean over the whole run averages
those swings, where the fastest of a few long runs does not.

``--trace 0`` prints the end-to-end metrics (the JSON result carries the
gated ones, see ``GATED``).  ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics of the traced pass (spans
are written to ``bench/.work``).  Every op is checked exactly and its
canonical output digest is compared with ``bench/digests.json``.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
SETUPS = 5
SETUP_SECONDS = 2.0
MAX_SETUPS = 40

sys.path.insert(0, str(BENCH))
import spantrace  # noqa: E402
from workloads import Orbit, Quantize, Survey, digest  # noqa: E402

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
# The end-to-end metrics in the JSON result.  op_p50_s and op_tail_s are
# printed only: each is one op's time, and on a shared machine run-to-run
# drift moves single ops by more than the largest allowed bound (0.25).
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def workloads():
    return {w.name: w for w in (Orbit(), Quantize(), Survey(str(WORK)))}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cold_setup(workload, seed):
    """Import wildstrat afresh, build the workload's root data, draw its inputs."""
    for name in [m for m in sys.modules if m == "wildstrat" or m.startswith("wildstrat.")]:
        del sys.modules[name]
    start = time.perf_counter()
    W = SimpleNamespace(**{layer: importlib.import_module("wildstrat." + layer)
                           for layer in spantrace.LAYERS})
    for lie_type, n in workload.types():
        W.rootdata.root_datum(lie_type, n)
    problems = workload.generate(W, seed)
    return time.perf_counter() - start, W, problems


class Pass:
    """One pass over a problem list: op times, failures and output digests.

    With ``until`` the pass ends before the first op that, at its time in
    ``estimates``, would end after that ``perf_counter`` instant.
    """

    def __init__(self, workload, W, problems, recorded, tracer=None, until=None, estimates=()):
        self.times = []
        self.failures = []
        self.digests = {}
        for op_id, problem in enumerate(problems):
            if until is not None and time.perf_counter() + estimates[op_id] > until:
                break
            token = tracer.begin_op(op_id) if tracer is not None else None
            start = time.perf_counter()
            try:
                result = workload.run(W, problem)
            except Exception:  # an op that raises is a failed op, not a dead run
                result = None
                error = traceback.format_exc()
            self.times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end_op(token)
            if result is None:
                self._fail(problem, [error.strip().splitlines()[-1]], error)
                continue
            try:
                canonical, failed = workload.check(W, problem, result)
            except Exception:
                self._fail(problem, ["check raised"], traceback.format_exc())
                continue
            got = digest(canonical)
            self.digests[problem.key] = got
            want = recorded.get(problem.key)
            if want is not None and want != got:
                failed.append(f"digest {got} != recorded {want}")
            if failed:
                self._fail(problem, failed, json.dumps(problem.spec)[:300])

    @property
    def wall(self):
        return sum(self.times)

    def _fail(self, problem, reasons, detail):
        self.failures.append(problem.key)
        print(f"FAILED op {problem.label} [{problem.key}]: {'; '.join(reasons)}\n{detail}",
              file=sys.stderr)


def load_digests(name):
    try:
        return json.loads(DIGESTS.read_text()).get(name, {})
    except FileNotFoundError:
        return {}


def tail(times):
    """Time at the highest percentile that leaves at least 10 ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups, passes):
    """The end-to-end metrics of a run.

    ``wall_s`` sums each problem's mean time over its runs; the op
    percentiles count every op run.
    """
    runs = [[p.times[i] for p in passes if i < len(p.times)] for i in range(len(passes[0].times))]
    ops = [t for p in passes for t in p.times]
    tail_s, tail_pct = tail(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.fmean(r) for r in runs),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, tail_pct, len(ops)


def measure(workload, seed, seconds, trace):
    """Set up from cold several times, then run passes (untraced) or two passes (traced).

    Traced, the run is one untraced and one traced pass.
    """
    setups = []
    while len(setups) < SETUPS or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS):
        setup_s, W, problems = cold_setup(workload, seed)
        setups.append(setup_s)
        gc.collect()
    recorded = load_digests(workload.name)
    tracer = None
    if trace:
        passes = [Pass(workload, W, problems, recorded)]
        tracer = spantrace.Tracer()
        tracer.install()
        try:
            passes.append(Pass(workload, W, problems, recorded, tracer))
        finally:
            tracer.uninstall()
        return setups, problems, passes, recorded, tracer
    until = time.perf_counter() + seconds
    passes = [Pass(workload, W, problems, recorded)]
    while len(passes[-1].times) == len(problems) and time.perf_counter() < until:
        passes.append(Pass(workload, W, problems, recorded, until=until,
                           estimates=passes[0].times))
    return setups, problems, passes, recorded, tracer


def consistency_failures(passes):
    """Keys whose digest changed from one pass to the next."""
    first = passes[0].digests
    return {k for p in passes[1:] for k, d in p.digests.items() if first.get(k, d) != d}


def report(args, workload, setups, problems, passes, recorded, tracer):
    inconsistent = consistency_failures(passes)
    failed_keys = {k for p in passes for k in p.failures} | inconsistent
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes) + len(inconsistent)
    keys = {p.key for p in problems}
    matched = sum(1 for k in keys if k in recorded and k not in failed_keys)
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} git={git_sha()}")
    print(f"# {len(problems)} ops per pass, {len(passes)} passes (the last may stop early), "
          f"attempted {attempted}, failed {failed}; "
          f"digests: {matched} of {len(keys)} recorded and matching")
    print("# pass times: " + ", ".join(
        f"{p.wall:.3f} s" + ("" if len(p.times) == len(problems) else f" ({len(p.times)} ops)")
        for p in passes))
    by_label = {}
    for problem, t in zip(problems, passes[0].times):
        count, total = by_label.get(problem.label, (0, 0.0))
        by_label[problem.label] = (count + 1, total + t)
    print("# first pass by label: " + "; ".join(
        f"{label} x{count} {total:.2f} s" for label, (count, total) in sorted(by_label.items())))
    if tracer is None:
        metrics, tail_pct, n = end_to_end(setups, passes)
        notes = {"setup_s": f"median of {len(setups)} cold set-ups",
                 "wall_s": "one pass, each op at its mean over the run",
                 "op_p50_s": f"median of the {n} ops run",
                 "op_tail_s": f"p{tail_pct:.1f} of the {n} ops run",
                 "peak_rss_mb": "ru_maxrss of the process"}
        for name, value in metrics.items():
            print(f"{name:<14} {value:>12.6f} {UNITS[name]:<3} ({notes[name]})")
        print(f"{'failed_ops':<14} {failed / attempted:>12.6f} 1   ({failed} of {attempted} ops)")
        metrics = {name: metrics[name] for name in GATED}
        units = UNITS
    else:
        overhead = passes[1].wall - passes[0].wall  # traced minus untraced pass
        metrics = tracer.breakdown(overhead)
        units = {name: spantrace.metric_unit(name) for name in metrics}
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spantrace.LAYERS)
        for name, value in metrics.items():
            print(f"{name:<48} {value:>14.6f} {units[name]}")
        print(f"# layers' self time {layer_sum:.6f} s + bench glue {metrics['bench.self_s']:.6f} s"
              f" = traced op time {metrics['trace.op_s']:.6f} s; untraced {passes[0].wall:.6f} s")
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"trace-{workload.name}.jsonl.gz"
        tracer.write(spans)
        print(f"# {len(tracer.ids)} spans written to {spans.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))


def record_digests(workload, seed):
    _, W, problems = cold_setup(workload, seed)
    recorded = load_digests(workload.name)
    done = Pass(workload, W, problems, recorded)
    if done.failures:
        print(f"not recording: {len(done.failures)} ops failed", file=sys.stderr)
        return 1
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data.setdefault(workload.name, {}).update(done.digests)
    data = {k: dict(sorted(v.items())) for k, v in sorted(data.items())}
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"recorded {len(done.digests)} digests for {workload.name} seed {seed}")
    return 0


def smoke(seed):
    """A few cheap ops per workload; every named metric prints, every digest matches."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    ok = True
    for workload in workloads().values():
        setup_s, W, problems = cold_setup(workload, seed)
        subset = [next(p for p in problems if p.label == label) for label in workload.SMOKE]
        recorded = load_digests(workload.name)
        plain = Pass(workload, W, subset, recorded)
        tracer = spantrace.Tracer()
        tracer.install()
        try:
            traced = Pass(workload, W, subset, recorded, tracer)
        finally:
            tracer.uninstall()
        e2e, _, _ = end_to_end([setup_s], [plain])
        layer = tracer.breakdown(traced.wall - plain.wall)
        problems_found = []
        if set(GATED) != want_e2e or set(e2e) != set(UNITS):
            problems_found.append(f"end-to-end metrics {sorted(set(GATED) ^ want_e2e)}")
        if set(layer) != want_layer:
            problems_found.append(f"per-layer metrics {sorted(set(layer) ^ want_layer)}")
        if layer["trace.op_s"] <= 0:
            problems_found.append("the traced pass recorded no spans")
        if plain.failures or traced.failures:
            problems_found.append("failed ops")
        unrecorded = [p.label for p in subset if p.key not in recorded]
        if unrecorded:
            problems_found.append(f"no recorded digest for {unrecorded}")
        status = "ok" if not problems_found else "FAIL: " + "; ".join(problems_found)
        print(f"smoke {workload.name:<9} {len(subset)} ops, untraced {plain.wall:.3f} s, "
              f"traced {traced.wall:.3f} s: {status}")
        ok = ok and not problems_found
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick check of metrics and digests")
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass and add its output digests to bench/digests.json")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "wildstrat" / "__init__.py").is_file():
        print(f"error: no wildstrat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # answers must be computed, never read back from the CLI's on-disk cache
    os.environ.pop("WILDSTRAT_CACHE_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke(args.seed)
    workload = workloads()[args.workload]
    if args.record_digests:
        return record_digests(workload, args.seed)
    measured = measure(workload, args.seed, args.seconds, args.trace)
    report(args, workload, *measured)
    return 0


if __name__ == "__main__":
    sys.exit(main())
