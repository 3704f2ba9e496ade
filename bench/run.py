"""qhdecomp benchmark: one workload per process, one client, no threads.

    python3 bench/run.py --workload census --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --write-golden            # refresh bench/golden.json

Run from the repository root; the library is imported from ``src/``.  The
workloads, their metrics and the metrics' units are declared in
``BENCHMARK.json``.  With ``--trace 0`` jobs run back to back for
``--seconds`` and the end-to-end metrics are reported; with ``--trace 1`` a
fixed list of jobs runs alternately untraced and traced, and the per-layer
metrics come from the traced passes.  A summary goes to stderr, a result
file with the environment goes to ``bench/out/``, and the last line of
stdout is the JSON result.
"""

from time import perf_counter

START = perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
# blocks of each workload's job mix in the traced list
TRACED_BLOCKS = {"census": 1, "subset_search": 5, "partition": 2}


def _load_golden(workload: str, seed: int) -> dict | None:
    doc = json.loads(GOLDEN.read_text())
    return doc["digests"][workload] if seed == doc["seed"] else None


def _metrics(values: dict, declared: list[dict]) -> dict:
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                           "are not both declared and measured")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _report(args, env: dict, results: list, metrics: dict, extra: dict) -> None:
    """Summary to stderr; result file with every job's time; JSON result
    as the last line of stdout."""
    failures = [r for r in results if r.error is not None]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}", file=sys.stderr)
    for key, value in env.items():
        print(f"  env {key}: {value}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for key, value in extra.items():
        print(f"  {key}: {value}", file=sys.stderr)
    for r in failures[:5]:
        print(f"  FAILED {r.key}: {r.error}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "environment": env,
        "metrics": metrics,
        **extra,
        "failures": [{"key": r.key, "error": r.error} for r in failures],
        "job_seconds": [[r.key, r.seconds] for r in results],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))


def run_timed(args, spec: dict, import_s: float) -> None:
    import harness
    import workloads

    build = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = build(args.seed)
        golden = _load_golden(args.workload, args.seed)
        setups.append(perf_counter() - t0)
    results = harness.measure(workload, args.seconds, golden)
    times = [r.seconds for r in results]
    ok = sum(r.error is None for r in results)
    tail_s, tail_pct, beyond = harness.tail(times)
    metrics = _metrics({
        "jobs_per_s": ok / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, spec["end_to_end"])
    extra = {
        "job_s_tail_percentile": tail_pct,
        "job_s_tail_jobs_beyond": beyond,
        "error_rate": (len(results) - ok) / len(results),
        "import_s": import_s,
        "setup_repeats_s": setups,
        "golden_checked": golden is not None,
        "generation_retries": workload.generation_retries,
    }
    env = harness.environment(ROOT, args.seed, len(results))
    _report(args, env, results, metrics, extra)


def run_traced(args, spec: dict) -> None:
    import harness
    import tracing
    import workloads

    first = tracing.Tracer()
    first.install()
    try:
        first.job = tracing.SETUP_JOB
        workload = workloads.WORKLOADS[args.workload](args.seed)
        first.job = None
    finally:
        first.uninstall()
    golden = _load_golden(args.workload, args.seed)
    jobs = workload.jobs[:TRACED_BLOCKS[args.workload] * workload.stride]

    def traced(tracer, n, job):
        def run():
            tracer.job = n
            try:
                return job.run()
            finally:
                tracer.job = None
        return workloads.Job(job.key, run, job.check)

    results, passes, overheads = [], [], []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        untraced = [harness.run_job(job, golden) for job in jobs]
        tracer = first if not passes else tracing.Tracer()
        tracer.install()
        try:
            traced_results = [
                harness.run_job(traced(tracer, n, job), golden) for n, job in enumerate(jobs)
            ]
        finally:
            tracer.uninstall()
        for u, t in zip(untraced, traced_results):
            if t.error is None and t.digest != u.digest:
                t.error = "traced output differs from the untraced output"
        metrics = tracing.layer_metrics(tracer)
        if passes:
            for key in ("families.generate.self_s", "coloring.color_edges.self_s"):
                metrics[key] = passes[0][key]
            moved = [k for k, v in metrics.items()
                     if not k.endswith("_s") and v != passes[0][k]]
            if moved:
                traced_results[-1].error = f"counts differ between traced passes: {moved}"
        passes.append(metrics)
        overheads.append(sum(r.seconds for r in traced_results)
                         / sum(r.seconds for r in untraced) - 1)
        results += untraced + traced_results
    values = {
        k: statistics.median(p[k] for p in passes) if k.endswith("_s") else passes[0][k]
        for k in passes[0]
    }
    values["trace.overhead_ratio"] = statistics.median(overheads)
    metrics = _metrics(values, spec["per_layer"])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    first.write(spans_path)
    extra = {
        "traced_jobs": [job.key for job in jobs],
        "passes": len(passes),
        "spans": len(first.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "golden_checked": golden is not None,
    }
    env = harness.environment(ROOT, args.seed, len(results))
    _report(args, env, results, metrics, extra)


def write_golden() -> None:
    import harness
    import workloads

    digests = {}
    for name, build in workloads.WORKLOADS.items():
        digests[name] = {}
        for job in build(DEFAULT_SEED).jobs:
            if job.key in digests[name]:
                continue
            result = harness.run_job(job)
            if result.error is not None:
                raise RuntimeError(f"{job.key}: {result.error}")
            digests[name][job.key] = result.digest
        print(f"{name}: {len(digests[name])} digests", file=sys.stderr)
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n")


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, so set-up and peak RSS stay its own."""
    summary = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "qhdecomp" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.write_golden:
        return run_all(args, names)
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports the library: part of set-up)

    if args.write_golden:
        write_golden()
    elif args.trace:
        run_traced(args, spec)
    else:
        run_timed(args, spec, perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
