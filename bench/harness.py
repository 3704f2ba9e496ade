"""Closed-loop job runner, error accounting and the percentile rule.

One client, no threads: each job starts when the previous one (and its
output check) has finished.  A job that raises, or whose output fails its
check or its golden digest, is counted as failed and the run goes on.
"""

from __future__ import annotations

import os
import platform
import sys
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

TAIL_BEYOND = 10


@dataclass
class JobResult:
    key: str
    seconds: float
    digest: str | None
    error: str | None


def run_job(job, golden: dict | None = None) -> JobResult:
    """Time ``job.run`` alone; check its output outside the timed region."""
    t0 = perf_counter()
    try:
        out = job.run()
    except Exception:
        return JobResult(job.key, perf_counter() - t0, None, traceback.format_exc(limit=3))
    seconds = perf_counter() - t0
    try:
        digest = job.check(out)
    except Exception as exc:
        return JobResult(job.key, seconds, None, f"{type(exc).__name__}: {exc}")
    if golden is not None and golden.get(job.key) != digest:
        return JobResult(job.key, seconds, digest, "output differs from the golden digest")
    return JobResult(job.key, seconds, digest, None)


def measure(workload, seconds: float, golden: dict | None = None) -> list[JobResult]:
    """Run jobs until ``seconds`` have passed, at least ``TAIL_BEYOND + 1``
    jobs are done and the last block of ``workload.stride`` jobs is whole."""
    jobs = workload.jobs
    results: list[JobResult] = []
    start = perf_counter()
    while True:
        results.append(run_job(jobs[len(results) % len(jobs)], golden))
        done = len(results)
        if (
            done % workload.stride == 0
            and done > TAIL_BEYOND
            and perf_counter() - start >= seconds
        ):
            return results


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile that still has at least
    ``TAIL_BEYOND`` samples above it, with that percentile and the count
    of samples beyond it."""
    xs = sorted(samples)
    i = len(xs) - TAIL_BEYOND - 1
    if i < 0:
        raise ValueError(f"{len(xs)} samples: a tail needs at least {TAIL_BEYOND + 1}")
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int, jobs: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "git_sha": git_sha(root),
        "seed": seed,
        "jobs": jobs,
        "threads": "none: one process, one client, no thread pool "
                   "(the CLI's --threads / QUASIHOM_THREADS path is never used)",
    }
