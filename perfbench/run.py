"""Run one benchmark workload under both numeric backends and print its metrics.

    python3 perfbench/run.py --workload {campaign,fleet,stream} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` next to this
directory.  BLAS threading is pinned to one thread before NumPy is imported
(see :data:`BLAS_THREAD_VARIABLES`).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.  After
untimed warm-up reps, measured reps alternate between the backends for
``--seconds`` in all (with minimum rep and latency-sample counts).  A metric
without a suffix is measured under ``exact``; ``<metric>.fast`` is the same
measurement under ``fast``.  The set-up time of ``campaign`` comes from fresh
interpreters (``perfbench/child.py``); see :func:`end_to_end`.  ``latency_ms`` is defined in
:func:`perfbench.workloads.summarize`.

``--trace 1`` prints the per-layer metrics instead: untraced reps alternate
with reps in which the callables listed in :data:`perfbench.layers.PROBES`
are wrapped, and the wrapped reps' self times and counts are reported with
the tracing overhead.

The 50th and 99th latency percentiles are printed in the information line,
not as metrics: on ``campaign`` every decision arrives when its campaign
returns, so the 99th percentile is the slowest of a few dozen campaigns, and
on ``stream`` a run holds about 1,200 samples.  On a shared two-core machine
the 99th moved by 15-50% from run to run and the pooled median of
``stream`` by a quarter, more than any bound can absorb.

Every correctness gate (:mod:`perfbench.workloads`) must hold; otherwise the
run exits with status 1 and prints no metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (detection
decisions, both backends, every rep) and ``metrics``.  The line before it
records the environment, sample counts and the ``fast``/``exact`` ratios.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set to one thread before NumPy is first imported (here and in children):
#: multi-threaded BLAS makes small ``lstsq`` calls bimodal in time.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics ``(name, unit)`` in print order; ``.fast`` twins follow
#: the names in :data:`TWINNED`.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
TWINNED = frozenset({"setup_s", "windows_per_s", "latency_ms"})

#: Fresh interpreters, each running one cold campaign, per backend and run.
COLD_CAMPAIGNS_PER_BACKEND = 4
CHILD_TIMEOUT_S = 120


def end_to_end_names() -> list[tuple[str, str]]:
    """Every printed end-to-end metric ``(name, unit)``, twins included."""
    names = []
    for name, unit in END_TO_END:
        names.append((name, unit))
        if name in TWINNED:
            names.append((f"{name}.fast", unit))
    return names


def _suffix(backend: str) -> str:
    return "" if backend == "exact" else f".{backend}"


def run_child(*args: str) -> dict[str, Any]:
    """Run ``perfbench/child.py`` in a fresh interpreter; its JSON result."""
    from perfbench.workloads import GateError

    completed = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        check=False,
    )
    if completed.returncode != 0:
        raise GateError(
            f"child {' '.join(args)} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


# --------------------------------------------------------------------------- #
# the two kinds of run
# --------------------------------------------------------------------------- #
def end_to_end(workload: Any, seconds: float) -> tuple[dict[str, float], dict[str, Any], list]:
    """Untraced reps of both backends: ``(metrics, info, every rep)``.

    ``setup_s`` is, on ``campaign``, the median over fresh interpreters of
    the first campaign after the library import, and on ``fleet`` and
    ``stream`` the median over measured reps of the program's set-up phase:
    population build and calibration, or (per rep, the mean of several)
    monitor construction and calibration.

    The import time of those interpreters goes to the information line, not
    to a metric: on a shared two-core host its median over several
    interpreters swung by a fifth to a third between runs, timed alone or
    added to the set-up time, more than any bound absorbs.
    """
    from perfbench import workloads as wl

    metrics: dict[str, float] = {}
    samples: dict[str, int] = {"peak_rss_mb": 1}
    info: dict[str, Any] = {"samples": samples}
    everything = []
    first: dict[str, wl.Rep] = {}
    for backend, (warmups, reps) in wl.measure(workload, seconds).items():
        wl.check_repeats(workload.name, backend, warmups + reps)
        everything += warmups + reps
        first[backend] = reps[0]
        summary = wl.summarize(reps)
        suffix = _suffix(backend)
        metrics["windows_per_s" + suffix] = summary["windows_per_s"]
        samples["windows_per_s" + suffix] = len(reps)
        metrics["latency_ms" + suffix] = summary["latency_ms"]
        samples["latency_ms" + suffix] = len(reps)
        if "setup_s" in summary:
            metrics["setup_s" + suffix] = summary["setup_s"]
            samples["setup_s" + suffix] = len(reps)
        # Reported, not gated: see the module docstring.
        info["latency_p50_ms" + suffix] = summary["latency_p50_ms"]
        info["latency_p99_ms" + suffix] = summary["latency_p99_ms"]
        info["latency_samples" + suffix] = int(summary["latency_samples"])
        info[f"warmup_reps{suffix}"] = len(warmups)
    info["max_fast_relative_delta"] = wl.check_backend_parity(
        workload.name, first["exact"], first["fast"]
    )

    if workload.name == "campaign":
        imports: list[float] = []
        for backend in wl.BACKENDS:
            setups = []
            for _ in range(COLD_CAMPAIGNS_PER_BACKEND):
                child = run_child(backend, str(workload.seed))
                if child["digest"] != first[backend].digest:
                    raise wl.GateError(
                        f"campaign/{backend}: cold campaign digest differs from warm"
                    )
                imports.append(child["import_s"])
                setups.append(child["setup_s"])
            metrics["setup_s" + _suffix(backend)] = statistics.median(setups)
            samples["setup_s" + _suffix(backend)] = len(setups)
        info["import_s"] = statistics.median(imports)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ordered = {name: metrics[name] for name, _ in end_to_end_names()}
    info["fast_over_exact"] = {
        name: ordered[f"{name}.fast"] / ordered[name] for name in sorted(TWINNED)
    }
    return ordered, info, everything


def per_layer(workload: Any, seconds: float) -> tuple[dict[str, float], dict[str, Any], list]:
    """Alternating untraced and traced reps of both backends.

    Returns ``(metrics, info, every rep)``; per-layer values are medians over
    the traced reps.
    """
    from perfbench import layers
    from perfbench import workloads as wl
    from perfbench.tracer import Tracer

    metrics: dict[str, float] = {}
    samples: dict[str, int] = {"trace.missing_paths": 1}
    info: dict[str, Any] = {"samples": samples}
    everything = []
    first: dict[str, wl.Rep] = {}
    tracer = Tracer(layers.PROBES)
    for backend in wl.BACKENDS:
        warmups = [workload.run(backend) for _ in range(workload.warmup_reps)]
        untraced: list[wl.Rep] = []
        traced: list[wl.Rep] = []
        values: list[dict[str, float]] = []
        # Alternate untraced and traced reps so that drift over the run does
        # not bias the overhead estimate.
        while len(traced) < workload.trace_reps or sum(
            rep.wall_s for rep in untraced + traced
        ) < seconds / 2:
            gc.collect()
            untraced.append(workload.run(backend))
            tracer.reset()
            gc.collect()
            with tracer:
                rep = workload.run(backend)
            traced.append(rep)
            values.append(
                layers.layer_values(tracer, decisions=rep.decisions, wall_s=rep.wall_s)
            )
        reps = warmups + untraced + traced
        wl.check_repeats(workload.name, backend, reps)
        everything += reps
        first[backend] = untraced[0]
        suffix = _suffix(backend)
        for name in values[0]:
            metrics[name + suffix] = statistics.median(value[name] for value in values)
            samples[name + suffix] = len(traced)
        metrics["trace.overhead_frac" + suffix] = (
            statistics.median(rep.wall_s for rep in traced)
            / statistics.median(rep.wall_s for rep in untraced)
            - 1.0
        )
        samples["trace.overhead_frac" + suffix] = len(traced) + len(untraced)
    info["max_fast_relative_delta"] = wl.check_backend_parity(
        workload.name, first["exact"], first["fast"]
    )
    metrics["trace.missing_paths"] = float(len(tracer.missing))
    info["missing_paths"] = tracer.missing
    info["predictions"] = {
        metric.name: {"moves": list(metric.moves), "flat": list(metric.flat)}
        for metric in layers.LAYER_METRICS
    }
    ordered = {metric.name: metrics[metric.name] for metric in layers.per_layer_metrics()}
    return ordered, info, everything


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "fleet", "stream"))
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if "numpy" in sys.modules:
        raise RuntimeError("NumPy was imported before BLAS threading was pinned")
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import layers
    from perfbench import workloads as wl

    workload = wl.WORKLOADS[args.workload](args.seed)
    run = per_layer if args.trace else end_to_end
    try:
        metrics, info, reps = run(workload, args.seconds)
    except wl.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    units = dict(end_to_end_names())
    units.update((metric.name, metric.unit) for metric in layers.per_layer_metrics())
    for name, value in metrics.items():
        print(f"{name:<46} {value:>16.6g} {units[name]:<8} n={info['samples'][name]}")
    attempted = sum(rep.decisions for rep in reps)
    failed = sum(rep.failed for rep in reps)
    info["workload"] = args.workload
    info["environment"] = environment(args.seed)
    info["failed_frac"] = failed / attempted
    info["errors"] = [error for rep in reps for error in rep.errors][:20]
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
