"""Run one benchmark workload against the coupledwell package in src/.

    python3 perfbench/run.py --workload {cli-short,closed-form,oracle}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  A run is a number of whole blocks of
requests fixed by the workload and --seconds.  With --trace 0 it
measures the end-to-end metrics with tracing off; with --trace 1 it
runs the same requests with spans around every public call, runs each
one a second time untraced for the tracing overhead, and takes the
per-layer reference figures.  Times in the end-to-end metrics are wall
times scaled to a reference machine speed by the gauge in speed.py;
the raw wall-time figures are in the result file.  Every output is
checked after its clock stops.  The metrics are printed one
per line, a result file with the environment goes to perfbench/results/,
and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts refusals (a documented error on a valid request, such
as the level solver's stall) as well as wrong outputs and crashes;
`correct` is false only for a wrong output or a crash.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT_MARKER = os.path.join("src", "coupledwell", "__init__.py")
SETUP_REPEATS = 5
RESULTS_DIR = os.path.join("perfbench", "results")


def _one_core() -> tuple[int, int]:
    """Pin this process and its children to one CPU and BLAS to one
    thread; returns (nproc, the CPU).

    On a shared host a second BLAS thread waits at every barrier for
    whichever core is busy elsewhere, and the cores slow down at
    different times: the speed gauge (speed.py) tracks the requests and
    the CLI children only when they all run on the gauge's core.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def _openblas_threads(numpy) -> int | None:
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int, pinned_cpu: int, seed: int) -> dict:
    import platform

    import mpmath
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "git_commit": commit,
    }


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def setup_times(workload: str, seed: int, gauge) -> tuple[list[float], float]:
    """Wall seconds of SETUP_REPEATS fresh set-ups, and the factor to
    reference seconds from the speed gauge read around each of them."""
    wall, readings = [], [gauge.measure()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # a pipe makes the wait select() on it; without one, a wait with a
        # timeout polls every 50 ms and the times come out in 50 ms steps
        subprocess.run([sys.executable, os.path.join("perfbench", "setup_probe.py"),
                        workload, str(seed)], stdout=subprocess.PIPE, check=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        readings.append(gauge.measure())
    return wall, gauge.reference_s / statistics.median(readings)


def summarize(records) -> dict:
    from .workloads import PASS

    latencies = sorted(r.seconds for r in records)
    by_kind: dict[str, dict] = {}
    for r in records:
        entry = by_kind.setdefault(r.kind, {"attempted": 0, "failed": 0, "seconds": []})
        entry["attempted"] += 1
        entry["failed"] += r.outcome != PASS
        entry["seconds"].append(r.seconds)
    for entry in by_kind.values():
        entry["median_s"] = statistics.median(entry.pop("seconds"))
    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    return {
        "attempted": len(records),
        "outcomes": outcomes,
        "busy_s": sum(latencies),
        "latency_samples": len(latencies),
        "samples_beyond_p90": len(latencies) - 1 - int(0.9 * (len(latencies) - 1)),
        "by_kind": by_kind,
        "failures": [
            {"request": i, "kind": r.kind, "outcome": r.outcome, "detail": r.detail}
            for i, r in enumerate(records) if r.outcome != PASS
        ][:50],
    }


def end_to_end(workload, records, setups, seconds="scaled") -> dict:
    """The end-to-end metrics from the records' `seconds` attribute
    (scaled by the speed gauge, or "seconds" for the raw wall times)."""
    from .workloads import PASS

    latencies = sorted(getattr(r, seconds) for r in records)
    who = resource.RUSAGE_CHILDREN if workload == "cli-short" else resource.RUSAGE_SELF
    return {
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "throughput_rps": sum(r.outcome == PASS for r in records) / sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(cw, requests, records, tracer, untraced_seconds) -> tuple[dict, dict]:
    from .probe import cli_figures, library_figures
    from .spans import self_times
    from .spec import LAYERS
    from .workloads import REFUSED

    busy = sum(r.seconds for r in records)
    own = self_times(tracer.spans)
    metrics = {}
    metrics.update(cli_figures())
    metrics.update(library_figures(cw))
    secular_spans = [s for s in tracer.spans if s.layer == "secular"]
    cli_secular = [r for r in records if r.kind in ("cli-spectrum", "cli-critical", "cli-scan")]
    metrics["secular.failed"] = (sum(s.error is not None for s in secular_spans)
                                 + sum(r.outcome == REFUSED for r in cli_secular))
    metrics["secular.attempts"] = len(secular_spans) + len(cli_secular)
    eigensolves = sum(s.name == "eigenpairs" for s in tracer.spans) + sum(
        len(q["c_values"]) for q in requests if q["kind"] == "scan")
    metrics["oracle.eigensolves"] = eigensolves / len(records)
    for layer in LAYERS:
        metrics[f"{layer}.share"] = own.get(layer, 0.0) / busy
    metrics["bench.share"] = own.get("request", 0.0) / busy
    metrics["trace.overhead_frac"] = (busy - untraced_seconds) / untraced_seconds
    metrics["trace.spans"] = len(tracer.spans)
    layers = {layer: {"self_s": own.get(layer, 0.0),
                      "self_ms_per_request": 1e3 * own.get(layer, 0.0) / len(records)}
              for layer in LAYERS + ("request",)}
    return metrics, layers


def main(argv=None) -> int:
    from .inputs import WARMUP, WORKLOADS, n_blocks
    from .spec import END_TO_END, PER_LAYER

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="about this much request time is measured, in a number of "
                             "whole blocks fixed by the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(ROOT_MARKER):
        print(f"error: {ROOT_MARKER} not found; run from the repository root",
              file=sys.stderr)
        return 2
    nproc, cpu = _one_core()
    from .speed import SpeedGauge

    gauge = SpeedGauge(args.workload)
    gauge.measure()  # first call pays LAPACK's lazy set-up
    gauge.samples.clear()
    setup_wall, setup_factor = setup_times(args.workload, args.seed, gauge)
    setups = [t * setup_factor for t in setup_wall]

    sys.path.insert(0, os.path.abspath("src"))
    import coupledwell as cw

    from .spans import NullTracer, Tracer
    from .workloads import CRASH, PASS, WRONG, Executor, run_loop, run_request

    executor = Executor(cw)
    for i, req in enumerate(WARMUP[args.workload]):
        record = run_request(executor, NullTracer(), i, req)
        if record.outcome != PASS:
            print(f"error: warm-up {req['kind']} failed: {record.detail}", file=sys.stderr)
            return 1
    tracer = Tracer() if args.trace else NullTracer()
    twins = [] if args.trace else None
    blocks = n_blocks(args.workload, args.seconds)
    requests, records = run_loop(executor, tracer, args.workload, args.seed, blocks, gauge, twins)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "blocks": blocks,
              "trace": args.trace, "environment": environment(nproc, cpu, args.seed),
              "setup_samples_s": setups, "setup_wall_samples_s": setup_wall,
              "gauge_samples_s": gauge.samples, "requests": summarize(records)}
    if args.trace:
        values, result["layers"] = per_layer(cw, requests, records, tracer, sum(twins))
        specs = PER_LAYER
        spans_path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    else:
        values = end_to_end(args.workload, records, setups)
        result["wall_metrics"] = end_to_end(args.workload, records, setup_wall, "seconds")
        specs = END_TO_END
        spans_path = None
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result["metrics"] = metrics

    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in tracer.spans], fh)

    failed = sum(r.outcome != PASS for r in records)
    bad = sum(r.outcome in (WRONG, CRASH) for r in records)
    for failure in result["requests"]["failures"][:10]:
        print(f"# {failure['outcome']}: {failure['kind']}: {failure['detail']}")
    print(f"# {args.workload}: {len(records)} requests, {failed} failed "
          f"({failed / len(records):.4f}), {bad} wrong or crashed")
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": bad == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.run import main as _main

    sys.exit(_main())
