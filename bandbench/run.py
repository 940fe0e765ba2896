"""Closed-loop benchmark of the `bandpredict` CLI.

    python3 bandbench/run.py --workload sweep-long --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  One
process, one client, no threads: the next job starts when the previous one
returns.  A job is one in-process call to `artifact.cli.main(argv)`, which is
what a `bandpredict` invocation runs after import.  Every argv and input file
comes from the workload seed (see workloads.py).  Jobs are timed with tracing
off; every output file is checked against a plain-numpy reference after the
timed loop (see reference.py).

--trace 0 reports the end-to-end metrics.  --trace 1 traces every other
cycle of job shapes and reports the per-layer metrics and the tracing
overhead (traced minus untraced median job time; see tracer.py).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it name every metric with its unit.
Details (environment, tail percentile, failures, spans) go to
bandbench/results/.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads, so BLAS runs one thread in this process and in
# every interpreter it starts.  Unpinned, a 32768-point np.linalg.norm (which
# the kernel inversion calls) took 16 ms in one fresh process and 40 us in the
# next, which moved whole jobs between runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bandbench" / "results"
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402

from bandbench import reference, workloads  # noqa: E402
from bandbench.tracer import Tracer  # noqa: E402

END_TO_END_UNITS = {"job_p50_ms": "ms", "job_tail_ms": "ms", "jobs_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.self_ms": "ms", "cli.bytes_out": "B/job",
    "analysis.self_ms": "ms", "analysis.calls": "count/job",
    "predictor.self_ms": "ms", "predictor.conv.self_ms": "ms",
    "predictor.conv.mac": "MAC/job", "predictor.conv.gmac_per_s": "GMAC/s",
    "kernels.self_ms": "ms", "kernels.grid_points": "count/job",
    "kernels.inversions_per_tapset": "ratio", "kernels.transfer_useful_ratio": "ratio",
    "spectral.self_ms": "ms", "spectral.fft_points": "count/job",
    "signals.self_ms": "ms", "signals.samples": "count/job",
    "import.numpy_ms": "ms", "import.artifact_ms": "ms",
    "trace.overhead_ms": "ms", "trace.self_sum_ms": "ms",
}
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def load_cli():
    """artifact.cli.main, imported from this checkout's src/ and nowhere else."""
    try:
        import artifact
        import artifact.cli
    except ImportError as exc:
        raise BenchError(f"cannot import artifact from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(artifact.__file__).resolve().parents:
        raise BenchError(f"artifact was imported from {artifact.__file__}, not from {SRC}")
    return artifact, artifact.cli.main


# ------------------------------------------------------------------ jobs

def run_job(main, argv: list[str], tracer: Tracer | None = None, job: int = 0) -> dict:
    """Call main(argv) once; the record holds argv, exit code, duration and any error.

    With a tracer, its hooks are in place for this job only."""
    if tracer is not None:
        tracer.install()
        sid = tracer.begin_job(job)
    error = None
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback escaping main is a failed job
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_job(sid, t0, t1)
        tracer.uninstall()
    return {"argv": argv, "rc": rc, "seconds": t1 - t0, "end": t1, "error": error,
            "traced": tracer is not None}


def timed_loop(main, argvs, seconds: float, start_job: int,
               tracer: Tracer | None = None, cycle: int = 1) -> tuple[list[dict], float]:
    """Closed loop: run jobs back to back until `seconds` have passed.

    With a tracer, every other cycle of `cycle` jobs is traced, so traced and
    untraced jobs share job shapes and the machine's load over time.
    Returns the job records and the loop's start time."""
    records = []
    t_start = time.perf_counter()
    while not records or records[-1]["end"] - t_start < seconds:
        traced = tracer if (len(records) // cycle) % 2 else None
        records.append(run_job(main, next(argvs), traced, start_job + len(records)))
    return records, t_start


def failure(record: dict) -> str | None:
    """Why a job failed: nonzero exit, escaped exception, or an output mismatch."""
    if record["error"] is not None:
        return record["error"]
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    return reference.check(record["argv"])


def _outputs(argv: list[str]) -> list[str]:
    out = reference.parse_argv(argv)[1]["out"]
    return [p for p in (out, reference.taps_path(out)) if os.path.exists(p)]


def _verdict_key(record: dict):
    """The check is a function of the argv without --out and of the output
    bytes, so byte-identical outputs of one argv share a verdict."""
    argv = record["argv"]
    digests = []
    for path in _outputs(argv):
        with open(path, "rb") as handle:
            digests.append(hashlib.blake2b(handle.read()).digest())
    return (record["rc"], record["error"], tuple(argv[:argv.index("--out")]), tuple(digests))


def failures(records: list[dict]) -> list[tuple[list[str], str]]:
    """(argv, reason) for every failed job; error_rate is their share of records."""
    verdicts = {}
    found = []
    for r in records:
        key = _verdict_key(r)
        if key not in verdicts:
            verdicts[key] = failure(r)
        if verdicts[key] is not None:
            found.append((r["argv"], verdicts[key]))
    return found


def output_bytes(argv: list[str]) -> int:
    return sum(os.path.getsize(p) for p in _outputs(argv))


# ------------------------------------------------------------------ statistics

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest listed percentile
    with at least ten samples beyond it (nearest rank), else the median.

    The list steps by about a decade of samples (p90 needs 100 jobs, p99
    1000), so the chosen percentile does not flip between runs of one
    workload whose job count varies by a few percent."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(math.ceil(p / 100.0 * n), 1)
        if n - rank >= 10:
            break
    return p, ordered[rank - 1], n - rank


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def setup_seconds() -> float:
    """Median fresh-interpreter time from spawn to `import artifact.cli` done.

    The child reads the system-wide monotonic clock after the import, so the
    figure excludes interpreter teardown.  The first import compiles bytecode
    and is not counted.
    """
    code = "import artifact.cli, time; print(repr(time.perf_counter()))"
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(out.stdout.strip()) - t0)
    return statistics.median(times)


def import_times() -> dict:
    """Median `python -X importtime` figures: numpy cumulative, artifact's own modules."""
    numpy_us, artifact_us = [], []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import artifact.cli"],
                             env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        own, total_numpy = 0, 0
        for line in out.stderr.splitlines():
            cells = line.removeprefix("import time:").split("|")
            if len(cells) != 3 or not cells[0].strip().isdigit():
                continue
            name = cells[2].strip()
            if name == "numpy":
                total_numpy = int(cells[1])
            elif name == "artifact" or name.startswith("artifact."):
                own += int(cells[0])
        numpy_us.append(total_numpy)
        artifact_us.append(own)
    return {"import.numpy_ms": statistics.median(numpy_us) / 1e3,
            "import.artifact_ms": statistics.median(artifact_us) / 1e3}


def environment(artifact, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "engine": getattr(artifact, "ENGINE", None),
    }


# ------------------------------------------------------------------ main

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args, workdir: Path) -> dict:
    artifact, main = load_cli()
    setup = setup_seconds() if args.trace == 0 else None
    env = environment(artifact, args)
    argvs = workloads.jobs(args.workload, args.seed, str(workdir))
    # one untimed cycle of job shapes, so lazy set-up in the process is done
    warmup = [run_job(main, next(argvs)) for _ in range(workloads.CYCLE[args.workload])]
    tracer = Tracer() if args.trace else None
    loop, t_start = timed_loop(main, argvs, args.seconds, len(warmup), tracer,
                               workloads.CYCLE[args.workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = [r for r in loop if not r["traced"]]
    traced = [r for r in loop if r["traced"]]

    records = warmup + loop
    t_check = time.perf_counter()
    failed = failures(records)
    check_s = time.perf_counter() - t_check
    ms = [1e3 * r["seconds"] for r in timed]
    pct, tail_ms, beyond = tail(ms)
    result = {
        "env": env,
        "attempted": len(records),
        "failed": len(failed),
        "failures": [{"argv": a, "why": w} for a, w in failed[:20]],
        "tail": {"percentile": pct, "samples": len(ms), "beyond": beyond},
        "check_s": check_s,
    }
    if args.trace == 0:
        result["metrics"] = {
            "job_p50_ms": statistics.median(ms),
            "job_tail_ms": tail_ms,
            "jobs_per_s": len(timed) / (timed[-1]["end"] - t_start),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup,
        }
    else:
        layers = tracer.metrics(len(traced))
        layers["cli.bytes_out"] = sum(output_bytes(r["argv"]) for r in traced) / len(traced)
        layers.update(import_times())
        traced_p50 = statistics.median(1e3 * r["seconds"] for r in traced)
        layers["trace.overhead_ms"] = traced_p50 - statistics.median(ms)
        layers["trace.self_sum_ms"] = sum(v for k, v in layers.items()
                                          if k.endswith("self_ms") and v is not None)
        result["metrics"] = layers
        result["untraced_mean_ms"] = statistics.fmean(ms)
        result["traced_jobs"] = len(traced)
        tracer.write_spans(RESULTS / f"{args.workload}-seed{args.seed}.spans.csv")
    return result


def report(args, result: dict) -> None:
    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    print(f"# bandbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for name, unit in units.items():
        value = result["metrics"][name]
        note = ""
        if name == "job_tail_ms":
            t = result["tail"]
            note = f"  (p{t['percentile']:g} of {t['samples']} timed jobs, {t['beyond']} beyond)"
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>12s} {unit}{note}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':32s} {rate:>12.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    if args.trace == 1:
        print(f"# self-time sum {result['metrics']['trace.self_sum_ms']:.4g} ms/job over "
              f"{result['traced_jobs']} traced jobs; untraced mean "
              f"{result['untraced_mean_ms']:.4g} ms/job")
    for f in result["failures"]:
        print(f"# failed: {' '.join(f['argv'])}: {f['why']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    args = _parse_args(argv)
    workdir = ROOT / "bandbench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        RESULTS.mkdir(parents=True, exist_ok=True)
        workdir.mkdir(parents=True)
        result = bench(args, workdir)
    except BenchError as exc:
        print(f"bandbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
