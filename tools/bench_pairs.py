"""Alternating benchmark pairs of two checkouts, summarised in one JSON file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json
        [--pairs 10] [--seed 1101] [--workload NAME ...]

Runs `bandbench/run.py --trace 0` of each checkout from that checkout's root,
in pairs: pair i runs both sides on seed SEED + i, and the side that runs
first alternates from pair to pair (the parent first in pair 0).  Every run
lasts `run_seconds` of CHANGE's BENCHMARK.json, and the workloads and
end-to-end metrics are those it lists.

The file holds, for each workload, side and end-to-end metric, every run's
value with their median, min and interquartile range; for each workload and
metric, how many pairs the change won by the metric's direction (ties count
for neither side); each run's attempted and failed job counts, and the tail
percentile its job_tail_ms reports with the timed-job count it was taken
over; and the environment each side's runs reported (Python, numpy and BLAS
versions, OPENBLAS_NUM_THREADS, nproc).  A table of the same figures goes to
stdout.  bandbench picks the tail percentile from the timed-job count (p99
up to 10,000 jobs, p99.9 from 10,001), so a workload whose runs report more
than one percentile compares unlike job_tail_ms figures; the JSON and the
table flag it.
Exits 1 when a run exits nonzero, prints no result, or reports a failed job.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ENV_KEYS = ("python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "nproc")
# bandbench's job_tail_ms line ends "(p99.9 of 11489 timed jobs, 11 beyond)"
TAIL_NOTE = re.compile(r"^job_tail_ms\s.*\(p([\d.]+) of (\d+) timed jobs, (\d+) beyond\)$",
                       re.MULTILINE)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bandbench run: its result line, its environment line and its exit code."""
    proc = subprocess.run(
        [sys.executable, "bandbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    tail = TAIL_NOTE.search(proc.stdout)
    run = {"seed": seed, "exit": proc.returncode,
           "env": {key: env.get(key) for key in ENV_KEYS},
           "tail": tail and {"percentile": float(tail[1]), "samples": int(tail[2]),
                             "beyond": int(tail[3])}}
    if isinstance(result, dict) and isinstance(result.get("metrics"), dict):
        run.update(correct=result.get("correct"), attempted=result.get("attempted"),
                   failed=result.get("failed"),
                   metrics={k: v.get("value") for k, v in result["metrics"].items()})
    else:
        run["stderr"] = proc.stderr.strip()[-400:]
    return run


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "min": min(values), "iqr": q3 - q1,
            "runs": values}


def _wins(parent: list, change: list, better: str) -> int:
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def _ok(run: dict) -> bool:
    return run["exit"] == 0 and run.get("correct") is True and run.get("failed") == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1101)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    report = {"pairs": args.pairs, "seconds": seconds, "first_seed": args.seed,
              "order": "pair i runs both sides on seed first_seed + i; the parent "
                       "runs first in even pairs, the change in odd ones",
              "workloads": {}}
    envs = {side: [] for side in SIDES}
    all_ok = True
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = _run(checkouts[side], workload, seed, seconds)
                runs[side].append(run)
                envs[side].append(run["env"])
                all_ok &= _ok(run)
                shown = {k: round(v, 4) for k, v in run.get("metrics", {}).items()
                         if v is not None}
                tail = run["tail"] or {}
                print(f"# {workload} pair {i} {side}: exit {run['exit']} {shown} "
                      f"tail p{tail.get('percentile')} of {tail.get('samples')}",
                      file=sys.stderr, flush=True)
                if "stderr" in run:
                    print(run["stderr"], file=sys.stderr, flush=True)
        entry = {"runs": {side: [{k: run.get(k) for k in ("seed", "exit", "correct",
                                                          "attempted", "failed", "tail")}
                                 for run in runs[side]] for side in SIDES},
                 "metrics": {}}
        percentiles = {run["tail"]["percentile"] for side in SIDES for run in runs[side]
                       if run["tail"]}
        entry["tail_percentiles"] = sorted(percentiles)
        entry["mixed_tail_percentiles"] = len(percentiles) > 1
        if all(_ok(run) for side in SIDES for run in runs[side]):
            for name, metric in metrics.items():
                values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
                entry["metrics"][name] = {
                    "unit": metric["unit"], "better": metric["better"],
                    **{side: _summary(values[side]) for side in SIDES},
                    "change_wins": _wins(values["parent"], values["change"], metric["better"]),
                }
        report["workloads"][workload] = entry
    report["env"] = {side: [] for side in SIDES}
    for side in SIDES:
        for env in envs[side]:
            if env not in report["env"][side]:
                report["env"][side].append(env)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'workload':12s} {'metric':12s} {'parent med (iqr)':>20s} "
          f"{'change med (iqr)':>20s} {'diff':>7s} wins")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            diff = (c["median"] - p["median"]) / p["median"] if p["median"] else float("nan")
            mixed = ""
            if name == "job_tail_ms" and entry["mixed_tail_percentiles"]:
                mixed = "  mixed " + ", ".join(f"p{q:g}" for q in entry["tail_percentiles"])
            print(f"{workload:12s} {name:12s} {p['median']:>11.4g} ({p['iqr']:.3g}) "
                  f"{c['median']:>11.4g} ({c['iqr']:.3g}) {diff:>+7.1%} "
                  f"{m['change_wins']}/{args.pairs}{mixed}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
