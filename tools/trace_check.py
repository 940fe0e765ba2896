"""Check that a short traced benchmark run of every workload ends in a finite result.

    python3 tools/trace_check.py [CHECKOUT]

Runs `bandbench/run.py --trace 1` of CHECKOUT (default: this checkout) from
its root, for a few seconds on each workload that its BENCHMARK.json lists,
and reads the last line of stdout.  A workload passes when that line parses
as JSON with a parse_constant that rejects NaN and Infinity, its correct is
true, and every metric is a finite number, not null.  Prints one line per
workload and exits 1 unless every workload passes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 4
SEED = 7


def _reject(constant: str):
    raise ValueError(f"non-finite constant {constant}")


def problems(stdout: str) -> list[str]:
    """What is wrong with a run's stdout; empty when its last line is a finite, correct result."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject)
    except ValueError as exc:
        return [f"last line is not a result ({exc}): {lines[-1][:120]}"]
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return [f"last line has no metrics: {lines[-1][:120]}"]
    found = [] if result.get("correct") is True else [f"correct is {result.get('correct')!r}"]
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            found.append(f"{name} is {value!r}")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    checkout = Path(args[0]).resolve() if args else ROOT
    names = [w["name"] for w in json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]
    failed = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, "bandbench/run.py", "--workload", name, "--seed", str(SEED),
             "--seconds", str(SECONDS), "--trace", "1"],
            cwd=checkout, capture_output=True, text=True)
        found = problems(proc.stdout)
        if proc.returncode != 0:
            found.insert(0, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        print(f"{name}: {'ok' if not found else '; '.join(found)}")
        failed += bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
