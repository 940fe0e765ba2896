"""Distance of fresh golden runs from the committed goldens, row by row.

    python3 tools/golden_diff.py [--cells] [SRC]

Runs the three golden argvs of tests/test_acceptance.py (`sweep-gamma` low
and high, `sweep-noise`) through `artifact.cli.main` in process, importing
`artifact` from SRC (default: this checkout's `src/`), and compares the
output with `tests/goldens/` of this checkout.  Prints one line per row: the
file, the row's first cell (gamma or nu) and the largest
|new - golden| / max(1, |golden|) over the row's cells, the distance that
test_10 holds to 1e-9.  With --cells it prints instead each cell past 1e-9
as `file row column old -> new`, the row named by its first cell and both
values as written.  Exits 1 when a row is past 1e-9, or when a run fails or
its column header or row count differs from the golden.  Nothing is written
outside a temporary directory.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
TOL = 1e-9


def _table(text: str):
    """The column header line and the rows of a CSV output as text cells, '#' lines skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    cells = "--cells" in args
    args = [arg for arg in args if arg != "--cells"]
    src = Path(args[0]).resolve() if args else ROOT / "src"
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(src))
    from artifact.cli import main as bandpredict

    spec = importlib.util.spec_from_file_location("acceptance", TESTS / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    runs = {"sweep_gamma_low.csv": acceptance.SWEEP_LOW_ARGS,
            "sweep_gamma_high.csv": acceptance.SWEEP_HIGH_ARGS,
            "sweep_noise.csv": acceptance.SWEEP_NOISE_ARGS}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in runs.items():
            out = Path(tmp) / name
            code = bandpredict([*run, "--out", str(out)])
            want_header, want = _table((TESTS / "goldens" / name).read_text())
            header, got = _table(out.read_text()) if code == 0 else (None, [])
            if header != want_header or len(got) != len(want):
                print(f"{name} exit={code} header or row count differs from the golden")
                failed = True
                continue
            columns = header.split(",")
            for row, golden in zip(got, want):
                dists = [abs(float(v) - float(g)) / max(1.0, abs(float(g)))
                         for v, g in zip(row, golden)]
                failed |= not max(dists) <= TOL
                if not cells:
                    print(f"{name} {float(golden[0]):g} {max(dists):.3e}")
                    continue
                for column, v, g, dist in zip(columns, row, golden, dists):
                    if not dist <= TOL:
                        print(f"{name} {float(golden[0]):g} {column} {g} -> {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
