"""Digest of every `bandpredict` output for a fixed list of argvs.

    python3 tools/output_digest.py [SRC] > listing.txt

Runs `artifact.cli.main` in process, importing `artifact` from SRC (default:
this checkout's `src/`), and prints one line per run: the argv, the exit
code, and the sha256 of stdout, of stderr and of every file the run wrote.
Running it against two checkouts and diffing the listings checks that a
change keeps every output byte, message and exit code.

The argvs are the seven test_10 cases, the nine `interactive` shapes of
bandbench at three seeds, `kernel` with `--b` and in high mode, the golden
`sweep-noise` at nu = 0, which is scored in extended precision, and the
`fine-grid` and `sweep-long` ladders of bandbench in each mode at one seed
(the n = 65536 and n = 32768 syntheses), each as CSV and as JSON; then help,
usage-error and error-exit cases, a non-finite `--input` sample, and last
`gen`, `sweep-noise` and `kernel` with a band edge of 0.  Two smaller
`sweep-noise` runs on the extended path, at 3 and 5 words, follow as CSV
after all of those, then two `sweep-gamma` ladders at m = 256 and
m = 1024 whose 7,896 and 4,936 outputs cross the engine's 4,096-output
chunk of shifted rows, and then `kernel` grid tables at n = 8 and
n = 65536, each as CSV and as JSON, two of them at gamma = +-0, whose V
and Khat cells are signed zeros; new cases go last, so a listing keeps its
earlier lines.  Runs take place in a fresh temporary directory with relative paths
and a pinned terminal width, so the listing depends only on the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TEST_10 = [
    ["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6", "--mode", "low",
     "--n", "1024", "--m", "64"],
    ["gen", "--omega", "pi/3", "--mode", "low", "--length", "512", "--seed", "3", "--n", "1024"],
    ["gen", "--omega", "pi/2", "--nu", "0.1", "--length", "512", "--seed", "3", "--n", "1024"],
    ["predict", "--a", "2", "--omega", "pi/3", "--gamma", "-6", "--mode", "low",
     "--n", "1024", "--m", "128", "--length", "512", "--seed", "3"],
    ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=-1,-4",
     "--n", "1024", "--m", "128", "--length", "512", "--seed", "3"],
    ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--nu", "0,0.01",
     "--n", "1024", "--m", "256"],
    ["split", "--a", "2", "--omega", "pi/3", "--gamma-low", "-8", "--gamma-high", "0.5",
     "--n", "2048", "--m", "256", "--length", "2048", "--seed", "11"],
]

KERNEL_VARIANTS = [
    ["kernel", "--a", "2", "--b", "0.5", "--omega", "pi/3", "--gamma", "-6", "--mode", "low",
     "--n", "1024", "--m", "64"],
    ["kernel", "--a", "-2", "--omega", "pi/3", "--gamma", "6", "--mode", "high",
     "--n", "1024", "--m", "64"],
]

# the golden noise sweep's nu = 0 row: its float64 roundoff floor sends it
# through `artifact.extended` and its exact limb sum
EXTENDED = [
    ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.1", "--nu", "0",
     "--n", "4096", "--m", "1024", "--seed", "20260819"],
]

# nu = 0 rows at n = 1024, m = 256 that the precision rule scores with 3
# (eps = 0.1) and 5 (eps = 0.05) words; listed after every other case
EXTENDED_SMALL = [
    ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", eps, "--nu", "0",
     "--n", "1024", "--m", "256"] for eps in ("0.1", "0.05")
]

# ladders whose stacked products run past one chunk of the engine's shifted
# rows (4,096 outputs at m = 256 and m = 1024); listed last
CHUNKED = [
    ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=-1,-2,-4,-8",
     "--n", "16384", "--m", "256", "--length", "8192", "--seed", "7"],
    ["sweep-gamma", "--a", "-2", "--omega", "pi/3", "--mode", "high", "--gamma=1,2,4,8",
     "--n", "8192", "--m", "1024", "--length", "6000", "--seed", "7"],
]

# grid tables at the smallest grid and at bandbench's largest, whose rows at
# -omega are written as the mirrored text of the rows at omega; listed last
KERNEL_GRIDS = [
    ["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "0", "--mode", "low",
     "--n", "8", "--m", "4"],
    ["kernel", "--a", "-2", "--b", "0.5", "--omega", "pi/3", "--gamma", "-0.0", "--mode", "high",
     "--n", "8", "--m", "4"],
    ["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6", "--mode", "low",
     "--n", "65536", "--m", "64"],
    ["kernel", "--a", "-2", "--b", "0.5", "--omega", "pi/3", "--gamma", "5.5", "--mode", "high",
     "--n", "65536", "--m", "64"],
]

NONFINITE_INPUT = "nonfinite.csv"

INTERACTIVE_SEEDS = (1, 2, 3)
LADDER_SEED = 1


def _first_round(workload: str, seeds, inputs_dir: str) -> list[list[str]]:
    """The first round of a bandbench workload's shapes at each seed, without --out."""
    sys.path.insert(0, str(ROOT))
    from bandbench import workloads

    argvs = []
    for seed in seeds:
        workdir = os.path.join(inputs_dir, str(seed))
        os.makedirs(workdir)
        jobs = workloads.jobs(workload, seed, workdir)
        for _ in range(workloads.CYCLE[workload]):
            argv = next(jobs)
            argvs.append(argv[:argv.index("--out")])
    return argvs


def _without_format(argv: list[str]) -> list[str]:
    if "--format" in argv:
        i = argv.index("--format")
        return argv[:i] + argv[i + 2:]
    return argv


def _usage_cases(commands) -> list[list[str]]:
    cases = [["-h"], [], ["nosuch"], ["--out", "run/out.csv"]]
    cases += [[command, "-h"] for command in commands]
    cases += [[command] for command in commands]
    cases += [
        [*TEST_10[0], "--bogus", "1", "--out", "run/out.csv"],
        ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=",
         "--n", "1024", "--m", "128", "--length", "512", "--out", "run/out.csv"],
        ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--nu=",
         "--n", "1024", "--m", "256", "--out", "run/out.csv"],
        [*TEST_10[0], "--mode", "mid", "--out", "run/out.csv"],
        [*TEST_10[0], "--n", "x", "--out", "run/out.csv"],
        [*TEST_10[0], "--omega", "tau", "--out", "run/out.csv"],
        [*TEST_10[0], "--format", "xml", "--out", "run/out.csv"],
        # errors raised past the parser: parameter, short signal, saturation, I/O
        [*TEST_10[0][:6], "5", *TEST_10[0][7:], "--out", "run/out.csv"],
        [*TEST_10[3][:-4], "--length", "100", "--seed", "3", "--out", "run/out.csv"],
        [*TEST_10[0][:6], "-100000", *TEST_10[0][7:], "--out", "run/out.csv"],
        [*TEST_10[0], "--out", "run/missing/out.csv"],
        # a non-finite --input sample, named with its file and line
        [*TEST_10[3][:-4], "--input", NONFINITE_INPUT, "--out", "run/out.csv"],
        # a band edge of 0, refused in the same words by every command
        *([*TEST_10[i], "--omega", "0", "--out", "run/out.csv"] for i in (1, 5, 0)),
    ]
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(main, argv: list[str], run_dir: Path) -> str:
    """One line: the argv, the exit code and the digests of stdout, stderr and written files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    fields = [" ".join(argv), f"exit={code}", f"stdout={_sha(out.getvalue().encode())}",
              f"stderr={_sha(err.getvalue().encode())}"]
    for path in sorted(run_dir.iterdir()):
        fields.append(f"{path.name}={_sha(path.read_bytes())}")
        path.unlink()
    return " ".join(fields)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]).resolve() if args else ROOT / "src"
    os.environ["COLUMNS"] = "80"
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(src))
    from artifact.cli import COMMANDS, main as bandpredict

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run_dir = Path("run")
            run_dir.mkdir()
            Path(NONFINITE_INPUT).write_text("t,x_re,x_im\n0,0.5,0\n1,1e400,0\n2,0.25,0\n")
            runs = [_without_format(a)
                    for a in TEST_10 + _first_round("interactive", INTERACTIVE_SEEDS, "inputs")
                    + KERNEL_VARIANTS + EXTENDED
                    + _first_round("fine-grid", [LADDER_SEED], "fine-grid")
                    + _first_round("sweep-long", [LADDER_SEED], "sweep-long")]
            for argv in runs:
                for fmt in ("csv", "json"):
                    print(_run(bandpredict, [*argv, "--format", fmt, "--out", f"run/out.{fmt}"],
                               run_dir))
            for argv in _usage_cases(COMMANDS):
                print(_run(bandpredict, argv, run_dir))
            for argv in EXTENDED_SMALL + CHUNKED:
                print(_run(bandpredict, [*argv, "--out", "run/out.csv"], run_dir))
            for argv in KERNEL_GRIDS:
                for fmt in ("csv", "json"):
                    print(_run(bandpredict, [*argv, "--format", fmt, "--out", f"run/out.{fmt}"],
                               run_dir))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
