"""Tests of the benchmark itself: its inputs, its output check and its tracer.

Run from the repository root:  python -m pytest -q bandbench/tests
"""

import itertools
import math

import pytest

from bandbench import reference, run, workloads
from bandbench.tracer import Tracer

JOBS_COMPARED = 30


def _argvs(name, seed, workdir):
    return [[a.replace(str(workdir), "<dir>") for a in argv]
            for argv in itertools.islice(workloads.jobs(name, seed, str(workdir)), JOBS_COMPARED)]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_argv_and_input_files(tmp_path, name):
    one, two, other = tmp_path / "one", tmp_path / "two", tmp_path / "other"
    for d in (one, two, other):
        d.mkdir()
    assert _argvs(name, 5, one) == _argvs(name, 5, two)
    assert _argvs(name, 5, one) != _argvs(name, 6, other)
    files = sorted(p.name for p in one.iterdir())
    assert files == sorted(p.name for p in two.iterdir())
    for fname in files:
        assert (one / fname).read_bytes() == (two / fname).read_bytes()


def _perturb(path, row, column, factor):
    lines = path.read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    j = lines[first].split(",").index(column)
    cells = lines[first + 1 + row].split(",")
    cells[j] = repr(float(cells[j]) * factor)
    lines[first + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_perturbed_cell_and_nonzero_exit_count_as_failures(tmp_path):
    _, main = run.load_cli()
    good = ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=-1,-4",
            "--n", "1024", "--m", "128", "--length", "512", "--seed", "3",
            "--out", str(tmp_path / "good.csv")]
    bad = good[:-1] + [str(tmp_path / "bad.csv")]
    bad[bad.index("--gamma=-1,-4")] = "--gamma=1"  # positive damping in low mode: exit 2
    records = [run.run_job(main, good), run.run_job(main, bad)]
    assert [r["rc"] for r in records] == [0, 2]
    assert [why for _, why in run.failures(records)] == ["exit code 2"]

    _perturb(tmp_path / "good.csv", row=1, column="rel_l2", factor=1.0 + 1e-6)
    reasons = [why for _, why in run.failures(records)]
    assert len(reasons) == 2 and "rel_l2" in reasons[0]


def test_trusted_rows_on_golden_ladders():
    expect = {"low": [-1, -2, -4, -8, -16, -32], "high": [1, 2, 4, 8, 16]}
    for a, mode, gammas in workloads.LADDERS:
        for n in (32768, 65536):
            kept = [float(g) for g in gammas.split(",")
                    if reference.trusted(float(a), math.pi / 3, float(g), n)]
            assert kept == expect[mode], (mode, n)


def test_missing_hook_gives_null_metrics(monkeypatch):
    run.load_cli()
    import artifact.predictor

    original_forecast = artifact.predictor.forecast
    monkeypatch.delattr(artifact.predictor, "windowed_dot")
    tracer = Tracer()
    tracer.install()
    try:
        assert artifact.predictor.forecast is not original_forecast
        metrics = tracer.metrics(jobs=1)
    finally:
        tracer.uninstall()
    assert artifact.predictor.forecast is original_forecast
    assert metrics["predictor.conv.self_ms"] is None
    assert metrics["predictor.conv.mac"] is None
    assert metrics["kernels.self_ms"] == 0.0
