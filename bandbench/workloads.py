"""The benchmark's workloads: every job's argv, and every input file, from a seed.

A job is one `bandpredict` invocation.  The same (workload, seed, workdir)
always yields the same argv sequence and the same input files.
"""

from __future__ import annotations

import os

import numpy as np

from bandbench import reference

NAMES = ("sweep-long", "fine-grid", "interactive")

# jobs in one round of a workload's distinct shapes
CYCLE = {"sweep-long": 2, "fine-grid": 2, "interactive": 9}

OMEGA = "pi/3"

# The golden ladders: a=2 with gamma=-1..-256 (low), a=-2 with gamma=1..256 (high).
LADDERS = (
    ("2", "low", ",".join(str(-(2 ** k)) for k in range(9))),
    ("-2", "high", ",".join(str(2 ** k) for k in range(9))),
)

INPUT_FILES = 4
INPUT_START = 1000  # inputs start at a nonzero time, as real recordings do


def _seeds(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2 ** 31))


def _ladder_jobs(seed: int, workdir: str, n: int, m: int, length: int):
    for i, sig_seed in enumerate(_seeds(seed)):
        a, mode, gammas = LADDERS[i % 2]
        yield ["sweep-gamma", "--a", a, "--omega", OMEGA, "--mode", mode,
               f"--gamma={gammas}", "--n", str(n), "--m", str(m),
               "--length", str(length), "--seed", str(sig_seed),
               "--out", os.path.join(workdir, f"{i:06d}.csv")]


def _interactive_shapes(sig_seed: int, inputs: list[str], i: int):
    s = str(sig_seed)
    kernel = ["kernel", "--a", "2", "--omega", OMEGA, "--gamma", "-6",
              "--mode", "low", "--n", "1024", "--m", "64"]
    predict = ["predict", "--a", "2", "--omega", OMEGA, "--gamma", "-6",
               "--mode", "low", "--n", "1024", "--m", "128"]
    return [
        (kernel, "csv"),
        (kernel + ["--format", "json"], "json"),
        (["gen", "--omega", OMEGA, "--mode", "low", "--length", "512",
          "--seed", s, "--n", "1024"], "csv"),
        (["gen", "--omega", "pi/2", "--nu", "0.1", "--length", "512",
          "--seed", s, "--n", "1024"], "csv"),
        (predict + ["--length", "512", "--seed", s], "csv"),
        (predict + ["--input", inputs[(i // 9) % len(inputs)]], "csv"),
        (["sweep-gamma", "--a", "2", "--omega", OMEGA, "--mode", "low",
          "--gamma=-1,-4", "--n", "1024", "--m", "128", "--length", "512",
          "--seed", s], "csv"),
        (["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2",
          "--nu", "0,0.01", "--n", "1024", "--m", "256", "--seed", s], "csv"),
        (["split", "--a", "2", "--omega", OMEGA, "--gamma-low", "-8",
          "--gamma-high", "0.5", "--n", "2048", "--m", "256", "--length", "2048",
          "--seed", s], "csv"),
    ]


def _interactive_jobs(seed: int, workdir: str, inputs: list[str]):
    for i, sig_seed in enumerate(_seeds(seed)):
        shapes = _interactive_shapes(sig_seed, inputs, i)
        argv, ext = shapes[i % len(shapes)]
        yield argv + ["--out", os.path.join(workdir, f"{i:06d}.{ext}")]


def _write_inputs(seed: int, workdir: str) -> list[str]:
    """Time-series CSVs for `predict --input`, in the format `gen` writes."""
    paths = []
    rng = np.random.default_rng([seed, 1])
    for j in range(INPUT_FILES):
        x = reference.band_signal(np.pi / 3, "low", 512, int(rng.integers(0, 2 ** 31)), 1024)
        lines = ["t,x_re,x_im"] + [f"{INPUT_START + t},{v:.17g},0" for t, v in enumerate(x)]
        path = os.path.join(workdir, f"input{j}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def jobs(name: str, seed: int, workdir: str):
    """Endless argv iterator for workload `name`; writes its input files first."""
    if name == "sweep-long":
        # convolution-bound: the predictor's direct sums take most of a job,
        # grid inversion about a fifth
        return _ladder_jobs(seed, workdir, 32768, 4096, 8192)
    if name == "fine-grid":
        # grid-bound: kernel evaluation and FFTs take most of a job, the
        # convolution a few percent, so a convolution gain must not show here
        return _ladder_jobs(seed, workdir, 65536, 128, 1024)
    if name == "interactive":
        # overhead-bound: argument parsing, cell formatting and file writes and
        # reads next to short-tap convolutions
        return _interactive_jobs(seed, workdir, _write_inputs(seed, workdir))
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
