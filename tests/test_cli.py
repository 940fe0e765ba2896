"""CLI surface: parsing, file formats, determinism, exit codes."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artifact import (
    CausalityLeakError,
    GridSizeError,
    InsufficientDataError,
    InternalConsistencyError,
    ParameterError,
    PredictionError,
    SaturationError,
)
from artifact.cli import (
    EXIT_CAUSALITY_LEAK,
    EXIT_INSUFFICIENT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_OTHER,
    EXIT_PARAMETER,
    EXIT_SATURATION,
    _default_gammas,
    main,
    parse_omega,
)

PI = math.pi


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _data_lines(path):
    return [ln for ln in _read(path).decode().splitlines() if not ln.startswith("#")]


def test_parse_omega_forms():
    assert parse_omega("1.5") == 1.5
    assert parse_omega("pi") == PI
    assert abs(parse_omega("pi/3") - PI / 3) < 1e-15
    assert abs(parse_omega("2pi/5") - 2 * PI / 5) < 1e-15
    assert abs(parse_omega("0.5pi") - PI / 2) < 1e-15
    assert abs(parse_omega("2*pi/5") - 2 * PI / 5) < 1e-15
    assert abs(parse_omega(" pi / 4 ") - PI / 4) < 1e-15
    for bad in ("tau", "pi/0", "pi/3/4", "three"):
        with pytest.raises(ParameterError):
            parse_omega(bad)


def test_default_gamma_ladders():
    lows = _default_gammas("low")
    highs = _default_gammas("high")
    assert lows == [-(2.0 ** k) for k in range(9)]
    assert highs == [2.0 ** k for k in range(9)]


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen", "--omega", "pi/3", "--mode", "low", "--length", "256",
            "--seed", "7", "--n", "512"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert _read(a) == _read(b)
    header = _read(a).decode().splitlines()
    assert header[0] == "# format-version: 1"
    assert header[1] == "# command: gen"
    assert any(ln == "# seed=7" for ln in header)


def test_gen_noisy_signal(tmp_path):
    out = tmp_path / "noisy.csv"
    assert main(["gen", "--omega", "pi/2", "--nu", "0.05", "--length", "128",
                 "--seed", "3", "--n", "256", "--out", str(out)]) == EXIT_OK
    text = _read(out).decode()
    assert "# signal=noisy" in text
    assert "# nu=0.05" in text
    assert len(_data_lines(out)) == 1 + 128  # header row + samples


def test_predict_roundtrip_matches_internal_generation(tmp_path):
    sig = tmp_path / "x.csv"
    common = ["--omega", "pi/3", "--length", "512", "--seed", "9", "--n", "1024"]
    assert main(["gen", "--mode", "low", *common, "--out", str(sig)]) == EXIT_OK
    pred = ["predict", "--a", "2", "--omega", "pi/3", "--gamma", "-6",
            "--mode", "low", "--n", "1024", "--m", "128"]
    f1, f2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(pred + ["--input", str(sig), "--out", str(f1)]) == EXIT_OK
    assert main(pred + ["--length", "512", "--seed", "9", "--out", str(f2)]) == EXIT_OK
    assert _data_lines(f1) == _data_lines(f2)
    rows = _data_lines(f1)
    assert rows[0] == "abs_l2,abs_linf,rel_l2,rel_linf"
    cells = [float(c) for c in rows[1].split(",")]
    assert all(v > 0 for v in cells)
    assert cells[2] < 0.2  # rel_l2 is small in this feasible configuration


def test_readme_quick_start_prints_the_rel_l2_of_its_shell_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    shell = readme.split("```\nbandpredict ", 1)[1].split("```", 1)[0]
    exec(code, {})
    printed = float(capsys.readouterr().out)
    out = tmp_path / "o.csv"
    assert main([*shell.replace("\\\n", " ").split(), "--out", str(out)]) == EXIT_OK
    header, row = _data_lines(out)
    assert float(row.split(",")[header.split(",").index("rel_l2")]) == printed


def test_kernel_writes_grid_and_taps(tmp_path):
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6",
                 "--mode", "low", "--n", "512", "--m", "32",
                 "--out", str(out)]) == EXIT_OK
    taps = tmp_path / "kernel.taps.csv"
    assert taps.exists()
    text = _read(out).decode()
    for key in ("# alpha=", "# root_identity_residual=", "# tap_l1_tail=", "# engine="):
        assert key in text
    grid_rows = _data_lines(out)
    assert grid_rows[0] == "omega,k_re,k_im,v_re,v_im,khat_re,khat_im,psi"
    assert len(grid_rows) == 1 + 512
    tap_rows = _data_lines(taps)
    assert tap_rows[0] == "t,khat"
    assert len(tap_rows) == 1 + 32
    # khat column equals v*k row-wise
    first = [float(c) for c in grid_rows[1].split(",")]
    k = complex(first[1], first[2])
    v = complex(first[3], first[4])
    khat = complex(first[5], first[6])
    assert abs(v * k - khat) < 1e-12


def test_kernel_json_format(tmp_path):
    out = tmp_path / "kernel.json"
    assert main(["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6",
                 "--mode", "low", "--n", "512", "--m", "32",
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    doc = json.loads(_read(out))
    assert doc["format_version"] == "1"
    assert doc["command"] == "kernel"
    assert doc["config"]["n"] == 512
    assert len(doc["grid"]["rows"]) == 512
    assert len(doc["taps"]["rows"]) == 32


def test_sweep_gamma_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low",
                 "--gamma=-1,-4", "--n", "1024", "--m", "128",
                 "--length", "512", "--seed", "3", "--out", str(out)]) == EXIT_OK
    rows = _data_lines(out)
    assert rows[0] == "gamma,abs_l2,abs_linf,rel_l2,rel_linf"
    assert len(rows) == 3
    g1 = [float(c) for c in rows[1].split(",")]
    g2 = [float(c) for c in rows[2].split(",")]
    assert g1[0] == -1.0 and g2[0] == -4.0
    assert g2[3] < g1[3]


def test_sweep_noise_csv(tmp_path):
    out = tmp_path / "noise.csv"
    assert main(["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2",
                 "--nu", "0,0.01", "--n", "1024", "--m", "256",
                 "--out", str(out)]) == EXIT_OK
    rows = _data_lines(out)
    assert rows[0] == "nu,measured_linf,budget_i12,budget_nu_i3"
    assert len(rows) == 3
    text = _read(out).decode()
    for key in ("# kappa=", "# psi0=", "# gamma_eps=", "# i1=", "# i2="):
        assert key in text


def test_split_csv(tmp_path):
    out = tmp_path / "split.csv"
    assert main(["split", "--a", "2", "--omega", "pi/3", "--gamma-low", "-8",
                 "--gamma-high", "0.5", "--n", "2048", "--m", "256",
                 "--length", "2048", "--seed", "11", "--out", str(out)]) == EXIT_OK
    rows = _data_lines(out)
    assert rows[0] == "combined_rel_l2,low_rel_l2,high_rel_l2,low_energy,high_energy"
    cells = [float(c) for c in rows[1].split(",")]
    assert cells[0] <= cells[1] + cells[2] + 1e-10


def test_exit_code_parameter(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["kernel", "--a", "0.5", "--omega", "pi/3", "--gamma", "-1",
                 "--mode", "low", "--n", "512", "--m", "32", "--out", str(out)])
    assert code == EXIT_PARAMETER


def test_exit_code_causality_leak(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-8",
                 "--mode", "low", "--n", "64", "--m", "16", "--out", str(out)])
    assert code == EXIT_CAUSALITY_LEAK


def test_exit_code_saturation(tmp_path):
    out = tmp_path / "x.csv"
    code = main(["kernel", "--a", "2", "--omega", "0.99pi", "--gamma", "-8",
                 "--mode", "low", "--n", "512", "--m", "32", "--out", str(out)])
    assert code == EXIT_SATURATION


def test_exit_code_io():
    code = main(["gen", "--omega", "pi/3", "--length", "64", "--n", "128",
                 "--out", "/nonexistent-dir-for-sure/x.csv"])
    assert code == EXIT_IO


@pytest.mark.parametrize("argv", [
    ["gen", "--omega", "pi/3", "--length", "64"],
    ["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6", "--mode", "low", "--m", "64"],
])
def test_allocation_past_the_address_space_exits_other(tmp_path, capsys, argv):
    # n = 2**50 asks for arrays of 4-8 PiB, more than any 64-bit address space
    # holds, so numpy refuses them at once instead of allocating
    out = tmp_path / "o.csv"
    assert main([*argv, "--n", str(2**50), "--out", str(out)]) == EXIT_OTHER
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not out.exists()


def test_predict_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,wrong,header\n0,1,2\n")
    code = main(["predict", "--a", "2", "--omega", "pi/3", "--gamma", "-1",
                 "--mode", "low", "--n", "256", "--m", "16",
                 "--input", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER


PREDICT_ARGS = ["predict", "--a", "2", "--omega", "pi/3", "--gamma", "-1",
                "--mode", "low", "--n", "256", "--m", "16"]


@pytest.mark.parametrize("bad_row", ["1.5,0.25,0", "1,abc,0", "1,0.25,",
                                     "1,nan,0", "1,0.25,inf", "1,-inf,0", "1,1e400,0",
                                     "1,0.25", "1,0.25,0,0"])
def test_predict_input_parse_error_names_file_and_row(tmp_path, capsys, bad_row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# comment\nt,x_re,x_im\n0,0.5,0\n{bad_row}\n")
    code = main([*PREDICT_ARGS, "--input", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert str(bad) in err and "line 4" in err and "Traceback" not in err


def test_predict_input_with_a_gap_in_t_is_named(tmp_path, capsys):
    gap = tmp_path / "gap.csv"
    gap.write_text("t,x_re,x_im\n0,0.5,0\n2,0.25,0\n")
    code = main([*PREDICT_ARGS, "--input", str(gap), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    assert f"{gap} rows are not contiguous in t" in capsys.readouterr().err


def test_predict_without_signal_names_both_flags(tmp_path, capsys):
    code = main([*PREDICT_ARGS, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert "--input" in err and "--length" in err


@pytest.mark.parametrize("flag, value, named", [
    ("--gamma", "nan", "damping gamma"),
    ("--gamma", "-inf", "damping gamma"),
    ("--b", "nan", "zero parameter b"),
    ("--a", "inf", "pole parameter"),
])
def test_non_finite_parameters_are_named(tmp_path, capsys, flag, value, named):
    code = main([*PREDICT_ARGS, "--length", "128", f"{flag}={value}",
                 "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    assert f"{named} must be finite" in capsys.readouterr().err


def test_seventeen_digit_cells_roundtrip(tmp_path):
    out = tmp_path / "gen.csv"
    assert main(["gen", "--omega", "pi/3", "--mode", "low", "--length", "64",
                 "--seed", "1", "--n", "128", "--out", str(out)]) == EXIT_OK
    from artifact import BandSignalSpec, gen_band_signal
    x = gen_band_signal(BandSignalSpec(omega=parse_omega("pi/3"), mode="low",
                                       length=64, seed=1), 128)
    rows = _data_lines(out)[1:]
    parsed = np.array([float(r.split(",")[1]) for r in rows])
    assert np.array_equal(parsed, x.values.real)


@pytest.mark.parametrize("argv, flag", [
    (["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=",
      "--n", "1024", "--m", "128", "--length", "512"], "--gamma"),
    (["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--nu", ",",
      "--n", "1024", "--m", "256"], "--nu"),
])
def test_empty_lists_are_refused(tmp_path, capsys, argv, flag):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == EXIT_PARAMETER
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


# one run of each command that draws a signal
SIGNAL_ARGVS = [
    ["gen", "--omega", "pi/3", "--length", "64", "--n", "128"],
    ["gen", "--omega", "pi/3", "--nu", "0.1", "--length", "64", "--n", "128"],
    [*PREDICT_ARGS, "--length", "128"],
    ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=-1",
     "--n", "1024", "--m", "128", "--length", "512"],
    ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--nu", "0",
     "--n", "1024", "--m", "256"],
    ["split", "--a", "2", "--omega", "pi/3", "--gamma-low", "-8", "--gamma-high", "0.5",
     "--n", "2048", "--m", "256", "--length", "2048"],
]

KERNEL_RUN = ["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6", "--mode", "low",
              "--n", "1024", "--m", "64"]


@pytest.mark.parametrize("argv", SIGNAL_ARGVS)
def test_negative_seed_is_named(tmp_path, capsys, argv):
    code = main([*argv, "--seed", "-1", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("omega", ["0", "3.2"])
@pytest.mark.parametrize("argv", [KERNEL_RUN, *SIGNAL_ARGVS])
def test_every_command_states_the_band_edge_rule_alike(tmp_path, capsys, argv, omega):
    out = tmp_path / "o.csv"
    assert main([*argv, "--omega", omega, "--out", str(out)]) == EXIT_PARAMETER
    assert capsys.readouterr().err == (
        f"error: band edge must lie strictly inside (0, pi), got {float(omega)}\n")
    assert not out.exists()


def test_unparsable_list_is_refused(tmp_path, capsys):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=a,b",
              "--n", "1024", "--m", "128", "--length", "512", "--out", str(out)])
    assert exc.value.code == EXIT_PARAMETER
    assert "argument --gamma: cannot parse list 'a,b'" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_csv_without_a_suffix_writes_its_taps_beside_it(tmp_path):
    assert main([*KERNEL_RUN, "--out", str(tmp_path / "out")]) == EXIT_OK
    taps = _read(tmp_path / "out.taps").decode().splitlines()
    assert "# command: kernel-taps" in taps and "t,khat" in taps
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.taps"]


def test_exit_codes_live_on_the_error_classes():
    assert (EXIT_OTHER, EXIT_PARAMETER, EXIT_INSUFFICIENT_DATA) == (1, 2, 3)
    assert (EXIT_CAUSALITY_LEAK, EXIT_IO, EXIT_SATURATION) == (4, 5, 6)
    assert PredictionError.exit_code == InternalConsistencyError.exit_code == EXIT_OTHER
    assert ParameterError.exit_code == GridSizeError.exit_code == EXIT_PARAMETER
    assert InsufficientDataError.exit_code == EXIT_INSUFFICIENT_DATA
    assert CausalityLeakError.exit_code == EXIT_CAUSALITY_LEAK
    assert SaturationError.exit_code == EXIT_SATURATION


def test_predict_non_utf8_input_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfet,x_re,x_im\n0,0.5,0\n")
    code = main([*PREDICT_ARGS, "--input", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert f"{bad} is not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["predict", "--a", "2", "--omega", "pi/3", "--gamma", "-6", "--mode", "low",
     "--n", "1024", "--m", "128", "--input", "SHORT"],
    ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=-1",
     "--n", "1024", "--m", "128", "--length", "140"],
    ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--nu", "0",
     "--n", "1024", "--m", "128", "--length", "140"],
    ["split", "--a", "2", "--omega", "pi/3", "--gamma-low", "-8", "--gamma-high", "0.5",
     "--n", "1024", "--m", "128", "--length", "140"],
])
def test_short_signal_exits_insufficient_data(tmp_path, capsys, argv):
    short = tmp_path / "short.csv"
    short.write_text("t,x_re,x_im\n" + "".join(f"{t},{math.sin(t)},0\n" for t in range(140)))
    argv = [str(short) if a == "SHORT" else a for a in argv]
    out = tmp_path / "o.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_INSUFFICIENT_DATA
    assert "length 140 is too short: m=128" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_noise_tiny_eps_is_a_parameter_error(tmp_path, capsys):
    code = main(["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "4e-16",
                 "--n", "256", "--m", "32", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    assert "eps=4e-16 is too small for double precision" in capsys.readouterr().err


def test_usage_keeps_the_list_metavars(capsys):
    for argv in (["sweep-gamma", "--help"], ["sweep-noise", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
    out = capsys.readouterr().out
    assert "[--gamma GAMMA]" in out and "[--nu NU]" in out


def test_header_echoes_flags_in_declaration_order(tmp_path):
    argv = ["sweep-gamma", "--length", "512", "--gamma=-1,-4", "--m", "128", "--n", "1024",
            "--mode", "low", "--omega", "pi/3", "--a", "2"]
    expected = {"a": "2", "b": "", "omega": format(PI / 3, ".17g"), "mode": "low",
                "gammas": "-1,-4", "n": 1024, "m": 128, "length": 512, "seed": 0,
                "normalization": "unit_l2", "engine": "numpy"}
    csv, js = tmp_path / "o.csv", tmp_path / "o.json"
    assert main([*argv, "--out", str(csv)]) == EXIT_OK
    assert main([*argv, "--format", "json", "--out", str(js)]) == EXIT_OK
    header = [ln[2:] for ln in _read(csv).decode().splitlines()[2:] if ln.startswith("# ")]
    assert header == [f"{key}={value}" for key, value in expected.items()]
    assert json.loads(_read(js))["config"] == expected


def test_sweep_noise_evaluates_the_budget_once(tmp_path, monkeypatch):
    import artifact.analysis
    import artifact.cli

    budget = artifact.analysis.budget
    calls = []

    def counting_budget(*args, **kwargs):
        calls.append(args)
        return budget(*args, **kwargs)

    monkeypatch.setattr(artifact.analysis, "budget", counting_budget)
    monkeypatch.setattr(artifact.cli, "budget", counting_budget)
    out = tmp_path / "o.csv"
    assert main(["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2",
                 "--nu", "0,0.01", "--n", "1024", "--m", "256", "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1
    header = dict(ln[2:].split("=", 1) for ln in _read(out).decode().splitlines()
                  if ln.startswith("# ") and "=" in ln)
    b = budget(2.0, PI / 2, 0.2, 0.0, 1024)
    assert header["gamma_eps"] == format(b.gamma_eps, ".17g")
    assert header["i1"] == format(b.i1, ".17g")


KERNEL_ARGS = ["kernel", "--omega", "pi/3", "--mode", "low", "--n", "1024", "--m", "64"]


@pytest.mark.parametrize("argv, flag, value", [
    ([*KERNEL_ARGS, "--a", "2"], "--gamma", "-1e-3"),
    ([*KERNEL_ARGS, "--gamma", "-6"], "--a", "-2e0"),
    ([*KERNEL_ARGS, "--a", "2"], "--gamma", "-.5"),
    (["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--n", "1024",
      "--m", "128", "--length", "512"], "--gamma", "-1,-4"),
])
def test_negative_values_in_separated_form(tmp_path, argv, flag, value):
    # argparse's own pattern takes -1e-3, -2e0 and -1,-4 for flags
    separated, equals = tmp_path / "s.csv", tmp_path / "e.csv"
    assert main([*argv, flag, value, "--out", str(separated)]) == EXIT_OK
    assert main([*argv, f"{flag}={value}", "--out", str(equals)]) == EXIT_OK
    assert _read(separated) == _read(equals)


def test_negative_infinity_reaches_the_gamma_check(tmp_path, capsys):
    code = main([*KERNEL_ARGS, "--a", "2", "--gamma", "-inf", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_PARAMETER
    assert "damping gamma must be finite, got gamma=-inf" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [*KERNEL_ARGS, "--a", "2", "--b", "0.5", "--gamma", "-6"],
    ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--nu", "0,0.01",
     "--n", "1024", "--m", "256"],
])
def test_one_k_evaluation_per_job(tmp_path, monkeypatch, argv):
    import sys

    import artifact.kernels

    k_transfer = artifact.kernels.k_transfer
    calls = []

    def counting_k_transfer(*args, **kwargs):
        calls.append(args)
        return k_transfer(*args, **kwargs)

    # every module that binds the name, as a tracer would hook it
    for name, module in list(sys.modules.items()):
        if name.startswith("artifact") and getattr(module, "k_transfer", None) is k_transfer:
            monkeypatch.setattr(module, "k_transfer", counting_k_transfer)
    assert main([*argv, "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("gamma", ["-6", "-5.5"])
def test_one_damping_exp_per_kernel_job(tmp_path, monkeypatch, gamma):
    # the dump's V and the V the taps are built from share one complex exp
    # on the n/2+1 = 513 half-spectrum bins
    from artifact.spectral import unit_circle_half

    unit_circle_half(1024)  # the cached exp(i*omega), built before counting
    exp = np.exp
    sizes = []

    def counting_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    assert main([*KERNEL_ARGS, "--a", "2", "--gamma", gamma,
                 "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    assert sizes.count(513) == 1


# a fine-grid sweep: each job allocates and frees about 6 MB of n = 65536 arrays
_FAULT_PROBE = """
import resource, sys
from artifact.cli import main
argv = ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low",
        "--gamma=-1,-2,-4,-8,-16,-32,-64,-128,-256", "--n", "65536", "--m", "128",
        "--length", "1024", "--seed", "5", "--out", sys.argv[1]]
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy sets glibc's mallopt parameters; other C "
                           "libraries keep their own trimming behaviour")
def test_repeated_job_keeps_its_heap_resident(tmp_path):
    # without the policy glibc returned the freed arrays to the kernel and the
    # second job faulted about 1,570 pages back in
    import artifact

    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(tmp_path / "o.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert second < 200, (first, second)


def test_jobs_sharing_the_parser_leave_no_state(tmp_path, capsys):
    # sweep-noise's default --nu list is one object shared by every parse, and
    # sweep-gamma without --gamma assigns its default ladder to the namespace
    noise = ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--n", "1024",
             "--m", "256"]
    gamma = ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--n", "1024",
             "--m", "128", "--length", "512"]

    def outputs(tag):
        paths = (tmp_path / f"noise{tag}.csv", tmp_path / f"gamma{tag}.csv")
        for argv, path in zip((noise, gamma), paths):
            assert main([*argv, "--out", str(path)]) == EXIT_OK
        return [_read(path) for path in paths]

    first = outputs(1)
    assert main([*noise, "--nu=0.5", "--out", str(tmp_path / "other.csv")]) == EXIT_OK
    assert main([*gamma, "--gamma=-3", "--out", str(tmp_path / "other.csv")]) == EXIT_OK
    for argv in ([*noise, "--bogus", "1"], ["sweep-gamma", "-h"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert outputs(2) == first
