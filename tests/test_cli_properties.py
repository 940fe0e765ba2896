"""Property test of the command line: random argv and --input bytes.

Every argv is drawn from the flag table, so a flag added there is fuzzed
without touching this file.  Most values are drawn from a small set of sane
ones, so that many runs get past validation; the rest are wild (nan, +-inf,
zeros, any float, out-of-range integers, broken files).  Whatever the draw,
main() either returns a documented exit code or argparse exits with 2,
nothing else escapes, and no output carries a traceback.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.cli import COMMANDS, FLAGS, main

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0]
WILD_FLOAT = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3)).map(repr)

# sane values by flag name, drawn four times in five; n, m and length follow n
SANE = {
    "a": ["2", "-2", "1.5", "3"],
    "b": ["0.5", "-0.3"],
    "omega": ["pi/3", "pi/2", "2pi/5", "1"],
    "gamma": ["-6", "-1", "0"],
    "gamma_low": ["-8", "-2"],
    "gamma_high": ["0.5", "2"],
    "gammas": ["-1,-4", "1,2", "-2"],
    "eps": ["0.2", "0.3", "0.5"],
    "nu": ["0", "0.05", "0.1"],
    "nus": ["0,0.01", "0.1"],
    "seed": ["0", "7", "123"],
}
WILD = {
    "omega": st.one_of(st.sampled_from(["0.99pi", "pi", "tau", "pi/0", "pi/3/4"]), WILD_FLOAT),
    "gammas": st.lists(WILD_FLOAT, max_size=3).map(",".join),
    "nus": st.lists(WILD_FLOAT, max_size=3).map(",".join),
    "seed": st.integers(-2, 2 ** 70).map(str),
}


def _series_bytes():
    """A time-series file, sometimes broken: bad header, bad cells, spliced-in bytes."""
    cell = st.one_of(st.floats(-1.0, 1.0).map(repr), WILD_FLOAT, st.sampled_from(["x", ""]))
    good = st.builds(
        lambda header, start, rows: (header + "".join(
            f"{start + t},{re},{im}\n" for t, (re, im) in enumerate(rows))).encode(),
        st.sampled_from(["t,x_re,x_im\n", "# comment\nt,x_re,x_im\n", "t,x\n", ""]),
        st.integers(-10 ** 6, 10 ** 6),
        st.lists(st.tuples(cell, st.sampled_from(["0", "0.0", "nan"])), max_size=1500))
    spliced = st.builds(lambda body, junk, at: body[:at] + junk + body[at:],
                        good, st.binary(min_size=1, max_size=4), st.integers(0, 40))
    return st.one_of(good, spliced, st.binary(max_size=64))


def _value(draw, name: str, n: int) -> str:
    wild = draw(st.integers(0, 4)) == 0
    if name == "n":
        return str(n)
    if name in ("m", "length"):
        lo, hi = (n // 16, n // 4) if name == "m" else (n // 2, n)
        return str(draw(st.integers(-1, n) if wild else st.integers(max(lo, 1), max(hi, 1))))
    if wild or name not in SANE:
        return draw(WILD.get(name, WILD_FLOAT))
    return draw(st.sampled_from(SANE[name]))


@st.composite
def argvs(draw):
    """(argv, bytes of the --input file or None) for one random command."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    n = 2 ** draw(st.sampled_from([0, 3, 6, 8, 9, 10, 11, 12]))
    argv, data = [command], None
    for flag in COMMANDS[command][2]:
        name = flag.rstrip("!")
        if not flag.endswith("!") and draw(st.booleans()):
            continue
        spec = FLAGS[name]
        if "choices" in spec:
            value = draw(st.sampled_from(spec["choices"]))
        elif name == "input":
            value, data = "INPUT", draw(_series_bytes())
        else:
            value = _value(draw, name, n)
        argv.append(f"{spec.get('flag', '--' + name.replace('_', '-'))}={value}")
    return argv, data


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(argvs(), st.sampled_from(["csv", "json"]))
def test_main_never_escapes(case, fmt):
    argv, data = case
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            Path(tmp, "INPUT").write_bytes(data)
            argv = [arg.replace("=INPUT", f"={tmp}/INPUT") for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--format", fmt, "--out", f"{tmp}/out.{fmt}"])
            except SystemExit as exc:
                assert exc.code == 2, (argv, err.getvalue())
                code = exc.code
    assert code in range(7), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
