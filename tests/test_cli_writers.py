"""The bulk table writers and the per-command parser against plain references.

The CSV and JSON writers format whole tables at once; the references below
format cell by cell (`format(v, ".17g")`, `str(t)`) and let `json.dumps`
lay out the whole document with indent=2.  The parser is built once per
process and shared by every call of `main`; the reference parser is built
afresh for each parse.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.cli import (COMMANDS, FLAGS, FORMAT_VERSION, _csv_document, _json_document,
                          build_parser, main)

DBL_MAX = sys.float_info.max
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-310, DBL_MAX, -DBL_MAX, math.nextafter(DBL_MAX, 0.0), 1.0, 0.1, -1 / 3]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
INTS = st.integers(-2 ** 63, 2 ** 63)
CONFIG = st.lists(st.tuples(st.sampled_from(["a", "b", "n", "seed", "alpha", "engine"]),
                            st.one_of(st.text().filter(lambda s: "\0" not in s), INTS)),
                  max_size=4)


@st.composite
def tables(draw):
    """(columns, rows): 0..4 rows of 1..4 columns, the first optionally an integer t."""
    with_t = draw(st.booleans())
    floats = draw(st.integers(0 if with_t else 1, 3))
    columns = (["t"] if with_t else []) + [f"c{j}" for j in range(floats)]
    row = st.tuples(*([INTS] if with_t else []), *([FLOATS] * floats))
    return columns, draw(st.lists(row, max_size=4))


def _cell(v) -> str:
    return str(v) if isinstance(v, int) else format(v, ".17g")


def _reference_csv(command, config, columns, rows):
    return ([f"# format-version: {FORMAT_VERSION}", f"# command: {command}"]
            + [f"# {key}={value}" for key, value in config] + [",".join(columns)]
            + [",".join(_cell(v) for v in row) for row in rows])


def _reference_json(command, config, tables):
    doc = {"format_version": FORMAT_VERSION, "command": command, "config": dict(config)}
    for key, (columns, rows) in tables.items():
        table = {"columns": columns, "rows": [list(row) for row in rows]}
        if key is None:
            doc.update(table)
        else:
            doc[key] = table
    return json.dumps(doc, sort_keys=True, indent=2)


EDGES = (["t", "x"], [(t, v) for t, v in enumerate(EDGE_FLOATS, start=-3)])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(config=CONFIG, table=tables(), taps=tables())
@example(config=[], table=EDGES, taps=(["t", "khat"], []))
@example(config=[("n", 8)], table=(["c0"], [(0.5,)]), taps=(["t"], [(2 ** 63,)]))
def test_bulk_writers_match_cell_by_cell_references(config, table, taps):
    for columns, rows in (table, taps):
        assert (_csv_document("sweep", config, columns, rows)
                == _reference_csv("sweep", config, columns, rows))
    top = {None: table}
    assert _json_document("sweep", config, top) == [_reference_json("sweep", config, top)]
    nested = {"grid": table, "taps": taps}
    assert _json_document("kernel", config, nested) == [_reference_json("kernel", config, nested)]


# ------------------------------------------------------------------ parser

def _reference_parser() -> argparse.ArgumentParser:
    """A parser that declares every command's flags up front."""
    parser = argparse.ArgumentParser(prog="bandpredict", description=build_parser().description)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flag in (*flags, "out!", "format"):
            name = flag.rstrip("!")
            kwargs = dict(FLAGS[name])
            option = kwargs.pop("flag", "--" + name.replace("_", "-"))
            sub.add_argument(option, dest=name, required=flag.endswith("!"), **kwargs)
        sub.set_defaults(handler=handler, flags=tuple(flag.rstrip("!") for flag in flags))
    return parser


KERNEL = ["kernel", "--a", "2", "--omega", "pi/3", "--gamma", "-6", "--mode", "low",
          "--n", "1024", "--m", "64", "--out", "o.csv"]
USAGE_CASES = (
    [["-h"], [], ["nosuch"], [*KERNEL, "--bogus", "1"],
     ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "low", "--gamma=", "--n", "1024",
      "--m", "128", "--length", "512", "--out", "o.csv"]]
    + [[command, "-h"] for command in COMMANDS]
    + [[command] for command in COMMANDS]
)


def _exit(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_text_matches_a_fully_declared_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _exit(lambda: _reference_parser().parse_args(argv), capsys)
    assert _exit(lambda: main(argv), capsys) == expected


@pytest.mark.parametrize("argv", [
    KERNEL,
    ["gen", "--omega", "pi/2", "--nu", "0.1", "--length", "512", "--n", "1024", "--out", "o"],
    ["predict", *KERNEL[1:-2], "--input", "x.csv", "--out", "o"],
    ["sweep-gamma", "--a", "2", "--omega", "pi/3", "--mode", "high", "--n", "64", "--m", "8",
     "--length", "64", "--out", "o"],
    ["sweep-noise", "--a", "2", "--omega", "pi/2", "--eps", "0.2", "--nu=0,0.1", "--n", "64",
     "--m", "8", "--format", "json", "--out", "o"],
    ["split", "--a", "2", "--omega", "1", "--gamma-low", "-8", "--gamma-high", "0.5",
     "--n", "64", "--m", "8", "--length", "64", "--out", "o"],
], ids=lambda argv: argv[0])
def test_parsed_flags_match_a_fully_declared_parser(argv):
    assert vars(build_parser().parse_args(argv)) == vars(_reference_parser().parse_args(argv))


def test_a_second_call_declares_no_arguments(tmp_path, monkeypatch):
    out = str(tmp_path / "o.csv")
    assert main([*KERNEL[:-1], out]) == 0
    declared = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        declared.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    assert main([*KERNEL[:-1], out]) == 0
    assert declared == []


_IMPORT_PROBE = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import artifact.cli
print(len(built))
"""


def test_importing_the_cli_builds_no_parser():
    import artifact

    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
