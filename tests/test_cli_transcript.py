"""Golden CLI transcript: stdout, stderr and exit code of every subcommand, plus the parser's options.

The expected text is `cli_transcript.txt` next to this file.  It was recorded
before the CLI front end was consolidated, so any change to what a user sees
shows up here as a diff.  To record it again after a deliberate change:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

from regpow.cli import build_parser, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_transcript.txt")

FAMILIES = [
    ["--family", "one_dim", "--d", "2", "--c", "3,1"],
    ["--family", "dim1", "--d", "1", "--c", "4,2,1"],
    ["--family", "dim1b", "--d", "2", "--c", "4,2,1"],
    ["--family", "ubiquity3", "--d", "3", "--e", "9,5,2,2"],
    ["--family", "ehl", "--r", "2"],
    ["--family", "cycle", "--t", "2"],
    ["--family", "m2_reg"],
    ["--family", "m2_sdeg"],
]
SPECS = {
    "one_dim.spec": "ring x y\nquot x*y^2 x^3\nideal y^2\n",
    "mixed.spec": "ring x y z\nquot z^3\nideal x^2 x*y*z y^3\n",
}
FLAGS = ("reg", "regquot", "regdiff", "sdeg", "gendeg")
FORMATS = (["--format", "csv"], ["--format", "json"])


def _commands():
    for family in FAMILIES:
        yield ["construct", *family]
    for name in SPECS:
        for flag in FLAGS:
            for fmt in FORMATS:
                yield ["compute", "--input", name, "--fn", flag, "--from", "2", "--to", "4", *fmt]
                yield ["defects", "--input", name, "--fn", flag, "--to", "3", *fmt]
    yield ["verify", "--family", "one_dim", "--d", "2", "--c", "3,1", "--to", "4"]
    yield ["verify", "--family", "dim1b", "--d", "2", "--c", "4,3,1", "--to", "3"]
    yield ["verify", "--family", "ehl", "--r", "2", "--fn", "sdeg", "--from", "2", "--to", "4"]
    yield ["verify", "--family", "ubiquity3", "--d", "3", "--e", "9,5,2,2", "--fn", "reg", "--to", "3"]
    for module in ("power", "quotient", "diff"):
        for fmt in FORMATS:
            yield ["betti", "--input", "one_dim.spec", "--module", module, "--power", "2", *fmt]
    # error paths: exit codes and their messages
    yield ["verify", "--family", "m2_reg", "--to", "2"]
    yield ["verify", "--family", "one_dim", "--d", "2", "--c", "3,,1", "--to", "2"]
    yield ["verify", "--family", "ehl", "--r", "2", "--fn", "reg", "--to", "2"]
    yield ["construct", "--family", "dim1", "--d", "1", "--c", "2,2"]
    yield ["compute", "--input", "one_dim.spec", "--fn", "reg", "--from", "3", "--to", "2"]
    yield ["defects", "--input", "one_dim.spec", "--fn", "sdeg", "--to", "0"]
    yield ["compute", "--input", "missing.spec", "--fn", "reg", "--to", "1"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _actions(parser):
    rows = []
    for action in parser._actions:
        choices = None if action.choices is None else list(action.choices)
        kind = getattr(action.type, "__name__", None)
        rows.append([action.option_strings, action.dest, action.default, action.required, choices, kind])
    return rows


def transcript() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SPECS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in _commands():
                code, out, err = _run(argv)
                lines.append("$ regpow " + " ".join(argv))
                lines.append(f"exit {code}")
                lines.extend(out.splitlines())
                lines.extend("stderr: " + line for line in err.splitlines())
        finally:
            os.chdir(cwd)
    parser = build_parser()
    lines.append("# parser regpow")
    lines.extend(json.dumps(row) for row in _actions(parser))
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    help_by_name = {a.dest: a.help for a in sub._choices_actions}
    for name, subparser in sub.choices.items():
        lines.append(f"# parser regpow {name}")
        lines.append(json.dumps([name, help_by_name[name]]))
        lines.extend(json.dumps(row) for row in _actions(subparser))
    return "\n".join(lines) + "\n"


def test_cli_transcript_is_unchanged(monkeypatch):
    monkeypatch.delenv("REGPOW_CACHE", raising=False)
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read()
    assert transcript() == expected


if __name__ == "__main__":
    os.environ.pop("REGPOW_CACHE", None)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(transcript())
    sys.exit(0)
