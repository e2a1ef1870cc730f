"""CLI end-to-end: subcommands, output formats, caching, exit codes."""
import io
import json
import os
import subprocess
import sys

import pytest

from regpow.cli import EXIT_HYPOTHESIS, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE, main

ONE_DIM_SPEC = "ring x y\nquot x*y^2 x^3\nideal y^2\n"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "one_dim.spec"
    path.write_text(ONE_DIM_SPEC)
    return str(path)


def test_compute_csv(spec_file):
    code, out = run_cli(
        ["compute", "--input", spec_file, "--fn", "regdiff", "--from", "1", "--to", "4"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,defect"
    assert lines[1:] == ["1,3,2", "2,3,0", "3,5,0", "4,7,0"]


def test_compute_json_schema(spec_file):
    code, out = run_cli(
        [
            "compute",
            "--input", spec_file,
            "--fn", "regdiff",
            "--from", "1",
            "--to", "3",
            "--format", "json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"function", "slope", "values", "stable_suffix_length"}
    assert payload["function"] == "reg_diff"
    assert payload["slope"] == 2
    assert payload["values"] == [
        {"n": 1, "value": 3, "defect": 2},
        {"n": 2, "value": 3, "defect": 0},
        {"n": 3, "value": 5, "defect": 0},
    ]


def test_json_and_csv_agree_on_values(spec_file):
    base = ["compute", "--input", spec_file, "--fn", "reg", "--from", "1", "--to", "4"]
    _, csv_out = run_cli(base)
    _, json_out = run_cli(base + ["--format", "json"])
    csv_pairs = sorted(
        (int(row.split(",")[0]), row.split(",")[1])
        for row in csv_out.strip().splitlines()[1:]
    )
    payload = json.loads(json_out)
    json_pairs = sorted((v["n"], str(v["value"])) for v in payload["values"])
    assert csv_pairs == json_pairs


def test_bottom_value_encoding(tmp_path):
    path = tmp_path / "principal.spec"
    path.write_text("ring x y\nideal x\n")
    code, out = run_cli(
        ["compute", "--input", str(path), "--fn", "sdeg", "--from", "1", "--to", "2"]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1:] == ["1,-inf,", "2,-inf,"]
    _, json_out = run_cli(
        [
            "compute", "--input", str(path),
            "--fn", "sdeg", "--from", "1", "--to", "1",
            "--format", "json",
        ]
    )
    payload = json.loads(json_out)
    assert payload["values"][0] == {"n": 1, "value": "-inf", "defect": None}


def test_defects_subcommand_starts_at_one(spec_file):
    code, out = run_cli(["defects", "--input", spec_file, "--fn", "regquot", "--to", "3"])
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]


def test_cache_on_off_byte_identical(spec_file, tmp_path, monkeypatch):
    argv = ["compute", "--input", spec_file, "--fn", "reg", "--from", "1", "--to", "3"]
    monkeypatch.delenv("REGPOW_CACHE", raising=False)
    _, plain = run_cli(argv)
    cache = tmp_path / "cache.json"
    monkeypatch.setenv("REGPOW_CACHE", str(cache))
    _, cold = run_cli(argv)
    _, warm = run_cli(argv)
    assert plain == cold == warm


def test_top_level_help_documents_the_cache_and_its_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert "REGPOW_CACHE=path enables an on-disk cache" in text and "byte for byte" in text
    assert "no lock" in text and "lose each other's records" in text


def test_construct_round_trips_through_compute(tmp_path):
    out_path = tmp_path / "built.spec"
    code, _ = run_cli(
        ["construct", "--family", "one_dim", "--d", "2", "--c", "3,1", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    assert out_path.read_text() == ONE_DIM_SPEC
    code, out = run_cli(
        ["compute", "--input", str(out_path), "--fn", "reg", "--from", "1", "--to", "2"]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1:] == ["1,2,0", "2,4,0"]


def test_construct_to_stdout():
    code, out = run_cli(["construct", "--family", "ehl", "--r", "2"])
    assert code == EXIT_OK
    assert out.startswith("ring x0 x1 x2\n")


def test_verify_exit_zero_and_rows():
    code, out = run_cli(
        ["verify", "--family", "ehl", "--r", "2", "--from", "1", "--to", "4", "--fn", "sdeg"]
    )
    assert code == EXIT_OK
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert all(row.endswith(",ok") for row in rows)


def test_verify_without_fn_runs_all_closed_forms():
    code, out = run_cli(
        ["verify", "--family", "one_dim", "--d", "2", "--c", "3,1", "--from", "1", "--to", "3"]
    )
    assert code == EXIT_OK
    functions = {row.split(",")[0] for row in out.strip().splitlines()}
    assert functions == {"reg_power", "reg_quotient", "reg_diff"}


def test_verify_mismatch_exit_code(monkeypatch):
    import regpow.cli as cli
    from regpow.families import VerifyReport, VerifyRow

    def fake_verify(spec, fn, n_from, n_to):
        return VerifyReport(spec.family, fn, [VerifyRow(1, 5, 6)])

    monkeypatch.setattr(cli, "verify", fake_verify)
    code, out = run_cli(
        ["verify", "--family", "ehl", "--r", "2", "--from", "1", "--to", "2", "--fn", "sdeg"]
    )
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out


def test_verify_family_without_closed_forms_is_an_input_error():
    code, _ = run_cli(
        ["verify", "--family", "m2_reg", "--from", "1", "--to", "2"]
    )
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "one_dim", "--d", "2", "--c", "3,,1", "--to", "2"],
        ["construct", "--family", "ubiquity3", "--d", "3", "--e", "9,x"],
        ["construct", "--family", "one_dim", "--d", "2", "--c", "3,\u0663"],
    ],
    ids=["empty item", "non-digit item", "non-ascii digit"],
)
def test_malformed_family_list_is_an_input_error(argv, capsys):
    code, out = run_cli(argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_parameter_the_family_does_not_take_is_an_input_error(capsys):
    code, out = run_cli(["construct", "--family", "ehl", "--r", "2", "--d", "5", "--c", "1,2"])
    assert code == EXIT_PARSE
    assert out == ""
    assert capsys.readouterr().err == "error: family 'ehl' does not take parameter d\n"


def test_betti_subcommand_csv(tmp_path):
    path = tmp_path / "mx.spec"
    path.write_text("ring x y\nideal x y\n")
    code, out = run_cli(
        ["betti", "--input", str(path), "--module", "quotient", "--power", "1"]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines() == ["i,j,betti", "0,0,1", "1,1,2", "2,2,1"]


def test_betti_subcommand_json(tmp_path):
    path = tmp_path / "mx.spec"
    path.write_text("ring x y\nideal x y\n")
    code, out = run_cli(
        ["betti", "--input", str(path), "--module", "quotient", "--power", "1",
         "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["entries"] == [
        {"i": 0, "j": 0, "value": 1},
        {"i": 1, "j": 1, "value": 2},
        {"i": 2, "j": 2, "value": 1},
    ]
    assert payload["search_bound"] >= 3


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("ring x y\nideal z\n")
    code, _ = run_cli(
        ["compute", "--input", str(path), "--fn", "reg", "--from", "1", "--to", "1"]
    )
    assert code == EXIT_PARSE


def test_non_ascii_exponent_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "superscript.spec"
    path.write_text("ring x y\nideal x^² y\n", encoding="utf-8")
    code, out = run_cli(
        ["compute", "--input", str(path), "--fn", "reg", "--from", "1", "--to", "1"]
    )
    assert code == EXIT_PARSE
    assert out == ""
    assert "parse error" in capsys.readouterr().err


def test_non_utf8_spec_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.spec"
    path.write_bytes(b"\xff\xfering x\nideal x\n")
    code, out = run_cli(["compute", "--input", str(path), "--fn", "reg", "--to", "1"])
    assert code == EXIT_PARSE
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_spec_file_with_a_byte_order_mark_is_read(tmp_path, spec_file):
    path = tmp_path / "bom.spec"
    path.write_bytes(b"\xef\xbb\xbf" + ONE_DIM_SPEC.encode("utf-8"))
    argv = ["compute", "--fn", "regdiff", "--from", "1", "--to", "4", "--input"]
    code, out = run_cli(argv + [str(path)])
    assert code == EXIT_OK
    assert out == run_cli(argv + [spec_file])[1]


def test_missing_file_exit_code(tmp_path):
    code, _ = run_cli(
        ["compute", "--input", str(tmp_path / "nope.spec"), "--fn", "reg",
         "--from", "1", "--to", "1"]
    )
    assert code == EXIT_PARSE


def test_standing_hypothesis_exit_code(tmp_path):
    path = tmp_path / "zero.spec"
    path.write_text("ring x\nquot x\nideal x^2\n")
    code, _ = run_cli(
        ["compute", "--input", str(path), "--fn", "reg", "--from", "1", "--to", "1"]
    )
    assert code == EXIT_HYPOTHESIS


def test_vanishing_power_hypothesis_exit_code(tmp_path):
    path = tmp_path / "nilpotent.spec"
    path.write_text("ring x y\nquot x^2\nideal x\n")
    code, _ = run_cli(
        ["compute", "--input", str(path), "--fn", "reg", "--from", "1", "--to", "3"]
    )
    assert code == EXIT_HYPOTHESIS


def test_output_and_hashes_do_not_depend_on_the_hash_seed(tmp_path):
    """stdout and ideal hashes are the same in processes with different PYTHONHASHSEED."""
    spec = str(tmp_path / "m2_reg.spec")
    assert run_cli(["construct", "--family", "m2_reg", "--out", spec])[0] == EXIT_OK
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = [
        ["-m", "regpow.cli", "compute", "--input", spec, "--fn", "sdeg", "--to", "4", "--format", "json"],
        ["-m", "regpow.cli", "betti", "--input", spec, "--module", "diff", "--power", "2", "--format", "json"],
        ["-c", "from regpow import FamilySpec, build; X = build(FamilySpec('m2_reg')); "
               "print(hash(X.total), hash(X.ring), hash(X.module_of('diff', 2)), hash(X))"],
    ]
    outputs = {}
    for seed in ("0", "1"):
        env = {k: v for k, v in os.environ.items() if k != "REGPOW_CACHE"}
        env.update(PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs[seed] = [
            subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True).stdout
            for args in runs
        ]
    assert outputs["0"] == outputs["1"]
    assert all(out.strip() for out in outputs["0"])
