import json

import pytest

from weildec import analysis, decompose
from weildec.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def test_gauss_json(capsys):
    assert main(["gauss", "1", "0", "5", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["level"] == 5
    assert doc["norm_sq"] == "5/1"


def test_gauss_has_no_level_option(capsys):
    # the positional level is the only level: --level is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["gauss", "1", "0", "5", "--level", "7"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --level 7" in capsys.readouterr().err


def test_decompose_reports_factors(capsys):
    assert main(["decompose", "--level", "9", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["factors"]) == 3


def test_charsum(capsys):
    assert main(["charsum", "--level", "4", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["match"] is True


def test_census(capsys):
    assert main(["census", "--n", "2", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) > 1


def test_census_n7(capsys):
    assert main(["census", "--n", "7"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) > 1
    assert all(line.endswith(",yes") for line in lines[1:])


def test_orbits(capsys):
    assert main(["orbits", "--level", "6"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta,size"
    assert len(lines) == 5


def test_semiclassical_csv(capsys):
    assert main(["semiclassical", "--level", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("level")


def test_verify_suite_ok(capsys):
    assert main(["verify", "crt", "--max-level", "6"]) == EXIT_OK


def test_verify_faithful_respects_max_level(capsys):
    assert main(["verify", "faithful", "--max-level", "5"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "PASS faithful level=3", "PASS faithful level=5"]


@pytest.mark.parametrize("argv,lines", [
    (["tower", "--max-level", "3"], ["PASS tower 2^1", "PASS tower 3^0"]),
    (["census", "--n", "6"], [f"PASS census n={n}" for n in range(2, 7)]),
    (["census"], ["PASS census n=2", "PASS census n=3"]),
])
def test_verify_suite_lines(argv, lines, capsys):
    assert main(["verify"] + argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == lines


def test_verify_semiclassical_respects_max_level(monkeypatch, capsys):
    levels = []
    real = analysis.semiclassical_traces

    def spy(p, *args):
        levels.append(p)
        return real(p, *args)

    monkeypatch.setattr(analysis, "semiclassical_traces", spy)
    assert main(["verify", "semiclassical", "--max-level", "4"]) == EXIT_OK
    assert levels == [3, 4]


def test_verify_census_out_of_range_n_is_usage_error(capsys):
    assert main(["verify", "census", "--n", "1"]) == EXIT_USAGE
    assert main(["verify", "census", "--n", "9"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["charsum", "--level", "4", "--max-level", "3"],
    ["decompose", "--level", "4", "--n", "3"],
    ["rep", "show", "--max-level", "3"],
    ["census", "--n", "2", "--level", "99"],
    ["charsum", "--level", "4", "--genus", "5"],
    ["verify", "tower", "--genus", "7"],
])
def test_unread_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv,certified", [
    (["--level", "20"], [(20, 1)]),
    # rank 12^2 = 144 is past decompose.COMMUTANT_MAX_DIM
    (["--level", "12", "--genus", "2"], []),
])
def test_decompose_certifies_up_to_the_cap(argv, certified, monkeypatch, capsys):
    calls = []
    real = decompose.commutant_dimension

    def spy(p, g=1):
        calls.append((p, g))
        return real(p, g)

    monkeypatch.setattr(decompose, "commutant_dimension", spy)
    assert main(["decompose"] + argv) == EXIT_OK
    assert calls == certified


def test_verify_unknown_suite():
    assert main(["verify", "nonsense"]) == EXIT_USAGE


def test_oversized_level_is_usage_error():
    assert main(["charsum", "--level", "100"]) == EXIT_USAGE


def test_out_file_writes(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["gauss", "1", "0", "3", "--format", "json", "--out", str(target)])
    assert code == EXIT_OK
    doc = json.loads(target.read_text())
    assert doc["level"] == 3


def test_output_is_deterministic(capsys):
    main(["decompose", "--level", "12", "--format", "json"])
    first = capsys.readouterr().out
    main(["decompose", "--level", "12", "--format", "json"])
    assert capsys.readouterr().out == first


def test_exit_codes_are_distinct():
    assert {EXIT_OK, EXIT_MISMATCH, EXIT_USAGE} == {0, 1, 2}
