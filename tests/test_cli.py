import json

import pytest

from weildec import criteria, decompose
from weildec.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from weildec.weilrep import WeilRep


def test_gauss_json(capsys):
    assert main(["gauss", "1", "0", "5", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["level"] == 5
    assert doc["norm_sq"] == "5/1"


@pytest.mark.parametrize("level", ["0", "-3"])
def test_gauss_level_below_one_is_usage_error(level, capsys):
    assert main(["gauss", "1", "0", level]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


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
    assert main(["census", "--n", "2"]) == EXIT_OK
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


def test_census_out_of_range_n_is_usage_error(capsys):
    assert main(["census", "--n", "1"]) == EXIT_USAGE
    assert main(["census", "--n", "9"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_verify_one_criterion_prints_its_registry_line(capsys):
    assert main(["verify", "12"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "criterion 12: CRT and tower intertwiners: PASS\n")


def test_verify_red_criterion_is_a_mismatch(capsys):
    assert main(["verify", "14"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == (
        "criterion 14: Omega generator family: FAIL  ([(4, [1]), (8, [1])])\n")


@pytest.mark.parametrize("name", ["0", "18"])
def test_verify_out_of_range_criterion_is_usage_error(name, capsys):
    assert main(["verify", name]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_verify_all_runs_every_entry_in_order(monkeypatch, capsys):
    ran = []

    def fake(number, ok):
        def check():
            ran.append(number)
            return ok, f"detail {number}"
        return criteria.Criterion(number, f"fake {number}", check)

    monkeypatch.setattr(criteria, "REGISTRY", (fake(1, False), fake(2, True)))
    assert main(["verify", "all"]) == EXIT_MISMATCH
    assert ran == [1, 2]
    assert capsys.readouterr().out.splitlines() == [
        "criterion 1: fake 1: FAIL  (detail 1)", "criterion 2: fake 2: PASS"]


@pytest.mark.parametrize("argv", [
    ["charsum", "--level", "4", "--max-level", "3"],
    ["decompose", "--level", "4", "--n", "3"],
    ["rep", "show", "--max-level", "3"],
    ["census", "--n", "2", "--level", "99"],
    ["charsum", "--level", "4", "--genus", "5"],
    ["verify", "12", "--genus", "7"],
    ["rep", "show", "--format", "json"],
    ["census", "--n", "2", "--format", "json"],
    ["orbits", "--level", "6", "--format", "json"],
    ["semiclassical", "--level", "5", "--format", "json"],
    ["verify", "12", "--format", "json"],
    ["gauss", "1", "0", "5", "--format", "csv"],
    ["decompose", "--level", "3", "--format", "csv"],
    ["charsum", "--level", "3", "--format", "csv"],
])
def test_unread_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["decompose", "--level", "1"],
    ["decompose", "--level", "3", "--genus", "0"],
    ["charsum", "--level", "1"],
    ["orbits", "--level", "-3"],
    ["orbits", "--level", "0"],
    ["orbits", "--level", "1"],
    ["orbits", "--level", "3", "--genus", "0"],
])
def test_degenerate_level_or_genus_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,certified", [
    (["--level", "20"], [(20, 1)]),
    (["--level", "12", "--genus", "2"], [(12, 2)]),
    # d^2 m = 2^26 and 2^25, past decompose.COMMUTANT_MAX_ENTRIES
    (["--level", "32", "--genus", "2"], []),
    (["--level", "256"], []),
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


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("p,g", [(3, 1), (4, 2), (3, 3)])
def test_rep_show_counts_match_the_dense_generators(p, g, capsys):
    # rep show reads each generator's scale and support from its row
    # entries; both must agree with the dense generator
    assert main(["rep", "show", "--level", str(p), "--genus", str(g)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    rep = WeilRep(p, g)
    want = [f"generator {tag}: scale {gen.scale}, "
            f"support {int((gen.arr != 0).any(axis=2).sum())} entries"
            for tag, gen in ((tag, rep.generator_cyc(tag)) for tag in rep.tags())]
    assert lines[1:] == want
