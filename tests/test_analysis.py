import random
from fractions import Fraction

import pytest

from weildec import analysis, modgroup, weilrep
from weildec.analysis import (
    char_sum,
    char_sum_multiplicativity,
    charsum_json,
    expected_char_sum,
    expected_trace_sq,
    kernel_check,
    lemma_diag_check,
    semiclassical_csv,
    semiclassical_traces,
    trace_table,
)
from weildec.ringmat import RingMatrix


@pytest.mark.parametrize(
    "p,value", [(2, 1), (3, 2), (4, 2), (5, 2), (8, 3), (9, 3), (12, 4)]
)
def test_expected_char_sum(p, value):
    assert expected_char_sum(p) == value


@pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 8, 17, 18, 33, 45])
def test_char_sum_matches_expected(p):
    report = char_sum(p)
    assert report.match
    assert report.value == Fraction(expected_char_sum(p))


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
def test_char_sum_methods_agree(p):
    full = char_sum(p, method="full-enumeration")
    cen = char_sum(p, method="census-representatives")
    assert full.value == cen.value


def test_full_enumeration_refuses_modulus_past_64():
    with pytest.raises(ValueError):
        char_sum(34, method="full-enumeration")  # modulus 68
    with pytest.raises(ValueError):
        char_sum(65)


def test_char_sum_builds_no_word_lift(monkeypatch):
    # the engine takes diag(c, 1/c) as a dilation: no S,T word is formed
    def refuse(*args, **kwargs):
        raise AssertionError("word lift built")

    monkeypatch.setattr(weilrep, "lift_genus1_cyc", refuse)
    monkeypatch.setattr(weilrep, "word_decompose", refuse)
    monkeypatch.setattr(modgroup, "word_decompose", refuse)
    monkeypatch.setattr(analysis, "trace_engine", weilrep._TraceEngine)  # cold
    for p in (9, 12, 16, 21):
        assert char_sum(p).match


def test_char_sum_census_needs_2power():
    with pytest.raises(ValueError):
        char_sum(3, method="census-representatives")


@pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (4, 3)])
def test_char_sum_multiplicativity(a, b):
    assert char_sum_multiplicativity(a, b)


def test_trace_table_small():
    for n in (2, 3):
        report = trace_table(n)
        assert report.all_match
        assert report.lemma_diag_ok
        for row in report.rows:
            assert row.measured == row.expected


def test_expected_trace_sq_residual_cases():
    # x = -1 residual classes: constant value 4 independent of the exponent
    assert expected_trace_sq(4, 2, "-1", 0) == 4
    # l = 0 at the vanishing key s = n - 1
    assert expected_trace_sq(4, 0, "1", 3) == 0
    assert expected_trace_sq(4, 0, "1", 0) == 1


def test_lemma_diag():
    # n = 5 is the first level where i -> a*i is not always an involution
    for n in (2, 3, 4, 5):
        assert lemma_diag_check(n)


def test_lemma_diag_check_rejects_wrong_lifts(monkeypatch):
    lift = weilrep.lift_genus1_cyc

    def shear(p, M, rng=None):  # (a, 1, 0, 1/a), not monomial
        return lift(p, (M[0], 1, 0, M[3]), rng)

    def inverse(p, M, rng=None):  # diag(1/a, a), the dilation i -> i/a
        return lift(p, (M[3], 0, 0, M[0]), rng)

    def doubled(p, M, rng=None):  # the right dilation, times |2| != 1
        return lift(p, M, rng).scaled(2)

    monkeypatch.setattr(analysis, "lift_genus1_cyc", shear)
    assert not lemma_diag_check(5)
    monkeypatch.setattr(analysis, "lift_genus1_cyc", doubled)
    assert not lemma_diag_check(5)
    monkeypatch.setattr(analysis, "lift_genus1_cyc", inverse)
    assert lemma_diag_check(4)  # a = 1/a mod 8 for every odd a
    assert not lemma_diag_check(5)  # 3 != 1/3 = 11 mod 16


def test_faithfulness_path_builds_no_field_matrix(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("RingMatrix built")

    monkeypatch.setattr(RingMatrix, "__init__", refuse)
    assert kernel_check(3).injective
    assert lemma_diag_check(3)
    M = (2, 1, 1, 1)
    lam = weilrep.lift_genus1(5, M).equal_up_to_scalar(
        weilrep.lift_genus1(5, M, rng=random.Random(9)))
    assert lam is not None and lam.norm_sq() == 1


@pytest.mark.parametrize("p", [3, 5])
def test_projective_faithfulness(p):
    report = kernel_check(p)
    assert report.injective


def test_semiclassical_values():
    report = semiclassical_traces(5, 1, [(0, 0), (1, 1), (0, 5), (2, 1)])
    values = {row.monomial: row.value for row in report.rows}
    assert values[((0, 0),)] == 1
    assert values[((1, 1),)] == 0
    assert values[((0, 5),)] == 1
    assert values[((2, 1),)] == 0


def test_semiclassical_normalization_is_exact():
    report = semiclassical_traces(7, 2, [((0, 0), (0, 0))])
    assert report.rows[0].value == Fraction(1)


def test_csv_and_json_emitters():
    cs = charsum_json(char_sum(3))
    assert '"level":3' in cs.replace(" ", "")
    sc = semiclassical_csv(semiclassical_traces(3, 1, [(0, 0)]))
    assert sc.splitlines()[0].startswith("level")
