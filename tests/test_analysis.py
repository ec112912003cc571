import random
from collections import Counter
from fractions import Fraction

import numpy as np
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
from weildec.cyclo import CycloField, field_for_level
from weildec.cycmat import CycMat
from weildec.decompose import schrodinger_commutant_dimension
from weildec.modgroup import (class_representatives, column_orbits, lattice_vectors, sl2_enumerate,
                              sl2_order)
from weildec.ringmat import RingMatrix
from weildec.weilrep import WeilRep, trace_engine

from commutant_oracle import schrodinger_cyc, trace_elt
from test_tooling import _clear_library_caches
from test_weilrep import _random_sl2


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


def test_full_enumeration_refuses_modulus_past_128():
    with pytest.raises(ValueError):
        char_sum(66, method="full-enumeration")  # modulus 132
    with pytest.raises(ValueError):
        char_sum(129)


def _column_values(engine, c):
    """Counter of |Tr|^2 over the elements of lower-left entry c."""
    got = Counter()
    for n, scale, count in engine.column_abs_sq(c):
        for x, k in zip(n.tolist(), count.tolist()):
            got[x * scale**2] += k
    return +got


@pytest.mark.parametrize("p", [*range(2, 17), 21, 25, 27, 32])
def test_every_column_matches_its_orbit_representative(p):
    # the column-orbit lemma against the every-column sweep: each column's
    # |Tr|^2 multiset is its orbit's least column's (`column_orbits` is
    # checked against brute force in test_modgroup), and the average over
    # all columns is char_sum's value, by either method where both apply
    engine = trace_engine(p)
    m = engine.m
    columns = [_column_values(engine, c) for c in range(m)]
    assert all(columns[c] == columns[r] for c, r in enumerate(column_orbits(m)[0].tolist()))
    total = sum(columns, Counter())
    assert sum(total.values()) == sl2_order(m)
    value = Fraction(sum(v * k for v, k in total.items()), sl2_order(m))
    assert value == char_sum(p).value == char_sum(p, method="full-enumeration").value


def test_columns_of_different_orbits_differ():
    # negative control: at m = 9, column 3 is not in the orbit of column 1
    engine = trace_engine(9)
    least = column_orbits(9)[0]
    assert least[3] != least[1]
    assert _column_values(engine, 1) != _column_values(engine, 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_census_moves_keep_det_trace_and_abs_sq(n):
    m = 2**n
    engine = trace_engine(m // 2)
    least = column_orbits(m)[0]
    reps = [rep.matrix for rep in class_representatives(n)]
    for M, moved in zip(reps, analysis._least_columns(reps, m).tolist()):
        a, b, c, d = moved
        assert (a * d - b * c) % m == 1
        assert (a + d - M[0] - M[3]) % m == 0
        assert c == least[M[2] % m]
        assert engine.trace_abs_sq(tuple(moved)) == engine.trace_abs_sq(M)


def test_report_counts_the_columns_swept():
    # full enumeration at modulus 24 sweeps one column per orbit; the census
    # at modulus 32 keys its 168 moved representatives in 9 columns
    assert char_sum(12).columns == len(set(column_orbits(24)[0].tolist())) == 13
    report = char_sum(16)
    assert report.method == "census-representatives" and report.columns == 9
    assert '"columns":9' in charsum_json(report)


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
    # each wrapper passes every element's Gauss exponent through unchanged
    products = weilrep.word_products

    def shear(p, Ms, rng=None):  # (a, 1, 0, 1/a), not monomial
        return products(p, [(M[0], 1, 0, M[3]) for M in Ms], rng)

    def inverse(p, Ms, rng=None):  # diag(1/a, a), the dilation i -> i/a
        return products(p, [(M[3], 0, 0, M[0]) for M in Ms], rng)

    def doubled(p, Ms, rng=None):  # the right dilation, times |2| != 1
        mats, nets = products(p, Ms, rng)
        return [mat.scaled(2) for mat in mats], nets

    monkeypatch.setattr(analysis, "word_products", shear)
    assert not lemma_diag_check(5)
    monkeypatch.setattr(analysis, "word_products", doubled)
    assert not lemma_diag_check(5)
    monkeypatch.setattr(analysis, "word_products", inverse)
    assert lemma_diag_check(4)  # a = 1/a mod 8 for every odd a
    assert not lemma_diag_check(5)  # 3 != 1/3 = 11 mod 16


def test_lemma_diag_check_rejects_a_non_unit_entry_in_one_chunk(monkeypatch):
    # one product of the last chunk gets a unit scalar times (1 + A^2), whose
    # absolute value is not one; the other products are left as they are
    products = weilrep.word_products

    def bumped(p, Ms, rng=None):
        mats, nets = products(p, Ms, rng)
        if Ms[-1][0] == 2 * p - 1:  # the chunk that holds a = -1
            last = mats[-1]
            arr = last.arr + np.roll(last.arr, 2, axis=-1)
            mats[-1] = CycMat(last.m, arr, last.scale, last.beta)
        return mats, nets

    for n in (3, 5, 6):
        assert lemma_diag_check(n)
        monkeypatch.setattr(analysis, "word_products", bumped)
        assert not lemma_diag_check(n)
        monkeypatch.undo()


@pytest.mark.parametrize("sign,passes", [(1, True), (-1, False)])
def test_lemma_diag_check_reads_off_diagonal_entries_in_the_field(monkeypatch, sign, passes):
    # one off-diagonal entry of the product of a = -1 gains 1 + sign A^(m/2):
    # 0 in the field for sign = 1, where the halves agree, and 2 for -1
    products = weilrep.word_products

    def touched(p, Ms, rng=None):
        mats, nets = products(p, Ms, rng)
        if Ms[-1][0] == 2 * p - 1:
            last = mats[-1]
            arr = last.arr.copy()
            arr[0, 1, 0] += 1
            arr[0, 1, last.m // 2] += sign
            mats[-1] = CycMat(last.m, arr, last.scale, last.beta)
        return mats, nets

    monkeypatch.setattr(analysis, "word_products", touched)
    assert lemma_diag_check(5) is passes


@pytest.mark.parametrize("delta", [1, -1])
def test_lemma_diag_check_rejects_a_wrong_gauss_exponent(monkeypatch, delta):
    # one product, of a = -1, reports its Gauss exponent one off: its lift's
    # scalar then has absolute value norm^(+-1/2) != 1
    products = weilrep.word_products

    def misreported(p, Ms, rng=None):
        mats, nets = products(p, Ms, rng)
        if Ms[-1][0] == 2 * p - 1:
            nets[-1] += delta  # |n + delta| != |n| for every integer n
        return mats, nets

    monkeypatch.setattr(analysis, "word_products", misreported)
    assert not lemma_diag_check(5)


def _spy_per_element_calls(monkeypatch):
    """Counts the calls of the one-element lift and key, wherever bound."""
    calls = []
    for module in (weilrep, analysis):
        for name in ("lift_genus1_cyc", "lift_genus1", "projective_key"):
            real = getattr(module, name, None)
            if real is not None:
                def counted(*args, real=real, name=name, **kwargs):
                    calls.append(name)
                    return real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    return calls


def test_faithfulness_checks_make_no_per_element_call(monkeypatch):
    calls = _spy_per_element_calls(monkeypatch)
    assert kernel_check(5).injective
    assert lemma_diag_check(5)
    assert calls == []
    weilrep.lift_genus1_cyc(5, (2, 1, 1, 1))  # the spy does count
    assert calls == ["lift_genus1_cyc"]


def test_kernel_check_counts_a_repeated_lift(monkeypatch):
    # a batch of word products that returns one element's product for the
    # next element too, with every Gauss exponent (both 0 there) passed
    # through unchanged, loses exactly one class
    products = weilrep.word_products
    done = []

    def repeated(p, Ms, rng=None):
        mats, nets = products(p, Ms, rng)
        if not done:
            assert nets[0] == nets[1]
            mats[1] = mats[0]
            done.append(True)
        return mats, nets

    monkeypatch.setattr(analysis, "word_products", repeated)
    report = kernel_check(5)
    assert report.distinct_classes == report.group_order - 1 == 119
    assert not report.injective


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kernel_check_keys_are_the_full_lifts_keys(p):
    # the keys folded from the word products, norm^|n| in the scale^2
    # slot, are bitwise the keys of the convolved lifts
    field = field_for_level(p)
    elements = list(sl2_enumerate(p))
    products, nets = weilrep.word_products(p, elements)
    assert {abs(n) for n in nets} > {0, 1}
    keys = analysis._lift_keys(products, nets, field, weilrep._lift_images(p)["norm"])
    assert keys == weilrep.projective_keys(weilrep.lift_genus1_many(p, elements), field)


def test_faithfulness_checks_take_no_gauss_power(monkeypatch):
    real = weilrep._gauss_power
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weilrep, "_gauss_power", counted)
    assert kernel_check(5).injective
    assert lemma_diag_check(5)
    assert calls == []
    weilrep.lift_genus1_cyc(5, (0, 4, 1, 0))  # the spy does count: S has a Gauss factor
    assert calls


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


def test_faithfulness_path_takes_no_field_inverse(monkeypatch):
    # lifts are unitary up to a scale, so <V, V> is rational and lam comes
    # out as a rational multiple of integer coordinates
    def refuse(self, x):
        raise AssertionError("field inverse taken")

    monkeypatch.setattr(CycloField, "inverse", refuse)
    assert kernel_check(5).injective
    rng = random.Random(24)
    for p, count in ((5, 3), (7, 2), (9, 4)):
        N = p if p % 2 else 2 * p
        for _ in range(count):
            M = _random_sl2(rng, N)
            lam = weilrep.lift_genus1(p, M).equal_up_to_scalar(
                weilrep.lift_genus1(p, M, rng=random.Random(rng.randrange(2**32))))
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


def test_semiclassical_refuses_a_fractional_exponent():
    # (0, 0.5) was read as (0, 0), the empty monomial with value 1
    with pytest.raises(ValueError, match="expected integers"):
        semiclassical_traces(5, 1, [(0, 0.5)])
    assert semiclassical_traces(5, 1, [((np.int32(2), np.int32(5)),)]).rows[0].value == 0
    # a flat pair of numpy integers is the one-handle monomial too
    assert semiclassical_traces(5, 1, [(np.int32(2), np.int32(5))]).rows[0].value == 0


def test_semiclassical_normalization_is_exact():
    report = semiclassical_traces(7, 2, [((0, 0), (0, 0))])
    assert report.rows[0].value == Fraction(1)


@pytest.mark.parametrize("p,g", [(p, 1) for p in range(2, 10)] + [(p, 2) for p in range(2, 5)])
def test_fixed_point_trace_matches_the_dense_trace(p, g):
    # every lattice vector v = (y_1, x_1, ..., y_g, x_g) as a monomial: the
    # trace read off the fixed columns is the trace of the dense W(v)
    rep = WeilRep(p, g)
    vecs = lattice_vectors(p, g).T.tolist()
    report = semiclassical_traces(p, g, [tuple(zip(v[1::2], v[::2])) for v in vecs])
    for v, row in zip(vecs, report.rows):
        assert row.value == trace_elt(schrodinger_cyc(rep, v), rep.field).as_fraction() / p**g


def test_schrodinger_paths_build_no_cycmat(monkeypatch):
    # the semiclassical traces and the irreducibility certificate read W(v)
    # as index maps only
    def refuse(*args):
        raise AssertionError("built a CycMat")

    _clear_library_caches()
    monkeypatch.setattr(CycMat, "__init__", refuse)
    report = semiclassical_traces(6, 1, [(0, 0), (1, 2), (0, 6)])
    assert [row.value for row in report.rows] == [1, 0, 1]
    assert semiclassical_traces(3, 2, [((0, 0), (1, 0))]).rows[0].value == 0
    assert schrodinger_commutant_dimension(6, 1) == schrodinger_commutant_dimension(3, 2) == 1


def test_semiclassical_refuses_an_irrational_trace(monkeypatch):
    # every Tr W(v) is rational; a coordinate map that says otherwise must
    # raise, not be read off its rational part
    real = analysis.field_coords

    def skewed(arr, field, m, beta=0):
        out = real(arr, field, m, beta).copy()
        out[-1, 1] += 1
        return out

    monkeypatch.setattr(analysis, "field_coords", skewed)
    with pytest.raises(ValueError, match=r"trace of \(\(2, 1\),\) is not rational"):
        semiclassical_traces(5, 1, [(0, 0), (2, 1)])


def test_csv_and_json_emitters():
    cs = charsum_json(char_sum(3))
    assert '"level":3' in cs.replace(" ", "")
    sc = semiclassical_csv(semiclassical_traces(3, 1, [(0, 0)]))
    assert sc.splitlines()[0].startswith("level")
