import json

import numpy as np
import pytest

from weildec import decompose
from weildec.analysis import char_sum
from weildec.cycmat import CycMat
from weildec.decompose import (
    commutant_dimension,
    crt_check,
    decomposition_tree,
    egorov_verify,
    omega_cyc,
    omega_embedding_scalar,
    omega_family_report,
    omega_projector,
    parity_bases,
    schrodinger_commutant_dimension,
    span_restrict,
    su2_so3_labels,
    tower_check,
)
from weildec.modgroup import sigma0
from weildec.weilrep import WeilRep


@pytest.mark.parametrize(
    "p,dims",
    [(3, (2, 1)), (5, (3, 2)), (4, (3, 1)), (8, (5, 3)), (9, (5, 4))],
)
def test_parity_dimensions(p, dims):
    bases = parity_bases(p)
    assert bases.dims == dims


def test_parity_defect_raises_nowhere_small():
    for p in range(2, 10):
        parity_bases(p)  # raises on any intertwining defect


@pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (4, 3), (2, 5)])
def test_crt_intertwiner(a, b):
    report = crt_check(a, b)
    assert report.passed, report.failures


def test_crt_requires_coprime_factors():
    with pytest.raises(ValueError):
        crt_check(2, 4)


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 0), (3, 1)])
def test_tower_embedding(r, n):
    report = tower_check(r, n)
    assert report.passed, report.failures


def test_tower_embedding_genus2():
    assert tower_check(2, 1, g=2).passed


@pytest.mark.parametrize(
    "p,count",
    [(2, 1), (3, 2), (4, 2), (6, 2), (8, 3), (9, 3), (12, 4), (15, 4)],
)
def test_tree_leaf_count(p, count):
    tree = decomposition_tree(p)
    assert tree.factor_count == count
    assert count == sigma0(p if p % 2 else p // 2)


@pytest.mark.parametrize("p", [3, 4, 6, 8, 9, 12])
def test_tree_dims_sum_to_rank(p):
    tree = decomposition_tree(p)
    assert sum(tree.dims()) == p


def test_tree_self_check_survives_optimisation(monkeypatch):
    # an explicit raise, not an assert: python -O keeps it
    monkeypatch.setattr(decompose, "sigma0", lambda n: 99)
    with pytest.raises(ValueError):
        decomposition_tree(12)


def test_span_restrict_python_int_path_matches_int64_path(monkeypatch):
    bases = parity_bases(8)
    gen = WeilRep(8).generator_cyc(("Y", 1))
    small = span_restrict(gen, bases.minus)
    dtypes = []
    real = decompose._int_einsum

    def spy(spec, a, b):
        out = real(spec, a, b)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(decompose, "_int_einsum", spy)
    # 2^58 puts the image product past the int64 bound
    scaled = CycMat(gen.m, gen.arr * 2**58, gen.scale, gen.beta)
    big = span_restrict(scaled, bases.minus)
    assert object in dtypes
    assert np.array_equal(big.arr, small.arr * 2**58)
    assert big.scale == small.scale and big.beta == small.beta


def test_span_restrict_rejects_non_invariant_span():
    gen = WeilRep(5).generator_cyc(("Y", 1))
    e0 = np.zeros((5, 1), dtype=np.int64)
    e0[0, 0] = 1
    assert span_restrict(gen, e0) is None
    scaled = CycMat(gen.m, gen.arr * 2**60, gen.scale, gen.beta)
    assert span_restrict(scaled, e0) is None


def test_tree_json_shape():
    doc = json.loads(decomposition_tree(12).to_json())
    assert doc["level"] == 12
    assert len(doc["factors"]) == 4


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8, 9])
def test_commutant_certificate_genus1(p):
    expect = sigma0(p if p % 2 else p // 2)
    assert commutant_dimension(p) == expect


@pytest.mark.parametrize("p", [3, 5, 8, 9, 12, 15, 16])
def test_commutant_dimension_matches_schur_character_sum(p):
    # Schur: the average of |Tr|^2 over the group is the commutant dimension;
    # char_sum reaches it through the trace engine, not the mod-q certificate
    assert commutant_dimension(p, 1) == char_sum(p).value


@pytest.mark.parametrize("p", [2, 3, 4])
def test_commutant_certificate_genus2(p):
    # the factor count is genus-independent: still one summand per divisor
    expect = sigma0(p if p % 2 else p // 2)
    assert commutant_dimension(p, g=2) == expect


@pytest.mark.parametrize("p,g", [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2)])
def test_schrodinger_commutant_trivial(p, g):
    assert schrodinger_commutant_dimension(p, g) == 1


@pytest.mark.parametrize("p,g", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (4, 2)])
def test_egorov_lattice_maps(p, g):
    for report in egorov_verify(p, g):
        assert report.ok, report


@pytest.mark.parametrize("p", [3, 5, 9])
def test_omega_family_odd_levels(p):
    report = omega_family_report(p)
    assert report.all_commute
    assert report.independent
    assert len(report.rows) == sigma0(p)


def test_omega_even_level_parity_obstruction():
    # at even levels only the even-divisor orbits carry a consistent phase
    report = omega_family_report(8)
    by_delta = {row.delta: row for row in report.rows}
    for delta in (2, 4, 8):
        assert by_delta[delta].phase_consistent
        assert by_delta[delta].commutes
    assert not by_delta[1].phase_consistent
    assert not by_delta[1].commutes


def test_omega_orbit_sizes_partition():
    p = 6
    total = sum(row.orbit_size for row in omega_family_report(p).rows)
    assert total == p * p


@pytest.mark.parametrize(
    "r,n,value", [(2, 4, 1), (3, 9, 8), (4, 16, 4)]
)
def test_omega_scalar_on_tower_image(r, n, value):
    scalar = omega_embedding_scalar(r, n)
    assert scalar == scalar.field.coerce(value)


def test_omega_projector_is_square():
    proj = omega_projector(3, 9)
    assert proj.nrows == proj.ncols == 9


def test_omega_rejects_nondivisor():
    with pytest.raises(ValueError):
        omega_cyc(4, 6)


@pytest.mark.parametrize("p", [3, 5, 9, 15, 21, 27])
def test_odd_label_audit(p):
    report = su2_so3_labels(p)
    assert report.match
    assert report.total_dim == (p - 1) // 2
