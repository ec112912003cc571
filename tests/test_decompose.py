import itertools
import json
import re
import types
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from weildec import cycmat, decompose
from weildec.analysis import char_sum
from weildec.cli import main
from weildec.cycmat import CycMat
from weildec.decompose import (
    commutant_dimension,
    crt_check,
    decomposition_tree,
    egorov_verify,
    isotypic_projectors,
    omega_family_report,
    parity_bases,
    schrodinger_commutant_dimension,
    su2_so3_labels,
    tower_check,
)
from weildec.modgroup import (
    diagonal_index,
    divisors,
    lattice_orbits,
    lattice_vectors,
    prime_factorization,
    sigma0,
    sp_generators,
)
from weildec.weilrep import WeilRep

from commutant_oracle import (
    _commutes,
    _eval_mod,
    _modular_primes,
    _rank_mod,
    _root_mod,
    _same_entries,
    commutant_bounds,
    omega_commutes,
    omega_cyc,
    rule_exact_per_vector,
    schrodinger_cyc,
    walk_orbit,
)
from test_tooling import _clear_library_caches


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


def test_crt_refuses_genus_zero():
    # refused by WeilRep before the residue maps are built
    with pytest.raises(ValueError, match="genus g >= 1"):
        crt_check(3, 5, g=0)


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 0), (3, 1)])
def test_tower_embedding(r, n):
    report = tower_check(r, n)
    assert report.passed, report.failures


def test_tower_embedding_genus2():
    assert tower_check(2, 1, g=2).passed


# every (r, n, g) that the tests, criterion 12 and the benchmark's certify
# workload run
_TOWER_CASES = [(2, 1, 1), (2, 2, 1), (3, 0, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2)]


@pytest.mark.parametrize("r,n,g", _TOWER_CASES)
def test_tower_runs_inside_its_entry_bound(r, n, g):
    level = r ** (n + 2)
    assert level ** (g + 1) * WeilRep(level, g).m <= decompose.COMMUTANT_MAX_ENTRIES
    assert tower_check(r, n, g).passed


def test_tower_refuses_an_operand_past_the_entry_bound(monkeypatch):
    # (5, 0, 4): level 25, d = 25^4, and the rolled Y operand would hold
    # d p m = 25^6 int64 entries, about 2 GB; refused before any WeilRep
    def refuse(*args):
        raise AssertionError("built a WeilRep")

    monkeypatch.setattr(decompose, "WeilRep", refuse)
    monkeypatch.setattr(decompose, "_tower_span", refuse)
    with pytest.raises(ValueError, match="d p m <= %d" % decompose.COMMUTANT_MAX_ENTRIES):
        tower_check(5, 0, 4)


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


@pytest.mark.parametrize("part", ["exps", "cols", "factor"])
@pytest.mark.parametrize("a,b,g,tag", [(4, 3, 1, ("X", 1)), (2, 3, 1, ("Y", 1)),
                                       (2, 3, 2, ("Y", 2)), (4, 3, 2, ("Z", 1, 2))])
def test_crt_reports_exactly_a_perturbed_generator(monkeypatch, a, b, g, tag, part):
    # one entry of one level-a generator moved by 1, in its exponent or in
    # its column, or the generator's factor moved by 1: the CRT identity
    # must fail on that tag and on no other
    real = WeilRep.generator_entries

    def perturbed(self, key):
        cols, exps, factor, scale = real(self, key)
        if (self.p, key) == (a, tag):
            cols, exps, factor = cols.copy(), exps.copy(), factor.copy()
            if part == "exps":
                exps[0, 0] = (exps[0, 0] + 1) % self.m
            elif part == "cols":
                cols[0, 0] = (cols[0, 0] + 1) % self.dim
            else:
                factor[0] += 1
        return cols, exps, factor, scale

    assert crt_check(a, b, g).passed
    monkeypatch.setattr(WeilRep, "generator_entries", perturbed)
    assert crt_check(a, b, g).failures == (tag,)


def test_certificates_form_no_dense_generator(monkeypatch, capsys):
    # every certificate reads the generators as row entries: with the dense
    # view and CycMat.kron refusing at every level, they still run
    def refuse(*args):
        raise AssertionError("formed a dense generator")

    _clear_library_caches()
    monkeypatch.setattr(CycMat, "kron", refuse)
    monkeypatch.setattr(WeilRep, "generator_cyc", refuse)
    assert tower_check(3, 1).passed and tower_check(3, 1, 2).passed
    assert tower_check(2, 1).passed and tower_check(3, 0).passed
    assert commutant_dimension(8, 2) == 3 and commutant_dimension(9) == 3
    assert all(report.ok for report in egorov_verify(4, 2))
    assert crt_check(4, 3).passed and crt_check(2, 3, 2).passed
    assert parity_bases(5, 2).dims == (13, 12)
    report = omega_family_report(9)
    assert report.all_commute and report.independent
    assert main(["rep", "show", "--level", "8", "--genus", "3"]) == 0
    assert "support 4096 entries" in capsys.readouterr().out


@pytest.mark.parametrize("r,n", [(4, 0), (6, 0), (4, 1), (6, 1), (9, 0), (1, 1), (0, 1)])
def test_tower_refuses_a_composite_r(r, n):
    # the tower U_{r^n} inside U_{r^(n+2)} is defined for a prime r only
    with pytest.raises(ValueError, match="prime r"):
        tower_check(r, n)


def test_tower_reports_unstable_complement(monkeypatch):
    # the level-27 Y entry (3, 1) moved by A: column 1 is outside the rows
    # of E (multiples of 3), so G E = E G_U still holds, while E^T G, which
    # reads row 1 of G^T, no longer equals G_U E^T
    real = WeilRep.generator_entries

    def perturbed(self, tag):
        cols, exps, factor, scale = real(self, tag)
        if (self.p, tag) == (27, ("Y", 1)):
            exps = exps.copy()
            exps[3, np.flatnonzero(cols[3] == 1)] += 1
        return cols, exps, factor, scale

    monkeypatch.setattr(WeilRep, "generator_entries", perturbed)
    report = tower_check(3, 1)
    assert report.failures == ((("Y", 1), "complement not stable"),)


def test_tower_reports_restriction_mismatch(monkeypatch):
    # one perturbed entry of G E breaks G E = E G_U, while every generator
    # stays symmetric
    real = decompose._generator_product

    def perturbed(rep, tag, operand):
        out = real(rep, tag, operand).copy()
        out[0, 0, 0] += 1
        return out

    monkeypatch.setattr(decompose, "_generator_product", perturbed)
    report = tower_check(3, 1)
    assert not report.passed
    assert {reason for _, reason in report.failures} == {"restriction mismatch"}


def test_tower_identities_are_exact_past_the_int64_bound(monkeypatch):
    # 2^58 on both sides of each identity puts their scaled difference past
    # the int64 bound: it is formed in Python ints, and one added unit is
    # still seen.  The small level's factor carries 2^58 into E G_U.
    real_product, real_entries = decompose._generator_product, WeilRep.generator_entries
    real_combo = decompose._int_combo
    dtypes = []
    bump = []

    def product(rep, tag, operand):
        out = real_product(rep, tag, operand).astype(object) * 2**58
        if bump:
            out[0, 0, 0] += 1
        return out

    def entries(self, tag):
        cols, exps, factor, scale = real_entries(self, tag)
        if self.p == 3:
            factor = factor.astype(object) * 2**58
        return cols, exps, factor, scale

    def spy(*args):
        out = real_combo(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(decompose, "_generator_product", product)
    monkeypatch.setattr(WeilRep, "generator_entries", entries)
    monkeypatch.setattr(decompose, "_int_combo", spy)
    report = tower_check(3, 1)
    assert report.passed, report.failures
    assert object in dtypes
    bump.append(1)
    assert {reason for _, reason in tower_check(3, 1).failures} == {"restriction mismatch"}


def _loop_parity_bases(p, g):
    """(plus, minus) by the loop construction: the flip built one handle at
    a time, and one column per flip orbit {i, flip[i]} in order of i."""
    flip = [0]
    for _ in range(g):
        flip = [f * p + (-a) % p for f in flip for a in range(p)]
    dim = p**g
    plus, minus, seen = [], [], set()
    for i in range(dim):
        j = flip[i]
        if i in seen:
            continue
        seen.update({i, j})
        v = np.zeros(dim, dtype=np.int64)
        v[i] += 1
        v[j] += 1
        plus.append(v)
        if i != j:
            w = np.zeros(dim, dtype=np.int64)
            w[i], w[j] = 1, -1
            minus.append(w)
    return (np.stack(plus, axis=1),
            np.stack(minus, axis=1) if minus else np.zeros((dim, 0), dtype=np.int64))


def _perturbed_exponent(monkeypatch, row):
    # exponent (row, 0) of every generator moved by 1 mod m
    real = WeilRep.generator_entries

    def perturbed(self, tag):
        cols, exps, factor, scale = real(self, tag)
        exps = exps.copy()
        exps[row, 0] = (exps[row, 0] + 1) % self.m
        return cols, exps, factor, scale

    monkeypatch.setattr(WeilRep, "generator_entries", perturbed)


@pytest.mark.parametrize("p,g", [(6, 1), (12, 1), (4, 2), (5, 2)])
def test_flip_identity_matches_the_dense_commutator(monkeypatch, p, g):
    # J G J = G on the integer entries against G J = J G multiplied out
    # (`_commutes` of the oracle); row 1 is not fixed by the flip, so one
    # perturbed exponent there breaks both, and parity_bases raises
    rep, flip = WeilRep(p, g), decompose._flip_permutation(p, g)
    J = np.eye(rep.dim, dtype=np.int64)[flip]
    for tag, flipped in zip(rep.tags(), decompose._flip_commutes(rep, flip)):
        assert flipped
        assert _commutes(rep, tag, J)
    _perturbed_exponent(monkeypatch, 1)
    rep = WeilRep(p, g)
    for tag, flipped in zip(rep.tags(), decompose._flip_commutes(rep, flip)):
        assert not flipped
        assert not _commutes(rep, tag, J)
    with pytest.raises(ValueError, match="parity spans"):
        parity_bases(p, g)


@pytest.mark.parametrize("g", [1, 2])
def test_parity_bases_match_the_loop_construction(g):
    for p in range(2, 14):
        bases = parity_bases(p, g)
        plus, minus = _loop_parity_bases(p, g)
        assert np.array_equal(bases.plus, plus) and np.array_equal(bases.minus, minus)


def _loop_crt_maps(a, b, g):
    """(u, v, psi) by the loop construction over the residue table f."""
    a2 = 2 * a if a % 2 == 0 else a
    u, v = decompose._bezout(a2, b)
    f_table = [(x * v * b + y * a2 * u) % (a * b) for x in range(a) for y in range(b)]
    assert all(f_table[x * b + y] % a == x and f_table[x * b + y] % b == y
               for x in range(a) for y in range(b))
    psi = []
    for xa in itertools.product(range(a), repeat=g):
        for yb in itertools.product(range(b), repeat=g):
            target = 0
            for xi, yi in zip(xa, yb):
                target = target * (a * b) + f_table[xi * b + yi]
            psi.append(target)
    return u, v, psi


@pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (4, 3), (8, 3), (4, 5), (3, 7), (8, 9)])
@pytest.mark.parametrize("g", [1, 2])
def test_crt_maps_match_the_loop_construction(a, b, g):
    u, v, psi = decompose._crt_maps(a, b, g)
    lu, lv, lpsi = _loop_crt_maps(a, b, g)
    assert (u, v) == (lu, lv)
    assert psi.tolist() == lpsi


def _fraction_inverse(mat):
    """Exact inverse of a square integer matrix by Gauss-Jordan over
    Fractions, as (num, den)."""
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    den = lcm(*(v.denominator for row in aug for v in row[n:]))
    return np.array([[int(v * den) for v in row[n:]] for row in aug], dtype=object), den


def _gauss_jordan_projectors(p, g):
    """Isotypic projectors of a prime-power level built without orthogonality:
    the tower projector is read off the inverse of the full basis of
    embedding columns and the complement columns e_j (r does not divide j)
    and e_{r(i + k r^n)} - e_{ri}, in pure and mixed tensors."""
    d = p**g
    eye = np.eye(d, dtype=object)
    if p in (1, 2):
        return [(eye, 1)]
    indices = list(itertools.product(range(p), repeat=g))
    pos = {a: i for i, a in enumerate(indices)}
    J = np.zeros((d, d), dtype=object)
    for i, a in enumerate(indices):
        J[pos[tuple(-x % p for x in a)], i] = 1
    ((r, n),) = prime_factorization(p)
    if n == 1 or (r == 2 and n == 2):
        fixed = 1 if p % 2 else 2
        return [(eye + J, 2)] + ([(eye - J, 2)] if p**g > fixed**g else [])
    small = r ** (n - 2)
    handle = []
    for i in range(small):
        col = np.zeros(p, dtype=object)
        col[[r * (i + k * small) for k in range(r)]] = 1
        handle.append(col)
    handle += [np.eye(p, dtype=object)[:, j] for j in range(p) if j % r]
    for i in range(small):
        for k in range(1, r):
            col = np.zeros(p, dtype=object)
            col[r * (i + k * small)] = 1
            col[r * i] = -1
            handle.append(col)
    cols_u, cols_w = [], []
    for choice in itertools.product(range(p), repeat=g):
        col = np.ones(1, dtype=object)
        for c in choice:
            col = np.kron(col, handle[c])
        (cols_u if max(choice) < small else cols_w).append(col)
    E = np.stack(cols_u, axis=1)
    inv_num, inv_den = _fraction_inverse(np.stack(cols_u + cols_w, axis=1).tolist())
    dual = inv_num[:E.shape[1]]
    out = [(E @ snum @ dual, sden * inv_den)
           for snum, sden in _gauss_jordan_projectors(small, g)]
    rest = inv_den * eye - E @ dual
    out.append((rest @ (eye + J), 2 * inv_den))
    minus = rest @ (eye - J)
    if minus.any():
        out.append((minus, 2 * inv_den))
    return out


@pytest.mark.parametrize("p,g", [(8, 1), (9, 1), (16, 1), (27, 1), (8, 2)])
def test_isotypic_projectors_match_gauss_jordan_construction(p, g):
    new = isotypic_projectors(p, g)
    old = _gauss_jordan_projectors(p, g)
    assert len(new) == len(old)
    for (n1, d1), (n2, d2) in zip(new, old):
        assert np.array_equal(n1 * d2, n2 * d1)


def test_tree_json_shape():
    doc = json.loads(decomposition_tree(12).to_json())
    assert doc["level"] == 12
    assert len(doc["factors"]) == 4


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8, 9])
def test_commutant_certificate_genus1(p):
    expect = sigma0(p if p % 2 else p // 2)
    assert commutant_dimension(p) == expect


@pytest.mark.parametrize("p", [*range(2, 35), 35, 37, 39, 40, 41, 43, 45, 47, 48, 49, 51, 53,
                               55, 57, 59, 61, 63])
def test_commutant_dimension_matches_schur_character_sum(p):
    # Schur: the average of |Tr|^2 over the group is the commutant dimension;
    # char_sum reaches it through the trace engine, not the orbit count
    assert commutant_dimension(p, 1) == char_sum(p).value


@pytest.mark.parametrize("p", [2, 3, 4])
def test_commutant_certificate_genus2(p):
    # the factor count is genus-independent: still one summand per divisor
    expect = sigma0(p if p % 2 else p // 2)
    assert commutant_dimension(p, g=2) == expect


@pytest.mark.parametrize("p,g", [(64, 1), (9, 2), (5, 3)])
def test_commutant_certificate_past_rank_16(p, g):
    expect = sigma0(p if p % 2 else p // 2)
    assert commutant_dimension(p, g) == expect
    assert decomposition_tree(p, g).factor_count == expect


@pytest.mark.parametrize("p,g", [(128, 1), (16, 2), (7, 3)])
def test_commutant_certificate_at_the_entry_bound(p, g):
    # cold: no cached field, lift data or generator from an earlier test
    _clear_library_caches()
    expect = sigma0(p if p % 2 else p // 2)
    assert commutant_dimension(p, g) == expect
    assert decomposition_tree(p, g).factor_count == expect


def test_commutant_dimension_refuses_rank_past_the_cap(monkeypatch):
    def no_rep(*args):
        raise AssertionError("built a WeilRep")

    monkeypatch.setattr(decompose, "WeilRep", no_rep)
    # d^2 m: 128^2 * 256 and 8^6 * 16 are exactly 2^22; 256^2 * 512 and
    # 32^4 * 64 are 2^25 and 2^26
    assert decompose.commutant_certifiable(128, 1) and decompose.commutant_certifiable(8, 3)
    for p, g in [(256, 1), (32, 2)]:
        assert not decompose.commutant_certifiable(p, g)
        with pytest.raises(ValueError):
            commutant_dimension(p, g)


@pytest.mark.parametrize("p,g", [(p, 1) for p in [*range(2, 17), 32, 64]]
                         + [(p, 2) for p in range(2, 7)] + [(2, 3), (3, 3)])
def test_orbit_count_meets_both_modular_bounds(p, g):
    # the nullity mod two primes bounds dim End from above, the verified
    # idempotent family from below; the orbit count must meet both
    upper, lower = commutant_bounds(p, g)
    assert upper == lower == commutant_dimension(p, g)


@pytest.mark.parametrize("p,g", [(2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2)])
def test_schrodinger_operators_are_a_basis(p, g):
    # lemma (a): distinct shifts have disjoint supports, and the p^(2g)
    # operators W(v) are independent: full rank mod q
    rep = WeilRep(p, g)
    vecs = lattice_vectors(p, g)
    rows, _ = rep.schrodinger_map(vecs)
    shifts = np.ravel_multi_index(tuple(vecs[::2]), (p,) * g)
    cells = rows * rep.dim + np.arange(rep.dim)
    for s in range(rep.dim):
        assert not np.isin(cells[shifts == s], cells[shifts != s]).any()
    q = _modular_primes(rep.m, 1)[0]
    omega = _root_mod(q, rep.m)
    stacked = [_eval_mod(schrodinger_cyc(rep, tuple(v)), q, omega).ravel() for v in vecs.T]
    assert _rank_mod(np.stack(stacked), q) == rep.dim**2


def test_basis_lemma_needs_a_squared_of_order_p():
    decompose._check_basis(WeilRep(6, 1))
    with pytest.raises(ValueError):
        decompose._check_basis(types.SimpleNamespace(p=4, m=4))


def _evaluated_rules(rep):
    """(img, z) of rep's Egorov rules, evaluated from their stack as
    `commutant_dimension` evaluates the stack it certified."""
    return decompose._egorov_rules(*decompose._rule_stack(rep.tags(), rep.g), rep.p, rep.m)


@pytest.mark.parametrize("p,g", [(2, 1), (3, 1), (4, 1), (6, 1), (8, 1), (9, 1), (2, 2), (3, 2)])
def test_egorov_rule_holds_at_every_lattice_vector(p, g):
    # the dense oracle of check (b): U W(v) = A^z(v) W(Mv) U for every v,
    # not only the basis vectors
    rep = WeilRep(p, g)
    img, z = _evaluated_rules(rep)
    vecs = lattice_vectors(p, g)
    for k, tag in enumerate(rep.tags()):
        U = rep.generator_cyc(tag)
        for v in range(p ** (2 * g)):
            left = U @ schrodinger_cyc(rep, tuple(vecs[:, v]))
            right = schrodinger_cyc(rep, tuple(vecs[:, img[k, v]]), z[k, v]) @ U
            assert decompose._cyc_equal(left, right, rep.field), (tag, v)


@pytest.mark.parametrize("p,g", [(3, 1), (4, 1), (2, 2)])
def test_beta_form_is_the_product_law_phase(p, g):
    # W(u) W(v) = A^(u^T B v) W(u + v) for every pair: the B of the cocycle
    # identity, which a transposed B would pass on symplectic M alone
    rep, B = WeilRep(p, g), decompose._beta_form(g)
    vecs = lattice_vectors(p, g).T
    for u, v in itertools.product(vecs, repeat=2):
        left = schrodinger_cyc(rep, tuple(u)) @ schrodinger_cyc(rep, tuple(v))
        right = schrodinger_cyc(rep, tuple((u + v) % p), int(u @ B @ v))
        assert decompose._cyc_equal(left, right, rep.field), (u, v)


def _branch_rules(tags, p, g):
    """(img, z) built per tag and branch over the lattice coordinates: the
    oracle of the arrays that `decompose._egorov_rules` evaluates from the
    rule matrices (M, Q)."""
    m = p if p % 2 else 2 * p
    vec = lattice_vectors(p, g)
    imgs, phases = [], []
    for tag in tags:
        out = vec.copy()
        i = tag[1] - 1
        s, n = vec[2 * i], vec[2 * i + 1]
        if tag[0] == "X":
            out[2 * i + 1] += s
            z = s * s
        elif tag[0] == "Y":
            out[2 * i] -= n
            z = -n * n
        else:
            j = tag[2] - 1
            d = s - vec[2 * j]
            out[2 * i + 1] += d
            out[2 * j + 1] -= d
            z = d * d
        imgs.append(np.ravel_multi_index(tuple(out % p), (p,) * (2 * g)))
        phases.append(z % m)
    return np.stack(imgs), np.stack(phases)


@pytest.mark.parametrize("p,g", [(p, 1) for p in range(2, 13)] + [(p, 2) for p in range(2, 6)]
                         + [(2, 3), (3, 3), (2, 4)])
def test_evaluated_rules_match_the_branch_construction(p, g):
    rep = WeilRep(p, g)
    img, z = _evaluated_rules(rep)
    want_img, want_z = _branch_rules(rep.tags(), p, g)
    assert np.array_equal(img, want_img) and np.array_equal(z, want_z)


@pytest.mark.parametrize("N,g", [(N, 1) for N in range(2, 13)] + [(N, 2) for N in range(2, 6)]
                         + [(2, 3), (3, 3)])
def test_egorov_maps_have_the_transvection_orbits(N, g):
    # criterion 11 counts orbits of the Egorov maps, and orbit_census
    # (criterion 13) orbits of the transvections that generate Sp_2g:
    # without phases both generator sets give the same orbits
    vec, shape = lattice_vectors(N, g), (N,) * (2 * g)
    transvections = [np.ravel_multi_index(tuple(np.array(M) @ vec % N), shape)
                     for M in sp_generators(g, N)]
    img, _ = _evaluated_rules(WeilRep(N, g))
    assert np.array_equal(lattice_orbits(img).labels, lattice_orbits(transvections).labels)


def _defective_rules(monkeypatch, defect):
    # every rule (M, Q) replaced by defect(M, Q), for the checks and the count
    real = decompose._rule_matrices
    monkeypatch.setattr(decompose, "_rule_matrices",
                        lambda tag, g: defect(*(a.copy() for a in real(tag, g))))


def test_rule_checks_see_a_defect_off_the_basis(monkeypatch):
    # a cross term 2 s_1 n_1 in z is zero at every basis vector, so the
    # basis identities pass and only the cocycle identity can see it
    def cross(M, Q):
        Q[0, 1] += 1
        Q[1, 0] += 1
        return M, Q

    _defective_rules(monkeypatch, cross)
    for p, g in [(3, 1), (4, 1), (3, 2)]:
        rep = WeilRep(p, g)
        for tag in rep.tags():
            M, Q = decompose._rule_matrices(tag, g)
            assert decompose._rule_exact(rep, [tag], M[None], Q[None])[0]
            assert not decompose._rule_cocycle(M, Q, rep.m)
        assert all(report.conjugation_exact and not report.additive
                   for report in egorov_verify(p, g))
        with pytest.raises(ValueError):
            commutant_dimension(p, g)


def test_rule_checks_see_a_wrong_lattice_column(monkeypatch):
    # M e_1 moved by e_2 in every rule: the basis identities refuse
    def moved(M, Q):
        M[1, 0] += 1
        return M, Q

    _defective_rules(monkeypatch, moved)
    for p, g in [(3, 1), (4, 1), (3, 2)]:
        rep = WeilRep(p, g)
        for tag in rep.tags():
            assert not decompose._rule_exact(rep, [tag], *decompose._rule_stack([tag], g))[0]
        assert not any(report.conjugation_exact for report in egorov_verify(p, g))
        with pytest.raises(ValueError):
            commutant_dimension(p, g)


def test_rule_checks_see_a_perturbed_exponent(monkeypatch):
    # one exponent of every generator moved by 1: the basis identities
    # compare integer exponents, and refuse it for every tag
    _perturbed_exponent(monkeypatch, 0)
    for p, g in [(3, 1), (4, 1), (3, 2)]:
        rep = WeilRep(p, g)
        for tag in rep.tags():
            assert not decompose._rule_exact(rep, [tag], *decompose._rule_stack([tag], g))[0]
        with pytest.raises(ValueError):
            commutant_dimension(p, g)


# every (p, g) of the benchmark's certify workload, and the largest sizes
# of the commutant certificate
_RULE_CASES = ([(p, 1) for p in range(2, 17)] + [(p, 2) for p in range(2, 8)]
               + [(128, 1), (8, 3), (5, 4)])


@pytest.mark.parametrize("p,g", _RULE_CASES)
def test_batched_rule_check_matches_the_per_vector_oracle(p, g):
    # the true rules, a wrong M column on every other tag, and a wrong
    # Q[v, v] on the tags between: one verdict per tag, as the oracle's
    rep = WeilRep(p, g)
    tags = rep.tags()
    M, Q = decompose._rule_stack(tags, g)
    moved, shifted = M.copy(), Q.copy()
    moved[::2, 1, 0] += 1
    for k in range(1, len(tags), 2):
        shifted[k, k % (2 * g), k % (2 * g)] += 1
    for rules, want in (((M, Q), [True] * len(tags)),
                        ((moved, Q), [k % 2 == 1 for k in range(len(tags))]),
                        ((M, shifted), [k % 2 == 0 for k in range(len(tags))])):
        got = decompose._rule_exact(rep, tags, *rules).tolist()
        oracle = [rule_exact_per_vector(rep, tag, *(a[k] for a in rules))
                  for k, tag in enumerate(tags)]
        assert got == oracle == want


def _one_tag_defect(monkeypatch, target, defect):
    # the rule or the generator entries of target alone made wrong
    if defect == "exponent":
        real = WeilRep.generator_entries

        def perturbed(self, tag):
            cols, exps, factor, scale = real(self, tag)
            if tag == target:
                exps = exps.copy()
                exps[0, 0] = (exps[0, 0] + 1) % self.m
            return cols, exps, factor, scale

        monkeypatch.setattr(WeilRep, "generator_entries", perturbed)
        return
    real_rules = decompose._rule_matrices

    def rules(tag, g):
        M, Q = (a.copy() for a in real_rules(tag, g))
        if tag == target:
            if defect == "column":
                M[1, 0] += 1
            else:
                Q[0, 0] += 1
        return M, Q

    monkeypatch.setattr(decompose, "_rule_matrices", rules)


@pytest.mark.parametrize("defect", ["column", "phase", "exponent"])
@pytest.mark.parametrize("p,g", [(4, 1), (3, 2), (2, 3)])
def test_a_defect_in_one_rule_fails_that_tag_alone(monkeypatch, p, g, defect):
    # the batched pass keeps one verdict per tag: a defect in one tag's
    # rule or entries neither spreads to the other tags nor hides
    for target in WeilRep(p, g).tags():
        with monkeypatch.context() as patch:
            _one_tag_defect(patch, target, defect)
            reports = egorov_verify(p, g)
            assert [not report.ok for report in reports] == [r.tag == target for r in reports]
            assert [r.conjugation_exact for r in reports] == [r.tag != target for r in reports]
            with pytest.raises(ValueError, match=re.escape(str([target]))):
                commutant_dimension(p, g)


def test_egorov_verify_forms_no_lattice_array(monkeypatch):
    # egorov_verify does only 2g x 2g work past the generators; the orbit
    # count is the one place that evaluates the p^(2g) arrays, once
    def refuse(*args):
        raise AssertionError("formed a lattice array")

    real_rules = decompose._egorov_rules
    with monkeypatch.context() as patch:
        for name in ("_egorov_rules", "lattice_images", "lattice_vectors"):
            patch.setattr(decompose, name, refuse)
        assert all(report.ok for report in egorov_verify(5, 2) + egorov_verify(3, 3))
    calls = []

    def counted(*args):
        calls.append(args)
        return real_rules(*args)

    monkeypatch.setattr(decompose, "_egorov_rules", counted)
    assert commutant_dimension(5, 2) == 2 and len(calls) == 1


def test_commutant_builds_each_rule_once(monkeypatch):
    # one _rule_matrices call per tag, 5 at (5, 2): the orbit count reads
    # the very stack (M, Q) that the rule checks certified
    built, certified, evaluated = [], [], []
    real_matrices, real_exact, real_rules = (
        decompose._rule_matrices, decompose._rule_exact, decompose._egorov_rules)

    def matrices(tag, g):
        built.append(tag)
        return real_matrices(tag, g)

    def exact(rep, tags, M, Q):
        certified.append((M, Q))
        return real_exact(rep, tags, M, Q)

    def rules(M, Q, p, m):
        evaluated.append((M, Q))
        return real_rules(M, Q, p, m)

    monkeypatch.setattr(decompose, "_rule_matrices", matrices)
    monkeypatch.setattr(decompose, "_rule_exact", exact)
    monkeypatch.setattr(decompose, "_egorov_rules", rules)
    assert commutant_dimension(5, 2) == 2
    assert built == WeilRep(5, 2).tags() and len(built) == 5
    assert len(evaluated) == len(certified) == 1
    assert all(a is b for a, b in zip(evaluated[0], certified[0]))


@pytest.mark.parametrize("p,g", [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2)])
def test_schrodinger_commutant_trivial(p, g):
    assert schrodinger_commutant_dimension(p, g) == 1


@pytest.mark.parametrize("p,g", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (4, 2)])
def test_egorov_lattice_maps(p, g):
    for report in egorov_verify(p, g):
        assert report.ok, report


def _shifted_rules(monkeypatch):
    # A^(z + 1) W(Mv) in place of A^z W(Mv) at every basis vector
    _defective_rules(monkeypatch, lambda M, Q: (M, Q + np.eye(len(Q), dtype=Q.dtype)))


def test_egorov_reports_a_shifted_phase(monkeypatch):
    # no conjugation identity holds, nor the cocycle identity, while the
    # lattice map, which ignores the phase, still preserves the pairing
    _shifted_rules(monkeypatch)
    for p, g in [(3, 1), (4, 1), (3, 2)]:
        reports = egorov_verify(p, g)
        assert reports and not any(report.conjugation_exact for report in reports)
        assert all(report.preserves_omega and not report.additive for report in reports)


def test_commutant_refuses_a_shifted_phase(monkeypatch):
    # the same shifted rules give an orbit count, but no certified one
    _shifted_rules(monkeypatch)
    for p, g in [(3, 1), (4, 1), (3, 2)]:
        with pytest.raises(ValueError):
            commutant_dimension(p, g)


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
        assert by_delta[delta].commutes
    assert not by_delta[1].commutes


@pytest.mark.parametrize("p,g", [(p, 1) for p in range(2, 17)] + [(p, 2) for p in range(2, 5)])
def test_omega_commutes_matches_the_dense_commutators(p, g):
    # the holonomy flag the report reads is the dense G Omega = Omega G of
    # the oracle, over every tag, for every divisor
    rep = WeilRep(p, g)
    for row in omega_family_report(p, g).rows:
        cyc, size, consistent = omega_cyc(row.delta, p, g)
        assert row.orbit_size == size
        assert row.commutes == consistent == omega_commutes(rep, cyc)


def test_omega_family_forms_no_operator(monkeypatch):
    # the report reads the orbits of the certified rules: with CycMat,
    # the dense generators and the generator product refusing, it runs
    def refuse(*args):
        raise AssertionError("formed an operator")

    _clear_library_caches()
    monkeypatch.setattr(CycMat, "__init__", refuse)
    monkeypatch.setattr(WeilRep, "generator_cyc", refuse)
    monkeypatch.setattr(decompose, "_generator_product", refuse)
    report = omega_family_report(9)
    assert report.all_commute and report.independent
    assert [row.commutes for row in omega_family_report(8).rows] == [False, True, True, True]
    assert omega_family_report(4, 2).independent


def test_omega_family_refuses_past_the_bound_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a WeilRep")

    monkeypatch.setattr(decompose, "WeilRep", refuse)
    with pytest.raises(ValueError, match="commutant certificate bounded"):
        omega_family_report(256, 1)


def test_omega_family_refuses_an_uncertified_rule(monkeypatch):
    # one Y exponent bumped off the diagonal breaks the Y rule, so the
    # orbits are not read at all
    real = WeilRep.generator_entries

    def bumped(self, tag):
        cols, exps, factor, scale = real(self, tag)
        if tag == ("Y", 1):
            exps = exps.copy()
            exps[0, np.flatnonzero(cols[0] != 0)[0]] += 1
        return cols, exps, factor, scale

    monkeypatch.setattr(WeilRep, "generator_entries", bumped)
    with pytest.raises(ValueError, match="Egorov rules of \\[\\('Y', 1\\)\\]"):
        omega_family_report(9)


def test_omega_orbit_sizes_partition():
    p = 6
    total = sum(row.orbit_size for row in omega_family_report(p).rows)
    assert total == p * p


@pytest.mark.parametrize("p,g", [(4, 1), (6, 1), (8, 1), (9, 1), (3, 2), (4, 2)])
def test_orbit_sums_match_the_walked_potentials(p, g):
    # on a holonomy-free orbit the potentials anchored at the start vector
    # are unique, so Omega_delta is the sum over the walked phases
    rep = WeilRep(p, g)
    img, z = _evaluated_rules(rep)
    vecs = lattice_vectors(p, g)
    for delta in divisors(p):
        pot, free = walk_orbit(img, z, rep.m, int(diagonal_index(delta, p, g)))
        cyc, size, consistent = omega_cyc(delta, p, g)
        assert (size, consistent) == (len(pot), free)
        if free:
            terms = [schrodinger_cyc(rep, tuple(vecs[:, v]), phase)
                     for v, phase in pot.items()]
            assert np.array_equal(cyc.arr, sum(t.arr for t in terms))


def test_omega_rejects_nondivisor():
    for delta, p in [(4, 6), (0, 5), (-1, 5)]:
        with pytest.raises(ValueError):
            omega_cyc(delta, p)


@pytest.mark.parametrize("p", [3, 5, 9, 15, 21, 27])
def test_odd_label_audit(p):
    report = su2_so3_labels(p)
    assert report.match
    assert report.total_dim == (p - 1) // 2


def test_genus2_certificates_take_the_handle_local_path(monkeypatch):
    # the Egorov identities are index-map products, so no dense group-ring
    # product; Y_i acts as its p x p block on one tensor axis, so the
    # level-8 tower's generator products read at most p = 8 entries a row
    # and no dense 64 x 64 generator operand
    dense_calls = []
    operands = []
    real_dense, real_matmul = cycmat._dense_product, decompose._int_matmul

    def dense_spy(a, b):
        dense_calls.append((a.shape, b.shape))
        return real_dense(a, b)

    def matmul_spy(a, b):
        operands.append(b.shape)
        return real_matmul(a, b)

    monkeypatch.setattr(cycmat, "_dense_product", dense_spy)
    monkeypatch.setattr(decompose, "_int_matmul", matmul_spy)
    assert all(report.ok for report in egorov_verify(5, 2))
    assert dense_calls == [] and operands == []
    assert tower_check(2, 1, 2).passed
    assert operands and {shape[0] for shape in operands} == {64}
    assert max(shape[1] for shape in operands) == 8


@pytest.mark.parametrize("p,g", [(4, 1), (3, 2), (4, 2)])
def test_generator_product_matches_dense_contraction(p, g):
    # G N, and N G in the (G N^T)^T form of `_commutes`
    rep = WeilRep(p, g)
    rng = np.random.default_rng(7 * p + g)
    N = rng.integers(-3, 4, size=(rep.dim, rep.dim)).astype(object)
    for tag in rep.tags():
        gen = rep.generator_cyc(tag).arr
        assert np.array_equal(decompose._generator_product(rep, tag, N),
                              cycmat._int_einsum("itk,tj->ijk", gen, N))
        assert np.array_equal(decompose._generator_product(rep, tag, N.T).swapaxes(0, 1),
                              cycmat._int_einsum("it,tjk->ijk", N, gen))


def test_same_entries_is_a_multiset_comparison():
    # reordered entries are the same multiset; two entries' exponents
    # swapped are not, and exponents agree mod m only
    rows, cols, exps = np.array([0, 1, 2]), np.array([2, 0, 1]), np.array([1, 4, 6])
    same = _same_entries
    order = np.array([2, 0, 1])
    assert same((rows, cols, exps), (rows[order], cols[order], exps[order]), 3, 8)
    assert same((rows, cols, exps), (rows, cols, exps - 8), 3, 8)
    assert not same((rows, cols, exps), (rows, cols, exps[[1, 0, 2]]), 3, 8)
    assert not same((rows, cols, exps), (rows[:2], cols[:2], exps[:2]), 3, 8)
    with pytest.raises(OverflowError):
        same((rows, cols, exps), (rows, cols, exps), 2**31, 2)
    # grouped: one verdict per identity of each stack (the first axis), and
    # a stack whose two sides differ in entry count fails alone
    grouped = decompose._same_entries_grouped
    assert grouped([((rows, cols, np.stack([exps, exps - 8, exps[[1, 0, 2]]])),
                     (rows, cols, np.stack([exps] * 3))),
                    ((rows[None, :2], cols[None, :2], exps[None, :2]),
                     (rows[None], cols[None], exps[None]))], 3, 8).tolist() == [
        True, True, False, False]


def test_grouped_entry_comparison_refuses_keys_past_int64():
    # identities * d^2 m must fit in int64: at d = m = 2^20 each identity
    # spans 2^60 keys, so seven fit and eight do not, in one stack or many
    x = (np.zeros((1, 2), np.int64),) * 3
    seven = (np.zeros((7, 2), np.int64),) * 3
    grouped = decompose._same_entries_grouped
    assert grouped([(x, x)] * 7, 2**20, 2**20).all()
    assert grouped([(seven, seven)], 2**20, 2**20).all()
    for stacks in ([(x, x)] * 8, [(seven, seven), (x, x)]):
        with pytest.raises(OverflowError):
            grouped(stacks, 2**20, 2**20)
