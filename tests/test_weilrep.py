import copy
import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from weildec import weilrep
from weildec.cyclo import field_for_level
from weildec.cycmat import _INT64_MAX, CycMat, _l1, _max_abs, power_matrix
from weildec.decompose import _cyc_equal
from weildec.modgroup import mat_mul, sl2_column, sl2_enumerate, word_decompose
from weildec.ringmat import RingMatrix
from weildec.weilrep import (
    WeilRep,
    _convolve,
    gauss_sum,
    lift_genus1,
    lift_genus1_cyc,
    projective_key,
    trace_abs_sq,
    trace_engine,
)


@pytest.mark.parametrize("p", [3, 4, 5, 7, 8])
def test_gauss_sum_modulus(p):
    g = gauss_sum(1, 0, p)
    field = field_for_level(p)
    # |G|^2 = p at odd levels; the doubled modulus at even levels gives 4p
    assert g.norm_sq() == field.coerce(p if p % 2 else 4 * p)


def test_gauss_sum_shift_invariance():
    # completing the square: G(a, 2ac, m) = A^(-ac^2) G(a, 0, m) for odd m
    p = 5
    field = field_for_level(p)
    a, c = 2, 3
    lhs = gauss_sum(a, 2 * a * c, p)
    step = field.level // p
    rhs = gauss_sum(a, 0, p) * field.root_of_unity((-a * c * c % p) * step)
    assert lhs == rhs


@pytest.mark.parametrize("p,g", [(3, 1), (4, 1), (5, 1), (3, 2)])
def test_heisenberg_product_cocycle(p, g):
    # Add(u) Add(v) = A^(2 sum n_i m'_i) Add(u + v): the straightening
    # phase of moving every modulation past the incoming shifts.
    rep = WeilRep(p, g)
    rng = random.Random(17)
    for _ in range(8):
        u = tuple(rng.randrange(p) for _ in range(2 * g))
        v = tuple(rng.randrange(p) for _ in range(2 * g))
        left = rep.schrodinger_cyc(u) @ rep.schrodinger_cyc(v)
        phase = 2 * sum(u[2 * i + 1] * v[2 * i] for i in range(g))
        total = tuple(a + b for a, b in zip(u, v))
        right = rep.schrodinger_cyc(rep.heisenberg(total, phase))
        assert _cyc_equal(left, right, rep.field)


@pytest.mark.parametrize("p,g", [(3, 1), (4, 1), (5, 1), (3, 2)])
def test_heisenberg_commutator_is_symplectic_phase(p, g):
    rep = WeilRep(p, g)
    rng = random.Random(19)
    for _ in range(8):
        u = tuple(rng.randrange(p) for _ in range(2 * g))
        v = tuple(rng.randrange(p) for _ in range(2 * g))
        hu, hv = rep.heisenberg(u), rep.heisenberg(v)
        left = rep.schrodinger_cyc(hu) @ rep.schrodinger_cyc(hv)
        right = (
            rep.schrodinger_cyc(hv) @ rep.schrodinger_cyc(hu)
        ).mul_root(2 * hu.omega(hv) % rep.m)
        assert _cyc_equal(left, right, rep.field)


@pytest.mark.parametrize("p,g", [(3, 1), (4, 1), (3, 2)])
def test_schrodinger_center_is_scalar(p, g):
    rep = WeilRep(p, g)
    zero = (0,) * (2 * g)
    central = rep.schrodinger_cyc(rep.heisenberg(zero, 1))
    expect = CycMat.identity(rep.m, p ** g).mul_root(1)
    assert _cyc_equal(central, expect, rep.field)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 9])
def test_generators_unitary_genus1(p):
    rep = WeilRep(p, 1)
    ident = CycMat.identity(rep.m, p)
    for tag in rep.tags():
        U = rep.generator_cyc(tag)
        assert _cyc_equal(U @ U.dagger(), ident, rep.field)


@pytest.mark.parametrize("p", [3, 4, 5, 8])
def test_hopf_duality_genus1(p):
    rep = WeilRep(p, 1)
    S = rep.hopf_cyc()
    Sinv = rep.hopf_inverse_cyc()
    X = rep.generator_cyc(("X", 1))
    Y = rep.generator_cyc(("Y", 1))
    assert _cyc_equal((S @ X) @ Sinv, Y, rep.field)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_lift_is_projective_homomorphism(p):
    rng = random.Random(23)
    elts = list(sl2_enumerate(p if p % 2 else 2 * p))
    N = p if p % 2 else 2 * p
    for _ in range(6):
        M1 = elts[rng.randrange(len(elts))]
        M2 = elts[rng.randrange(len(elts))]
        L1 = lift_genus1(p, M1, rng=random.Random(1))
        L2 = lift_genus1(p, M2, rng=random.Random(2))
        L12 = lift_genus1(p, mat_mul(M1, M2, N), rng=random.Random(3))
        assert (L1 @ L2).equal_up_to_scalar(L12)


@pytest.mark.parametrize("p", [3, 4])
def test_lift_word_independent_up_to_scalar(p):
    N = p if p % 2 else 2 * p
    M = (1, 1, 1, 2 % N)
    field = field_for_level(p)
    a = lift_genus1_cyc(p, M, rng=random.Random(4))
    b = lift_genus1_cyc(p, M, rng=random.Random(5))
    assert projective_key(a, field) == projective_key(b, field)


def _permutation(m, p, a, transpose=False):
    """The 0/1 matrix with entry (i, a*i mod p), or (a*i mod p, i), equal to 1."""
    i = np.arange(p)
    mat = CycMat.zero(m, p, p)
    if transpose:
        mat.arr[a * i % p, i, 0] = 1
    else:
        mat.arr[i, a * i % p, 0] = 1
    return mat


def test_projective_key_ignores_unit_scalars_only():
    p = 5
    field = field_for_level(p)
    L = lift_genus1_cyc(p, (2, 1, 1, 1))
    key = projective_key(L, field)
    assert projective_key(L.mul_root(3), field) == key
    assert projective_key(L.scaled(-1), field) == key
    assert projective_key(CycMat(L.m, L.arr, L.scale, L.beta + 5), field) == key
    assert projective_key(L.scaled(2), field) != key  # |2| != 1
    assert projective_key(L.scaled(0), field) == ("zero", p, p)


def test_projective_key_tells_permutation_from_transpose():
    # i -> 3i mod 16 is not an involution, so the two orientations differ
    p, a = 16, 3
    field = field_for_level(p)
    L = lift_genus1_cyc(p, (a, 0, 0, pow(a, -1, 2 * p)))
    key = projective_key(L, field)
    assert key == projective_key(_permutation(L.m, p, a), field)
    assert key != projective_key(_permutation(L.m, p, a, transpose=True), field)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_trace_engine_matches_word_evaluation(p):
    N = p if p % 2 else 2 * p
    engine = trace_engine(p)
    rng = random.Random(31)
    elts = list(sl2_enumerate(N))
    field = field_for_level(p)
    for _ in range(10):
        M = elts[rng.randrange(len(elts))]
        direct = lift_genus1(p, M, rng=random.Random(6)).trace_elt(field)
        want = (direct * direct.conj()).as_fraction()
        assert engine.trace_abs_sq(M) == want


def test_trace_of_identity_and_scalars():
    for p in (2, 3, 4, 8):
        assert trace_abs_sq(p, (1, 0, 0, 1)) == Fraction(p * p)


def test_trace_is_class_function():
    p, N = 4, 8
    elts = list(sl2_enumerate(N))
    rng = random.Random(37)
    from weildec.modgroup import mat_inv

    for _ in range(15):
        M = elts[rng.randrange(len(elts))]
        P = elts[rng.randrange(len(elts))]
        conj = mat_mul(mat_mul(P, M, N), mat_inv(P, N), N)
        assert trace_abs_sq(p, M) == trace_abs_sq(p, conj)


def _textbook_lift(p, M, rng=None):
    """The word of `word_decompose` multiplied out as field matrices, each
    factor built from its formula: S = (1/m) beta-root^(-3 eps) gamma_+
    (A^(-2kj)) and S^{-1} = (1/m) beta-root^(3 eps) gamma_- (A^(2kj)),
    with the Gauss sums gamma_+ = G(-1, 0) and gamma_- = G(1, 0), and
    T^t = beta-root^(-t eps) diag(A^(-t j^2))."""
    field = field_for_level(p)
    m = p if p % 2 else 2 * p
    eps = 1 - p % 2
    L = field.level

    def root(e, order):
        return field.root_of_unity(e * (L // order))

    def S(s):
        c = gauss_sum(-s, 0, p) * root(-3 * s * eps, 24) * Fraction(1, m)
        return RingMatrix(field, [[c * root(-2 * s * k * j, m) for j in range(p)]
                                  for k in range(p)])

    def T(t):
        return RingMatrix.diagonal(field, [root(-t * j * j, m) * root(-t * eps, 24)
                                           for j in range(p)])

    out = RingMatrix.identity(field, p)
    for kind, val in word_decompose(tuple(v % m for v in M), m, rng=rng):
        out = out @ (S(val) if kind == "S" else T(val))
    return out


@pytest.mark.parametrize("p", [3, 4, 5, 8, 9])
def test_cycmat_equal_up_to_scalar_agrees_with_field_matrices(p):
    N = p if p % 2 else 2 * p
    field = field_for_level(p)
    rng = random.Random(83 + p)
    for _ in range(3):
        M, M2 = _random_sl2(rng, N), _random_sl2(rng, N)
        L = lift_genus1(p, M)
        others = [lift_genus1(p, M, rng=random.Random(rng.randrange(2**32))),
                  lift_genus1(p, M2), L.mul_root(1).scaled(3)]
        for other in others:
            lam = L.equal_up_to_scalar(other)
            assert lam == L.to_ring(field).equal_up_to_scalar(other.to_ring(field))
            assert (lam is None) == (M2 != M and other is others[1])


def _has_s_pair(M, N, rng):
    word = word_decompose(M, N, rng=copy.deepcopy(rng))
    return any(x[0] == y[0] == "S" for x, y in zip(word, word[1:]))


def test_lift_cyc_agrees_with_ring_lift():
    # the ring lift is the textbook word product; exact equality, scale and
    # beta-root included.  Every word here has a run of S-factors, which
    # the lift folds in pairs: -I is S S, diag(a, 1/a) ends in S S or
    # S S S, and the seeded words are drawn until two have such a run
    for p in (3, 4, 5, 8):
        N = p if p % 2 else 2 * p
        field = field_for_level(p)
        a = 3 if p > 3 else 2
        cases = [((N - 1, 0, 0, N - 1), None), ((a, 0, 0, pow(a, -1, N)), None)]
        rng = random.Random(79 + p)
        while len(cases) < 4:
            case = (_random_sl2(rng, N), random.Random(rng.randrange(2**32)))
            if _has_s_pair(case[0], N, case[1]):
                cases.append(case)
        for M, word_rng in cases:
            assert _has_s_pair(M, N, word_rng)
            got = lift_genus1(p, M, rng=copy.deepcopy(word_rng)).to_ring(field)
            assert got == _textbook_lift(p, M, rng=word_rng)


@pytest.mark.parametrize("p,g", [(3, 2), (4, 2)])
def test_genus2_generators_unitary(p, g):
    rep = WeilRep(p, g)
    ident = CycMat.identity(rep.m, p ** g)
    for tag in rep.tags():
        U = rep.generator_cyc(tag)
        assert _cyc_equal(U @ U.dagger(), ident, rep.field)


def _fixed_vectors(M, N):
    a, b, c, d = M
    return sum(1 for x in range(N) for y in range(N)
               if ((a - 1) * x + b * y) % N == 0 and (c * x + (d - 1) * y) % N == 0)


def _random_sl2(rng, N):
    while True:
        M = tuple(rng.randrange(N) for _ in range(4))
        if (M[0] * M[3] - M[1] * M[2]) % N == 1:
            return M


@pytest.mark.parametrize("N,count", [(3, 8), (5, 8), (7, 8), (9, 8), (15, 8),
                                     (21, 8), (25, 8), (27, 8), (31, 3),
                                     (33, 4), (45, 4), (63, 3)])
def test_trace_matches_fixed_point_count(N, count):
    # odd level: |Tr pi(M)|^2 = #{v in (Z/N)^2 : Mv = v}
    rng = random.Random(41 + N)
    for _ in range(count):
        M = _random_sl2(rng, N)
        assert trace_abs_sq(N, M) == _fixed_vectors(M, N)


def _dilation(engine, c):
    """The 0/1 matrix of the engine's index map for diag(c, 1/c)."""
    mat = CycMat.zero(engine.m, engine.p, engine.p)
    mat.arr[engine._dmat(c), np.arange(engine.p), 0] = 1
    return mat


def _assert_diag_lift_is_dilation(p, c):
    # the word lift of diag(c, 1/c) is monomial in the field, and a unit
    # scalar times the dilation the trace engine uses in its place
    engine = trace_engine(p)
    L = lift_genus1_cyc(p, (c, 0, 0, pow(c, -1, engine.m)))
    D = _dilation(engine, c)
    P = power_matrix(engine.field, engine.m)
    assert _max_abs(L.arr) * _l1(P) <= _INT64_MAX
    assert np.array_equal((L.arr @ P).any(axis=-1), D.arr.any(axis=-1))
    assert projective_key(L, engine.field) == projective_key(D, engine.field)


@pytest.mark.parametrize("p", range(2, 17))
def test_diag_lift_is_the_engine_dilation(p):
    m = p if p % 2 else 2 * p
    for c in range(1, m):
        if gcd(c, m) == 1:
            _assert_diag_lift_is_dilation(p, c)


def test_diag_lift_is_the_engine_dilation_at_level_32():
    for c in random.Random(73).sample(range(1, 64, 2), 4):
        _assert_diag_lift_is_dilation(32, c)


def test_trace_at_level_32_matches_word_evaluation():
    # all three share the engine's cached dilation for diag(-1, -1)
    assert trace_abs_sq(32, (1, 0, 0, 1)) == 1024
    for M in [(1, 0, 63, 1), (1, 0, 4, 1)]:  # unit c, then non-unit c
        direct = lift_genus1(32, M).trace_elt(field_for_level(32))
        assert trace_abs_sq(32, M) == (direct * direct.conj()).as_fraction()


def test_trace_overflow_guard_raises(monkeypatch):
    engine = trace_engine(5)
    big = np.full(engine.m, 2**31, dtype=np.int64)
    big[0] = 0
    monkeypatch.setattr(engine, "trace_vector", lambda M: (big, Fraction(1)))
    with pytest.raises(OverflowError):
        engine.trace_abs_sq((1, 0, 0, 1))
    with pytest.raises(OverflowError):
        _convolve(engine._gauss, np.full((3, engine.m), 2**62, dtype=np.int64))


def _column_values(engine, c):
    """|Tr|^2 of every element of column c, read off the batched rows."""
    m = engine.m
    if gcd(c, m) == 1:
        # one row per s = (a + d) / c, shared by the m elements that have it
        n = engine.abs_sq_rows(engine._sweep_rows(engine._kvec(c)))
        scale = engine._gauss_scale
        cinv = pow(c, -1, m)
        return {(a, b, c, d): int(n[(a + d) * cinv % m]) * scale**2
                for a, b, d in zip(*(col.tolist() for col in sl2_column(m, c)))}
    a, b, d, u, X = (col.tolist() for col in engine._column_keys(c))
    n = {v: engine.abs_sq_rows(engine._nonunit_rows(c, v)) for v in set(u)}
    return {(A, B, c, D): int(n[U][x]) * engine._gauss_sq_scale ** 2
            for A, B, D, U, x in zip(a, b, d, u, X)}


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8, 9, 12])
def test_batched_abs_sq_matches_per_element(p):
    engine = trace_engine(p)
    m = engine.m
    columns = defaultdict(dict)
    for M in sl2_enumerate(m):
        columns[M[2]][M] = engine.trace_abs_sq(M)
    for c, want in columns.items():
        assert _column_values(engine, c) == want
        # the blocks char_sum adds up cover the column with the same total
        blocks = engine.column_abs_sq(c)
        assert sum(int(w.sum()) for _n, _s, w in blocks) == len(want)
        assert sum(int(x) * int(w) * scale**2 for n, scale, weight in blocks
                   for x, w in zip(n, weight)) == sum(want.values())


def test_abs_sq_rows_bound_raises():
    engine = trace_engine(5)
    rows = np.zeros((3, engine.m), dtype=np.int64)
    rows[1, 1:] = 2**31
    with pytest.raises(OverflowError):
        engine.abs_sq_rows(rows)


def test_abs_sq_rows_rejects_irrational_row():
    engine = trace_engine(5)
    rows = np.zeros((2, engine.m), dtype=np.int64)
    rows[:, 0] = 1
    rows[1, 1] = 1  # |1 + A|^2 = 2 + A + A^-1, not rational for A of order 5
    assert engine.abs_sq_rows(rows[:1]).tolist() == [1]
    with pytest.raises(ValueError, match="row 1"):
        engine.abs_sq_rows(rows)


def _loop_y_block(p, m):
    """The Y generator's block entry by entry: sum_k A^(k^2 - (i - j)^2)."""
    arr = np.zeros((p, p, m), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            for k in range(m):
                arr[i, j, (k * k - (i - j) ** 2) % m] += 1
    return arr


@pytest.mark.parametrize("p,g", [(3, 1), (4, 1), (6, 1), (3, 2), (4, 2)])
def test_y_generator_gather_matches_loop(p, g):
    rep = WeilRep(p, g)
    one = CycMat(rep.m, _loop_y_block(p, rep.m), Fraction(1, rep.m))
    for i in range(1, g + 1):
        got = rep.generator_cyc(("Y", i))
        want = rep._embed_handle(one, i)
        assert got.arr.dtype == want.arr.dtype
        assert np.array_equal(got.arr, want.arr)
        assert (got.scale, got.beta) == (want.scale, want.beta)


def _dense_lift(p, M, rng=None):
    """The lift multiplied out factor by factor with CycMat.__matmul__:
    S[i, j] = (1/m) beta-root^(-3 eps) sum_k A^(-k^2 - 2ij), S^{-1} its
    dagger and T^t = diag(A^(-t i^2)) with beta-root^(-t eps)."""
    m = p if p % 2 else 2 * p
    eps = 1 - p % 2
    arr = np.zeros((p, p, m), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            for k in range(m):
                arr[i, j, (-k * k - 2 * i * j) % m] += 1
    S = CycMat(m, arr, Fraction(1, m), beta=-3 * eps)
    out = CycMat.identity(m, p)
    for kind, val in word_decompose(tuple(v % m for v in M), m, rng=rng):
        if kind == "S":
            out = out @ (S if val == 1 else S.dagger())
        else:
            out = out @ CycMat.monomial_diag(m, [-val * i * i for i in range(p)],
                                             beta=-val * eps)
    return out


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8, 9, 12, 16])
def test_structured_lift_matches_dense_products(p):
    N = p if p % 2 else 2 * p
    field = field_for_level(p)
    rng = random.Random(43 + p)
    for _ in range(4):
        M = _random_sl2(rng, N)
        for word_seed in (None, rng.randrange(2**32)):
            structured, dense = (
                lift(p, M, rng=None if word_seed is None else random.Random(word_seed))
                for lift in (lift_genus1_cyc, _dense_lift))
            assert _cyc_equal(structured, dense, field)


def test_lift_overflow_guard_raises(monkeypatch):
    def huge_identity(cls, m, n):
        return cls(m, np.full((n, n, m), 2**62, dtype=np.int64))

    monkeypatch.setattr(CycMat, "identity", classmethod(huge_identity))
    with pytest.raises(OverflowError):
        lift_genus1_cyc(5, (0, 4, 1, 0))  # the word of S has an S-factor


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_lift_matches_dense_products_on_every_element(p):
    # scale and beta-root phase included: _cyc_equal compares both
    N = p if p % 2 else 2 * p
    field = field_for_level(p)
    elements = list(sl2_enumerate(N))
    for M in elements:
        assert _cyc_equal(lift_genus1_cyc(p, M), _dense_lift(p, M), field)
    rng = random.Random(61 + p)
    for M in rng.sample(elements, 12):
        word_seed = rng.randrange(2**32)
        structured, dense = (lift(p, M, rng=random.Random(word_seed))
                             for lift in (lift_genus1_cyc, _dense_lift))
        assert _cyc_equal(structured, dense, field)


@pytest.mark.parametrize("p", [4, 5, 9])
def test_lift_normalised_between_gathers_is_unchanged(p, monkeypatch):
    # a tiny threshold makes every gather's output take the on-demand _normalise
    N = p if p % 2 else 2 * p
    field = field_for_level(p)
    rng = random.Random(67 + p)
    elements = [_random_sl2(rng, N) for _ in range(6)]
    monkeypatch.setattr(weilrep, "_INT64_MAX", p)
    for M in elements:
        assert _cyc_equal(lift_genus1_cyc(p, M), _dense_lift(p, M), field)


@pytest.mark.parametrize("p", [3, 4, 5, 8, 9, 12, 16])
def test_gauss_power_matches_field_powers(p):
    field = field_for_level(p)
    m = p if p % 2 else 2 * p
    step = field.level // m
    for sign in (1, -1):
        gamma = gauss_sum(-sign, 0, p)
        for count in range(1, 9):
            vec, g = weilrep._gauss_power(p, sign, count)
            spread = [0] * field.level
            for t, v in enumerate(vec.tolist()):
                spread[t * step] = v
            assert field.from_int_vector(spread) * g == gamma ** count
    norm = weilrep._lift_images(p)["norm"]
    assert gauss_sum(-1, 0, p) * gauss_sum(1, 0, p) == field.from_rational(norm)


def test_deferred_gauss_convolution_overflow_raises(monkeypatch):
    def huge_power(p, sign, count):
        m = p if p % 2 else 2 * p
        return np.full(m, 2**62, dtype=np.int64) - np.arange(m), 1

    monkeypatch.setattr(weilrep, "_gauss_power", huge_power)
    with pytest.raises(OverflowError):
        lift_genus1_cyc(5, (0, 4, 1, 0))  # the word of S has an S-factor


def test_cold_level_32_lift_gathers_in_blocks():
    # a gather of all p k-slices at once would hold a p^3 m array
    p, m = 32, 64
    rng = random.Random(71)
    M = next(M for M in iter(lambda: _random_sl2(rng, m), None)
             if sum(kind == "S" for kind, _ in word_decompose(M, m)) == 8)
    weilrep._lift_images.cache_clear()
    weilrep._gauss_power.cache_clear()
    tracemalloc.start()
    try:
        lift_genus1_cyc(p, M)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * p * p * m * 8


def _worst_lift(p):
    """Among the seeded elements whose word has 8 S-factors, the lift with
    the largest entries."""
    N = p if p % 2 else 2 * p
    rng = random.Random(p)
    sample = [_random_sl2(rng, N) for _ in range(200)]
    worst = [M for M in sample if sum(kind == "S" for kind, _ in word_decompose(M, N)) == 8]
    return max((lift_genus1_cyc(p, M) for M in worst), key=lambda L: _max_abs(L.arr))


@pytest.mark.parametrize("p", [21, 27, 29, 31, 32])
def test_long_word_lift_is_unitary(p):
    # word lifts used to grow to 58-62 bits here, and L L^+ then wrapped in
    # int64 and compared unequal to I although L is unitary
    L = _worst_lift(p)
    assert _max_abs(L.arr).bit_length() < 32
    assert _cyc_equal(L @ L.dagger(), CycMat.identity(L.m, p), field_for_level(p))


def _kron_schrodinger(rep, h):
    """Add(h) as the Kronecker product of its one-handle factors
    Sh^m Mod^n (e_a -> A^(2 n a) e_(a+m)), times A^z."""
    mat = None
    for i in range(rep.g):
        mi, ni = h.X[2 * i], h.X[2 * i + 1]
        arr = np.zeros((rep.p, rep.p, rep.m), dtype=np.int64)
        for a in range(rep.p):
            arr[(a + mi) % rep.p, a, (2 * ni * a) % rep.m] = 1
        one = CycMat(rep.m, arr)
        mat = one if mat is None else mat.kron(one)
    return mat.mul_root(h.z)


@pytest.mark.parametrize("p,g", [(2, 1), (3, 2), (4, 2), (6, 2), (5, 3)])
def test_schrodinger_matches_kron_oracle(p, g):
    rep = WeilRep(p, g)
    rng = random.Random(59 * p + g)
    for _ in range(6):
        h = rep.heisenberg([rng.randrange(rep.m) for _ in range(2 * g)],
                           rng.randrange(rep.m))
        got, want = rep.schrodinger_cyc(h), _kron_schrodinger(rep, h)
        assert got.arr.dtype == want.arr.dtype
        assert np.array_equal(got.arr, want.arr)
        assert (got.scale, got.beta) == (want.scale, want.beta)


def _loop_diag(m, exps):
    arr = np.zeros((len(exps), len(exps), m), dtype=np.int64)
    for i, e in enumerate(exps):
        arr[i, i, e % m] = 1
    return arr


@pytest.mark.parametrize("p,g", [(3, 1), (4, 2), (3, 3)])
def test_diagonal_generators_match_kron_oracle(p, g):
    rep = WeilRep(p, g)
    one = CycMat(rep.m, _loop_diag(rep.m, [a * a for a in range(p)]))
    for i in range(1, g + 1):
        got = rep.generator_cyc(("X", i))
        assert np.array_equal(got.arr, rep._embed_handle(one, i).arr)
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            exps = [(a[i - 1] - a[j - 1]) ** 2 for a in rep._multi_indices()]
            got = rep.generator_cyc(("Z", i, j))
            assert np.array_equal(got.arr, _loop_diag(rep.m, exps))
    with pytest.raises(ValueError):
        rep.diagonal_exponents(("Y", 1))
