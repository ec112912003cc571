import copy
import random
import tracemalloc
import types
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from weildec import analysis, cycmat, weilrep
from weildec.cyclo import CycloElt, field_for_level
from weildec.cycmat import (
    _INT64_MAX,
    CycMat,
    _convolve,
    _l1,
    _max_abs,
    _normalise_each,
    field_coords,
    power_matrix,
)
from weildec.decompose import _cyc_equal, _symmetric
from weildec.modgroup import (
    class_representatives,
    mat_mul,
    sl2_column,
    sl2_enumerate,
    word_decompose,
)
from weildec.ringmat import RingMatrix
from weildec.weilrep import (
    WeilRep,
    gauss_sum,
    lift_genus1,
    lift_genus1_cyc,
    lift_genus1_many,
    projective_key,
    projective_keys,
    trace_abs_sq,
    trace_engine,
)

from commutant_oracle import schrodinger_cyc, symplectic_form, trace_elt


def _mul_root(mat, e):
    """mat times A^e: every entry vector rolled by e."""
    return CycMat(mat.m, np.roll(mat.arr, e, axis=2), mat.scale, mat.beta)


def _loop_diag(m, exps):
    arr = np.zeros((len(exps), len(exps), m), dtype=np.int64)
    for i, e in enumerate(exps):
        arr[i, i, e % m] = 1
    return arr


def _embed_handle(rep, one_handle, i):
    """1^(i-1) (x) M (x) 1^(g-i) in the tensor basis (handle 1 leading), by
    Kronecker products with identities: the dense oracle of a generator
    that acts on handle i alone."""
    out = one_handle
    if i > 1:
        out = CycMat.identity(rep.m, rep.p ** (i - 1)).kron(out)
    if i < rep.g:
        out = out.kron(CycMat.identity(rep.m, rep.p ** (rep.g - i)))
    return out


@pytest.mark.parametrize("p", [3, 4, 5, 7, 8])
def test_gauss_sum_modulus(p):
    g = gauss_sum(1, 0, p)
    field = field_for_level(p)
    # |G|^2 = p at odd levels; the doubled modulus at even levels gives 4p
    assert g.norm_sq() == field.coerce(p if p % 2 else 4 * p)


@pytest.mark.parametrize("p", range(1, 25))
def test_gauss_sum_is_a_sum_of_roots_of_unity(p):
    field = field_for_level(p)
    m = p if p % 2 else 2 * p
    roots = [field.root_of_unity(field.level // m * t) for t in range(m)]
    for a in range(-3, 4):
        for b in range(-3, 4):
            want = sum((roots[(a * k * k + b * k) % m] for k in range(m)), field.zero())
            assert gauss_sum(a, b, p) == want


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
        left = schrodinger_cyc(rep, u) @ schrodinger_cyc(rep, v)
        phase = 2 * sum(u[2 * i + 1] * v[2 * i] for i in range(g))
        total = tuple(a + b for a, b in zip(u, v))
        right = schrodinger_cyc(rep, total, phase)
        assert _cyc_equal(left, right, rep.field)


@pytest.mark.parametrize("p,g", [(3, 1), (4, 1), (5, 1), (3, 2)])
def test_heisenberg_commutator_is_symplectic_phase(p, g):
    rep = WeilRep(p, g)
    rng = random.Random(19)
    for _ in range(8):
        u = tuple(rng.randrange(p) for _ in range(2 * g))
        v = tuple(rng.randrange(p) for _ in range(2 * g))
        left = schrodinger_cyc(rep, u) @ schrodinger_cyc(rep, v)
        right = _mul_root(schrodinger_cyc(rep, v) @ schrodinger_cyc(rep, u),
                          -2 * symplectic_form(u, v, g, rep.m) % rep.m)
        assert _cyc_equal(left, right, rep.field)


def test_schrodinger_refuses_a_vector_of_the_wrong_length():
    # vecs must be 2-D with 2g rows: a (4, 1) array at genus 1 is refused,
    # not read as two vectors
    for (p, g), shape in [((3, 2), (3, 1)), ((3, 2), (5, 1)), ((5, 1), (4, 1)),
                          ((5, 1), (2,)), ((3, 2), (4, 1, 1))]:
        vecs = np.arange(1, np.prod(shape) + 1).reshape(shape)
        with pytest.raises(ValueError, match=r"expected \(%d, k\)" % (2 * g)):
            WeilRep(p, g).schrodinger_map(vecs)


def test_schrodinger_refuses_a_fractional_vector_and_reads_int32():
    # a float column was truncated: (0.5, 2.7) gave the map of shift 0
    rep = WeilRep(5, 1)
    with pytest.raises(ValueError, match="expected integers"):
        rep.schrodinger_map(np.array([[0.5], [2.7]]))
    vecs = np.array([[0, 1, 4, 7], [0, 3, 2, -1]])
    for got, want in zip(rep.schrodinger_map(vecs.astype(np.int32)), rep.schrodinger_map(vecs)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p,g", [(3, 1), (4, 1), (3, 2)])
def test_schrodinger_center_is_scalar(p, g):
    rep = WeilRep(p, g)
    zero = (0,) * (2 * g)
    central = schrodinger_cyc(rep, zero, 1)
    expect = _mul_root(CycMat.identity(rep.m, p ** g), 1)
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
    assert projective_key(_mul_root(L, 3), field) == key
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
        direct = trace_elt(lift_genus1(p, M, rng=random.Random(6)), field)
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
def test_cycmat_equal_up_to_scalar_agrees_with_field_matrices(monkeypatch, p):
    N = p if p % 2 else 2 * p
    field = field_for_level(p)
    rng = random.Random(83 + p)
    for _ in range(3):
        M, M2 = _random_sl2(rng, N), _random_sl2(rng, N)
        L = lift_genus1(p, M)
        others = [lift_genus1(p, M, rng=random.Random(rng.randrange(2**32))),
                  lift_genus1(p, M2), _mul_root(L, 1).scaled(3)]
        for other in others:
            lam = L.equal_up_to_scalar(other)
            assert lam == L.to_ring(field).equal_up_to_scalar(other.to_ring(field))
            assert (lam is None) == (M2 != M and other is others[1])
            # a budget of one entry checks one entry vector per slab
            with monkeypatch.context() as patch:
                patch.setattr(cycmat, "_GATHER_ENTRIES", 1)
                assert L.equal_up_to_scalar(other) == lam


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
        direct = trace_elt(lift_genus1(32, M), field_for_level(32))
        assert trace_abs_sq(32, M) == (direct * direct.conj()).as_fraction()


def test_trace_overflow_guard_raises(monkeypatch):
    engine = trace_engine(5)
    big = np.full(engine.m, 2**31, dtype=np.int64)
    big[0] = 0
    monkeypatch.setattr(engine, "trace_vector", lambda M: (big, Fraction(1)))
    with pytest.raises(OverflowError):
        engine.trace_abs_sq((1, 0, 0, 1))
    with pytest.raises(OverflowError):
        _convolve(engine._gauss[None], np.full((1, 3, engine.m), 2**62, dtype=np.int64))


def _column_values(engine, c):
    """|Tr|^2 of every element of column c, read off the swept tables, one
    table at a time."""
    m = engine.m
    a, b, d = sl2_column(m, c)
    u, s = engine._keys(c, a, b, d)
    if gcd(c, m) == 1:
        # one row per s = (a + d) / c, shared by the m elements that have it
        assert not u.any() and np.array_equal(s, (a + d) * pow(c, -1, m) % m)
    scale = engine._gauss_scale if gcd(c, m) == 1 else engine._gauss_sq_scale
    n = {v: engine.abs_sq_rows(engine._sweep_rows(engine._tables(c, np.array([v])))[0])
         for v in set(u.tolist())}
    return {(A, B, c, D): int(n[U][S]) * scale**2
            for A, B, D, U, S in zip(*(col.tolist() for col in (a, b, d, u, s)))}


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


def test_abs_sq_rows_owns_its_data():
    # a view of the coordinate array would keep the whole array of every
    # chunk alive until column_abs_sq concatenates the results
    engine = trace_engine(9)
    rows, _ = engine.trace_vectors([(1, 1, 0, 1), (0, 8, 1, 0)])
    n = engine.abs_sq_rows(rows)
    assert n.base is None and n.flags.owndata


def _assert_batch_is_the_oracle(engine, Ms):
    rows, scales = engine.trace_vectors(Ms)
    assert len(scales) == len(Ms)
    for M, row, scale, n in zip(Ms, rows, scales, engine.abs_sq_rows(rows).tolist()):
        vec, want = engine.trace_vector(M)
        assert np.array_equal(row, vec) and scale == want
        assert n * scale**2 == engine.trace_abs_sq(M)


@pytest.mark.parametrize("n", range(2, 7))
def test_census_batch_matches_per_element(n):
    # moduli 4..64: unit and non-unit lower-left entries in one batch
    engine = trace_engine(2 ** (n - 1))
    reps = class_representatives(n)
    assert {engine._inv[rep.matrix[2]] > 0 for rep in reps} == {True, False}
    _assert_batch_is_the_oracle(engine, [rep.matrix for rep in reps])


@pytest.mark.parametrize("p", [2, 3, 5, 6])
def test_trace_vectors_match_per_element_on_the_group(p):
    engine = trace_engine(p)
    _assert_batch_is_the_oracle(engine, list(sl2_enumerate(engine.m)))


def test_trace_vectors_refuse_a_non_sl2_matrix():
    with pytest.raises(ValueError, match="not in SL2"):
        trace_engine(5).trace_vectors([(1, 0, 0, 1), (2, 0, 0, 1)])


def _word_lift_abs_sq(p, Ms):
    """|Tr|^2 of the word lift of every M of Ms: the diagonal entry vectors
    of its `lift_genus1_many` lift summed into v, and |v|^2 the
    autocorrelation of v in Python ints, mapped by `field_coords`."""
    field = field_for_level(p)
    out = []
    for lift in lift_genus1_many(p, Ms):
        v = lift.arr[np.arange(p), np.arange(p)].sum(axis=0).astype(object)
        coords = field_coords(np.array([v @ np.roll(v, -s) for s in range(lift.m)]),
                              field, lift.m).tolist()
        assert not any(coords[1:])
        out.append(coords[0] * lift.scale**2)
    return out


@pytest.mark.parametrize("p", range(2, 10))
def test_both_sweeps_match_the_word_lift_on_the_group(p):
    # an oracle that shares no key and no table with the engine: the word
    # lift of every element of SL2(Z/m)
    engine = trace_engine(p)
    Ms = list(sl2_enumerate(engine.m))
    want = _word_lift_abs_sq(p, Ms)
    rows, scales = engine.trace_vectors(Ms)
    assert [n * scale**2 for n, scale in zip(engine.abs_sq_rows(rows).tolist(), scales)] == want
    for c in range(engine.m):
        got = Counter()
        for n, scale, count in engine.column_abs_sq(c):
            for x, k in zip(n.tolist(), count.tolist()):
                got[x * scale**2] += k
        assert +got == Counter(v for M, v in zip(Ms, want) if M[2] == c)


@pytest.mark.parametrize("p", [9, 12, 16, 32])
def test_chunking_leaves_the_columns_unchanged(monkeypatch, p):
    # a budget of one entry puts every item in a chunk of its own
    engine = trace_engine(p)
    want = [engine.column_abs_sq(c) for c in range(engine.m)]
    value = analysis.char_sum(p).value  # the census path at 16 and 32
    monkeypatch.setattr(cycmat, "_GATHER_ENTRIES", 1)
    assert analysis.char_sum(p).value == value
    got = [engine.column_abs_sq(c) for c in range(engine.m)]
    for blocks, wanted in zip(got, want):
        assert len(blocks) == len(wanted)
        for (n, scale, count), (n0, scale0, count0) in zip(blocks, wanted):
            assert np.array_equal(n, n0) and scale == scale0
            assert np.array_equal(count, count0)


def _engine_with_rolls(p, vec):
    """A fresh engine whose every roll of g0 and of g0 * g0 is a roll of vec."""
    engine = weilrep._TraceEngine(p)
    engine._gauss_rolls = engine._gauss_sq_rolls = cycmat._windows(vec)
    return engine


@pytest.mark.parametrize("p", [5, 8])  # full enumeration, then the census
def test_batched_paths_raise_past_the_bound(monkeypatch, p):
    m = p if p % 2 else 2 * p
    vec = np.zeros(m, dtype=np.int64)
    vec[:2] = 2**31, 1  # content 1: normalising leaves the rows as large
    engine = _engine_with_rolls(p, vec)
    for M in [(1, 1, 1, 2), (1, 0, 2, 1)]:  # a unit c, then a non-unit c
        rows, _ = engine.trace_vectors([M])
        assert _max_abs(rows) >= 2**31
        with pytest.raises(OverflowError):
            engine.abs_sq_rows(rows)
    for c in (1, 0, 2):
        with pytest.raises(OverflowError):
            engine.column_abs_sq(c)
    monkeypatch.setattr(analysis, "trace_engine", lambda _p: engine)
    with pytest.raises(OverflowError):
        analysis.char_sum(p)


@pytest.mark.parametrize("p", [5, 8])
def test_batched_paths_reject_irrational_rows(monkeypatch, p):
    # each trace becomes (1 + A^-1) times a sum of roots of unity; its
    # |.|^2 is irrational wherever that sum is nonzero
    m = p if p % 2 else 2 * p
    engine = _engine_with_rolls(p, np.eye(m, dtype=np.int64)[:2].sum(axis=0))
    rows, _ = engine.trace_vectors(list(sl2_enumerate(m)))
    with pytest.raises(ValueError, match="not rational"):
        engine.abs_sq_rows(rows)
    for c in (1, 0):
        with pytest.raises(ValueError, match="not rational"):
            engine.column_abs_sq(c)
    monkeypatch.setattr(analysis, "trace_engine", lambda _p: engine)
    with pytest.raises(ValueError, match="not rational"):
        analysis.char_sum(p)


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
        want = _embed_handle(rep, one, i)
        assert got.arr.dtype == want.arr.dtype
        assert np.array_equal(got.arr, want.arr)
        assert (got.scale, got.beta) == (want.scale, want.beta)


@pytest.mark.parametrize("p,g", [(3, 1), (4, 2), (6, 2), (3, 3)])
def test_generators_are_symmetric(p, g):
    # the oracle `_commutes` takes operand @ G as (G operand^T)^T, and the
    # tower's complement identity is its restriction identity transposed;
    # the entry check `_symmetric` agrees with the dense view, and refuses
    # one off-diagonal Y exponent bumped by 1
    rep = WeilRep(p, g)
    for tag in rep.tags():
        arr = rep.generator_cyc(tag).arr
        assert np.array_equal(arr, arr.transpose(1, 0, 2))
        assert _symmetric(rep, [tag])[0]
    cols, exps, factor, scale = rep.generator_entries(("Y", 1))
    bumped = exps.copy()
    bumped[0, np.flatnonzero(cols[0] != 0)[0]] += 1
    stub = types.SimpleNamespace(dim=rep.dim, m=rep.m, generator_entries=lambda tag: (
        cols, bumped, factor, scale))
    assert not _symmetric(stub, [("Y", 1)])[0]


def test_genus_one_y_entries_are_the_block():
    # at genus one the Y entries are the block S[a, b] = (1/m) gamma
    # A^(-(a - b)^2): exponents -(a - b)^2 mod m at every column b, and the
    # Gauss vector gamma[t] = #{k : k^2 = t mod m} as the one factor
    rep = WeilRep(128, 1)
    cols, exps, factor, scale = rep.generator_entries(("Y", 1))
    a, b = np.indices((128, 128))
    assert np.array_equal(exps, -(a - b) ** 2 % 256)
    assert np.array_equal(cols, np.tile(np.arange(128), (128, 1)))
    gamma = np.zeros(256, dtype=np.int64)
    for k in range(256):
        gamma[k * k % 256] += 1
    assert np.array_equal(factor, gamma)
    assert scale == Fraction(1, 256)


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
            out = out @ CycMat(m, _loop_diag(m, [-val * i * i for i in range(p)]),
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


def _gather_count(p, M):
    """How many S-factors of M's word are gathers (not folded in pairs)."""
    m = p if p % 2 else 2 * p
    return len(weilrep._read_word(word_decompose(M, m), 1 - p % 2, m)[0])


def test_lift_overflow_guard_raises(monkeypatch):
    # the first two gathers only count single powers; from the third on,
    # each gather of rolled rows is preceded by the bound p max|out|
    M = (0, 2, 2, 0)
    assert _gather_count(5, M) >= 3
    lift_genus1_cyc(5, M)  # warm: the Gauss vectors are normalised once
    monkeypatch.setattr(cycmat, "_INT64_MAX", 1)
    with pytest.raises(OverflowError, match="lift gather"):
        lift_genus1_cyc(5, M)
    with pytest.raises(OverflowError, match="lift gather"):
        lift_genus1_many(5, [(1, 0, 0, 1), M])


def _assert_same_lift(a, b):
    assert a.arr.dtype == b.arr.dtype and np.array_equal(a.arr, b.arr)
    assert (a.scale, a.beta) == (b.scale, b.beta)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8, 9, 12])
def test_batched_lift_is_each_lift_alone(monkeypatch, p):
    # bitwise, whatever the batch: arr, scale and beta of every element
    N = p if p % 2 else 2 * p
    elements = list(sl2_enumerate(N))
    if len(elements) > 600:
        elements = random.Random(83 + p).sample(elements, 600)
    batch = lift_genus1_many(p, elements)
    # every kind of word meets: no gather, one, two, and from p = 4 on three or more
    assert {0, 1} <= {_gather_count(p, M) for M in elements}
    assert p < 4 or max(_gather_count(p, M) for M in elements) >= 3
    for M, lift in zip(elements, batch):
        _assert_same_lift(lift, lift_genus1_many(p, [M])[0])
    # a budget of one entry puts every element in a chunk of its own and
    # every k-slice of a gather in a block of its own
    monkeypatch.setattr(cycmat, "_GATHER_ENTRIES", 1)
    for lift, alone in zip(batch, lift_genus1_many(p, elements)):
        _assert_same_lift(lift, alone)


@pytest.mark.parametrize("p", [4, 9])
def test_batched_random_words_draw_in_order(p):
    # one rng gives the elements their words in order, as single calls would
    N = p if p % 2 else 2 * p
    rng = random.Random(89 + p)
    elements = [_random_sl2(rng, N) for _ in range(24)]
    batch = lift_genus1_many(p, elements, rng=random.Random(5))
    word_rng = random.Random(5)
    for M, lift in zip(elements, batch):
        _assert_same_lift(lift, lift_genus1_cyc(p, M, rng=word_rng))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_batched_lift_matches_dense_products_on_every_element(p):
    # the whole group through one batch, scale and beta-root phase included
    N = p if p % 2 else 2 * p
    field = field_for_level(p)
    elements = list(sl2_enumerate(N))
    for M, lift in zip(elements, lift_genus1_many(p, elements)):
        assert _cyc_equal(lift, _dense_lift(p, M), field)


def test_batched_lift_refuses_a_non_sl2_matrix():
    with pytest.raises(ValueError, match="not in SL2"):
        lift_genus1_many(5, [(1, 0, 0, 1), (2, 0, 0, 1)])
    assert lift_genus1_many(5, []) == []


@pytest.mark.parametrize("p", [3, 4, 5])
def test_batched_keys_are_the_single_keys(p):
    N = p if p % 2 else 2 * p
    field = field_for_level(p)
    elements = list(sl2_enumerate(N))[::7]
    lifts = lift_genus1_many(p, elements)
    lifts += [lifts[0].scaled(0), lifts[1].scaled(2), _mul_root(lifts[2], 1),
              CycMat.zero(lifts[0].m, p, p)]
    keys = projective_keys(lifts, field)
    assert keys == [projective_key(lift, field) for lift in lifts]
    assert keys[-1] == keys[-4] == ("zero", p, p)
    assert keys[-2] == keys[2] and keys[-3] != keys[1]
    assert projective_keys([], field) == []


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
    # a tiny threshold makes every gather's output take the on-demand _normalise_each
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
    for sign in (1, -1):
        gamma = gauss_sum(-sign, 0, p)
        for count in range(1, 9):
            vec, g = weilrep._gauss_power(p, sign, count)
            elt = CycloElt(field, [Fraction(x) for x in field_coords(vec, field, m).tolist()])
            assert elt * g == gamma ** count


def test_gauss_sums_multiply_to_the_lift_norm_at_every_level():
    # gamma_+ gamma_- = norm, which the lift's S-pairs and both
    # faithfulness checks fold in place of a Gauss convolution
    for p in range(2, 65):
        norm = weilrep._lift_images(p)["norm"]
        product = gauss_sum(-1, 0, p) * gauss_sum(1, 0, p)
        assert product == field_for_level(p).from_rational(norm), p


def _gauss_reference(p, products, nets):
    """The lifts of word products as the Gauss step took them with every
    normalisation done: each product normalised, convolved by its Gauss
    power vector where n != 0, and normalised again."""
    m = weilrep._lift_images(p)["m"]
    out = []
    for mat, n in zip(products, nets):
        (arr,), (h,) = _normalise_each(mat.arr[None])
        scale = mat.scale * h
        if n:
            vec, g = weilrep._gauss_power(p, 1 if n > 0 else -1, abs(n))
            rows = _convolve(vec[None], arr.reshape(1, -1, m))
            (arr,), (k,) = _normalise_each(rows.reshape((1,) + arr.shape))
            scale *= g * k
        out.append(CycMat(m, arr, scale, mat.beta))
    return out


def _gauss_step_elements(case):
    if case == "all-sl2-5":
        return 5, list(sl2_enumerate(5))
    if case == "diag-16":
        return 16, [(a, 0, 0, pow(a, -1, 32)) for a in range(1, 32, 2)]
    p = int(case.split("-")[1])
    rng = random.Random(107 + p)
    N = p if p % 2 else 2 * p
    return p, [_random_sl2(rng, N) for _ in range(40)]


@pytest.mark.parametrize("content", [1, 3, 2**50])
@pytest.mark.parametrize("case", ["all-sl2-5", "diag-16", "random-9", "random-12"])
def test_gauss_step_of_word_products_is_the_lift(case, content):
    # bitwise: arr, scale and beta.  Each product is also handed over as
    # content * arr + 7 with scale / content, the same field matrix; 2^50
    # takes the larger products' convolutions past their int64 bound (14
    # of the 15 with n != 0 at diag-16), so those are normalised before
    # it, and 1 and 3 leave every one to the median shift and the content
    # taken after it
    p, elements = _gauss_step_elements(case)
    products, nets = weilrep.word_products(p, elements)
    assert any(nets) and len(nets) == len(elements)
    m = products[0].m
    rewritten = [CycMat(m, content * mat.arr + 7, mat.scale / content, mat.beta)
                 for mat in products]
    lifts = weilrep._gauss_step(p, rewritten, nets)
    for lift, reference, whole in zip(lifts, _gauss_reference(p, products, nets),
                                      lift_genus1_many(p, elements)):
        _assert_same_lift(lift, reference)
        _assert_same_lift(lift, whole)


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


def _kron_schrodinger(rep, X, z):
    """Add(X, z) as the Kronecker product of its one-handle factors
    Sh^m Mod^n (e_a -> A^(2 n a) e_(a+m)), times A^z."""
    mat = None
    for i in range(rep.g):
        mi, ni = X[2 * i], X[2 * i + 1]
        arr = np.zeros((rep.p, rep.p, rep.m), dtype=np.int64)
        for a in range(rep.p):
            arr[(a + mi) % rep.p, a, (2 * ni * a) % rep.m] = 1
        one = CycMat(rep.m, arr)
        mat = one if mat is None else mat.kron(one)
    return _mul_root(mat, z)


@pytest.mark.parametrize("p,g", [(2, 1), (3, 2), (4, 2), (6, 2), (5, 3)])
def test_schrodinger_matches_kron_oracle(p, g):
    rep = WeilRep(p, g)
    rng = random.Random(59 * p + g)
    for _ in range(6):
        X, z = [rng.randrange(rep.m) for _ in range(2 * g)], rng.randrange(rep.m)
        got, want = schrodinger_cyc(rep, X, z), _kron_schrodinger(rep, X, z)
        assert got.arr.dtype == want.arr.dtype
        assert np.array_equal(got.arr, want.arr)
        assert (got.scale, got.beta) == (want.scale, want.beta)


@pytest.mark.parametrize("p,g", [(3, 1), (4, 2), (3, 3)])
def test_diagonal_generators_match_kron_oracle(p, g):
    rep = WeilRep(p, g)
    one = CycMat(rep.m, _loop_diag(rep.m, [a * a for a in range(p)]))
    for i in range(1, g + 1):
        got = rep.generator_cyc(("X", i))
        assert np.array_equal(got.arr, _embed_handle(rep, one, i).arr)
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            exps = [(a[i - 1] - a[j - 1]) ** 2 for a in rep._index_array().T]
            got = rep.generator_cyc(("Z", i, j))
            assert np.array_equal(got.arr, _loop_diag(rep.m, exps))
    with pytest.raises(ValueError):
        rep.diagonal_exponents(("Y", 1))
