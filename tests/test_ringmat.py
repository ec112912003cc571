import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weildec import cycmat
from weildec.cyclo import make_field
from weildec.cycmat import (
    CycMat,
    _dense_product,
    _index_map_product,
    _int_combo,
    _int_einsum,
    _max_abs,
    handle_product,
)
from weildec.decompose import _array_is_zero, _cyc_equal
from weildec.ringmat import RingMatrix
from weildec.weilrep import WeilRep

from commutant_oracle import (
    _commutant_nullity_mod,
    _eval_mod,
    _modular_primes,
    _rank_mod,
    _root_mod,
)


FIELD = make_field(8)


def _matrix_strategy(n):
    entry = st.integers(min_value=-4, max_value=4).map(FIELD.coerce)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: RingMatrix(FIELD, rows))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matmul_bilinear_and_associative(data):
    a = data.draw(_matrix_strategy(3))
    b = data.draw(_matrix_strategy(3))
    c = data.draw(_matrix_strategy(3))
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    ident = RingMatrix.identity(FIELD, 3)
    assert a @ ident == a
    assert ident @ a == a


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_dagger_antihomomorphism(data):
    a = data.draw(_matrix_strategy(2))
    b = data.draw(_matrix_strategy(2))
    assert (a @ b).dagger() == b.dagger() @ a.dagger()
    assert a.dagger().dagger() == a


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kron_mixed_product(data):
    a = data.draw(_matrix_strategy(2))
    b = data.draw(_matrix_strategy(2))
    c = data.draw(_matrix_strategy(2))
    d = data.draw(_matrix_strategy(2))
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_trace_and_diagonal():
    m = RingMatrix.diagonal(FIELD, [FIELD.coerce(2), FIELD.coerce(5)])
    assert m.trace() == FIELD.coerce(7)
    assert m.transpose() == m


def test_equal_up_to_scalar():
    z = FIELD.root_of_unity(3)
    m = RingMatrix.diagonal(FIELD, [FIELD.coerce(1), z])
    scaled = m.scale(z ** 5)
    assert m.equal_up_to_scalar(scaled)
    other = RingMatrix.diagonal(FIELD, [FIELD.coerce(1), z ** 2])
    assert not m.equal_up_to_scalar(other)


def test_equal_up_to_scalar_edge_cases():
    z = FIELD.root_of_unity(1)
    one, zero = FIELD.one(), FIELD.zero()
    m = RingMatrix(FIELD, [[one, zero], [zero, z]])
    lam = z ** 3 + 2
    assert m.scale(lam).equal_up_to_scalar(m) == lam
    # zero patterns differ after the first nonzero entry, either way round
    head = RingMatrix(FIELD, [[one, zero], [zero, zero]])
    assert m.equal_up_to_scalar(head) is None
    assert head.equal_up_to_scalar(m) is None
    # proportional at the first entry, but the ratio changes
    skew = RingMatrix(FIELD, [[one, zero], [zero, z * 2]])
    assert m.equal_up_to_scalar(skew) is None


def test_cycmat_equal_up_to_scalar_edge_cases():
    # the RingMatrix cases above on group-ring matrices, m = 8, compared in
    # Q(zeta_24) with A = zeta_24^3
    m, field = 8, make_field(24)
    A = field.root_of_unity(3)
    arr = np.zeros((2, 2, m), dtype=np.int64)
    arr[0, 0, 0] = arr[1, 1, 1] = 1
    mat = CycMat(m, arr)  # [[1, 0], [0, A]]
    # a unit lam: -A^3 times the beta-root zeta_24^5
    unit = CycMat(m, arr, Fraction(-1), beta=5).mul_root(3)
    assert unit.equal_up_to_scalar(mat) == -(A ** 3) * field.root_of_unity(5)
    # a non-unit lam = (3/2)(A^3 + 2), each entry vector convolved with it
    vec = np.zeros(m, dtype=np.int64)
    vec[[0, 3]] = 2, 1
    scaled = CycMat(m, cycmat._convolve(vec, arr.reshape(-1, m)).reshape(arr.shape),
                    Fraction(3, 2))
    assert scaled.equal_up_to_scalar(mat) == (A ** 3 + 2) * Fraction(3, 2)
    # zero patterns differ after the lead entry, either way round
    head = CycMat(m, arr * (np.arange(2) == 0)[:, None, None])
    assert mat.equal_up_to_scalar(head) is None
    assert head.equal_up_to_scalar(mat) is None
    # proportional at the lead entry, but the ratio changes
    skew = CycMat(m, arr * np.array([1, 2])[:, None, None])
    assert mat.equal_up_to_scalar(skew) is None
    # the lead is the first entry nonzero in the field: sum_t A^t = 0
    ghost = arr.copy()
    ghost[0, 1] = 1
    assert CycMat(m, ghost).equal_up_to_scalar(mat) == 1
    assert mat.equal_up_to_scalar(CycMat(m, ghost).scaled(2)) == Fraction(1, 2)
    # zero matrices, as zero arrays or as a zero scale
    zero = CycMat.zero(m, 2, 2)
    assert zero.equal_up_to_scalar(zero) == 1
    assert zero.equal_up_to_scalar(mat) == 0
    assert mat.scaled(0).equal_up_to_scalar(mat) == 0
    assert mat.equal_up_to_scalar(zero) is None
    assert mat.equal_up_to_scalar(mat.scaled(0)) is None
    # a different group-ring order or shape
    assert mat.equal_up_to_scalar(CycMat(4, arr[..., :4])) is None
    assert mat.equal_up_to_scalar(CycMat.identity(m, 3)) is None


def _prime_and_root(m):
    q = _modular_primes(m, 1)[0]
    return q, _root_mod(q, m)


def test_rank_mod():
    q, _ = _prime_and_root(8)
    assert _rank_mod([[1, 1, 0], [1, 1, 0]], q) == 1
    assert _rank_mod([[0, 0, 0]], q) == 0


def test_commutant_nullity_mod_of_identity_is_full():
    q, omega = _prime_and_root(8)
    assert _commutant_nullity_mod([CycMat.identity(8, 2)], q, omega) == 4


def test_commutant_nullity_mod_of_generic_diagonal():
    q, omega = _prime_and_root(8)
    assert _commutant_nullity_mod([CycMat.monomial_diag(8, [0, 1])], q, omega) == 2


def _full_nullity(gens, q, omega):
    """Nullity of the whole d^2-column commutation system over GF(q)."""
    d = gens[0].nrows
    eye = np.eye(d, dtype=np.int64)
    blocks = []
    for gen in gens:
        A = _eval_mod(gen, q, omega).astype(np.int64)
        blocks.append((np.kron(A, eye) - np.kron(eye, A.T)) % q)
    return d * d - _rank_mod(np.concatenate(blocks), q)


@pytest.mark.parametrize("p,g", [(p, 1) for p in range(2, 17)]
                         + [(2, 2), (3, 2), (4, 2)]
                         + [(32, 1), (5, 2), (6, 2), (2, 3), (3, 3)])
def test_reduced_nullity_matches_full_system(p, g):
    rep = WeilRep(p, g)
    gens = [rep.generator_cyc(tag) for tag in rep.tags()]
    for q in _modular_primes(rep.m, count=2):
        omega = _root_mod(q, rep.m)
        assert _commutant_nullity_mod(gens, q, omega) == _full_nullity(gens, q, omega)


def test_nullity_build_stays_on_the_support_columns():
    # the d^2 x d^2 system of one generator at d = 64 is 128 MiB of int64
    rep = WeilRep(8, 2)
    gens = [rep.generator_cyc(tag) for tag in rep.tags()]
    q, omega = _prime_and_root(rep.m)
    tracemalloc.start()
    try:
        _commutant_nullity_mod(gens, q, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _eval_mod_reference(cyc, q, omega):
    """The evaluation in Python ints throughout."""
    powers = np.array([pow(omega, k, q) for k in range(cyc.m)], dtype=object)
    s = cyc.scale
    factor = s.numerator * pow(s.denominator, -1, q)
    return (cyc.arr.astype(object) @ powers * factor % q).astype(np.int64)


@pytest.mark.parametrize("p,g", [(16, 1), (4, 2), (12, 1), (5, 3)])
def test_eval_mod_matches_python_ints(p, g):
    rep = WeilRep(p, g)
    for tag in rep.tags():
        gen = rep.generator_cyc(tag)
        for q in _modular_primes(rep.m, count=2):
            omega = _root_mod(q, rep.m)
            got = _eval_mod(gen, q, omega)
            assert got.dtype == np.int64
            assert np.array_equal(got, _eval_mod_reference(gen, q, omega))


def test_eval_mod_past_the_int64_bound():
    # entries of 2^58 make the int64 einsum bound fail: the Python-int path
    rep = WeilRep(4, 1)
    gen = rep.generator_cyc(("Y", 1))
    big = CycMat(rep.m, gen.arr * 2**58, scale=gen.scale, beta=gen.beta)
    q, omega = _prime_and_root(rep.m)
    got = _eval_mod(big, q, omega)
    assert got.dtype == np.int64
    assert np.array_equal(got, _eval_mod_reference(big, q, omega))
    assert np.array_equal(got, _eval_mod(gen, q, omega) * pow(2, 58, q) % q)


def test_reduced_nullity_without_diagonal_generators():
    q, omega = _prime_and_root(8)
    dense = CycMat.from_exponent_matrix(8, [[0, 3], [3, 0]])
    swap = CycMat(8, np.array([[[0] * 8, [1] + [0] * 7],
                               [[1] + [0] * 7, [0] * 8]]))
    for gens in ([dense], [swap], [swap, CycMat.monomial_diag(8, [0, 1])]):
        assert _commutant_nullity_mod(gens, q, omega) == _full_nullity(gens, q, omega)


def test_cycmat_roundtrip_to_ring():
    mat = CycMat.identity(8, 3).mul_root(5)
    ring = mat.to_ring(FIELD)
    expect = RingMatrix.identity(FIELD, 3).scale(FIELD.root_of_unity(5))
    assert ring == expect


def test_cycmat_to_ring_does_not_wrap():
    import numpy as np

    # 2^62 * (1 - A^4) = 2^63 at m = 8 exceeds int64
    arr = np.zeros((1, 1, 8), dtype=np.int64)
    arr[0, 0, 0], arr[0, 0, 4] = 2**62, -(2**62)
    assert CycMat(8, arr).to_ring(FIELD)[0, 0] == FIELD.coerce(2**63)
    # the same coordinate map decides exact zero tests: A^4 = -1 at m = 8
    assert not _array_is_zero(FIELD, 8, arr)
    arr[0, 0, 4] = 2**62
    assert _array_is_zero(FIELD, 8, arr)
    # trace_elt applies beta and scale as to_ring does (24 | L for beta)
    field = make_field(24)
    rng = np.random.default_rng(5)
    mat = CycMat(8, rng.integers(-3, 4, size=(3, 3, 8)), Fraction(5, 3), beta=7)
    assert mat.trace_elt(field) == mat.to_ring(field).trace()


def test_cycmat_matmul_matches_ring():
    import numpy as np

    rng = np.random.default_rng(7)
    a = CycMat(8, rng.integers(0, 3, size=(3, 3, 8)))
    b = CycMat(8, rng.integers(0, 3, size=(3, 3, 8)))
    left = (a @ b).to_ring(FIELD)
    right = a.to_ring(FIELD) @ b.to_ring(FIELD)
    assert left == right


def test_cycmat_dagger_matches_ring():
    import numpy as np

    rng = np.random.default_rng(11)
    a = CycMat(8, rng.integers(0, 3, size=(2, 4, 8)), scale=Fraction(3, 2))
    assert a.dagger().to_ring(FIELD) == a.to_ring(FIELD).dagger()


def test_cycmat_kron_matches_ring():
    import numpy as np

    rng = np.random.default_rng(13)
    a = CycMat(8, rng.integers(0, 2, size=(2, 2, 8)))
    b = CycMat(8, rng.integers(0, 2, size=(2, 2, 8)))
    assert a.kron(b).to_ring(FIELD) == a.to_ring(FIELD).kron(b.to_ring(FIELD))


def _product_reference(a, b, pairs):
    """Python-int reference of an entrywise group-ring product: out[key]
    gathers a[i, k, u] * b[k', j, w] at exponent u + w for each index
    tuple (key, a index, b index) in `pairs`."""
    m = a.shape[-1]
    out = {}
    for key, ia, ib in pairs:
        vec = out.setdefault(key, [0] * m)
        for u in range(m):
            for w in range(m):
                vec[(u + w) % m] += int(a[ia + (u,)]) * int(b[ib + (w,)])
    return out


def test_cycmat_products_raise_instead_of_wrapping():
    big = CycMat.identity(8, 2)
    big.arr[0, 0, 0] = 2**62
    with pytest.raises(OverflowError):
        big @ big
    with pytest.raises(OverflowError):
        big.kron(big)


def test_cycmat_product_past_the_bound_is_exact():
    rng = np.random.default_rng(19)
    a = rng.integers(-3, 3, size=(2, 2, 8), endpoint=True)
    b = rng.integers(-3, 3, size=(2, 2, 8), endpoint=True)
    a[0, 0, 0] = 2**59  # bound 2 * 8 * 2^59 * 3 > 2^63: Python-int products
    ref = _product_reference(a, b, [((i, j), (i, k), (k, j))
                                    for i in range(2) for j in range(2)
                                    for k in range(2)])
    got = (CycMat(8, a) @ CycMat(8, b)).arr
    assert all(got[key].tolist() == vec for key, vec in ref.items())
    # 2^62 (1 + A^4) at m = 8 and 2^62 (1 + A + ... + A^4) at m = 5 are
    # zero; doubled, they fit int64 only after the fold A^4 = -1 and the
    # median shift, which change no field value
    for m, support in ((8, [0, 4]), (5, list(range(5)))):
        a = np.zeros((1, 1, m), dtype=np.int64)
        a[0, 0, support] = 2**62
        two = CycMat.identity(m, 1)
        two.arr[0, 0, 0] = 2
        assert not (CycMat(m, a) @ two).arr.any()


def test_cycmat_products_near_the_bound_are_exact():
    rng = np.random.default_rng(17)
    # matmul bound: 2 * 8 * 2^28 * 2^30 = 2^62
    a = rng.integers(-(2**28), 2**28, size=(2, 2, 8), endpoint=True)
    b = rng.integers(-(2**30), 2**30, size=(2, 2, 8), endpoint=True)
    a[0, 0, 0], b[0, 0, 0] = 2**28, 2**30
    ref = _product_reference(a, b, [((i, j), (i, k), (k, j))
                                    for i in range(2) for j in range(2)
                                    for k in range(2)])
    got = (CycMat(8, a) @ CycMat(8, b)).arr
    assert all(got[key].tolist() == vec for key, vec in ref.items())
    # kron bound: 8 * 2^29 * 2^30 = 2^62
    a = rng.integers(-(2**29), 2**29, size=(2, 2, 8), endpoint=True)
    a[0, 0, 0] = 2**29
    ref = _product_reference(a, b, [((2 * i + k, 2 * j + l), (i, j), (k, l))
                                    for i in range(2) for j in range(2)
                                    for k in range(2) for l in range(2)])
    got = CycMat(8, a).kron(CycMat(8, b)).arr
    assert all(got[key].tolist() == vec for key, vec in ref.items())


def test_beta_phase_needs_a_24th_root():
    with pytest.raises(ValueError):
        CycMat(8, CycMat.identity(8, 1).arr, beta=6).to_ring(make_field(8))
    ring = CycMat(8, CycMat.identity(8, 1).arr, beta=6).to_ring(make_field(24))
    assert ring[0, 0] == make_field(24).root_of_unity(6)


def test_cycmat_sums_raise_instead_of_wrapping():
    big = CycMat.identity(8, 1)
    big.arr[0, 0, 0] = 2**62
    with pytest.raises(OverflowError):
        big + big
    assert not (big - big).arr.any()
    assert (big + big.scaled(-1)).arr.dtype == np.int64
    # 2^62 (1 + A^4) is zero at m = 8; doubled it fits only after the fold
    zero = CycMat.identity(8, 1)
    zero.arr[0, 0, [0, 4]] = 2**62
    total = zero + zero
    assert total.arr.dtype == np.int64 and not total.arr.any()
    # at the bound the sum stays in int64 and is exact
    near = CycMat.identity(8, 1)
    near.arr[0, 0, 0] = 2**62 - 1
    assert (near + big).arr[0, 0, 0] == 2**63 - 1


def test_cyc_equal_is_exact_on_both_paths():
    field = make_field(3)

    def mat(vec, scale=1):
        return CycMat(3, np.array([[vec]], dtype=np.int64), Fraction(scale))

    # 1 + A + A^2 = 0, so 2^62 + 2^61 (A + A^2) = 2^61
    x = mat([2**62, 2**61, 2**61])
    # bound 2^62 + 2^61 fits: int64 difference
    assert _int_combo(1, x.arr, -1, mat([2**61, 0, 0]).arr).dtype == np.int64
    assert _cyc_equal(x, mat([2**61, 0, 0]), field)
    assert not _cyc_equal(x, mat([2**61 - 1, 0, 0]), field)
    # bound 2^62 + 2^62 does not: Python-int difference
    y = mat([2**62, 0, 0])
    assert _int_combo(1, y.arr, -1, y.arr).dtype == object
    assert _cyc_equal(y, mat([2**62, 0, 0]), field)
    assert _cyc_equal(y, mat([2**61, 0, 0], 2), field)
    assert not _cyc_equal(y, mat([2**62, 1, 1]), field)


def _unit_monomials(rep):
    """Every generator, plus translation operators with nonzero phases."""
    gens = [rep.generator_cyc(tag) for tag in rep.tags()]
    dim2 = 2 * rep.g
    vectors = [tuple(int(i == k) for k in range(dim2)) for i in range(dim2)]
    vectors.append(tuple(range(1, dim2 + 1)))
    ops = [rep.schrodinger_cyc(rep.heisenberg(v, z))
           for v, z in zip(vectors, range(1, dim2 + 2))]
    return gens, ops


@pytest.mark.parametrize("p,g", [(5, 1), (4, 2), (6, 2)])
def test_index_map_product_matches_dense(p, g):
    rep = WeilRep(p, g)
    gens, ops = _unit_monomials(rep)
    pairs = [(a, b) for gen in gens for op in ops for a, b in ((gen, op), (op, gen))]
    pairs += [(a, b) for a in ops for b in ops]
    # (U Add(v)) U^dagger, as in the Egorov check: dense for Y generators
    pairs += [(gen @ op, gen.dagger()) for gen, tag in zip(gens, rep.tags())
              for op in ops if tag[0] != "Y"]
    for a, b in pairs:
        got = _index_map_product(a.arr, b.arr)
        assert got is not None
        want = _dense_product(a.arr, b.arr)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal((a @ b).arr, want)


def test_non_unit_monomials_take_the_dense_path(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append(1)
        return _dense_product(a, b)

    monkeypatch.setattr(cycmat, "_dense_product", spy)
    rng = np.random.default_rng(23)
    dense = CycMat(8, rng.integers(-3, 4, size=(3, 3, 8)))
    unit = CycMat.zero(8, 3, 3)
    unit.arr[[0, 1, 2], [1, 2, 0], [5, 2, 7]] = 1  # A^5, A^2, A^7 in a 3-cycle
    assert _index_map_product(unit.arr, dense.arr) is not None
    doubled = CycMat(8, 2 * unit.arr)
    two_in_a_row = CycMat(8, unit.arr.copy())
    two_in_a_row.arr[0, 0, 3] = 1
    for op in (doubled, two_in_a_row):
        assert _index_map_product(op.arr, dense.arr) is None
        for a, b in ((op, dense), (dense, op)):
            calls.clear()
            assert np.array_equal((a @ b).arr, _dense_product(a.arr, b.arr))
            assert calls == [1]
    calls.clear()
    unit @ dense
    dense @ unit
    assert calls == []


@pytest.mark.parametrize("p,g", [(3, 1), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3)])
def test_handle_product_matches_dense_generator(p, g):
    rep = WeilRep(p, g)
    block = rep.y_block().arr
    rng = np.random.default_rng(29 * p + g)
    d, m = rep.dim, rep.m
    for i in range(1, g + 1):
        Y = rep.generator_cyc(("Y", i))
        M = rng.integers(-3, 4, size=(d, 4, m))
        got = handle_product(M, block, i, p, g, "left")
        assert got.dtype == np.int64
        assert np.array_equal(got, (Y @ CycMat(m, M)).arr)
        M = rng.integers(-3, 4, size=(4, d, m))
        assert np.array_equal(handle_product(M, block, i, p, g, "right"),
                              (CycMat(m, M) @ Y).arr)
        # an integer operand (a span matrix) has no entry axis
        V = rng.integers(-3, 4, size=(d, 5))
        assert np.array_equal(handle_product(V, block, i, p, g, "left"),
                              _int_einsum("itk,tj->ijk", Y.arr, V))
        assert np.array_equal(handle_product(V.T, block, i, p, g, "right"),
                              _int_einsum("it,tjk->ijk", V.T, Y.arr))


def test_handle_product_past_the_bound_is_exact(monkeypatch):
    dtypes = []
    real = cycmat._fit_int64

    def spy(arr, what):
        dtypes.append(arr.dtype)
        return real(arr, what)

    monkeypatch.setattr(cycmat, "_fit_int64", spy)
    # ring operand at p = 4: bound 4 * 8 * (4 * 2^58) = 2^65 > 2^63;
    # integer operand at p = 8: bound 8 * (4 * 2^58) = 2^63
    for p, op in ((4, WeilRep(4, 2).schrodinger_cyc((1, 2, 3, 1)).arr),
                  (8, np.eye(64, 3, k=-5, dtype=np.int64))):
        block = WeilRep(p, 2).y_block().arr
        assert _max_abs(block) == 4
        for i in (1, 2):
            for side in ("left", "right"):
                operand = op if side == "left" else op.swapaxes(0, 1)
                small = handle_product(operand, block, i, p, 2, side)
                dtypes.clear()
                big = handle_product(operand, block * 2**58, i, p, 2, side)
                assert dtypes == [object]
                assert big.dtype == np.int64
                assert np.array_equal(big, small * 2**58)
