import random
from fractions import Fraction

import numpy as np
import pytest

from weildec.cyclo import field_for_level
from weildec.cycmat import CycMat
from weildec.decompose import _cyc_equal
from weildec.modgroup import mat_mul, sl2_enumerate
from weildec.weilrep import (
    WeilRep,
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
    a = lift_genus1(p, M, rng=random.Random(4))
    b = lift_genus1(p, M, rng=random.Random(5))
    assert projective_key(a) == projective_key(b)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_trace_engine_matches_word_evaluation(p):
    N = p if p % 2 else 2 * p
    engine = trace_engine(p)
    rng = random.Random(31)
    elts = list(sl2_enumerate(N))
    field = field_for_level(p)
    for _ in range(10):
        M = elts[rng.randrange(len(elts))]
        direct = lift_genus1(p, M, rng=random.Random(6)).trace()
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


def test_lift_cyc_agrees_with_ring_lift():
    p = 5
    rep = WeilRep(p, 1)
    M = (2, 1, 1, 1)
    cyc = lift_genus1_cyc(p, M, rng=random.Random(8))
    ring = lift_genus1(p, M, rng=random.Random(8))
    assert cyc.to_ring(rep.field) == ring


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
                                     (21, 8), (25, 8), (27, 8), (31, 3)])
def test_trace_matches_fixed_point_count(N, count):
    # odd level: |Tr pi(M)|^2 = #{v in (Z/N)^2 : Mv = v}
    rng = random.Random(41 + N)
    for _ in range(count):
        M = _random_sl2(rng, N)
        assert trace_abs_sq(N, M) == _fixed_vectors(M, N)


def test_trace_at_level_32_matches_word_evaluation():
    # all three share the engine's cached lift of diag(-1, -1)
    assert trace_abs_sq(32, (1, 0, 0, 1)) == 1024
    for M in [(1, 0, 63, 1), (1, 0, 4, 1)]:  # unit c, then non-unit c
        direct = lift_genus1(32, M).trace()
        assert trace_abs_sq(32, M) == (direct * direct.conj()).as_fraction()


def test_trace_overflow_guard_raises(monkeypatch):
    engine = trace_engine(5)
    big = np.full(engine.m, 2**31, dtype=np.int64)
    big[0] = 0
    monkeypatch.setattr(engine, "trace_vector", lambda M: (big, Fraction(1), 0))
    with pytest.raises(OverflowError):
        engine.trace_abs_sq((1, 0, 0, 1))
    with pytest.raises(OverflowError):
        engine._convolve(engine._gauss, np.full((3, engine.m), 2**62, dtype=np.int64))
