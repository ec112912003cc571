import itertools
import random
from collections import Counter
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weildec.modgroup import (
    IDENTITY,
    S_MAT,
    _profile_counts,
    census,
    class_representatives,
    class_size_bruteforce,
    column_orbits,
    conj_profile,
    count_quadratic_solutions,
    divisors,
    expected_quadratic_solutions,
    hensel_lift_count,
    lattice_images,
    lattice_orbits,
    lattice_vectors,
    mat_inv,
    mat_mul,
    orbit_census,
    sigma0,
    sl2_column,
    sl2_enumerate,
    sl2_order,
    sp_generators,
    t_power,
    word_decompose,
)

from commutant_oracle import symplectic_form, walk_orbit


def eval_word(word, N):
    """The value of a word of tokens ('S', e), e = +-1, and ('T', k) in
    SL2(Z/NZ), one factor at a time."""
    cur = IDENTITY
    for tok in word:
        kind, val = tok
        if kind == "S":
            g = S_MAT if val == 1 else mat_inv(S_MAT, N)
        elif kind == "T":
            g = t_power(val, N)
        else:
            raise ValueError("bad token %r" % (tok,))
        cur = mat_mul(cur, tuple(x % N for x in g), N)
    return cur


def sp_apply(M, v, N):
    """M v mod N for a matrix M given as rows and a vector v."""
    return tuple(sum(a * b for a, b in zip(row, v)) % N for row in M)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 8, 9, 12])
def test_group_order_formula_matches_enumeration(N):
    assert sum(1 for _ in sl2_enumerate(N)) == sl2_order(N)


@pytest.mark.parametrize("N", [*range(1, 41), 64, 96, 128])
def test_column_orbits_match_brute_force(N):
    # rep[c] is the least of c * (+-u^2) over the units u, and the move
    # (t, sign) reaches it: rep[c] t^2 = sign c mod N
    rep, t, sign = column_orbits(N)
    units = [u for u in range(N) if gcd(u, N) == 1]
    for c in range(N):
        assert rep[c] == min(s * c * u * u % N for u in units for s in (1, -1))
        assert gcd(int(t[c]), N) == 1 and sign[c] in (1, -1)
        assert (rep[c] * t[c] ** 2 - sign[c] * c) % N == 0


@pytest.mark.parametrize("N", list(range(1, 13)) + [16])
def test_sl2_column_matches_enumeration(N):
    # the oracle is a brute-force determinant filter over all N^4 tuples;
    # sl2_enumerate streams the columns, so it must give the same set
    t = np.indices((N,) * 4).reshape(4, -1)  # every (a, b, c, d)
    brute = sorted(zip(*t[:, (t[0] * t[3] - t[1] * t[2]) % N == 1 % N].tolist()))
    swept = []
    for c in range(N):
        a, b, d = sl2_column(N, c)
        assert a.dtype == b.dtype == d.dtype == np.int64
        swept += [(A, B, c, D) for A, B, D in zip(a.tolist(), b.tolist(), d.tolist())]
    assert len(swept) == sl2_order(N)
    assert sorted(swept) == brute == sorted(sl2_enumerate(N))


def test_enumeration_has_no_duplicates():
    seen = set(sl2_enumerate(8))
    assert len(seen) == sl2_order(8)


def test_hensel_lift_count_is_eight():
    for M in sl2_enumerate(4):
        assert hensel_lift_count(M, 4) == 8


@settings(max_examples=30, deadline=None)
@given(
    a=st.integers(0, 7),
    b=st.integers(0, 7),
    c=st.integers(0, 7),
    seed=st.integers(0, 2**16),
)
def test_word_decompose_roundtrip(a, b, c, seed):
    N = 8
    d = None
    for cand in range(N):
        if (a * cand - b * c) % N == 1:
            d = cand
            break
    if d is None:
        return
    M = (a, b, c, d)
    word = word_decompose(M, N, rng=random.Random(seed))
    assert eval_word(word, N) == M


def test_diagonal_peel_word_is_diag():
    # word_decompose peels diag(a, 1/a) off with this word and takes its
    # value in closed form, without evaluating it
    for N in range(2, 65):
        for a in range(N):
            if gcd(a, N) == 1:
                ainv = pow(a, -1, N)
                dword = [("T", (-a) % N), ("S", 1), ("T", (-ainv) % N), ("S", 1),
                         ("T", (-a) % N), ("S", 1), ("S", 1), ("S", 1)]
                assert eval_word(dword, N) == (a, 0, 0, ainv)


def test_conj_profile_is_invariant():
    N = 16
    n = 4
    rng = random.Random(5)
    elts = list(sl2_enumerate(N))
    for _ in range(40):
        M = elts[rng.randrange(len(elts))]
        P = elts[rng.randrange(len(elts))]
        conj = mat_mul(mat_mul(P, M, N), mat_inv(P, N), N)
        assert conj_profile(M, n) == conj_profile(conj, n)


@pytest.mark.parametrize("n", [2, 3])
def test_census_rows_match(n):
    for row in census(n):
        assert row.match


def _census_by_elements(n):
    """The census tallies from conj_profile over every element."""
    tallies = Counter()
    for M in sl2_enumerate(2**n):
        pr = conj_profile(M, n)
        if pr.l == n:
            key = (pr.l, pr.x_class, None)
        elif pr.l == 0 or pr.x_class == "1":
            key = (pr.l, pr.x_class, pr.s)
        else:
            key = (pr.l, pr.x_class, None)
        tallies[key] += 1
    return tallies


def _profile_counts_by_rows(n):
    """The whole-group sweep: the invariants of conj_profile on every
    element, one row value a at a time.  For odd a the chunk is every
    (b, c) with d = a^-1 (1 + bc); for even a, b is odd and the chunk is
    every (b, d) with c = b^-1 (ad - 1)."""
    N = 2 ** n
    mask = N - 1
    v2 = np.array([n] + [(t & -t).bit_length() - 1 for t in range(1, N)],
                  dtype=np.int64)  # v2[0] = n: the cap on l and s
    inv = np.zeros(N, dtype=np.int64)
    inv[1::2] = [pow(u, -1, N) for u in range(1, N, 2)]
    rows, cols = np.divmod(np.arange(N * N, dtype=np.int64), N)  # every (b, c)
    half = N * N // 2
    odd_rows, odd_cols = 2 * rows[:half] + 1, cols[:half]  # every (b odd, d)
    shape = (n + 1, N, 2 * n + 1)
    counts = np.zeros(np.prod(shape), dtype=np.int64)
    for a in range(N):
        if a % 2:
            b, c = rows, cols
            d = (inv[a] * (1 + b * c)) & mask
        else:
            b, d = odd_rows, odd_cols
            c = (inv[b] * (a * d - 1)) & mask
        l = np.minimum(np.minimum(v2[b], v2[c]), v2[(a - d) & mask])
        x = a & ((1 << l) - 1)
        u0, u1, u2, u3 = (a - x) >> l, b >> l, c >> l, (d - x) >> l
        tau = (u0 * u3 - u1 * u2) & ((1 << (n - l)) - 1)
        s = np.where(tau == 0, l + n, 2 * l + v2[tau])
        s = np.where(l == 0, v2[(a + d) & mask], s)  # at l = 0, tau is the trace
        counts += np.bincount(np.ravel_multi_index((l, x, s), shape),
                              minlength=counts.size)
    counts = counts.reshape(shape)
    return {tuple(map(int, key)): int(counts[key]) for key in zip(*np.nonzero(counts))}


@pytest.mark.parametrize("n", range(2, 9))
def test_profile_counts_match_the_whole_group_sweep(n):
    # the l = 0 trace count plus the Gamma(2) sweep against every element
    counts = _profile_counts(n)
    want = _profile_counts_by_rows(n)
    assert counts == want
    assert all(type(v) is int for key, count in counts.items() for v in key + (count,))
    assert sum(counts.values()) == 3 * 2 ** (3 * n - 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_matches_per_element_oracle(n):
    profiles = Counter()
    for M in sl2_enumerate(2**n):
        pr = conj_profile(M, n)
        profiles[(pr.l, pr.x, pr.s)] += 1
    assert _profile_counts(n) == profiles
    rows = census(n)
    assert {(r.l, r.x_class, r.s): r.count for r in rows} == _census_by_elements(n)
    assert len(rows) == len(_census_by_elements(n))


@pytest.mark.parametrize("n", [7, 8])
def test_census_large_rows_match(n):
    rows = census(n)
    assert all(row.match for row in rows)
    assert sum(row.count for row in rows) == 3 * 2 ** (3 * n - 2)


@pytest.mark.parametrize("n", [1, 9])
def test_census_range_is_checked(n):
    with pytest.raises(ValueError):
        census(n)


@pytest.mark.parametrize("n", [2, 3])
def test_class_sizes_bruteforce(n):
    for rep in class_representatives(n):
        assert class_size_bruteforce(rep.matrix, n) == rep.size


def test_class_sizes_partition_group():
    for n in range(2, 9):
        sizes = [rep.size for rep in class_representatives(n)]
        assert all(isinstance(size, int) for size in sizes)
        assert sum(sizes) == sl2_order(2**n)


def test_class_representatives_refuse_levels_below_4():
    # at n = 1 the families give a size 1.5, and at n = 0 sizes summing to 1.75
    for n in (0, 1):
        with pytest.raises(ValueError):
            class_representatives(n)


@pytest.mark.parametrize("even_cross", [False, True])
def test_quadratic_counting_small(even_cross):
    for n in (1, 2, 3, 4):
        for A in (1, 3):
            for D in (1, 5):
                Bs = range(4) if even_cross else (1, 3)
                for B in Bs:
                    for C in range(4):
                        got = count_quadratic_solutions(
                            A, B, C, D, n, even_cross=even_cross
                        )
                        want = expected_quadratic_solutions(
                            A, B, C, D, n, even_cross=even_cross
                        )
                        assert got == want, (A, B, C, D, n, even_cross)


@pytest.mark.parametrize("n", range(0, 6))
def test_quadratic_count_matches_the_loop(n):
    # the array count against the per-pair loop it replaced, with
    # coefficients far past int64: they must be reduced mod 2^n first
    N = 2 ** n
    rng = random.Random(n)
    for _ in range(10):
        A, B, D = (rng.randrange(-2**70, 2**70) | 1 for _ in range(3))
        C = rng.randrange(-2**70, 2**70)
        for even_cross in (False, True):
            cross = 2 * B if even_cross else B
            loop = sum((A * x * x + cross * x * y + C * y * y - D) % N == 0
                       for x in range(N) for y in range(N))
            assert count_quadratic_solutions(A, B, C, D, n, even_cross) == loop


def test_divisor_helpers():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert sigma0(12) == 6
    assert sigma0(1) == 1


def test_symplectic_form_antisymmetry():
    g, N = 2, 5
    rng = random.Random(3)
    for _ in range(20):
        u = tuple(rng.randrange(N) for _ in range(2 * g))
        v = tuple(rng.randrange(N) for _ in range(2 * g))
        assert (symplectic_form(u, v, g, N) + symplectic_form(v, u, g, N)) % N == 0


def test_sp_generators_preserve_form():
    g, N = 2, 4
    rng = random.Random(9)
    for M in sp_generators(g, N):
        for _ in range(10):
            u = tuple(rng.randrange(N) for _ in range(2 * g))
            v = tuple(rng.randrange(N) for _ in range(2 * g))
            assert symplectic_form(
                sp_apply(M, u, N), sp_apply(M, v, N), g, N
            ) == symplectic_form(u, v, g, N)


def _column_transvection(gamma, g, N):
    """The transvection v -> v + omega(v, gamma) gamma mod N, built column
    by column from `symplectic_form`, as a tuple of rows."""
    cols = []
    for j in range(2 * g):
        e = [int(i == j) for i in range(2 * g)]
        w = symplectic_form(e, gamma, g, N)
        cols.append([(e[i] + w * gamma[i]) % N for i in range(2 * g)])
    return tuple(tuple(col[i] for col in cols) for i in range(2 * g))


@pytest.mark.parametrize("g,N", [(1, 5), (2, 4), (3, 7)])
def test_sp_generators_are_the_column_transvections(g, N):
    # one int64 stack, I + gamma (Omega gamma)^T mod N, against the
    # transvections built column by column: x_i, y_i, then x_i - x_j
    unit = [tuple(int(i == k) for i in range(2 * g)) for k in range(2 * g)]
    diffs = [tuple((unit[2 * i][k] - unit[2 * j][k]) % N for k in range(2 * g))
             for i in range(g) for j in range(i + 1, g)]
    gens = sp_generators(g, N)
    assert gens.dtype == np.int64 and gens.shape == (len(unit) + len(diffs), 2 * g, 2 * g)
    assert [tuple(map(tuple, M.tolist())) for M in gens] == [
        _column_transvection(gamma, g, N) for gamma in unit + diffs]


def _product_images(Ms, N):
    """Each M @ vec % N over every lattice vector, raveled: the full
    product that `lattice_images` evaluates on the moved slots only."""
    g = len(Ms[0]) // 2
    vec, shape = lattice_vectors(N, g), (N,) * (2 * g)
    return np.stack([np.ravel_multi_index(tuple(np.asarray(M) @ vec % N), shape) for M in Ms])


@pytest.mark.parametrize("g,N", [(1, 2), (1, 7), (2, 3), (2, 6), (3, 2), (3, 3)])
def test_lattice_images_match_the_full_product(g, N):
    # random stacks with negative entries and entries past N, some rows
    # left as unit rows (kept, or shifted by a multiple of N), and the
    # transvections
    rng = np.random.default_rng(31 * N + g)
    Ms = rng.integers(-2 * N, 3 * N, size=(6, 2 * g, 2 * g))
    eye = np.eye(2 * g, dtype=np.int64)
    Ms[1] = eye
    Ms[2, 0] = eye[0] + N * rng.integers(-2, 3, size=2 * g)
    Ms[3, ::2] = eye[::2]
    assert (Ms < 0).any() and (Ms >= N).any()
    for stack in (Ms, sp_generators(g, N)):
        got = lattice_images(stack, N)
        assert got.dtype == np.int64
        assert np.array_equal(got, _product_images(stack, N))


@pytest.mark.parametrize("N", [2, 3, 4, 6])
def test_orbit_census_matches_divisor_count(N):
    count, orbits = orbit_census(N, 1)
    assert count == sigma0(N)
    assert sorted(d for d, _ in orbits) == divisors(N)
    assert sum(size for _, size in orbits) == N ** 2


def _walked_orbits(images, phases, m):
    """(labels, potentials, free) by `walk_orbit` from each least index."""
    n = len(images[0])
    labels, pots, free = [-1] * n, [0] * n, []
    for root in range(n):
        if labels[root] < 0:
            pot, ok = walk_orbit(images, phases, m, root)
            for v, z in pot.items():
                labels[v], pots[v] = len(free), z
            free.append(ok)
    return labels, pots, free


@pytest.mark.parametrize("seed", range(6))
def test_lattice_orbits_match_the_walk(seed):
    # random permutations, with phases that are random or come from a
    # potential (so every orbit is free)
    rng = np.random.default_rng(seed)
    n, m = 40, 6
    images = np.stack([rng.permutation(n) for _ in range(2)])
    if seed % 2:
        phases = rng.integers(0, m, size=images.shape)
    else:
        pot = rng.integers(0, m, size=n)
        phases = (pot[images] - pot) % m
    orbits = lattice_orbits(images, phases, m)
    labels, pots, free = _walked_orbits(images, phases, m)
    assert orbits.labels.tolist() == labels
    assert orbits.free.tolist() == free
    assert orbits.roots.tolist() == [labels.index(k) for k in range(len(free))]
    for v in range(n):
        if free[labels[v]]:
            assert orbits.potentials[v] == pots[v]


@pytest.mark.parametrize("seed", range(4))
def test_lattice_orbits_read_phases_mod_m(seed):
    # phases are taken as given, never reduced first: any representative of
    # a class mod m, negative ones included, gives the same orbits
    rng = np.random.default_rng(seed)
    n, m = 40, 6
    images = np.stack([rng.permutation(n) for _ in range(3)])
    phases = rng.integers(0, m, size=images.shape)
    want = lattice_orbits(images, phases, m)
    shifted = phases + m * rng.integers(-5, 6, size=images.shape)
    got = lattice_orbits(images, shifted, m)
    for field in ("labels", "roots", "potentials", "free"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert (shifted < 0).any() and (shifted >= m).any()


def test_lattice_orbits_without_phases_are_all_free():
    images = [np.array([1, 0, 2, 4, 3]), np.array([0, 1, 2, 3, 4])]
    orbits = lattice_orbits(images)
    assert orbits.labels.tolist() == [0, 0, 1, 2, 2]
    assert orbits.roots.tolist() == [0, 2, 3]
    assert np.bincount(orbits.labels).tolist() == [2, 1, 2]
    assert orbits.free.all() and not orbits.potentials.any()


def _walked_census(N, g):
    """orbit_census by a set walk over the generator images."""
    gens = sp_generators(g, N)
    seen, orbits = set(), []
    for v in itertools.product(range(N), repeat=2 * g):
        if v in seen:
            continue
        orbit, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for M in gens:
                w = sp_apply(M, u, N)
                if w not in orbit:
                    orbit.add(w)
                    stack.append(w)
        seen |= orbit
        delta = next(d for d in divisors(N) if (0, d % N) * g in orbit)
        orbits.append((delta, len(orbit)))
    return len(orbits), orbits


@pytest.mark.parametrize("N,g", [(N, 1) for N in range(2, 10)] + [(2, 2), (3, 2), (4, 2)])
def test_orbit_census_matches_the_set_walk(N, g):
    assert orbit_census(N, g) == _walked_census(N, g)
