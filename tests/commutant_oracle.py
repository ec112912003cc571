"""Test oracles for the lattice-orbit commutant certificate.

The former two-sided certificate: an upper bound from the nullity of the
commutation system over two prime fields GF(q) holding an order-m root
(specialisation can only lower a rank), and a lower bound from the
verified family of orthogonal commuting idempotents of
`decompose.isotypic_projectors`.  Both are independent of the orbit count
that `decompose.commutant_dimension` certifies.  `walk_orbit` is the
per-vector walk that `modgroup.lattice_orbits` replaces, and
`rule_exact_per_vector` the one-identity-at-a-time rule check that
`decompose._rule_exact` batches.  `omega_cyc` builds an orbit sum
Omega_delta as a dense d x d x m matrix, the operator whose commutation
`decompose.omega_family_report` reads off the orbit's holonomy, and
`omega_commutes` multiplies it with every generator.  `schrodinger_cyc`
is the dense W(v), one scatter of `WeilRep.schrodinger_map`,
`trace_elt` the trace of a `CycMat` as a field element, and
`symplectic_form` the form omega(u, v) of the Heisenberg commutator
and transvection tests.
"""

from math import isqrt, lcm

import numpy as np

from weildec.cyclo import CycloElt
from weildec.cycmat import _INT64_MAX, CycMat, _int_combo, _int_einsum, field_coords
from weildec.decompose import (
    _array_is_zero,
    _cyc_equal,
    _generator_product,
    _rule_orbits,
    _same_entries_grouped,
    _symmetric,
    isotypic_projectors,
)
from weildec.modgroup import diagonal_index, lattice_vectors, prime_factorization
from weildec.weilrep import WeilRep


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _modular_primes(m, count=2):
    """The first `count` primes q = 1 mod m past 10^6."""
    out = []
    q = 1_000_000 + (m - 1_000_000 % m) + 1
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q += m
    return out


def _root_mod(q, m):
    """An element of exact multiplicative order m in GF(q)."""
    for gcand in range(2, q):
        w = pow(gcand, (q - 1) // m, q)
        ok = all(pow(w, m // r, q) != 1 for r, _ in prime_factorization(m))
        if w != 1 and ok:
            return w
    raise ValueError("no root found")


def _eval_mod(cyc, q, omega):
    """cyc at A = omega, its scale included, as int64 residues mod q."""
    if cyc.beta % 24:
        raise ValueError("unexpected phase in modular evaluation")
    if (q - 1) ** 2 > _INT64_MAX:
        raise OverflowError("modulus too large for int64 residues")
    powers = np.array([pow(omega, k, q) for k in range(cyc.m)], dtype=np.int64)
    vals = (_int_einsum("ijk,k->ij", cyc.arr, powers) % q).astype(np.int64)
    s = cyc.scale
    factor = s.numerator % q * pow(s.denominator % q, q - 2, q) % q
    return vals * factor % q


def schrodinger_cyc(rep, X, z=0):
    """A^z W(X) for one lattice vector X = (m1, n1, ..., mg, ng) as a dense
    d x d x m CycMat: one scatter of `WeilRep.schrodinger_map`."""
    (rows,), (exps,) = rep.schrodinger_map(np.array(X)[:, None])
    arr = np.zeros((rep.dim, rep.dim, rep.m), dtype=np.int64)
    arr[rows, np.arange(rep.dim), (exps + z) % rep.m] = 1
    return CycMat(rep.m, arr)


def symplectic_form(u, v, g, N):
    """omega(u, v) in coordinates (m1, n1, ..., mg, ng)."""
    acc = 0
    for i in range(g):
        acc += u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
    return acc % N


def trace_elt(mat, field):
    """Tr mat as an element of field: its diagonal entry vectors summed,
    scale and beta-root applied as `CycMat.to_ring` applies them."""
    n = min(mat.nrows, mat.ncols)
    vec = mat.arr[np.arange(n), np.arange(n)].sum(axis=0)
    return CycloElt(field, [mat.scale * x for x in field_coords(vec, field, mat.m, mat.beta).tolist()])


def _rank_mod(rows, q):
    M = np.array(rows, dtype=np.int64) % q
    rank = 0
    col = 0
    nrows, ncols = M.shape
    while rank < nrows and col < ncols:
        piv = np.nonzero(M[rank:, col])[0]
        if piv.size == 0:
            col += 1
            continue
        r = rank + piv[0]
        M[[rank, r]] = M[[r, rank]]
        inv = pow(int(M[rank, col]), q - 2, q)
        M[rank] = (M[rank] * inv) % q
        mask = np.nonzero(M[:, col])[0]
        mask = mask[mask != rank]
        if mask.size:
            M[mask] = (M[mask] - np.outer(M[mask, col], M[rank])) % q
        rank += 1
        col += 1
    return rank


def _commutant_nullity_mod(gens, q, omega):
    """Nullity over GF(q) of T -> (A T - T A for each generator A).

    A generator that evaluates to a diagonal diag(lam) contributes only
    (lam_a - lam_b) T[a, b] = 0, so it restricts T to the support where
    lam_a = lam_b.  Each other generator's equations are built on the
    support columns alone: the unknown T[k, l] enters A T - T A as
    A[:, k] in the rows (., l) and as -A[l, :] in the rows (k, .).  The
    nonzero rows of all these blocks go to one rank computation; the
    nullity is exactly that of the full d^2-column system.
    """
    d = gens[0].arr.shape[0]
    support = np.ones((d, d), dtype=bool)
    dense = []
    for gen in gens:
        A = _eval_mod(gen, q, omega)
        lam = np.diagonal(A)
        if np.count_nonzero(A) == np.count_nonzero(lam):
            support &= lam[:, None] == lam[None, :]
        else:
            dense.append(A)
    cols = np.flatnonzero(support)
    if not dense:
        return cols.size
    k, l = np.divmod(cols, d)
    at = np.arange(d)[:, None]
    col = np.arange(cols.size)[None, :]
    blocks = []
    for A in dense:
        M = np.zeros((d * d, cols.size), dtype=np.int64)
        M[at * d + l, col] = A[:, k]
        M[k * d + at, col] -= A[l, :].T
        M %= q
        blocks.append(M[M.any(axis=1)])
    return cols.size - _rank_mod(np.concatenate(blocks), q)


def _same_entries(x, y, d, m):
    """Whether the (row, column, exponent) triples x and y, each three
    arrays that broadcast together, are one multiset with exponents mod m:
    one identity of `decompose._same_entries_grouped`."""
    def one(side):
        return tuple(np.asarray(a)[None] for a in side)
    return bool(_same_entries_grouped([(one(x), one(y))], d, m)[0])


def _commutes(rep, tag, mat):
    """Exact check that the integer matrix N commutes with generator tag,
    both products multiplied out (`decompose._generator_product`).  N G is
    taken as (G N^T)^T, which needs G^T = G: the caller checks it
    (`decompose._symmetric`)."""
    comm = _int_combo(1, _generator_product(rep, tag, mat.swapaxes(0, 1)).swapaxes(0, 1),
                      -1, _generator_product(rep, tag, mat))
    return _array_is_zero(rep.field, rep.m, comm)


def _orbit_sum(rep, orbits, delta):
    """(Omega_delta, orbit size, holonomy-free) for the orbit of the start
    vector (0, delta, ..., 0, delta): the sum of A^pot(v) W(v) over the
    orbit, the potentials anchored at the start vector with phase 0."""
    p, g, m = rep.p, rep.g, rep.m
    start = diagonal_index(delta, p, g)
    k = orbits.labels[start]
    members = np.flatnonzero(orbits.labels == k)
    pot = orbits.potentials[members] - orbits.potentials[start]
    rows, exps = rep.schrodinger_map(lattice_vectors(p, g)[:, members])
    arr = np.zeros((rep.dim, rep.dim, m), dtype=np.int64)
    np.add.at(arr, (rows, np.arange(rep.dim), (exps + pot[:, None]) % m), 1)
    return CycMat(m, arr), members.size, bool(orbits.free[k])


def omega_cyc(delta, p, g=1):
    """Phase-corrected orbit sum of lattice translation operators.

    Returns (matrix, orbit size, phases consistent).  The phase attached
    to each orbit vector is its potential, transported along the Egorov
    rules from the start vector (0, delta, ..., 0, delta); on some orbits
    at even levels the transport has nontrivial holonomy, in which case
    the potentials of a spanning forest are used and the flag is False.
    """
    if delta < 1 or p % delta:
        raise ValueError("delta must divide the level")
    return _orbit_sum(WeilRep(p, g), _rule_orbits(p, g), delta)


def omega_commutes(rep, cyc):
    """G Omega = Omega G for every generator G of rep, both products dense
    (`CycMat.__matmul__`) and compared exactly (`decompose._cyc_equal`)."""
    gens = [rep.generator_cyc(tag) for tag in rep.tags()]
    return all(_cyc_equal(gen @ cyc, cyc @ gen, rep.field) for gen in gens)


def _verify_projector_family(projs, rep):
    for i, (ni, di) in enumerate(projs):
        if not ni.any():
            raise ValueError("zero idempotent in family")
        for j, (nj, dj) in enumerate(projs):
            prod = _int_einsum("it,tj->ij", ni, nj)
            target = dj * ni if i == j else np.zeros_like(prod)
            if not np.array_equal(prod, target):
                raise ValueError("family is not orthogonal-idempotent")
    den_lcm = lcm(*(dk for _, dk in projs))
    d = projs[0][0].shape[0]
    acc = np.zeros((d, d), dtype=object)
    for nk, dk in projs:
        acc += (den_lcm // dk) * nk
    if not np.array_equal(acc, den_lcm * np.eye(d, dtype=object)):
        raise ValueError("idempotents do not resolve the identity")
    if not _symmetric(rep, rep.tags()).all():  # `_commutes` reads N G as (G N^T)^T
        raise ValueError("a generator is not symmetric")
    for tag in rep.tags():
        for nk, _ in projs:
            if not _commutes(rep, tag, nk):
                raise ValueError("idempotent does not commute with a generator")


def commutant_bounds(p, g=1):
    """(upper, lower): the least nullity over two primes, and the size of
    the verified idempotent family."""
    rep = WeilRep(p, g)
    gens = [rep.generator_cyc(tag) for tag in rep.tags()]
    upper = min(_commutant_nullity_mod(gens, q, _root_mod(q, rep.m))
                for q in _modular_primes(rep.m, count=2))
    projs = isotypic_projectors(p, g)
    _verify_projector_family(projs, rep)
    return upper, len(projs)


def walk_orbit(images, phases, m, start):
    """(potentials, holonomy-free) of the orbit of `start` by a Python walk
    over every edge v -> images[r][v] and its reverse, the potential of
    `start` being 0: potentials maps each orbit member to its first-visit
    phase, and an edge that disagrees makes the orbit holonomic.  The maps
    must be permutations."""
    inverses = [np.argsort(img) for img in images]
    pot = {start: 0}
    stack = [start]
    free = True
    while stack:
        v = stack.pop()
        for img, z, inv in zip(images, phases, inverses):
            u = int(inv[v])
            for w, step in ((int(img[v]), int(z[v])), (u, -int(z[u]))):
                target = (pot[v] + step) % m
                if w not in pot:
                    pot[w] = target
                    stack.append(w)
                elif pot[w] != target:
                    free = False
    return pot, free


def rule_exact_per_vector(rep, tag, M, Q):
    """The rule (M, Q) of tag holds exactly at every basis vector v = e_i:
    U W(v) = A^z W(w) U for the generator U of tag, w = M e_i, z = Q[i, i].
    One `schrodinger_map` call and one `_same_entries` comparison per basis
    vector, stopping at the first that fails."""
    cols, exps, _, _ = rep.generator_entries(tag)
    i = np.arange(rep.dim)[:, None]
    for v in range(len(M)):
        (r, rw), (e, ew) = rep.schrodinger_map(np.column_stack((np.arange(len(M)) == v, M[:, v])))
        a = np.argsort(r)[cols]
        if not _same_entries((i, a, exps + e[a]), (rw[i], cols, exps + Q[v, v] + ew[i]),
                             rep.dim, rep.m):
            return False
    return True
