"""Decomposition machinery for the level-p modules.

Parity splitting under the index flip a -> -a, coprime tensor
factorization through a residue pairing, prime-power towers with
orthogonal complements, the bookkeeping tree of irreducible factors,
commutant dimensions with exact certificates, orbit-sum operators, and
the minus-parity label audit at genus one.

All heavy verification runs on integer exponent arrays (CycMat); when an
integer residual is nonzero the comparison falls back to exact
cyclotomic reduction, so every reported "pass" is an exact statement.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import numpy as np

from .cycmat import (
    _INT64_MAX,
    CycMat,
    _int_combo,
    _int_einsum,
    _max_abs,
    field_coords,
    handle_product,
)
from .cyclo import CycloElt
from .modgroup import (
    divisors,
    is_prime,
    prime_factorization,
    sigma0,
    symplectic_form,
)
from .weilrep import WeilRep, _heisenberg_modulus


# ---------------------------------------------------------------------------
# exact comparison helpers on exponent arrays
# ---------------------------------------------------------------------------

def _array_is_zero(field, m, arr):
    """True when every entry (a length-m exponent vector) vanishes in field."""
    arr = np.asarray(arr)
    return not arr.any() or not field_coords(arr, field, m).any()


def _scaled_equal(field, m, x, sx, y, sy):
    """Exact sx * x == sy * y for integer entry-vector arrays x, y of one
    shape (int64 or Python ints) and rational scales sx, sy."""
    sx, sy = Fraction(sx), Fraction(sy)
    diff = _int_combo(sx.numerator * sy.denominator, x,
                      -sy.numerator * sx.denominator, y)
    return _array_is_zero(field, m, diff)


def _cyc_equal(x, y, field):
    """Exact equality of two CycMat values (beta phases must agree)."""
    if x.m != y.m or x.arr.shape != y.arr.shape or x.beta != y.beta:
        return False
    return _scaled_equal(field, x.m, x.arr, x.scale, y.arr, y.scale)


def _exponent_remap(mat, new_modulus, multiplier):
    """Substitute the root A by A_new^multiplier: exponent k -> k*multiplier."""
    r, c, m = mat.arr.shape
    out = np.zeros((r, c, new_modulus), dtype=np.int64)
    for k in range(m):
        out[:, :, (k * multiplier) % new_modulus] += mat.arr[:, :, k]
    return CycMat(new_modulus, out, scale=mat.scale, beta=mat.beta)


# ---------------------------------------------------------------------------
# generator products
# ---------------------------------------------------------------------------

def _generator_product(rep, tag, operand, side):
    """gen @ operand (side "left") or operand @ gen (side "right") for the
    generator `tag` of rep and an integer matrix operand, as an exact
    integer array with an entry axis; the generator's scale is left out.
    Y_i acts as its p x p block on handle i (`handle_product`); the
    diagonal X_i and Z_ij put each operand entry at the power of A of its
    row (left) or column (right), with no arithmetic."""
    if tag[0] == "Y":
        return handle_product(operand, rep.y_block().arr, tag[1], rep.p, rep.g, side)
    exps = rep.diagonal_exponents(tag) % rep.m
    rows, cols = np.ix_(*map(np.arange, operand.shape))
    big = _max_abs(operand) > _INT64_MAX
    out = np.zeros(operand.shape + (rep.m,), dtype=object if big else np.int64)
    out[rows, cols, exps[rows if side == "left" else cols]] = operand
    return out


# ---------------------------------------------------------------------------
# parity splitting
# ---------------------------------------------------------------------------

@dataclass
class ParityBases:
    p: int
    g: int
    plus: np.ndarray
    minus: np.ndarray

    @property
    def dims(self):
        return (self.plus.shape[1], self.minus.shape[1])


def _flip_permutation(p, g):
    """Index map of the global flip a -> -a on multi-indices (a1 most
    significant); an involution, so J = eye[flip] is symmetric."""
    return np.ravel_multi_index(tuple(-np.indices((p,) * g) % p), (p,) * g).ravel()


def _commutes(rep, tag, mat):
    """Exact check that the integer matrix mat commutes with generator tag."""
    comm = _int_combo(1, _generator_product(rep, tag, mat, "right"),
                      -1, _generator_product(rep, tag, mat, "left"))
    return _array_is_zero(rep.field, rep.m, comm)


def parity_bases(p, g=1):
    """Even/odd bases under the flip J, with one column per flip orbit.

    The two spans are the +1 and -1 eigenspaces of J, so both are stable
    under a generator exactly when it commutes with J; that is verified
    exactly for every generator.  Column i of I + J is e_i + e_flip[i], so
    the orbit {i, flip[i]} is read off at its least index i <= flip[i] (and
    has a minus column only when i < flip[i]).
    """
    rep = WeilRep(p, g)
    flip = _flip_permutation(p, g)
    eye = np.eye(rep.dim, dtype=np.int64)
    J = eye[flip]
    for tag in rep.tags():
        if not _commutes(rep, tag, J):
            raise ValueError(f"parity spans not invariant under {tag}")
    first = np.arange(rep.dim)
    return ParityBases(p, g, (eye + J)[:, first <= flip], (eye - J)[:, first < flip])


def _parity_dims(p, g):
    fixed = 1 if p % 2 else 2
    return ((p**g + fixed**g) // 2, (p**g - fixed**g) // 2)


# ---------------------------------------------------------------------------
# coprime tensor factorization
# ---------------------------------------------------------------------------

@dataclass
class CrtReport:
    passed: bool
    failures: tuple


def _bezout(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def _crt_maps(a, b, g):
    """Bezout pair (u, v) and the genus-g basis permutation psi.

    The residue pairing f(x, y) = (x v b + y a' u) mod ab, a' = 2a for even
    a and a otherwise, must be the CRT bijection: f(x, y) = x mod a and
    y mod b.  psi sends the tensor index (x, y) of U_a (x) U_b, handle 1
    most significant in x and in y, to the level-ab index whose handle h
    holds f(x_h, y_h).
    """
    a2 = 2 * a if a % 2 == 0 else a
    u, v = _bezout(a2, b)
    if a2 * u + b * v != 1:
        raise RuntimeError("no Bezout pair for (%d, %d)" % (a2, b))
    x, y = np.indices((a, b))
    f = (x * (v * b) + y * (a2 * u)) % (a * b)
    if not (np.array_equal(f % a, x) and np.array_equal(f % b, y)):
        raise RuntimeError("residue pairing is not the CRT bijection")
    idx = np.indices((a,) * g + (b,) * g).reshape(2 * g, -1)
    return u, v, np.ravel_multi_index(tuple(f[idx[:g], idx[g:]]), (a * b,) * g)


def crt_check(a, b, g=1):
    """Verify the coprime tensor factorization exactly, generator by generator."""
    if gcd(a, b) != 1 or b % 2 == 0 or a < 2 or b < 2:
        raise ValueError("need coprime levels with b odd, both at least 2")
    u, v, psi = _crt_maps(a, b, g)
    m_ab = _heisenberg_modulus(a * b)
    # A_a corresponds to A_ab^{vb} and A_b to A_ab^{au} (odd a) or
    # A_ab^{2au} (even a); the Bezout identity fixes the orders.
    mult_a = (v * b) % m_ab
    mult_b = ((2 * a * u) if a % 2 == 0 else (a * u)) % m_ab
    rep_ab = WeilRep(a * b, g)
    rep_a = WeilRep(a, g)
    rep_b = WeilRep(b, g)
    failures = []
    for tag in rep_ab.tags():
        ga = _exponent_remap(rep_a.generator_cyc(tag), m_ab, mult_a)
        gb = _exponent_remap(rep_b.generator_cyc(tag), m_ab, mult_b)
        gt = ga.kron(gb)
        moved = np.zeros_like(gt.arr)
        moved[psi[:, None], psi[None, :], :] = gt.arr
        transported = CycMat(m_ab, moved, scale=gt.scale, beta=gt.beta)
        if not _cyc_equal(transported, rep_ab.generator_cyc(tag), rep_ab.field):
            failures.append(tag)
    return CrtReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# prime-power towers
# ---------------------------------------------------------------------------

@dataclass
class TowerReport:
    passed: bool
    failures: tuple


def _tower_handle_basis(r, n):
    """Per-handle embedding columns of U_{r^n} inside U_{r^(n+2)}: column i
    has ones at r (i + k r^n), 0 <= k < r."""
    small = r**n
    emb = np.zeros((r ** (n + 2), small), dtype=np.int64)
    i = np.arange(small)
    emb[r * (i + small * np.arange(r)[:, None]), i] = 1
    return emb


def _tower_span(r, n, g):
    """Genus-g embedding span E, the g-fold Kronecker power of the handle
    columns.  The columns have disjoint supports of r^g ones each, so
    E^T E = r^g I: the projector onto the embedding along its orthogonal
    complement W = ker(E^T) is E E^T / r^g."""
    return reduce(np.kron, [_tower_handle_basis(r, n)] * g)


def tower_check(r, n, g=1):
    """Verify the embedded copy of U_{r^n} inside U_{r^(n+2)} and its
    orthogonal complement W = ker(E^T), generator by generator.

    With G_U the level-r^n generator under A -> A^(r^2) (1 when n = 0),
    two exact identities are checked: G E = E G_U ("restriction mismatch"
    otherwise) and G^T E = E G_U^T ("complement not stable").  Since
    E^T E = r^g I, the second one is E^T G = G_U E^T, so G maps W into W.
    Each side is one `_generator_product` or one contraction with E.
    """
    if n < 0 or (r == 2 and n < 1):
        raise ValueError("exponent out of range for the tower")
    rep = WeilRep(r ** (n + 2), g)
    E = _tower_span(r, n, g)
    rep_small = WeilRep(r**n, g) if n else None
    failures = []
    for tag in rep.tags():
        if rep_small is None:
            small = CycMat.identity(rep.m, 1)
        else:
            small = _exponent_remap(rep_small.generator_cyc(tag), rep.m, r * r)
        scale = rep.y_block().scale if tag[0] == "Y" else 1
        for reason, left, right in (
            ("restriction mismatch",
             _generator_product(rep, tag, E, "left"), small.arr),
            ("complement not stable",
             _generator_product(rep, tag, E.T, "right").transpose(1, 0, 2),
             small.arr.transpose(1, 0, 2)),
        ):
            right = _int_einsum("it,tjk->ijk", E, right)
            if not _scaled_equal(rep.field, rep.m, left, scale, right, small.scale):
                failures.append((tag, reason))
    return TowerReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# decomposition tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorLabel:
    kind: str  # "U", "W", or "trivial"
    prime_power: int
    parity: str  # "+", "-", or "none"
    genus: int
    dim: int

    def name(self):
        if self.kind == "trivial":
            return "1"
        suffix = self.parity if self.parity != "none" else ""
        return f"{self.kind}{self.prime_power}{suffix}"


@dataclass
class DecompositionTree:
    level: int
    genus: int
    factors: tuple  # tuple of tuples of FactorLabel

    @property
    def factor_count(self):
        return len(self.factors)

    def dims(self):
        out = []
        for tensor in self.factors:
            d = 1
            for label in tensor:
                d *= label.dim
            out.append(d)
        return out

    def to_json(self):
        payload = {
            "level": self.level,
            "genus": self.genus,
            "factor_count": self.factor_count,
            "factors": [
                {
                    "tensor": [
                        {
                            "kind": lab.kind,
                            "prime_power": lab.prime_power,
                            "parity": lab.parity,
                            "dim": lab.dim,
                        }
                        for lab in tensor
                    ]
                }
                for tensor in self.factors
            ],
        }
        return json.dumps(payload, separators=(",", ":"))


def _prime_power_leaves(r, n, g):
    """Leaf labels of U_{r^n} at genus g, ordered top of the tower first."""
    q = r**n
    plus, minus = _parity_dims(q, g)
    if n == 0:
        return [FactorLabel("trivial", 1, "none", g, 1)]
    if r == 2 and n == 1:
        return [FactorLabel("U", 2, "none", g, 2**g)]
    if n == 1 or (r == 2 and n == 2):
        return [
            FactorLabel("U", q, "+", g, plus),
            FactorLabel("U", q, "-", g, minus),
        ]
    small = r ** (n - 2)
    w_half = (q**g - small**g) // 2
    return [
        FactorLabel("W", q, "+", g, w_half),
        FactorLabel("W", q, "-", g, w_half),
    ] + _prime_power_leaves(r, n - 2, g)


def decomposition_tree(p, g=1):
    """Bookkeeping tree of irreducible factors of the level-p module."""
    if p < 2 or g < 1:
        raise ValueError("need level p >= 2 and genus g >= 1")
    parts = prime_factorization(p)
    leaf_lists = [_prime_power_leaves(r, n, g) for r, n in parts]
    factors = tuple(tuple(combo) for combo in itertools.product(*leaf_lists))
    tree = DecompositionTree(p, g, factors)
    expected = sigma0(p) if p % 2 else sigma0(p // 2)
    if tree.factor_count != expected:
        raise ValueError(
            f"tree has {tree.factor_count} leaves, sigma0 gives {expected}"
        )
    if sum(tree.dims()) != p**g:
        raise ValueError(f"leaf dimensions sum to {sum(tree.dims())}, not {p**g}")
    return tree


# ---------------------------------------------------------------------------
# modular rank certificates
# ---------------------------------------------------------------------------

# Largest rank d = p^g that `commutant_dimension` certifies.  The commutation
# system has d^2 rows per non-diagonal generator; a cold certificate at
# (128, 1) peaks at 537 MiB of RSS.
COMMUTANT_MAX_DIM = 128


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


# ---------------------------------------------------------------------------
# commutant dimension via orthogonal idempotent certificates
# ---------------------------------------------------------------------------

def _proj_mul(p1, p2):
    n1, d1 = p1
    n2, d2 = p2
    num = n1 @ n2
    den = d1 * d2
    g = den
    for v in num.flat:
        g = gcd(g, int(v))
        if g == 1:
            break
    if g > 1:
        num = num // g
        den //= g
    return num, den


def isotypic_projectors(p, g=1):
    """Orthogonal idempotents onto the irreducible blocks, as (num, den)."""
    d = p**g
    eye = np.eye(d, dtype=object)
    if p == 1:
        return [(eye, 1)]
    parts = prime_factorization(p)
    if len(parts) > 1:
        r0, n0 = parts[0]
        a = r0**n0
        b = p // a
        _, _, psi = _crt_maps(a, b, g)
        pa = isotypic_projectors(a, g)
        pb = isotypic_projectors(b, g)
        out = []
        for (na, da), (nb, db) in itertools.product(pa, pb):
            kr = np.kron(na, nb)
            moved = np.zeros_like(kr)
            moved[psi[:, None], psi[None, :]] = kr
            out.append((moved, da * db))
        return out
    r, n = parts[0]
    if r == 2 and n == 1:
        return [(eye, 1)]
    if n == 1 or (r == 2 and n == 2):
        J = eye[_flip_permutation(p, g)]
        projs = [(eye + J, 2)]
        if (p**g - (1 if p % 2 else 2) ** g) // 2:
            projs.append((eye - J, 2))
        return projs
    # U_{r^(n-2)} + W: a block projector P of the embedded copy lifts to
    # E P E^T / r^g, and W, the range of r^g I - E E^T, splits by parity
    E = _tower_span(r, n - 2, g).astype(object)
    scale = r**g
    out = [(E @ snum @ E.T, sden * scale)
           for snum, sden in isotypic_projectors(r ** (n - 2), g)]
    J = eye[_flip_permutation(p, g)]
    rest = (scale * eye - E @ E.T, scale)
    out.append(_proj_mul(rest, (eye + J, 2)))
    minus = _proj_mul(rest, (eye - J, 2))
    if minus[0].any():
        out.append(minus)
    return out


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
    for tag in rep.tags():
        for nk, _ in projs:
            if not _commutes(rep, tag, nk):
                raise ValueError("idempotent does not commute with a generator")


def commutant_dimension(p, g=1):
    """Exact commutant dimension of the level-p module at genus g.

    Upper bound: nullity of the commutation system over two prime fields
    containing an order-m root (specialization can only lower rank).
    Lower bound: an explicitly verified family of orthogonal commuting
    idempotents.  The two must meet, pinning the exact value.  Runs for
    rank p^g up to COMMUTANT_MAX_DIM.
    """
    if p**g > COMMUTANT_MAX_DIM:
        raise ValueError(
            f"commutant certificate bounded at rank {COMMUTANT_MAX_DIM}"
        )
    rep = WeilRep(p, g)
    gens = [rep.generator_cyc(tag) for tag in rep.tags()]
    upper = None
    for q in _modular_primes(rep.m, count=2):
        omega = _root_mod(q, rep.m)
        nullity = _commutant_nullity_mod(gens, q, omega)
        upper = nullity if upper is None else min(upper, nullity)
    projs = isotypic_projectors(p, g)
    _verify_projector_family(projs, rep)
    lower = len(projs)
    if lower != upper:
        raise ValueError(
            f"commutant certificates disagree: {lower} vs {upper}"
        )
    return lower


def schrodinger_commutant_dimension(p, g=1):
    """Dimension of the commutant of the lattice translation operators.

    The modulation operators are diagonal with pairwise distinct joint
    eigenvalue tuples (verified exactly), so any commuting matrix is
    diagonal; the shift operators then force constancy along the orbit
    of index translations, and the commutant dimension is the number of
    connected components of that translation graph.
    """
    rep = WeilRep(p, g)
    indices = rep._multi_indices()
    eig = [tuple((2 * x) % rep.m for x in a) for a in indices]
    if len(set(eig)) != len(eig):
        raise ValueError("joint eigenvalues are not distinct")
    parent = list(range(len(indices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pos = {a: i for i, a in enumerate(indices)}
    for i, a in enumerate(indices):
        for h in range(g):
            b = list(a)
            b[h] = (b[h] + 1) % p
            j = pos[tuple(b)]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return len({find(i) for i in range(len(indices))})


# ---------------------------------------------------------------------------
# orbit-sum operators
# ---------------------------------------------------------------------------

def _conjugation_rules(tags, p, g):
    """Action of generator conjugation on (lattice vector, phase).

    Conjugating a composite translation operator by a generator moves it
    to another such operator times a power of A; the exponent rules below
    are exact (slot 2i holds the shift, slot 2i+1 the modulation of
    handle i, phases live modulo the order of A).
    """
    m = _heisenberg_modulus(p)

    def conj_x(i, sign):
        def rule(vec, z):
            out = list(vec)
            s = vec[2 * i]
            out[2 * i + 1] = (out[2 * i + 1] + sign * s) % p
            return tuple(out), (z + sign * s * s) % m

        return rule

    def conj_s(sign):
        def rule(vec, z):
            out = list(vec)
            phase = 0
            for i in range(g):
                s, n = vec[2 * i], vec[2 * i + 1]
                if sign > 0:
                    out[2 * i], out[2 * i + 1] = n % p, (-s) % p
                else:
                    out[2 * i], out[2 * i + 1] = (-n) % p, s % p
                phase -= 2 * s * n
            return tuple(out), (z + phase) % m

        return rule

    def compose(*rules):
        def rule(vec, z):
            for r in rules:
                vec, z = r(vec, z)
            return vec, z

        return rule

    def conj_z(i, j, sign):
        def rule(vec, z):
            out = list(vec)
            d = vec[2 * i] - vec[2 * j]
            out[2 * i + 1] = (out[2 * i + 1] + sign * d) % p
            out[2 * j + 1] = (out[2 * j + 1] - sign * d) % p
            return tuple(out), (z + sign * d * d) % m

        return rule

    rules = []
    for tag in tags:
        for sign in (1, -1):
            if tag[0] == "X":
                rules.append(conj_x(tag[1] - 1, sign))
            elif tag[0] == "Y":
                rules.append(
                    compose(conj_s(-1), conj_x(tag[1] - 1, sign), conj_s(1))
                )
            else:
                rules.append(conj_z(tag[1] - 1, tag[2] - 1, sign))
    return rules


def omega_cyc(delta, p, g=1, rep=None):
    """Phase-corrected orbit sum of lattice translation operators.

    Returns (matrix, orbit size, phases consistent).  The phase attached
    to each orbit vector is transported along the conjugation action; on
    some orbits at even levels the transport has nontrivial holonomy, in
    which case first-visit phases are used and the flag is False.
    """
    if p % delta:
        raise ValueError("delta must divide the level")
    if rep is None:
        rep = WeilRep(p, g)
    rules = _conjugation_rules(rep.tags(), p, g)
    start = tuple(0 if i % 2 == 0 else delta % p for i in range(2 * g))
    phases = {start: 0}
    frontier = [start]
    consistent = True
    while frontier:
        vec = frontier.pop()
        z = phases[vec]
        for rule in rules:
            w, zw = rule(vec, z)
            if w not in phases:
                phases[w] = zw
                frontier.append(w)
            elif phases[w] != zw:
                consistent = False
    total = None
    for vec, z in sorted(phases.items()):
        term = rep.schrodinger_cyc(rep.heisenberg(vec, z))
        total = term if total is None else total + term
    return total, len(phases), consistent


def omega_projector(delta, p, g=1):
    """Orbit-sum operator as an exact cyclotomic matrix."""
    rep = WeilRep(p, g)
    cyc, _, _ = omega_cyc(delta, p, g, rep)
    return cyc.to_ring(rep.field)


@dataclass
class OmegaRow:
    delta: int
    orbit_size: int
    commutes: bool
    phase_consistent: bool


@dataclass
class OmegaFamilyReport:
    p: int
    g: int
    rows: tuple
    family_size: int
    family_rank: int

    @property
    def all_commute(self):
        return all(row.commutes for row in self.rows)

    @property
    def independent(self):
        return self.family_rank == self.family_size


def omega_family_report(p, g=1):
    """Commutation and independence audit of the orbit-sum family."""
    rep = WeilRep(p, g)
    gens = [rep.generator_cyc(tag) for tag in rep.tags()]
    rows = []
    mats = []
    for delta in divisors(p):
        cyc, size, consistent = omega_cyc(delta, p, g, rep)
        mats.append(cyc)
        commutes = True
        for gen in gens:
            comm = (gen @ cyc) - (cyc @ gen)
            if not _array_is_zero(rep.field, rep.m, comm.arr):
                commutes = False
                break
        rows.append(OmegaRow(delta, size, commutes, consistent))
    q = _modular_primes(rep.m, count=1)[0]
    omega = _root_mod(q, rep.m)
    stacked = [
        _eval_mod(cyc, q, omega).astype(np.int64).reshape(-1) for cyc in mats
    ]
    rank = _rank_mod(np.stack(stacked, axis=0), q)
    return OmegaFamilyReport(p, g, tuple(rows), len(mats), rank)


@dataclass
class EgorovLatticeReport:
    p: int
    g: int
    tag: tuple
    matrix: tuple  # induced map on lattice basis vectors, column-wise
    conjugation_exact: bool
    additive: bool
    preserves_omega: bool

    @property
    def ok(self):
        return self.conjugation_exact and self.additive and self.preserves_omega


def egorov_verify(p, g=1):
    """Induced lattice maps of the generators, certified exactly.

    For each generator U and basis vector v the rule predicts (w, z) with
    U Add(v) U^dagger = A^z Add(w).  U is unitary, so this is checked as
    the exact identity U Add(v) = A^z Add(w) U, both sides index-map
    products (Add is a unit monomial).  The induced map is then checked for
    additivity and preservation of the symplectic pairing on basis pairs.
    """
    rep = WeilRep(p, g)
    tags = rep.tags()
    rules = _conjugation_rules(tags, p, g)[::2]  # the sign +1 rule of each tag
    dim2 = 2 * g
    basis = [
        tuple(1 if k == i else 0 for k in range(dim2)) for i in range(dim2)
    ]
    reports = []
    for tag, rule in zip(tags, rules):
        U = rep.generator_cyc(tag)
        exact = all(
            _cyc_equal(U @ rep.schrodinger_cyc(rep.heisenberg(vec, 0)),
                       rep.schrodinger_cyc(rep.heisenberg(*rule(vec, 0))) @ U,
                       rep.field)
            for vec in basis
        )
        images = [rule(vec, 0)[0] for vec in basis]
        additive = True
        for i in range(dim2):
            for j in range(dim2):
                summed = tuple(
                    (basis[i][k] + basis[j][k]) % p for k in range(dim2)
                )
                target = tuple(
                    (images[i][k] + images[j][k]) % p for k in range(dim2)
                )
                if rule(summed, 0)[0] != target:
                    additive = False
        preserves = all(
            symplectic_form(images[i], images[j], g, p)
            == symplectic_form(basis[i], basis[j], g, p)
            for i in range(dim2)
            for j in range(dim2)
        )
        reports.append(
            EgorovLatticeReport(
                p, g, tag, tuple(images), exact, additive, preserves
            )
        )
    return reports


def omega_embedding_scalar(delta, p, g=1):
    """Exact scalar by which an orbit sum acts on the embedded tower copy.

    For p = r^n and delta = r^k (k <= n/2) the orbit sum preserves the
    iterated embedding of U_{r^(n-2k)} and acts on it by a single ring
    element, returned here; a defect error is raised when the action is
    not scalar.
    """
    parts = prime_factorization(p)
    if len(parts) != 1:
        raise ValueError("level must be a prime power")
    r, n = parts[0]
    k = 0
    t = delta
    while t % r == 0:
        t //= r
        k += 1
    if t != 1 or 2 * k > n:
        raise ValueError("divisor must be r^k with k <= n/2")
    rep = WeilRep(p, g)
    cyc, _, _ = omega_cyc(delta, p, g, rep)
    emb = np.eye(r ** (n - 2 * k), dtype=np.int64)
    for mm in range(n - 2 * k, n, 2):
        emb = _tower_handle_basis(r, mm) @ emb
    span = reduce(np.kron, [emb] * g)
    image = _int_einsum("itk,tj->ijk", cyc.arr, span)
    i0, j0 = next(
        (i, j)
        for j in range(span.shape[1])
        for i in range(span.shape[0])
        if span[i, j]
    )
    c_vec = image[i0, j0].astype(object)
    residual = image.astype(object) - np.einsum(
        "ij,k->ijk", span.astype(object), c_vec
    )
    if not _array_is_zero(rep.field, rep.m, residual):
        raise ValueError("orbit sum does not act as a scalar on the embedding")
    coords = field_coords(c_vec, rep.field, rep.m)
    return CycloElt(rep.field, [Fraction(x) for x in coords.tolist()])


# ---------------------------------------------------------------------------
# minus-parity label audit at genus one
# ---------------------------------------------------------------------------

@dataclass
class LabelAuditReport:
    p: int
    labels: tuple  # tuple of tuples of FactorLabel (odd minus-parity)
    total_dim: int
    minus_dim: int

    @property
    def match(self):
        return self.total_dim == self.minus_dim


def su2_so3_labels(p):
    """Tensor summands with an odd number of odd-parity factors, genus one."""
    if p < 2:
        raise ValueError("level must be at least 2")
    tree = decomposition_tree(p, 1)
    chosen = []
    total = 0
    for tensor in tree.factors:
        minus_count = sum(1 for lab in tensor if lab.parity == "-")
        if minus_count % 2 == 1:
            chosen.append(tensor)
            total += int(np.prod([lab.dim for lab in tensor]))
    minus_dim = _parity_dims(p, 1)[1]
    return LabelAuditReport(p, tuple(chosen), total, minus_dim)
