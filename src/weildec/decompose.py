"""Decomposition machinery for the level-p modules.

Parity splitting under the index flip a -> -a, coprime tensor
factorization through a residue pairing, prime-power towers with
orthogonal complements, the bookkeeping tree of irreducible factors,
the Egorov rules G W(v) G^-1 = A^(v^T Q v) W(Mv) of the generators on
the Schrodinger operators W(v) as integer matrices (M, Q), the orbit-sum
family, and the minus-parity label audit at genus one.  The commutant
dimension is the number of holonomy-free orbits of the rules, certified
by (a) the W(v) being a basis, (b) each rule holding for every v, from
2g x 2g identities on (M, Q), and (c) the orbit count over the p^(2g)
lattice vectors, while p^(2g) m is at most COMMUTANT_MAX_ENTRIES.  Check
(b) runs once for all the rules of a WeilRep (`_certified_rules`): the
rules stacked as (k, 2g, 2g) arrays, the k 2g basis identities from two
Schrodinger maps and one sorted comparison, one verdict per tag.  Count
(c) reads that same certified stack, evaluated over the lattice by
`modgroup.lattice_images` (shared with `modgroup.orbit_census`), and the
orbit-sum family is read off those orbits: a sum commutes with every
generator exactly when its orbit is holonomy-free.  Every certificate
reads a generator as integer exponents on its row entries times one
common factor (`WeilRep.generator_entries`), at most p per row, and
forms no dense d x d x m generator; the tower's rolled Y operand, d p m
entries, is bounded by COMMUTANT_MAX_ENTRIES too.

The rules, the parity flip, the CRT entries and the generators' symmetry
compare (row, column, exponent) triples as integers, every tag of a
check in one `_same_entries_grouped` call; the CRT factor identity and
the tower identity compare entry vectors, falling back to exact
cyclotomic reduction when an integer residual is nonzero.  Every
reported "pass" is an exact statement.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, prod

import numpy as np

from .cycmat import (
    _INT64_MAX,
    _int_combo,
    _int_einsum,
    _int_matmul,
    _rolls,
    field_coords,
)
from .modgroup import (
    diagonal_index,
    divisors,
    lattice_images,
    lattice_orbits,
    lattice_vectors,
    prime_factorization,
    sigma0,
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


def _same_entries_grouped(stacks, d, m):
    """One verdict per identity: whether two sides of (row, column,
    exponent) triples are one multiset with exponents mod m, which is when
    two d x d matrices sharing one scale and one nonzero factor are equal.

    stacks is a list of (x, y), each side three arrays that broadcast
    together to a shape (s, ...) whose first axis holds s identities; the
    verdicts follow the stacks in order.  The key (r d + c) m + (e mod m) of
    an entry of identity q is offset by q d^2 m, so each side sorts once and
    identity q fills the same block of positions on both sides when its two
    entry counts agree (otherwise it fails, and stays out of the sort).
    Identity q holds when no position of its block differs.  The keys are
    int64, so identities * d^2 m must fit."""
    def identity_keys(r, c, e):
        key = (r * d + c) * m + e % m
        return key.reshape(len(key), -1)

    span = d * d * m
    keys = [[identity_keys(*side) for side in pair] for pair in stacks]
    first = [0, *itertools.accumulate(len(kx) for kx, _ in keys)]
    if first[-1] * span > _INT64_MAX:
        raise OverflowError("entry keys past int64 at %d identities, d = %d, m = %d"
                            % (first[-1], d, m))
    held = np.ones(first[-1], bool)
    sides = ([], [])
    for pair, q in zip(keys, first):
        if pair[0].shape != pair[1].shape:
            held[q:q + len(pair[0])] = False
            continue
        offset = (q + np.arange(len(pair[0])))[:, None] * span
        for side, key in zip(sides, pair):
            key += offset
            side.append(key.ravel())
    left, right = (np.concatenate(side or [np.zeros(0, np.int64)]) for side in sides)
    # argsort, not an in-place sort: its numpy kernel is resident already,
    # and the in-place kernel adds 256 KiB of code pages to the RSS
    left, right = left[np.argsort(left)], right[np.argsort(right)]
    held[left[left != right] // span] = False
    return held


def _moved_entries(rep, tags, move):
    """One verdict per tag: the generator's (row, column, exponent)
    triples, their positions moved by move(rows, cols), are its own.  One
    `_same_entries_grouped` call for every tag."""
    rows = np.arange(rep.dim)[None, :, None]
    stacks = []
    for tag in tags:
        cols, exps, _, _ = rep.generator_entries(tag)
        stacks.append(((*move(rows, cols[None]), exps[None]), (rows, cols[None], exps[None])))
    return _same_entries_grouped(stacks, rep.dim, rep.m)


def _symmetric(rep, tags):
    """G^T = G, one verdict per generator of tags: its triples, rows and
    columns swapped, are its own."""
    return _moved_entries(rep, tags, lambda rows, cols: (cols, rows))


def _cyc_equal(x, y, field):
    """Exact equality of two CycMat values (beta phases must agree)."""
    if x.m != y.m or x.arr.shape != y.arr.shape or x.beta != y.beta:
        return False
    return _scaled_equal(field, x.m, x.arr, x.scale, y.arr, y.scale)


# ---------------------------------------------------------------------------
# generator products
# ---------------------------------------------------------------------------

def _generator_product(rep, tag, operand):
    """gen @ operand for the generator `tag` of rep and an integer matrix
    operand (d, n), as an exact integer array (d, n, m) with an entry axis;
    the generator's scale is left out.

    Row r of gen @ operand is sum_j vecs[r, j] * operand[cols[r, j]] over
    the k entries of `generator_entries`, vecs[r, j] the factor rolled by
    exps[r, j]: one batched `_int_matmul` over the rows r (int64 behind its
    exact bound, Python ints past it)."""
    cols, exps, factor, _ = rep.generator_entries(tag)
    return _int_matmul(operand[cols].transpose(0, 2, 1), _rolls(factor, exps))


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


def _flip_commutes(rep, flip):
    """J G J = G for the flip J = eye[flip], one verdict per generator G of
    rep.tags(): the entry (r, c) of G sits at (flip[r], flip[c]) in J G J,
    so the moved triples must be G's own."""
    return _moved_entries(rep, rep.tags(), lambda rows, cols: (flip[rows], flip[cols]))


def parity_bases(p, g=1):
    """Even/odd bases under the flip J, with one column per flip orbit.

    The two spans are the +1 and -1 eigenspaces of J, so both are stable
    under a generator exactly when it commutes with J; that is verified
    exactly for every generator as the index identity J G J = G, all tags
    in one comparison (`_flip_commutes`), with no product formed.  Column i
    of I + J is e_i + e_flip[i], so the orbit {i, flip[i]} is read off at
    its least index i <= flip[i] (and has a minus column only when
    i < flip[i]).
    """
    rep = WeilRep(p, g)
    flip = _flip_permutation(p, g)
    failed = [tag for tag, held in zip(rep.tags(), _flip_commutes(rep, flip)) if not held]
    if failed:
        raise ValueError(f"parity spans not invariant under {failed}")
    eye = np.eye(rep.dim, dtype=np.int64)
    J = eye[flip]
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
    """The verdict of `crt_check` (the failing tags) or of `tower_check`
    (the failing (tag, reason) pairs)."""
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
    """Verify the coprime tensor factorization exactly, generator by generator.

    Row (x, y) of G_a (x) G_b holds sa sb (fa (x) fb) A_a^ea[x, j]
    A_b^eb[y, l] at the columns (cols_a[x, j], cols_b[y, l])
    (`generator_entries`).  A_a is A_ab^mult_a and A_b is A_ab^mult_b, of
    coprime orders m_a m_b = m_ab, so A_a^s A_b^t = A_ab^idx[s, t] with idx
    a bijection (checked).  Moved by psi in rows and columns, with the
    exponents idx[ea, eb], the triples must be G_ab's, every tag in one
    `_same_entries_grouped` call, and fa (x) fb scattered by idx, times
    sa sb, must be s_ab f_ab (one field identity per tag).
    """
    if gcd(a, b) != 1 or b % 2 == 0 or a < 2 or b < 2:
        raise ValueError("need coprime levels with b odd, both at least 2")
    rep_ab, rep_a, rep_b = WeilRep(a * b, g), WeilRep(a, g), WeilRep(b, g)
    u, v, psi = _crt_maps(a, b, g)
    m_ab = rep_ab.m
    # A_a corresponds to A_ab^{vb} and A_b to A_ab^{au} (odd a) or
    # A_ab^{2au} (even a); the Bezout identity fixes the orders.
    mult_a = (v * b) % m_ab
    mult_b = ((2 * a * u) if a % 2 == 0 else (a * u)) % m_ab
    idx = (np.arange(rep_a.m)[:, None] * mult_a + np.arange(rep_b.m) * mult_b) % m_ab
    if not (np.bincount(idx.ravel(), minlength=m_ab) == 1).all():
        raise RuntimeError("A_a and A_b do not generate the level-%d roots" % (a * b))
    tags = rep_ab.tags()
    stacks, factors = [], []
    for tag in tags:
        cols_a, ea, fa, sa = rep_a.generator_entries(tag)
        cols_b, eb, fb, sb = rep_b.generator_entries(tag)
        cols_ab, e_ab, f_ab, s_ab = rep_ab.generator_entries(tag)
        d_b = cols_b.shape[0]
        tensor = (psi.reshape(-1, d_b, 1, 1),  # row (x, y), column (j, l)
                  psi[cols_a[:, None, :, None] * d_b + cols_b[None, :, None, :]],
                  idx[ea[:, None, :, None], eb[None, :, None, :]])
        own = (np.arange(rep_ab.dim)[:, None], cols_ab, e_ab)
        stacks.append(tuple(tuple(arr[None] for arr in side) for side in (tensor, own)))
        outer = _int_einsum("s,t->st", fa, fb)
        ft = np.zeros(m_ab, dtype=outer.dtype)
        ft[idx] = outer
        factors.append(_scaled_equal(rep_ab.field, m_ab, ft, sa * sb, f_ab, s_ab))
    held = _same_entries_grouped(stacks, rep_ab.dim, m_ab) & factors
    failures = tuple(tag for tag, ok in zip(tags, held) if not ok)
    return CrtReport(not failures, failures)


# ---------------------------------------------------------------------------
# prime-power towers
# ---------------------------------------------------------------------------

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
    orthogonal complement W = ker(E^T), generator by generator, for a
    prime r.

    With G_U the level-r^n generator under A -> A^(r^2) (1 when n = 0),
    one exact field identity is checked: G E = E G_U ("restriction
    mismatch" otherwise).  W is stable when E^T G = G_U E^T, the transpose
    of that identity once G^T = G and G_U^T = G_U; a generator that
    `_symmetric` refuses at either level is reported "complement not
    stable".  The left side is a `_generator_product`.  G_U is the small
    level's entries, exponents times r^2 and the factor scattered to
    match; E has disjoint column supports, so E G_U is one scatter of the
    rolled entries.

    The rolled Y operand of the product has d p m int64 entries at level
    p = r^(n+2), d = p^g: past COMMUTANT_MAX_ENTRIES the check raises
    ValueError before it builds anything.
    """
    if prime_factorization(r) != [(r, 1)]:
        raise ValueError("the tower needs a prime r")
    if n < 0 or (r == 2 and n < 1):
        raise ValueError("exponent out of range for the tower")
    level = r ** (n + 2)
    if level ** (g + 1) * _heisenberg_modulus(level) > COMMUTANT_MAX_ENTRIES:
        raise ValueError("tower certificate bounded at d p m <= %d entries"
                         % COMMUTANT_MAX_ENTRIES)
    rep = WeilRep(level, g)
    E = _tower_span(r, n, g)
    d_s = E.shape[1]
    sup = np.nonzero(E.T)[1].reshape(d_s, -1)  # sup[i]: the rows where E[:, i] = 1
    rep_small = WeilRep(r**n, g) if n else None
    tags = rep.tags()
    symmetric = _symmetric(rep, tags) & (_symmetric(rep_small, tags) if n else True)
    one = (np.zeros((1, 1), np.int64),) * 2 + (np.ones(1, np.int64), Fraction(1))
    failures = []
    for tag, stable in zip(tags, symmetric):
        cols, exps, factor, small_scale = rep_small.generator_entries(tag) if n else one
        remapped = np.zeros(rep.m, factor.dtype)
        remapped[np.arange(factor.size) * r * r % rep.m] = factor
        vecs = _rolls(remapped, exps * r * r % rep.m)
        egu = np.zeros((rep.dim, d_s, rep.m), vecs.dtype)
        egu[sup[:, :, None], cols[:, None]] = vecs[:, None]  # E G_U
        if not _scaled_equal(rep.field, rep.m, _generator_product(rep, tag, E),
                             rep.generator_entries(tag)[3], egu, small_scale):
            failures.append((tag, "restriction mismatch"))
        if not stable:
            failures.append((tag, "complement not stable"))
    return CrtReport(not failures, tuple(failures))


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
        return [prod(label.dim for label in tensor) for tensor in self.factors]

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
# isotypic projectors
# ---------------------------------------------------------------------------

def _proj_mul(p1, p2):
    """The product of two (num, den) projectors, content reduced."""
    (n1, d1), (n2, d2) = p1, p2
    num, den = n1 @ n2, d1 * d2
    g = gcd(den, *num.flat)
    return num // g, den // g


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


# ---------------------------------------------------------------------------
# Egorov rules, and the commutant dimension as a count of lattice orbits
# ---------------------------------------------------------------------------

def _rule_matrices(tag, g):
    """(M, Q), 2g x 2g integer matrices, with U W(v) U^-1 = A^(v^T Q v)
    W(Mv) for the generator U of tag: X_i adds s_i to n_i with z = s_i^2;
    Y_i subtracts n_i from s_i with z = -n_i^2; Z_ij adds d = s_i - s_j to
    n_i, subtracts it from n_j and has z = d^2.  Certified, not assumed:
    `_rule_stack` stacks the rules of all tags, and `_rule_exact` (at the
    basis vectors) and `_rule_cocycle` (for every v) check every rule of a
    WeilRep in one pass each.
    """
    M, Q = np.eye(2 * g, dtype=np.int64), np.zeros((2 * g, 2 * g), np.int64)
    s, n = 2 * (tag[1] - 1), 2 * tag[1] - 1
    if tag[0] == "X":
        M[n, s] = Q[s, s] = 1
    elif tag[0] == "Y":
        M[s, n] = Q[n, n] = -1
    else:
        d = np.zeros(2 * g, np.int64)  # d = s_i - s_j as a row
        d[s], d[2 * (tag[2] - 1)] = 1, -1
        M[n] += d
        M[2 * tag[2] - 1] -= d
        Q = np.outer(d, d)
    return M, Q


def _rule_stack(tags, g):
    """(M, Q), each (k, 2g, 2g): the rules of `_rule_matrices` for the k
    tags, stacked."""
    Ms, Qs = zip(*(_rule_matrices(tag, g) for tag in tags))
    return np.stack(Ms), np.stack(Qs)


def _beta_form(g):
    """B with beta(u, v) = u^T B v = 2 sum_i n_i(u) s_i(v), the phase of the
    product law W(u) W(v) = A^beta(u, v) W(u + v): B[2i+1, 2i] = 2."""
    B = np.zeros((2 * g, 2 * g), np.int64)
    B[np.arange(1, 2 * g, 2), np.arange(0, 2 * g, 2)] = 2
    return B


def _mod_zero(arr, m):
    """Whether each trailing 2g x 2g matrix of arr vanishes mod m."""
    return ~(arr % m).any(axis=(-2, -1))


def _rule_cocycle(M, Q, m):
    """The cocycle identity Q + Q^T = M^T B M - B (mod m) of the rule (M, Q),
    one verdict per rule of a stack (k, 2g, 2g), or one for a single rule.

    If the rule holds at u and at v, the product law gives U W(u + v) U^-1
    = A^(z(u) + z(v) + beta(Mu, Mv) - beta(u, v)) W(M(u + v)), and z(u + v)
    - z(u) - z(v) = u^T (Q + Q^T) v: the identity carries the rule to
    u + v, so from the basis vectors to every v.  W and beta depend on v
    mod p only (m | 2p), and so does z for symmetric Q (m | 2p, m | p^2),
    since `_check_basis` forces m in {p, 2p}: the rule holds on the classes.
    """
    B = _beta_form(M.shape[-1] // 2)
    return _mod_zero(Q + Q.swapaxes(-2, -1) - (M.swapaxes(-2, -1) @ B @ M - B), m)


def _egorov_rules(M, Q, p, m):
    """(img, z) with U W(v) U^-1 = A^z[k, v] W(img[k, v]) for the rule
    (M[k], Q[k]) of a stack (k, 2g, 2g) (`_rule_stack`), over every
    lattice index v: img = `modgroup.lattice_images`, the index of Mv mod
    p, and z[k, v] = v^T Q v mod m, summed over the nonzero entries of Q.
    """
    img = lattice_images(M, p)
    vec = lattice_vectors(p, M.shape[-1] // 2)
    z = np.empty_like(img)
    for k, q in enumerate(Q):
        z[k] = sum(q[i, j] * vec[i] * vec[j] for i, j in zip(*np.nonzero(q))) % m
    return img, z


def _rule_exact(rep, tags, M, Q):
    """One verdict per tag: the rule (M[k], Q[k]) of tags[k] holds exactly
    at every basis vector v = e_i, U W(v) = A^z W(w) U for the generator U
    of tags[k], w = M[k] e_i and z = Q[k, i, i].

    W(v) e_a = A^e[a] e_r[a] (`WeilRep.schrodinger_map`), so the entry
    U[i, j] = s f A^x (`generator_entries`) moves to (i, a), r[a] = j,
    with exponent x + e[a] on the left, and to (r'[i], j) with exponent
    x + z + e'[i] on the right.  Both sides share s f, nonzero, and A has
    order m: they are equal exactly when the moved triples agree, an
    integer comparison.  Two `schrodinger_map` calls give (r, e) at the 2g
    unit vectors and (r', e') at the k 2g columns M[k] e_i; one
    `_same_entries_grouped` call compares the k 2g identities, a stack of
    2g per tag, and a tag holds when all of its 2g identities do.
    """
    n = M.shape[-1]
    (r, e), (rw, ew) = (rep.schrodinger_map(vecs) for vecs in
                        (np.eye(n, dtype=np.int64), M.transpose(1, 0, 2).reshape(n, -1)))
    inv = np.argsort(r, axis=1)  # W(e_v) sends column inv[v, j] to row j
    v, i = np.arange(n)[:, None, None], np.arange(rep.dim)[:, None]
    rw, ew = rw.reshape(len(tags), n, -1, 1), ew.reshape(len(tags), n, -1, 1)
    diag = Q.diagonal(axis1=1, axis2=2)[..., None, None]
    stacks = []
    for k, tag in enumerate(tags):
        cols, exps, _, _ = rep.generator_entries(tag)
        a = inv[:, cols]
        stacks.append(((i, a, exps + e[v, a]), (rw[k], cols, exps + diag[k] + ew[k])))
    return _same_entries_grouped(stacks, rep.dim, rep.m).reshape(len(tags), n).all(axis=1)


# Largest p^(2g) m that `commutant_dimension` certifies.  It caps the
# lattice arrays: p^(2g) images and phases mod m per rule (the generator
# entries are integer exponents, p^g per X or Z and p^(g+1) per Y, with no
# entry vector).  (128, 1) and (8, 3) meet it.
COMMUTANT_MAX_ENTRIES = 2**22


def commutant_certifiable(p, g=1):
    """Whether `commutant_dimension(p, g)` runs: p^(2g) m <= COMMUTANT_MAX_ENTRIES."""
    return p ** (2 * g) * _heisenberg_modulus(p) <= COMMUTANT_MAX_ENTRIES


def _check_basis(rep):
    """Lemma (a): the p^(2g) operators W(v) are a basis of End(C^(p^g)).
    W(s, n) e_a = A^(2 n.a) e_(a+s): different shifts have disjoint
    supports, and one shift gives a permutation times the characters
    a -> A^(2 n.a), distinct exactly when A^2 has order p (checked)."""
    if rep.m // gcd(2, rep.m) != rep.p:
        raise ValueError("A^2 does not have order p: the W(v) are no basis")


def commutant_dimension(p, g=1):
    """Exact commutant dimension of the level-p module at genus g: the
    number of holonomy-free orbits of the Egorov rules.

    (a) The W(v) are a basis of End(C^(p^g)) (`_check_basis`).
    (b) Each generator's rule (M, Q) (`_rule_matrices`) holds for every v:
        exactly at the basis vectors (`_rule_exact`), then by induction on
        v -> v + e_i through the cocycle identity (`_rule_cocycle`).  Both
        check the rules of every tag at once, stacked (`_rule_stack`).
    (c) T = sum c_v W(v) commutes with U exactly when c_(Mv) = A^z(v) c_v,
        so c is one coefficient times the transported phase on each orbit,
        and vanishes where that phase has nontrivial holonomy (A has order
        m).  The count is `modgroup.lattice_orbits`' on the rules that (b)
        certified, the same stack, evaluated once over the p^(2g) lattice
        vectors (`_rule_orbits`).

    Raises ValueError when a check fails, or past p^(2g) m <=
    COMMUTANT_MAX_ENTRIES (`commutant_certifiable`).
    """
    return int(_rule_orbits(p, g).free.sum())


def _certified_rules(rep):
    """(M, Q), the rules of rep's tags stacked (`_rule_stack`), once checks
    (a) and (b) of `commutant_dimension` hold: the W(v) are a basis
    (`_check_basis`) and every rule holds for every v (`_rule_cocycle`,
    `_rule_exact`).  Raises ValueError naming the tags whose rules fail."""
    _check_basis(rep)
    tags = rep.tags()
    M, Q = _rule_stack(tags, rep.g)
    held = _rule_cocycle(M, Q, rep.m) & _rule_exact(rep, tags, M, Q)
    failed = [tag for tag, ok in zip(tags, held) if not ok]
    if failed:
        raise ValueError(f"Egorov rules of {failed} do not hold")
    return M, Q


def _rule_orbits(p, g):
    """The lattice orbits of the Egorov rules of the level-p module at
    genus g, certified (`_certified_rules`) and evaluated once as arrays
    (`_egorov_rules`): the only p^(2g) work of the rules.  Raises
    ValueError past `commutant_certifiable`, before anything is built."""
    if not commutant_certifiable(p, g):
        raise ValueError("commutant certificate bounded at d^2 m <= %d entries"
                         % COMMUTANT_MAX_ENTRIES)
    rep = WeilRep(p, g)
    return lattice_orbits(*_egorov_rules(*_certified_rules(rep), p, rep.m), rep.m)


def schrodinger_commutant_dimension(p, g=1):
    """Dimension of the commutant of the lattice translation operators.

    One `schrodinger_map` call at the 2g unit vectors gives both facts.
    The modulation operators are diagonal with pairwise distinct joint
    eigenvalue tuples (their exponents, verified exactly), so any commuting
    matrix is diagonal; the shift operators then force constancy along the
    orbit of their rows, and the commutant dimension is the number of
    orbits of the unit translations (`modgroup.lattice_orbits`).
    """
    rep = WeilRep(p, g)
    rows, exps = rep.schrodinger_map(np.eye(2 * g, dtype=np.int64))
    if np.unique(exps[1::2], axis=1).shape[1] != rep.dim:
        raise ValueError("joint eigenvalues are not distinct")
    return int(lattice_orbits(rows[::2]).roots.size)


# ---------------------------------------------------------------------------
# the orbit-sum family
# ---------------------------------------------------------------------------

@dataclass
class OmegaRow:
    """Omega_delta, summed over the orbit of (0, delta, ..., 0, delta).
    commutes is the orbit's holonomy-free flag: Omega_delta commutes with
    every generator exactly when it holds."""
    delta: int
    orbit_size: int
    commutes: bool


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
    """Commutation and independence audit of the orbit-sum family, read
    off the lattice orbits of the certified rules (`_rule_orbits`), with
    no operator formed.

    Omega_delta sums A^pot(v) W(v) over the orbit of (0, delta, ..., 0,
    delta), pot the phase transported along the rules.  A generator
    conjugates it to the sum of A^(pot(v) + z(v)) W(Mv), and the W(v) are
    a basis: they commute exactly when pot(Mv) = pot(v) + z(v) mod m on
    every edge, that is when the orbit is holonomy-free.  Sums on distinct
    orbits have disjoint supports in that basis, so the family rank is the
    number of distinct orbits the start vectors land in.  Raises
    ValueError as `commutant_dimension` does.
    """
    orbits = _rule_orbits(p, g)
    deltas = divisors(p)
    starts = orbits.labels[diagonal_index(deltas, p, g)].tolist()
    sizes = np.bincount(orbits.labels)
    rows = tuple(OmegaRow(delta, int(sizes[k]), bool(orbits.free[k]))
                 for delta, k in zip(deltas, starts))
    return OmegaFamilyReport(p, g, rows, len(rows), len(set(starts)))


@dataclass
class EgorovLatticeReport:
    p: int
    g: int
    tag: tuple
    matrix: tuple  # the lattice map M mod p, column-wise: column i is M e_i
    conjugation_exact: bool  # the rule holds at every basis vector
    additive: bool  # the cocycle identity of the product law
    preserves_omega: bool

    @property
    def ok(self):
        return self.conjugation_exact and self.additive and self.preserves_omega


def egorov_verify(p, g=1):
    """Induced lattice maps of the generators, certified exactly from the
    rules (M, Q) of `_rule_matrices`, with only 2g x 2g work past the
    generators: the exact identity U Add(e_i) = A^Q[i, i] Add(M e_i) U at
    each basis vector (`_rule_exact`; U is unitary), the cocycle identity
    (`_rule_cocycle`) and M^T D M = D (mod m) for D = B - B^T, -2 times the
    symplectic form: m is p (odd) or 2p, so this is the pairing mod p.
    Each check runs once over the stacked rules of every tag.
    """
    rep = WeilRep(p, g)
    tags = rep.tags()
    M, Q = _rule_stack(tags, g)
    B = _beta_form(g)
    D = B - B.T
    checks = zip(_rule_exact(rep, tags, M, Q).tolist(), _rule_cocycle(M, Q, rep.m).tolist(),
                 _mod_zero(M.swapaxes(-2, -1) @ D @ M - D, rep.m).tolist())
    return [EgorovLatticeReport(p, g, tag, tuple(map(tuple, (rule % p).T.tolist())), *verdicts)
            for tag, rule, verdicts in zip(tags, M, checks)]


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
    chosen = [(tensor, dim) for tensor, dim in zip(tree.factors, tree.dims())
              if sum(lab.parity == "-" for lab in tensor) % 2]
    return LabelAuditReport(p, tuple(tensor for tensor, _ in chosen),
                            sum(dim for _, dim in chosen), _parity_dims(p, 1)[1])
