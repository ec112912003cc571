"""Construction of the finite Weil representation data at level p, genus g.

Provides Gauss sums, the symplectic generator matrices, the Hopf pairing,
the finite Heisenberg group with its Schrodinger representation, the Egorov
lattice maps induced by generators, and the explicit genus-one lift of
SL2(Z/NZ) together with a fast exact trace evaluator.

Conventions.  At level p the phase root A has order p (p odd) or 2p (p even);
the working cyclotomic field also contains the 24th root used by the lift.
The default X-generator is diag(A^{i^2}); this is the normalization under
which Fourier duality S X S^{-1} reproduces the tabulated Y-matrix exactly.
The variant diag(A^{2i^2}) is available via `doubled=True` and satisfies the
same unitarity but a different duality twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cyclo import field_for_level
from .cycmat import CycMat
from .ringmat import RingMatrix
from .modgroup import det, word_decompose


def _heisenberg_modulus(p):
    return p if p % 2 else 2 * p


def gauss_sum(a, b, p):
    """G(a, b, p) = sum of A^(a k^2 + b k), k mod p (p odd) or mod 2p (p even)."""
    field = field_for_level(p)
    m = _heisenberg_modulus(p)
    step = field.level // m
    vec = [0] * field.level
    for k in range(m):
        vec[((a * k * k + b * k) % m) * step] += 1
    return field.from_int_vector(vec)


@dataclass(frozen=True)
class HeisenbergElt:
    """Element (X, z) of the finite Heisenberg group at level p.

    X is a tuple (m1, n1, ..., mg, ng); all residues are reduced mod p
    (p odd) or mod 2p (p even), as is the central coordinate z.
    """

    X: tuple
    z: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "X", tuple(v % self.modulus for v in self.X))
        object.__setattr__(self, "z", self.z % self.modulus)

    @property
    def genus(self):
        return len(self.X) // 2

    def omega(self, other):
        """Symplectic pairing of the lattice parts.

        Oriented so that Add(u) Add(v) Add(u)^-1 Add(v)^-1 = A^(2 omega(u,v)),
        with omega(x_i, y_j) = delta_ij on the homology basis.
        """
        acc = 0
        for i in range(self.genus):
            acc += self.X[2 * i + 1] * other.X[2 * i] - self.X[2 * i] * other.X[2 * i + 1]
        return acc % self.modulus

    def compose(self, other):
        """Group law (X, z) * (X', z') = (X + X', z + z' + omega(X, X'))."""
        X = tuple(a + b for a, b in zip(self.X, other.X))
        return HeisenbergElt(X, self.z + other.z + self.omega(other), self.modulus)


class WeilRep:
    """Weil representation data at level p >= 2 and genus g >= 1.

    Immutable; generator matrices are cached on first use.  Heavy matrix
    work happens on integer group-ring matrices (CycMat); `*_matrix`
    accessors convert to exact cyclotomic-field matrices.
    """

    def __init__(self, p, g=1):
        if p < 2 or g < 1:
            raise ValueError("need level p >= 2 and genus g >= 1")
        self.p = p
        self.g = g
        self.even = p % 2 == 0
        self.m = _heisenberg_modulus(p)
        self.dim = p ** g
        self.field = field_for_level(p)
        L = self.field.level
        self.A = self.field.root_of_unity(L // self.m)
        self.beta = self.field.root_of_unity(L // 24)
        self._cyc_cache = {}
        self._ring_cache = {}

    # -- generator tags ----------------------------------------------------
    def tags(self):
        """All generator tags: X_i, Y_i (1-based), and Z_ij for i < j."""
        out = [("X", i) for i in range(1, self.g + 1)]
        out += [("Y", i) for i in range(1, self.g + 1)]
        for i in range(1, self.g + 1):
            for j in range(i + 1, self.g + 1):
                out.append(("Z", i, j))
        return out

    def tag_vector(self, tag):
        """Homology vector of the twist curve behind a generator tag.

        Coordinates (m1, n1, ..., mg, ng) with m the shift and n the
        modulation exponent: the meridian x_i sits in the modulation slot,
        the longitude y_i in the shift slot, and Z_ij is x_i - x_j.
        """
        v = [0] * (2 * self.g)
        if tag[0] == "X":
            v[2 * (tag[1] - 1) + 1] = 1
        elif tag[0] == "Y":
            v[2 * (tag[1] - 1)] = 1
        elif tag[0] == "Z":
            v[2 * (tag[1] - 1) + 1] = 1
            v[2 * (tag[2] - 1) + 1] = -1 % self.m
        else:
            raise ValueError("unknown tag %r" % (tag,))
        return tuple(v)

    def _check_index(self, i):
        if not 1 <= i <= self.g:
            raise ValueError("handle index %d outside genus %d" % (i, self.g))

    def _embed_handle(self, one_handle, i):
        """1^(i-1) (x) M (x) 1^(g-i) in the tensor basis (handle 1 leading)."""
        out = one_handle
        if i > 1:
            out = CycMat.identity(self.m, self.p ** (i - 1)).kron(out)
        if i < self.g:
            out = out.kron(CycMat.identity(self.m, self.p ** (self.g - i)))
        return out

    def _multi_indices(self):
        """Tensor indices (a1, ..., ag), a1 most significant."""
        idx = []
        for t in range(self.dim):
            a = []
            for h in range(self.g - 1, -1, -1):
                a.append((t // self.p ** h) % self.p)
            idx.append(tuple(a))
        return idx

    def generator_cyc(self, tag, doubled=False):
        key = (tag, doubled)
        if key in self._cyc_cache:
            return self._cyc_cache[key]
        kind = tag[0]
        if kind == "X":
            self._check_index(tag[1])
            c = 2 if doubled else 1
            one = CycMat.monomial_diag(self.m, [c * i * i for i in range(self.p)])
            mat = self._embed_handle(one, tag[1])
        elif kind == "Y":
            self._check_index(tag[1])
            arr = np.zeros((self.p, self.p, self.m), dtype=np.int64)
            for i in range(self.p):
                for j in range(self.p):
                    d = i - j
                    for k in range(self.m):
                        arr[i, j, (k * k - d * d) % self.m] += 1
            one = CycMat(self.m, arr, Fraction(1, self.m))
            mat = self._embed_handle(one, tag[1])
        elif kind == "Z":
            if self.g < 2:
                raise ValueError("Z generators need genus >= 2")
            i, j = tag[1], tag[2]
            self._check_index(i)
            self._check_index(j)
            if i == j:
                raise ValueError("Z indices must differ")
            exps = [(a[i - 1] - a[j - 1]) ** 2 for a in self._multi_indices()]
            mat = CycMat.monomial_diag(self.m, exps)
        else:
            raise ValueError("unknown tag %r" % (tag,))
        self._cyc_cache[key] = mat
        return mat

    def generator_matrix(self, tag, doubled=False):
        key = (tag, doubled)
        if key not in self._ring_cache:
            self._ring_cache[key] = self.generator_cyc(tag, doubled).to_ring(self.field)
        return self._ring_cache[key]

    # -- Hopf pairing ------------------------------------------------------
    def hopf_cyc(self):
        exps = [[-2 * sum(x * y for x, y in zip(a, b)) for b in self._multi_indices()]
                for a in self._multi_indices()]
        return CycMat.from_exponent_matrix(self.m, exps)

    def hopf_inverse_cyc(self):
        exps = [[2 * sum(x * y for x, y in zip(a, b)) for b in self._multi_indices()]
                for a in self._multi_indices()]
        return CycMat.from_exponent_matrix(self.m, exps, Fraction(1, self.dim))

    # -- Schrodinger representation ---------------------------------------
    def heisenberg(self, X, z=0):
        if len(X) != 2 * self.g:
            raise ValueError("lattice vector has length %d, expected %d"
                             % (len(X), 2 * self.g))
        return HeisenbergElt(tuple(X), z, self.m)

    def schrodinger_cyc(self, h):
        """Add_p(h) = A^z * prod_i Shift_i^(m_i) Mod_i^(n_i).

        Within each handle the modulation acts first:
        (Sh^m Mod^n) e_a = A^(2 n a) e_(a+m).
        """
        if isinstance(h, (tuple, list)):
            h = self.heisenberg(h)
        mat = None
        for i in range(self.g):
            mi, ni = h.X[2 * i], h.X[2 * i + 1]
            arr = np.zeros((self.p, self.p, self.m), dtype=np.int64)
            for a in range(self.p):
                arr[(a + mi) % self.p, a, (2 * ni * a) % self.m] = 1
            one = CycMat(self.m, arr)
            mat = one if mat is None else mat.kron(one)
        return mat.mul_root(h.z)

    def schrodinger(self, h):
        return self.schrodinger_cyc(h).to_ring(self.field)

    def add_basis(self):
        """Heisenberg elements over the lattice unit vectors."""
        out = []
        for k in range(2 * self.g):
            v = [0] * (2 * self.g)
            v[k] = 1
            out.append(self.heisenberg(v))
        return out

    def homology_basis(self):
        """Heisenberg elements for the curves x1, y1, ..., xg, yg."""
        out = []
        for i in range(1, self.g + 1):
            out.append(self.heisenberg(self.tag_vector(("X", i))))
            out.append(self.heisenberg(self.tag_vector(("Y", i))))
        return out


# -- spec-level convenience wrappers ---------------------------------------

def generator_matrix(rep, tag, doubled=False):
    return rep.generator_matrix(tag, doubled)


def hopf_matrix(p, g=1):
    return WeilRep(p, g).hopf_cyc().to_ring(field_for_level(p))


def schrodinger(rep, h):
    return rep.schrodinger(h)


# -- Egorov maps -----------------------------------------------------------

@dataclass
class EgorovReport:
    tag: tuple
    matrix: tuple          # induced lattice map, columns = images of basis
    scalars: list          # unit-norm witnesses, one per basis vector
    additive: bool
    preserves_omega: bool

    @property
    def ok(self):
        return self.additive and self.preserves_omega


def _decode_add(rep, C):
    """Read off (h', scalar) with C = scalar * Add(h', 0), or raise."""
    field = rep.field
    p, g = rep.p, rep.g
    support = [r for r in range(rep.dim) if not C.entry(field, r, 0).is_zero()]
    if len(support) != 1:
        raise ValueError("conjugate is not an Add operator (column support %r)"
                         % (support,))
    r0 = support[0]
    # shift offsets are the base-p digits of r0, handle 1 most significant
    shifts = []
    for h in range(g - 1, -1, -1):
        shifts.append((r0 // p ** h) % p)
    base = C.entry(field, r0, 0)
    mods = []
    for i in range(g):
        a_idx = p ** (g - 1 - i)  # basis vector with a_i = 1
        digits = [0] * g
        digits[i] = 1
        r = sum(((digits[t] + shifts[t]) % p) * p ** (g - 1 - t) for t in range(g))
        ratio = C.entry(field, r, a_idx) / base
        for n in range(p):
            if ratio == rep.A ** (2 * n):
                mods.append(n)
                break
        else:
            raise ValueError("modulation phase is not a power of A^2")
    X = []
    for i in range(g):
        X.extend([shifts[i], mods[i]])
    hprime = rep.heisenberg(X)
    expected = rep.schrodinger(hprime)
    lam = C.to_ring(field).equal_up_to_scalar(expected)
    if lam is None:
        raise ValueError("conjugate does not match decoded Add element")
    if lam * lam.conj() != 1:
        raise ValueError("witness scalar is not unit-norm")
    return hprime, lam


def egorov_map(rep, tag):
    """Lattice automorphism induced by conjugation with a generator.

    For each basis vector h, finds h' with
    pi(gen) Add(h,0) pi(gen)^{-1} = scalar * Add(h',0) (unit-norm scalar),
    then checks the map extends additively and preserves the symplectic
    pairing mod p.
    """
    U = rep.generator_cyc(tag)
    Ud = U.dagger()
    basis = rep.add_basis()
    images = []
    scalars = []
    for h in basis:
        C = U @ rep.schrodinger_cyc(h) @ Ud
        hp, lam = _decode_add(rep, C)
        images.append(hp)
        scalars.append(lam)
    dim = 2 * rep.g
    phi = tuple(tuple(images[j].X[i] % rep.p for j in range(dim)) for i in range(dim))

    def apply_phi(v):
        return tuple(sum(phi[i][j] * v[j] for j in range(dim)) % rep.p for i in range(dim))

    additive = True
    for a in range(dim):
        for b in range(a, dim):
            v = [0] * dim
            v[a] += 1
            v[b] += 1
            C = U @ rep.schrodinger_cyc(rep.heisenberg(v)) @ Ud
            hp, _lam = _decode_add(rep, C)
            if tuple(x % rep.p for x in hp.X) != apply_phi(v):
                additive = False
    preserves = True
    for a in range(dim):
        for b in range(dim):
            va = [0] * dim
            va[a] = 1
            vb = [0] * dim
            vb[b] = 1
            w1 = rep.heisenberg(va).omega(rep.heisenberg(vb))
            w2 = rep.heisenberg(apply_phi(va)).omega(rep.heisenberg(apply_phi(vb)))
            if (w1 - w2) % rep.p:
                preserves = False
    return EgorovReport(tag, phi, scalars, additive, preserves)


# -- genus-one lift --------------------------------------------------------

@lru_cache(maxsize=None)
def _lift_images(p):
    """Cached images of S, S^{-1} and T-powers for the genus-one lift."""
    m = _heisenberg_modulus(p)
    eps = 1 if p % 2 == 0 else 0
    arr = np.zeros((p, p, m), dtype=np.int64)
    for i in range(p):
        for j in range(p):
            for k in range(m):
                arr[i, j, (-k * k - 2 * i * j) % m] += 1
    s_img = CycMat(m, arr, Fraction(1, m), beta=-3 * eps)
    return {"m": m, "eps": eps, "S": s_img, "Sinv": s_img.dagger()}


def _lift_t_power(p, k):
    img = _lift_images(p)
    m, eps = img["m"], img["eps"]
    return CycMat.monomial_diag(m, [(-k * i * i) % m for i in range(p)],
                                beta=-k * eps)


def lift_genus1_cyc(p, M, rng=None):
    """Evaluate the lift of M in SL2(Z/NZ), N = p (odd) or 2p (even)."""
    img = _lift_images(p)
    m = img["m"]
    if det(M, m) != 1:
        raise ValueError("matrix %r is not in SL2(Z/%d)" % (M, m))
    word = word_decompose(tuple(v % m for v in M), m, rng=rng)
    out = CycMat.identity(m, p)
    for kind, val in word:
        if kind == "S":
            out = out @ (img["S"] if val == 1 else img["Sinv"])
        else:
            out = out @ _lift_t_power(p, val)
    return out


def lift_genus1(p, M, rng=None):
    return lift_genus1_cyc(p, M, rng).to_ring(field_for_level(p))


# -- fast exact traces -----------------------------------------------------

_INT64_MAX = 2**63 - 1


def _check_int64(bound, what):
    """Raise before an int64 kernel whose exact bound could wrap."""
    if bound > _INT64_MAX:
        raise OverflowError("%s may exceed int64 (bound %d)" % (what, bound))


def _max_abs(arr):
    return max(int(arr.max()), -int(arr.min()))


def _windows(rows):
    """View W with W[..., s, t] = rows[..., (s + t) mod m]."""
    m = rows.shape[-1]
    doubled = np.concatenate([rows, rows], axis=-1)
    return sliding_window_view(doubled, m, axis=-1)[..., :m, :]


def _normalise(arr):
    """(arr', g) with every entry vector of arr equal to g times that of arr'
    in the field.

    Sum_t A^t = 0, so subtracting each vector's median changes no field
    value; the common integer content of what is left moves into g.
    """
    _check_int64(int(arr.max()) - int(arr.min()), "median shift")
    out = arr - np.sort(arr, axis=-1)[..., arr.shape[-1] // 2, None]
    g = int(np.gcd.reduce(out, axis=None))
    if g > 1:
        out //= g
    return out, max(g, 1)


class _TraceEngine:
    """Exact |Tr|^2 of the genus-one lift via the Bruhat decomposition.

    For M = (a, b, c, d) with c a unit, M = T^(a/c) S^{-1} D_c T^(d/c) and
    the trace is a sum of p gathered integer vectors; non-unit c inserts one
    extra S-factor, costing p^2 gathered vectors.  D_c, the lift of
    diag(c, 1/c) evaluated once from its S,T-word, is checked to be
    monomial (one field-nonzero entry d_i in each row and column) when it
    is cached.  S^{-1}[i, j] is the Gauss vector g0 rolled by 2ij, so
    S^{-1} D_c needs one batched convolution g0 * d_i and one gather, and
    S^{-1} S^{-1} D_c the same with g0 * g0.

    Every entry vector is kept normalised (median subtracted, content moved
    into the Fraction scale), every int64 kernel is preceded by an exact
    bound that raises OverflowError before anything could wrap, and
    |Tr|^2 is the integer autocorrelation of the trace vector mapped to
    field coordinates.  No field arithmetic happens per element.
    """

    def __init__(self, p):
        self.p = p
        img = _lift_images(p)
        self.m = img["m"]
        self.eps = img["eps"]
        self.field = field_for_level(p)
        m = self.m
        t = np.arange(m)
        self._diff = (t[None, :] - t[:, None]) % m   # [u, v] = (v - u) mod m
        self._shift = (t[None, :] + t[:, None]) % m  # [s, t] = (t + s) mod m
        self._rows = np.arange(p * p)
        L = self.field.level
        # P[k] = field coordinates of A^k
        self._powers = np.array(
            [self.field.power_rows[k * (L // m)] for k in range(m)], dtype=np.int64)
        self._powers_l1 = int(np.abs(self._powers).sum(axis=0).max())
        # S^{-1}[i, j] = (1/m) beta^(3 eps) sum_u A^(u^2 + 2ij) = roll(g0, 2ij)
        self._sq = t[:p] * t[:p] % m
        self._gauss, g = _normalise(np.bincount(t * t % m, minlength=m))
        self._gauss_scale = Fraction(g, m)
        self._gauss_sq, g = _normalise(
            self._convolve(self._gauss, self._gauss[None, :])[0])
        self._gauss_sq_scale = self._gauss_scale ** 2 * g
        self.sinv_beta = 3 * self.eps
        self._dcache = {}
        self._kcache = {}
        self._gcache = {}

    def _convolve(self, a, rows):
        """Cyclic convolution of the vector a with every row of rows."""
        _check_int64(int(np.abs(a).sum()) * _max_abs(rows), "convolution")
        return rows @ a[self._diff]

    def _dmat(self, c):
        """(perm, d, scale, beta): D_c[perm[i], i] = scale beta-root d[i],
        every other entry zero in the field."""
        if c not in self._dcache:
            p = self.p
            D = lift_genus1_cyc(p, (c % self.m, 0, 0, pow(c, -1, self.m)))
            arr, g = _normalise(D.arr)
            _check_int64(_max_abs(arr) * self._powers_l1, "field coordinates")
            support = (arr @ self._powers).any(axis=-1)
            if not ((support.sum(axis=0) == 1).all() and (support.sum(axis=1) == 1).all()):
                raise ValueError("lift of diag(%d, 1/%d) is not monomial" % (c, c))
            perm = support.argmax(axis=0)
            d, h = _normalise(arr[perm, np.arange(p)])
            self._dcache[c] = (perm, d, D.scale * g * h, D.beta)
        return self._dcache[c]

    def _kvec(self, c):
        """K_c[i] = (S^{-1} D_c)[i, i] = roll(g0 * d_i, 2 i perm[i])."""
        if c not in self._kcache:
            perm, d, scale, beta = self._dmat(c)
            k, g = _normalise(self._convolve(self._gauss, d))
            i = self._rows[:self.p]
            K = _windows(k)[i, -2 * i * perm % self.m]
            _check_int64(self.p * _max_abs(K), "trace vector")
            self._kcache[c] = (_windows(K), self._gauss_scale * scale * g,
                               self.sinv_beta + beta)
        return self._kcache[c]

    def _gmat(self, u):
        """G_u[i, j] = S^{-1}[i, j] (S^{-1} D_(-u))[j, i]
        = roll(g0 * g0 * d_i, 2 j (i + perm[i]))."""
        if u not in self._gcache:
            perm, d, scale, beta = self._dmat((-u) % self.m)
            h, g = _normalise(self._convolve(self._gauss_sq, d))
            i = self._rows[:self.p]
            shifts = 2 * i[None, :] * (i + perm)[:, None]
            G = _windows(h)[i[:, None], -shifts % self.m].reshape(-1, self.m)
            _check_int64(len(G) * _max_abs(G), "trace vector")
            self._gcache[u] = (_windows(G), self._gauss_sq_scale * scale * g,
                               2 * self.sinv_beta + beta)
        return self._gcache[u]

    def trace_vector(self, M):
        """(vector, scale, beta) with Tr = scale * beta-root * sum_t v[t] A^t."""
        m, p = self.m, self.p
        a, b, c, d = (v % m for v in M)
        if det(M, m) != 1:
            raise ValueError("matrix %r is not in SL2(Z/%d)" % (M, m))
        sq = self._sq
        if gcd(c, m) == 1:
            cinv = pow(c, -1, m)
            alpha, delta = (a * cinv) % m, (d * cinv) % m
            K, scale, kbeta = self._kvec(c)
            vec = K[self._rows[:p], (alpha + delta) * sq % m].sum(axis=0)
            beta = (kbeta - self.eps * (alpha + delta)) % 24
        else:
            x = 0
            while gcd(a + x * c, m) != 1:
                x += 1
            u = (a + x * c) % m
            uinv = pow(u, -1, m)
            alpha = (-c * uinv) % m           # mid = (c, d, -u, -(b+xd))
            delta = ((b + x * d) * uinv) % m
            G, scale, gbeta = self._gmat(u)
            e = ((x - delta) * sq[:, None] - alpha * sq[None, :]) % m
            vec = G[self._rows, e.ravel()].sum(axis=0)
            beta = (gbeta + self.eps * (x - alpha - delta)) % 24
        vec, g = _normalise(vec)
        return vec, scale * g, beta

    def trace_abs_sq_parts(self, M):
        """(n, scale) with |Tr|^2 = n * scale^2 and n = sum_s r[s] A^s, where
        r[s] = sum_t v[t] v[t + s] is the autocorrelation of the trace
        vector; n must be a rational integer."""
        vec, scale, _beta = self.trace_vector(M)
        _check_int64(self.m * _max_abs(vec) ** 2 * self._powers_l1, "|Tr|^2")
        coords = (vec[self._shift] @ vec) @ self._powers
        if coords[1:].any():
            raise ValueError("|Tr|^2 of %r is not rational" % (M,))
        return int(coords[0]), scale

    def trace_abs_sq(self, M):
        n, scale = self.trace_abs_sq_parts(M)
        return n * scale * scale


@lru_cache(maxsize=None)
def trace_engine(p):
    return _TraceEngine(p)


def trace_abs_sq(p, M):
    """|Tr(pi_p(M))|^2 as an exact rational; independent of the word used."""
    return trace_engine(p).trace_abs_sq(M)


# -- projective comparison keys --------------------------------------------

def projective_key(mat):
    """Hashable key identifying a RingMatrix up to a scalar factor."""
    lead = None
    for row in mat.rows:
        for a in row:
            if not a.is_zero():
                lead = a
                break
        if lead is not None:
            break
    if lead is None:
        return ("zero", mat.nrows, mat.ncols)
    inv = lead.inverse()
    return tuple(tuple((inv * a).coeffs for a in row) for row in mat.rows)
