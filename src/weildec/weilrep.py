"""Construction of the finite Weil representation data at level p, genus g.

Provides Gauss sums, the symplectic generator matrices, the Hopf pairing,
the finite Heisenberg group with its Schrodinger representation, the
explicit genus-one lift of SL2(Z/NZ) (an integer group-ring matrix,
CycMat, whose word folds consecutive S-factors in pairs) together with a
fast exact trace evaluator, and projective comparison keys.

Conventions.  At level p the phase root A has order p (p odd) or 2p (p even);
the working cyclotomic field also contains the 24th root used by the lift.
The default X-generator is diag(A^{i^2}); this is the normalization under
which Fourier duality S X S^{-1} reproduces the tabulated Y-matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .cyclo import field_for_level
from .cycmat import (
    _INT64_MAX,
    CycMat,
    _check_int64,
    _convolve,
    _l1,
    _lead_index,
    _lead_products,
    _max_abs,
    power_matrix,
)
from .modgroup import det, sl2_column, word_decompose


def _heisenberg_modulus(p):
    return p if p % 2 else 2 * p


def gauss_sum(a, b, p):
    """G(a, b, p) = sum of A^(a k^2 + b k), k mod p (p odd) or mod 2p (p even)."""
    if p < 1:
        raise ValueError("need level p >= 1")
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


class WeilRep:
    """Weil representation data at level p >= 2 and genus g >= 1.

    Immutable; generator matrices are cached on first use.  All matrices
    are integer group-ring matrices (CycMat), as is the genus-one lift;
    they are compared exactly in field coordinates, and `CycMat.to_ring`
    converts one to a cyclotomic-field matrix when a test wants it.
    """

    def __init__(self, p, g=1):
        if p < 2 or g < 1:
            raise ValueError("need level p >= 2 and genus g >= 1")
        self.p = p
        self.g = g
        self.m = _heisenberg_modulus(p)
        self.dim = p ** g
        self.field = field_for_level(p)
        self._cyc_cache = {}

    # -- generator tags ----------------------------------------------------
    def tags(self):
        """All generator tags: X_i, Y_i (1-based), and Z_ij for i < j."""
        out = [("X", i) for i in range(1, self.g + 1)]
        out += [("Y", i) for i in range(1, self.g + 1)]
        for i in range(1, self.g + 1):
            for j in range(i + 1, self.g + 1):
                out.append(("Z", i, j))
        return out

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

    def _index_array(self):
        """a[h, t] = a_(h+1) of the tensor index t = (a1, ..., ag), a1 most
        significant."""
        return np.indices((self.p,) * self.g).reshape(self.g, -1)

    def _multi_indices(self):
        """Tensor indices (a1, ..., ag), a1 most significant."""
        return [tuple(a) for a in self._index_array().T.tolist()]

    def diagonal_exponents(self, tag):
        """exps with generator = diag(A^exps[t]) over the tensor indices t:
        X_i has A^(a_i^2) and Z_ij has A^((a_i - a_j)^2)."""
        a = self._index_array()
        if tag[0] == "X":
            self._check_index(tag[1])
            return a[tag[1] - 1] ** 2
        if tag[0] == "Z":
            if self.g < 2:
                raise ValueError("Z generators need genus >= 2")
            i, j = tag[1], tag[2]
            self._check_index(i)
            self._check_index(j)
            if i == j:
                raise ValueError("Z indices must differ")
            return (a[i - 1] - a[j - 1]) ** 2
        raise ValueError("%r is not a diagonal generator tag" % (tag,))

    def y_block(self):
        """The p x p block S of Y_i = 1 (x) S (x) 1, scale 1/m: entry (i, j)
        is sum_k A^(k^2 - (i - j)^2)."""
        if "Y block" not in self._cyc_cache:
            # arr[i, j, t] = #{k : k^2 - (i - j)^2 = t} = q[t + (i - j)^2]
            t = np.arange(self.m)
            q = np.bincount(t * t % self.m, minlength=self.m)
            d = t[:self.p, None] - t[:self.p]
            arr = q[(t + d[..., None] ** 2) % self.m]
            self._cyc_cache["Y block"] = CycMat(self.m, arr, Fraction(1, self.m))
        return self._cyc_cache["Y block"]

    def generator_cyc(self, tag):
        if tag in self._cyc_cache:
            return self._cyc_cache[tag]
        if tag[0] == "Y":
            self._check_index(tag[1])
            mat = self._embed_handle(self.y_block(), tag[1])
        elif tag[0] in ("X", "Z"):
            mat = CycMat.monomial_diag(self.m, self.diagonal_exponents(tag))
        else:
            raise ValueError("unknown tag %r" % (tag,))
        self._cyc_cache[tag] = mat
        return mat

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

    def schrodinger_map(self, vecs):
        """(rows, exps) with Add(v) e_a = A^exps[k, a] e_rows[k, a] for each
        column v = vecs[:, k] (slot 2i the shift m_i, slot 2i+1 the
        modulation n_i): column a = (a_1, ..., a_g) goes to row
        a + (m_1, ..., m_g) with A^(2 sum n_h a_h) mod m."""
        a = self._index_array()
        X = np.asarray(vecs, dtype=np.int64).reshape(self.g, 2, -1, 1)
        rows = np.ravel_multi_index(tuple((a[:, None] + X[:, 0]) % self.p),
                                    (self.p,) * self.g)
        return rows, 2 * (X[:, 1] * a[:, None]).sum(axis=0) % self.m

    def schrodinger_cyc(self, h):
        """Add_p(h) = A^z * prod_i Shift_i^(m_i) Mod_i^(n_i).

        Within each handle the modulation acts first:
        (Sh^m Mod^n) e_a = A^(2 n a) e_(a+m).
        """
        if isinstance(h, (tuple, list)):
            h = self.heisenberg(h)
        (rows,), (exps,) = self.schrodinger_map(np.array(h.X)[:, None])
        arr = np.zeros((self.dim, self.dim, self.m), dtype=np.int64)
        arr[rows, np.arange(self.dim), (exps + h.z) % self.m] = 1
        return CycMat(self.m, arr)


# -- integer kernels -------------------------------------------------------

def _windows(rows):
    """View W with W[..., s, t] = rows[..., (s + t) mod m]: both s and t
    step one entry through the doubled rows, so nothing is copied."""
    m = rows.shape[-1]
    doubled = np.empty(rows.shape[:-1] + (2 * m,), rows.dtype)
    doubled[..., :m] = doubled[..., m:] = rows
    strides = doubled.strides[:-1] + doubled.strides[-1:] * 2
    return np.ndarray(rows.shape + (m,), doubled.dtype, doubled, 0, strides)


def _median_shift(arr):
    """arr with each entry vector's median subtracted: the same field
    values, since Sum_t A^t = 0."""
    _check_int64(int(arr.max()) - int(arr.min()), "median shift")
    return arr - np.sort(arr, axis=-1)[..., arr.shape[-1] // 2, None]


def _normalise(arr):
    """(arr', g) with every entry vector of arr equal to g times that of arr'
    in the field.

    Sum_t A^t = 0, so subtracting each vector's median changes no field
    value; the common integer content of what is left moves into g.
    """
    out = _median_shift(arr)
    g = int(np.gcd.reduce(out, axis=None))
    if g > 1:
        out //= g
    return out, max(g, 1)


# -- genus-one lift --------------------------------------------------------

# k-slices gathered at once by an S-factor of the lift: the temporary is
# this many times the p x p x m output.
_GATHER_BLOCK = 4


@lru_cache(maxsize=None)
def _lift_images(p):
    """m, eps, the normalised Gauss vectors and |gamma|^2 of the genus-one lift.

    S^{+-1}[k, j] = (1/m) beta-root^(-+3 eps) A^(-+2kj) gamma_+-, with
    gamma_+ = sum_u A^(-u^2) and gamma_- = sum_u A^(u^2); "gauss"[+-1]
    holds (gamma_+-', g) with gamma_+- = g gamma_+-' in the field.
    gamma_- is the conjugate of gamma_+, and gamma_+ gamma_- = "norm" is
    m for odd p and 2m for even p, the |G|^2 of a quadratic Gauss sum
    modulo an odd m or a multiple of 4.
    """
    m = _heisenberg_modulus(p)
    eps = 1 if p % 2 == 0 else 0
    t = np.arange(m)
    gauss = {sign: _normalise(np.bincount(-sign * t * t % m, minlength=m))
             for sign in (1, -1)}
    return {"m": m, "eps": eps, "gauss": gauss, "norm": m * (1 + eps)}


@lru_cache(maxsize=None)
def _gauss_power(p, sign, count):
    """(vec, g) with gamma_sign^count = g vec in the field, count >= 1: the
    normalised gamma_sign convolved in count - 1 times, each product
    normalised."""
    vec, g = _lift_images(p)["gauss"][sign]
    if count == 1:
        return vec, g
    prev, h = _gauss_power(p, sign, count - 1)
    out, k = _normalise(_convolve(vec, prev[None, :])[0])
    return out, g * h * k


def lift_genus1_cyc(p, M, rng=None):
    """Evaluate the lift of M in SL2(Z/NZ), N = p (odd) or 2p (even).

    The S,T-word acts on the int64 entry array directly.  T^k =
    diag(A^(-k j^2)) only rolls column j, so the T-powers met since the
    last S-factor are carried as a shift and folded into the next gather.
    S^{+-1} is (1/m) beta-root^(-+3 eps) gamma_+- F_+-, with F_+-[k, j] =
    A^(-+2kj) and the Gauss sum gamma_+- a central scalar, so an S-factor
    applies only F_+-: the gather-sum W[i, j] = sum_k A^(-+2kj) out[i, k],
    taken over blocks of `_GATHER_BLOCK` k-slices so that no p^3 m array
    is formed.  The Gauss sums wait until the end: with a factors S and b
    factors S^{-1}, gamma_+^a gamma_-^b = |gamma|^(2 min(a, b))
    gamma_+-^|a - b|, one convolution with the cached `_gauss_power`
    vector.  Two consecutive S-factors need no gather: F_a F_b[k, j] =
    sum_n A^(-2n(a k + b j)) is p where a k + b j = 0 mod p and 0 elsewhere,
    since A^2 has order p, so F_+-F_+- = p J with J e_j = e_(-j) and
    F_+-F_-+ = p I.  Such a pair is one column reversal, or nothing, and
    the factor p joins the content; a pending T-roll carries across J
    unchanged, because (-j)^2 = j^2.  `_normalise` runs only when the next
    gather's bound p max|out| would no longer fit int64, and once more
    before that convolution and after it, so the entries come out
    normalised.  Every kernel is preceded by an exact int64 bound.
    """
    img = _lift_images(p)
    m, eps = img["m"], img["eps"]
    if det(M, m) != 1:
        raise ValueError("matrix %r is not in SL2(Z/%d)" % (M, m))
    word = word_decompose(tuple(v % m for v in M), m, rng=rng)
    t = np.arange(m)
    k = t[:p, None]
    out = CycMat.identity(m, p).arr
    top = _max_abs(out)
    reverse = -k[:, 0] % p  # out @ J is out[:, reverse]
    content, roll, beta = 1, 0, 0
    factors = {1: 0, -1: 0}
    pos = 0
    while pos < len(word):
        kind, val = word[pos]
        pos += 1
        if kind == "T":
            roll += val
            beta -= val * eps
            continue
        factors[val] += 1
        beta -= 3 * val * eps
        if pos < len(word) and word[pos][0] == "S":
            pair = word[pos][1]
            pos += 1
            factors[pair] += 1
            beta -= 3 * pair * eps
            content *= p
            if pair == val:
                out = out[:, reverse]
            continue
        _check_int64(p * top, "lift gather")
        W = _windows(out)  # W[i, k, s] = out[i, k] rolled by s
        shifts = (roll * k * k + 2 * val * k * t[:p]) % m
        out = W[:, k[:_GATHER_BLOCK], shifts[:_GATHER_BLOCK]].sum(axis=1)
        for lo in range(_GATHER_BLOCK, p, _GATHER_BLOCK):
            block = k[lo:lo + _GATHER_BLOCK]
            out += W[:, block, shifts[lo:lo + _GATHER_BLOCK]].sum(axis=1)
        roll = 0
        top = _max_abs(out)
        if p * top > _INT64_MAX:
            out, h = _normalise(out)
            content *= h
            top = _max_abs(out)
    if roll:
        out = out[:, k, (t + roll * k * k) % m]
    out, h = _normalise(out)
    content *= h * img["norm"] ** min(factors.values())
    net = factors[1] - factors[-1]
    if net:
        gauss, g = _gauss_power(p, 1 if net > 0 else -1, abs(net))
        out, h = _normalise(_convolve(gauss, out.reshape(-1, m)).reshape(p, p, m))
        content *= g * h
    return CycMat(m, out, Fraction(content, m ** (factors[1] + factors[-1])), beta)


# the public name of the lift; the definition keeps its own name, which
# the benchmark's tracer (perfbench/tracer.py) wraps
lift_genus1 = lift_genus1_cyc


# -- fast exact traces -----------------------------------------------------

class _TraceEngine:
    """Exact |Tr|^2 of the genus-one lift via the Bruhat decomposition.

    For M = (a, b, c, d) with c a unit, M = T^(a/c) S^{-1} D_c T^(d/c) and
    the trace is a sum of p gathered integer vectors; non-unit c inserts one
    extra S-factor, costing p^2 gathered vectors.  D_c, the lift of
    diag(c, 1/c), is a unit scalar times the dilation e_i -> e_(i/c), and
    the engine keeps only the dilation's index map: the scalar cancels in
    |Tr|^2, the one quantity computed here.  S^{-1}[i, j] is the Gauss
    vector g0 rolled by 2ij, so every entry of S^{-1} D_c is a roll of g0,
    and every entry of S^{-1} S^{-1} D_c a roll of g0 * g0, both cached
    normalised at construction.

    Every entry vector is kept normalised (median subtracted, content moved
    into the Fraction scale), every int64 kernel is preceded by an exact
    bound that raises OverflowError before anything could wrap, and
    |Tr|^2 is the integer autocorrelation of the trace vector mapped to
    field coordinates.  No field arithmetic happens per element.

    `column_abs_sq` sweeps SL2(Z/m) one lower-left entry c at a time: the
    trace vectors of a whole column come out as at most m rows per cached
    K_c or G_u, and `abs_sq_rows` takes |Tr|^2 of all rows at once.
    `trace_vector` and `trace_abs_sq_parts` stay the per-element oracle.
    """

    def __init__(self, p):
        if p < 2:
            raise ValueError("need level p >= 2")
        self.p = p
        img = _lift_images(p)
        self.m = img["m"]
        self.field = field_for_level(p)
        m = self.m
        t = np.arange(m)
        self._rows = np.arange(p * p)
        self._powers = power_matrix(self.field, m)
        self._powers_l1 = _l1(self._powers)
        # S^{-1}[i, j] = (1/m) beta^(3 eps) sum_u A^(u^2 + 2ij) = roll(g0, 2ij)
        self._sq = t[:p] * t[:p] % m
        self._gauss, g = _gauss_power(p, -1, 1)
        self._gauss_scale = Fraction(g, m)
        self._gauss_sq, g = _gauss_power(p, -1, 2)
        self._gauss_sq_scale = Fraction(g, m * m)
        self._gauss_sq_rolls = _windows(self._gauss_sq)
        # a trace vector sums p rolls of g0, or p^2 rolls of g0 * g0
        _check_int64(p * _max_abs(self._gauss), "trace vector")
        _check_int64(p * p * _max_abs(self._gauss_sq), "trace vector")
        self._inv = np.array([pow(v, -1, m) if gcd(v, m) == 1 else 0
                              for v in range(m)])  # 0 marks a non-unit
        self._dcache = {}
        self._kcache = {}
        self._gcache = {}

    def _dmat(self, c):
        """perm with D_c e_i = lambda_c e_perm[i], perm[i] = i / c mod p.

        In the Schrodinger model the lift of diag(c, 1/c) is a unit scalar
        lambda_c times the dilation e_i -> e_(i/c); lambda_c cancels in
        |Tr|^2, so D_c is kept as this index map alone."""
        if c not in self._dcache:
            self._dcache[c] = pow(c, -1, self.m) * self._rows[:self.p] % self.p
        return self._dcache[c]

    def _kvec(self, c):
        """Windows of K_c, K_c[i] = (S^{-1} D_c)[i, i] = roll(g0, 2 i perm[i])
        up to lambda_c and the scale of g0."""
        if c not in self._kcache:
            i = self._rows[:self.p]
            K = _windows(self._gauss)[-2 * i * self._dmat(c) % self.m]
            self._kcache[c] = _windows(K)
        return self._kcache[c]

    def _gmat(self, u):
        """off with G_u[i, j] = S^{-1}[i, j] (S^{-1} D_(-u))[j, i]
        = roll(g0 * g0, 2 j (i + perm[i])) up to lambda_(-u) and the scale
        of g0 * g0: entry (i, j) rolled back by e is
        `_gauss_sq_rolls`[(e + off[i p + j]) mod m]."""
        if u not in self._gcache:
            i = self._rows[:self.p]
            perm = self._dmat((-u) % self.m)
            off = -2 * i[None, :] * (i + perm)[:, None] % self.m
            self._gcache[u] = off.ravel()
        return self._gcache[u]

    def trace_vector(self, M):
        """(vector, scale) with Tr = lam * scale * sum_t v[t] A^t for some
        unit scalar lam that depends on M.

        The engine drops the unit scalar of each D_c, so only |Tr|^2 is
        fixed; Tr of a word lift is itself defined only up to such a
        scalar, and |Tr|^2 alone is independent of the word."""
        m, p = self.m, self.p
        a, b, c, d = (v % m for v in M)
        if det(M, m) != 1:
            raise ValueError("matrix %r is not in SL2(Z/%d)" % (M, m))
        sq = self._sq
        if gcd(c, m) == 1:
            cinv = pow(c, -1, m)
            alpha, delta = (a * cinv) % m, (d * cinv) % m
            vec = self._kvec(c)[self._rows[:p], (alpha + delta) * sq % m].sum(axis=0)
            scale = self._gauss_scale
        else:
            x = 0
            while gcd(a + x * c, m) != 1:
                x += 1
            u = (a + x * c) % m
            uinv = pow(u, -1, m)
            alpha = (-c * uinv) % m           # mid = (c, d, -u, -(b+xd))
            delta = ((b + x * d) * uinv) % m
            e = (x - delta) * sq[:, None] - alpha * sq[None, :]
            vec = self._gauss_sq_rolls[(e.ravel() + self._gmat(u)) % m].sum(axis=0)
            scale = self._gauss_sq_scale
        vec, g = _normalise(vec)
        return vec, scale * g

    def abs_sq_rows(self, rows):
        """n with n[k] = |sum_t rows[k, t] A^t|^2 for every row of trace
        vectors: n[k] = sum_s r[s] A^s, where r[s] = sum_t v[t] v[t + s] is
        the autocorrelation of the median-shifted row v.  Raises ValueError
        unless every n[k] is a rational integer."""
        rows = _median_shift(rows)
        _check_int64(self.m * _max_abs(rows) ** 2 * self._powers_l1, "|Tr|^2")
        coords = np.einsum("nst,nt->ns", _windows(rows), rows) @ self._powers
        irrational = coords[:, 1:].any(axis=1)
        if irrational.any():
            raise ValueError("|Tr|^2 of row %d is not rational" % irrational.argmax())
        return coords[:, 0]

    def trace_abs_sq_parts(self, M):
        """(n, scale) with |Tr|^2 = n * scale^2, by `abs_sq_rows` on the
        trace vector of M."""
        vec, scale = self.trace_vector(M)
        try:
            n = self.abs_sq_rows(vec[None, :])[0]
        except ValueError as err:
            raise ValueError("|Tr|^2 of %r is not rational" % (M,)) from err
        return int(n), scale

    # -- batched sweep of SL2(Z/m), one lower-left entry c at a time --------

    def _sweep_rows(self, W):
        """rows[s, t] = sum_i W[i, s sq_i, t] for every s mod m, W the
        windows of a (p, m) table.  The sums are the ones `trace_vector`
        forms, so the bounds checked at construction cover them."""
        s = np.arange(self.m)
        return W[self._rows[:self.p], s[:, None] * self._sq % self.m].sum(axis=1)

    def _column_keys(self, c):
        """(a, b, d, u, X) over the elements (a, b, c, d), c not a unit:
        `trace_vector` writes each with u = a + x c for the least x that makes
        it a unit, and X = x - (b + x d) / u."""
        m = self.m
        a, b, d = sl2_column(m, c)
        t = np.arange(m)
        x = (self._inv[(t[:, None] + t * c) % m] > 0).argmax(axis=1)[a]
        u = (a + x * c) % m
        return a, b, d, u, (x - (b + x * d) * self._inv[u]) % m

    def _nonunit_rows(self, c, u):
        """rows[X] is the trace vector, up to the scale of g0 * g0 and a unit
        scalar, of every element of column c with keys (u, X).  With
        alpha = -c / u it is sum_ij G_u[i, j, X sq_i - alpha sq_j + t] =
        sum_i H[i, X sq_i + t], H[i, t] = sum_j G_u[i, j, t - alpha sq_j]."""
        p, m = self.p, self.m
        alpha = -c * self._inv[u] % m
        shifts = self._gmat(u) - alpha * self._sq[self._rows % p]
        H = self._gauss_sq_rolls[shifts % m]
        return self._sweep_rows(_windows(H.reshape(p, p, m).sum(axis=1)))

    def column_abs_sq(self, c):
        """Blocks (n, scale, count) over the elements of SL2(Z/m) with
        lower-left entry c: count[k] of them have |Tr|^2 = n[k] scale^2.

        For a unit c the trace vector depends only on s = (a + d) / c, and
        each s is hit by m elements: one block, row s = sum_i K_c[i, s sq_i].
        Otherwise there is one block per u, row X of `_nonunit_rows`, and the
        counts come from `_column_keys`.  Every row goes through
        `abs_sq_rows`, so no row escapes the bound or the rationality check.
        """
        m = self.m
        c %= m
        if self._inv[c]:
            rows = self._sweep_rows(self._kvec(c))
            return [(self.abs_sq_rows(rows), self._gauss_scale, np.full(m, m))]
        _a, _b, _d, u, X = self._column_keys(c)
        counts = np.bincount(u * m + X, minlength=m * m).reshape(m, m)
        blocks = []
        for v in np.flatnonzero(counts.any(axis=1)):
            rows = self._nonunit_rows(c, int(v))
            blocks.append((self.abs_sq_rows(rows), self._gauss_sq_scale, counts[v]))
        return blocks

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

def projective_key(mat, field):
    """Hashable key of a CycMat up to a scalar of absolute value one.

    The key is the canonical form of conj(lead) * mat, where lead is the
    first entry that is nonzero in `field`: one batched convolution, mapped
    to field coordinates, with their integer content moved into the scale.
    The root beta cancels and the scale enters squared.  Keys of U and V
    agree exactly when U = lam V with lam conj(lam) = 1, because at the lead
    entry conj(a) a = conj(b) b.  No field inverse is taken.
    """
    m = mat.m
    P = power_matrix(field, m)
    arr = mat.arr.reshape(-1, m)
    lead = _lead_index(arr, P)
    if not mat.scale or lead is None:
        return ("zero", mat.nrows, mat.ncols)
    coords = _lead_products(arr[lead][-np.arange(m) % m], arr, P)
    g = int(np.gcd.reduce(coords, axis=None))
    return (mat.scale ** 2 * g, mat.nrows, mat.ncols, (coords // g).tobytes())
