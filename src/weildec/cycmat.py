"""Fast exact matrices over the group ring Z[A]/(A^m - 1), with a tracked
rational scale and a power of the auxiliary 24th-ish root used by the
explicit modular-group lift.

An entry is an integer vector of length m: the coefficients of powers of A.
A is realised in the cyclotomic working field as zeta_L^(L/m), so comparing
two CycMat values means pushing both down to canonical field coordinates.
All arithmetic here is integer numpy work; nothing is approximated.

The integer entry-vector kernels that `weilrep`, `decompose` and
`analysis` share live here, once each: rolls and roll windows, the
median shift and content normalisation, the batched cyclic convolution,
the field-coordinate product and the |v|^2 autocorrelation.  Each runs
behind an exact int64 bound that raises OverflowError before anything
could wrap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from .cyclo import CycloElt, make_field
from .ringmat import RingMatrix

_INT64_MAX = 2**63 - 1
_ZERO = Fraction(0)


# int64 entries one chunk of a batched gather may hold (512 KiB): a chunk
# takes as many items as fit, and always at least one
_GATHER_ENTRIES = 1 << 16


def _chunks(n, per_item):
    """Slices that cover range(n) with at most _GATHER_ENTRIES // per_item
    items each, and at least one."""
    step = max(1, _GATHER_ENTRIES // per_item)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _check_int64(bound, what):
    """Raise before an int64 kernel whose exact bound could wrap."""
    if bound > _INT64_MAX:
        raise OverflowError("%s may exceed int64 (bound %d)" % (what, bound))


def _max_abs(arr):
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _max_abs_each(arr):
    """max|arr[e]| of every arr[e], as Python ints."""
    flat = arr.reshape(len(arr), -1)
    return [max(hi, -lo) for hi, lo in zip(flat.max(axis=1).tolist(), flat.min(axis=1).tolist())]


def _rolls(factor, exps):
    """v[..., t] = factor[t - exps[...]]: the entry vectors A^exps * factor."""
    return factor[(np.arange(factor.size) - exps[..., None]) % factor.size]


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
    values, since sum_t A^t = 0.  The int64 bound, max - min, is decided
    for every arr[e] on its own: the range of the whole array bounds them
    all, and only past int64 is each range taken."""
    if arr.size and int(arr.max()) - int(arr.min()) > _INT64_MAX:
        flat = arr.reshape(len(arr), -1)
        _check_int64(max(hi - lo for hi, lo in zip(flat.max(axis=1).tolist(),
                                                   flat.min(axis=1).tolist())), "median shift")
    return arr - np.sort(arr, axis=-1)[..., arr.shape[-1] // 2, None]


def _normalise_each(arr):
    """(arr', g) with every entry vector of arr[e] equal to g[e] times that
    of arr'[e] in the field: `_median_shift`, then the integer content of
    each arr[e] moves into g[e]."""
    out = _median_shift(arr)
    g = [x or 1 for x in np.gcd.reduce(out.reshape(len(out), -1), axis=1).tolist()]
    if max(g, default=1) > 1:
        out //= np.reshape(g, (-1,) + (1,) * (out.ndim - 1))
    return out, g


def _l1(powers):
    """Largest column sum of |powers|: the factor a vector's max-abs grows by
    when it is mapped to field coordinates."""
    return int(np.abs(powers).sum(axis=0).max())


def _int_einsum(spec, a, b):
    """Exact integer np.einsum(spec, a, b) of two operands.

    One int64 einsum when k * max|a| * max|b| fits, k the number of
    products summed into each entry; otherwise the einsum runs on Python
    ints and returns an object array.
    """
    inputs, out = spec.split("->")
    sizes = {}
    for labels, arr in zip(inputs.split(","), (a, b)):
        sizes.update(zip(labels, arr.shape))
    factor = max(prod(sizes[c] for c in sizes if c not in out), 1) * max(_max_abs(b), 1)
    if factor * _max_abs(a) <= _INT64_MAX:
        return np.einsum(spec, a.astype(np.int64, copy=False), b.astype(np.int64, copy=False))
    return np.einsum(spec, a.astype(object), b.astype(object))


def _int_matmul(a, b):
    """Exact integer a @ b (np.matmul, batch axes first): int64 when
    k * max|a| * max|b| fits, k = a.shape[-1], and Python ints (an object
    array) otherwise."""
    if a.shape[-1] * max(_max_abs(a), 1) * _max_abs(b) <= _INT64_MAX:
        return np.matmul(a.astype(np.int64, copy=False), b.astype(np.int64, copy=False))
    return np.matmul(a.astype(object), b.astype(object))


def _int_combo(a, x, b, y):
    """Exact a*x + b*y of two integer arrays with integer coefficients:
    in int64 when |a| max|x| + |b| max|y| fits, and in Python ints
    (an object array) otherwise."""
    bound = abs(a) * max(_max_abs(x), 1) + abs(b) * max(_max_abs(y), 1)
    if bound > _INT64_MAX:
        return a * x.astype(object) + b * y.astype(object)
    return a * x + b * y


@lru_cache(maxsize=None)
def _conv_index(m):
    """idx[u, v] = (v - u) mod m: b[..., idx] turns the cyclic convolution
    of entry vectors into one contraction over u.  Cached and read-only."""
    u = np.arange(m)
    idx = (u[None, :] - u[:, None]) % m
    idx.flags.writeable = False
    return idx


def _fit_int64(arr, what):
    """An exact product of entry vectors (last axis, length m) as int64.

    When it exceeds int64, each entry vector is first rewritten with the
    relations of the order-m root A, which change no field value: at even
    m, A^(m/2) = -1 folds the upper half onto the lower one; at odd m > 1,
    sum_t A^t = 0 lets each vector drop its median.  OverflowError if the
    result still does not fit.
    """
    if arr.dtype != object:
        return arr
    m = arr.shape[-1]
    if _max_abs(arr) > _INT64_MAX and m > 1:
        if m % 2 == 0:
            half = m // 2
            arr = np.concatenate([arr[..., :half] - arr[..., half:],
                                  np.zeros_like(arr[..., half:])], axis=-1)
        else:
            arr = arr - np.sort(arr, axis=-1)[..., m // 2, None]
    _check_int64(_max_abs(arr), what)
    return arr.astype(np.int64)


@lru_cache(maxsize=None)
def power_matrix(field, m, beta=0):
    """P with P[k] = field coordinates of beta-root * A^k, A = zeta_L^(L/m),
    so that vec @ P are the coordinates of beta-root * sum_k vec[k] A^k.
    Built once per (field, m, beta) and read-only."""
    L = field.level
    if L % m:
        raise ValueError("field level %d does not contain order-%d root" % (L, m))
    if beta % 24 and L % 24:
        raise ValueError("field level %d does not contain the 24th-root phase" % L)
    exps = (np.arange(m) * (L // m) + beta * (L // 24)) % L
    P = np.array([field.power_rows[k] for k in exps], dtype=np.int64)
    P.flags.writeable = False
    return P


def _convolve(vecs, rows):
    """c with c[k, ..., v] = sum_u rows[k, ..., u] vecs[k, v - u], indices
    mod m: the cyclic convolution of vecs[k] with every entry vector of
    rows[k], in one batched product behind the exact bound
    |vecs[k]|_1 max|rows[k]| < 2^63 of each k."""
    # |vecs[k]|_1 in Python ints: an int64 sum of large entries would wrap
    _check_int64(max((sum(map(abs, vec)) * top for vec, top in
                      zip(vecs.tolist(), _max_abs_each(rows))), default=0), "convolution")
    return rows @ vecs[:, _conv_index(vecs.shape[-1])]  # vecs[k, (v - u) mod m]


def _coords(rows, P):
    """rows @ P, P a `power_matrix`: the field coordinates of every entry
    vector of rows, behind the exact int64 bound max|rows| |P|_1."""
    _check_int64(_max_abs(rows) * _l1(P), "field coordinates")
    return rows @ P


def _abs_sq(rows, P, l1):
    """Field coordinates of |v|^2 for every row v of rows: the
    autocorrelation r[s] = sum_t v[t] v[t + s], the entry vector of
    v conj(v), mapped by P, a `power_matrix` with `_l1`(P) = l1.  One
    bound, m max|v|^2 l1 < 2^63, comes before both products."""
    _check_int64(rows.shape[-1] * _max_abs(rows) ** 2 * l1, "|v|^2")
    return np.einsum("nst,nt->ns", _windows(rows), rows) @ P


def _slabs(rows, P):
    """Slices of rows in which a slab and its coordinates (rows @ P, P a
    `power_matrix`) each hold at most a quarter of `_GATHER_ENTRIES`."""
    return _chunks(len(rows), 4 * max(rows.shape[1], P.shape[1]))


def _lead_index(rows, P):
    """Index of the first entry vector of rows that is nonzero in the field
    (coordinates rows @ P), or None when all are zero; slab by slab, up to
    the first slab with a nonzero entry."""
    for part in _slabs(rows, P):
        nonzero = _coords(rows[part], P).any(axis=1)
        if nonzero.any():
            return part.start + int(nonzero.argmax())
    return None


def _proportional(U, V, lead, P):
    """u_e * v_lead == u_lead * v_e in the field for every entry e: both
    sides one `_convolve` mapped by `_coords`, compared slab by slab."""
    return all(np.array_equal(_coords(_convolve(V[None, lead], U[None, part])[0], P),
                              _coords(_convolve(U[None, lead], V[None, part])[0], P))
               for part in _slabs(U, P))


def _correlation(X, V):
    """r with r[s] = sum_e sum_t X[e, s + t] V[e, t], indices mod m: the
    entry vector of sum_e x_e conj(v_e), conj the map t -> -t.

    C = X^T V is one (m, m) product and r[s] sums the wrapped diagonal
    C[t + s, t].  Each r[s] adds rows * m products, so int64 runs when
    rows * m * max|X| * max|V| fits, and Python ints otherwise.
    """
    rows, m = X.shape
    dtype = np.int64
    if rows * m * max(_max_abs(X), 1) * _max_abs(V) > _INT64_MAX:
        dtype = object
    C = X.T.astype(dtype, copy=False) @ V.astype(dtype, copy=False)
    return C[np.arange(m)[None, :], _conv_index(m)].sum(axis=1)  # C[a, a - s]


def field_coords(arr, field, m, beta=0):
    """Field coordinates of beta-root * sum_k arr[..., k] A^k for every
    entry vector of arr: one product arr @ P_beta, in int64 when an exact
    bound allows it and in Python ints otherwise."""
    P = power_matrix(field, m, beta)
    if _max_abs(arr) * _l1(P) > _INT64_MAX:
        return arr.astype(object) @ P.astype(object)
    return arr.astype(np.int64, copy=False) @ P


class CycMat:
    __slots__ = ("m", "arr", "scale", "beta")

    def __init__(self, m, arr, scale=Fraction(1), beta=0):
        self.m = m
        self.arr = np.asarray(arr, dtype=np.int64)
        self.scale = Fraction(scale)
        self.beta = beta % 24

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, m, nrows, ncols):
        return cls(m, np.zeros((nrows, ncols, m), dtype=np.int64))

    @classmethod
    def identity(cls, m, n):
        arr = np.zeros((n, n, m), dtype=np.int64)
        arr[np.arange(n), np.arange(n), 0] = 1
        return cls(m, arr)

    @classmethod
    def from_exponent_matrix(cls, m, exps, scale=Fraction(1), beta=0):
        """Dense matrix with entry A^exps[i][j]."""
        exps = np.asarray(exps)
        n, c = exps.shape
        arr = np.zeros((n, c, m), dtype=np.int64)
        ii, jj = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
        arr[ii, jj, np.mod(exps, m)] = 1
        return cls(m, arr, scale, beta)

    @property
    def nrows(self):
        return self.arr.shape[0]

    @property
    def ncols(self):
        return self.arr.shape[1]

    # -- arithmetic -------------------------------------------------------
    def __matmul__(self, other):
        """Exact product: one dense contraction, fitted to int64 by
        `_fit_int64`.  No certificate forms one; tests use it as an oracle."""
        if self.m != other.m:
            raise ValueError("mixed group-ring orders")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in CycMat product")
        bsh = other.arr[:, :, _conv_index(self.m)]  # (k, j, u, v)
        arr = _fit_int64(_int_einsum("iku,kjuv->ijv", self.arr, bsh), "CycMat product")
        return CycMat(self.m, arr, self.scale * other.scale, self.beta + other.beta)

    def scaled(self, c):
        return CycMat(self.m, self.arr, self.scale * Fraction(c), self.beta)

    def dagger(self):
        idx = (-np.arange(self.m)) % self.m
        arr = self.arr[:, :, idx].transpose(1, 0, 2)
        return CycMat(self.m, arr, self.scale, -self.beta)

    def kron(self, other):
        if self.m != other.m:
            raise ValueError("mixed group-ring orders")
        bsh = other.arr[:, :, _conv_index(self.m)]  # (k, l, u, v)
        arr = _fit_int64(_int_einsum("iju,kluv->ikjlv", self.arr, bsh),
                         "CycMat Kronecker product")
        r = self.nrows * other.nrows
        c = self.ncols * other.ncols
        return CycMat(self.m, arr.reshape(r, c, self.m),
                      self.scale * other.scale, self.beta + other.beta)

    # -- comparison --------------------------------------------------------
    def equal_up_to_scalar(self, other):
        """lam with self == lam * other, or None; lam lies in Q(zeta_L),
        L = lcm(m, 24), the field `field_for_level` picks.

        With l the first entry of other that is nonzero in the field,
        self == lam * other holds exactly when u_ij * v_l == u_l * v_ij for
        every entry vector: one integer identity of convolved entry vectors,
        compared in field coordinates.  Then lam = <self, other> / <other,
        other>, a ratio of Frobenius products sum_ij x_ij conj(y_ij).  Each
        is an integer correlation of entry vectors (`_correlation`) mapped to
        field coordinates, since A -> zeta_L^(L/m) is a ring map that takes
        t -> -t to complex conjugation.  The beta-roots enter as
        beta_self - beta_other and the scales as s_self / s_other.
        <other, other> = Tr(other other^dagger) is nonzero, and rational
        when other is unitary up to a scale, as every lift is: then lam is
        a rational multiple of integer coordinates and no field
        multiplication or inverse runs.  Otherwise one field division gives
        lam.
        """
        if self.m != other.m or self.arr.shape != other.arr.shape:
            return None
        m = self.m
        field = make_field(lcm(m, 24))
        P = power_matrix(field, m)
        U, V = self.arr.reshape(-1, m), other.arr.reshape(-1, m)
        lead = _lead_index(V, P) if other.scale else None
        if lead is None:  # other is zero
            return field.one() if not self.scale or _lead_index(U, P) is None else None
        if not self.scale:
            return field.zero()
        if not _proportional(U, V, lead, P):
            return None
        cross = field_coords(_correlation(U, V), field, m, (self.beta - other.beta) % 24)
        norm = field_coords(_correlation(V, V), field, m).tolist()
        ratio = self.scale / other.scale
        if any(norm[1:]):
            return (CycloElt(field, [ratio * x for x in cross.tolist()])
                    / CycloElt(field, map(Fraction, norm)))
        ratio /= norm[0]
        return CycloElt(field, [ratio * x if x else _ZERO for x in cross.tolist()])

    # -- conversion to canonical field elements ---------------------------
    def to_ring(self, field):
        """RingMatrix over `field` (which must contain A = zeta^(L/m)).

        All field coordinates come from one `field_coords` product; the
        scale multiplies each coordinate once.
        """
        coords = field_coords(self.arr, field, self.m, self.beta)
        s = self.scale
        return RingMatrix(field, [[CycloElt(field, [s * x if x else _ZERO for x in vec])
                                   for vec in row] for row in coords.tolist()])
