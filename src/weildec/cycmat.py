"""Fast exact matrices over the group ring Z[A]/(A^m - 1), with a tracked
rational scale and a power of the auxiliary 24th-ish root used by the
explicit modular-group lift.

An entry is an integer vector of length m: the coefficients of powers of A.
A is realised in the cyclotomic working field as zeta_L^(L/m), so comparing
two CycMat values means pushing both down to canonical field coordinates.
All arithmetic here is integer numpy work; nothing is approximated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .cyclo import CycloElt, make_field
from .ringmat import RingMatrix

_INT64_MAX = 2**63 - 1
_ZERO = Fraction(0)


def _check_int64(bound, what):
    """Raise before an int64 kernel whose exact bound could wrap."""
    if bound > _INT64_MAX:
        raise OverflowError("%s may exceed int64 (bound %d)" % (what, bound))


def _max_abs(arr):
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


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


def _int_combo(a, x, b, y):
    """Exact a*x + b*y of two integer arrays with integer coefficients:
    in int64 when |a| max|x| + |b| max|y| fits, and in Python ints
    (an object array) otherwise."""
    bound = abs(a) * max(_max_abs(x), 1) + abs(b) * max(_max_abs(y), 1)
    if bound > _INT64_MAX:
        return a * x.astype(object) + b * y.astype(object)
    return a * x + b * y


def _conv_index(m):
    """idx[u, v] = (v - u) mod m: b[..., idx] turns the cyclic convolution
    of entry vectors into one contraction over u."""
    u = np.arange(m)
    return (u[None, :] - u[:, None]) % m


def _unit_monomial(arr):
    """(cols, exps) when arr is a square matrix with one nonzero entry in
    each row and each column, every such entry a single power A^e with
    coefficient 1: row i holds A^exps[i] in column cols[i].  None
    otherwise."""
    n = arr.shape[0]
    if arr.shape[1] != n or np.count_nonzero(arr) != n:
        return None
    rows, cols, exps = np.nonzero(arr)
    if (not np.array_equal(rows, np.arange(n))
            or np.count_nonzero(np.bincount(cols, minlength=n)) != n
            or (arr[rows, cols, exps] != 1).any()):
        return None
    return cols, exps


def _index_map_product(a, b):
    """a @ b as a gather plus a per-row (or per-column) roll of the entry
    vectors, when a or b is a unit monomial (see `_unit_monomial`); None
    otherwise.  The other operand's entries are only moved, never
    multiplied or added, so the result is exact and already int64."""
    m = a.shape[-1]
    u = np.arange(m)
    mono = _unit_monomial(a)
    if mono is not None:
        # (a @ b)[i] = A^exps[i] * b[cols[i]]
        cols, exps = mono
        shift = (u[None, :] - exps[:, None]) % m
        return b[cols[:, None, None], np.arange(b.shape[1])[None, :, None],
                 shift[:, None, :]]
    mono = _unit_monomial(b)
    if mono is not None:
        # column cols[k] of a @ b is A^exps[k] * a[:, k]
        cols, exps = mono
        src = np.argsort(cols)
        shift = (u[None, :] - exps[src][:, None]) % m
        return a[np.arange(a.shape[0])[:, None, None], src[None, :, None],
                 shift[None, :, :]]
    return None


def _dense_product(a, b):
    """a @ b of two entry-vector arrays by one exact contraction with the
    cyclic convolution index, fitted to int64 by `_fit_int64`."""
    bsh = b[:, :, _conv_index(a.shape[-1])]  # (k, j, u, v)
    return _fit_int64(_int_einsum("iku,kjuv->ijv", a, bsh), "CycMat product")


def handle_product(arr, block, i, p, g, side):
    """arr @ (1 (x) block (x) 1) (side "right") or (1 (x) block (x) 1) @ arr
    (side "left"), the p x p entry-vector block acting on tensor axis i
    (1-based, handle 1 leading) of the p^g-dimensional space.

    arr has an entry axis, shape (r, c, m), or is an integer matrix
    (r, c), whose entries are then constants.  Its handle axis and entry
    axis move to the end, so the product is one matmul with the block
    (transposed first for side "left") folded into
    B[(j, u), (t, v)] = block[j, t, (v - u) mod m] (p m terms per entry),
    or into B[j, (t, v)] = block[j, t, v] for an integer arr (p terms).
    int64 when an exact bound fits and Python ints past it, as in
    `_int_einsum`; the result goes through `_fit_int64`.
    """
    if side == "left":
        block = block.transpose(1, 0, 2)
        axis = 0
    elif side == "right":
        axis = 1
    else:
        raise ValueError("side must be 'left' or 'right', not %r" % (side,))
    m = block.shape[-1]
    ring = arr.ndim == 3
    shape = arr.shape
    split = shape[:axis] + (p ** (i - 1), p, p ** (g - i)) + shape[axis + 1:]
    x = np.moveaxis(arr.reshape(split), axis + 1, -2 if ring else -1)
    lead = x.shape[:-2] if ring else x.shape[:-1]
    if ring:
        # (j, t, u, v) -> (j, u, t, v)
        B = block[:, :, _conv_index(m)].transpose(0, 2, 1, 3).reshape(p * m, p * m)
    else:
        B = block.reshape(p, p * m)
    k = B.shape[0]
    x = x.reshape(-1, k)
    if k * max(_max_abs(block), 1) * _max_abs(x) <= _INT64_MAX:
        out = x.astype(np.int64, copy=False) @ B.astype(np.int64, copy=False)
    else:
        out = x.astype(object) @ B.astype(object)
    out = np.moveaxis(out.reshape(lead + (p, m)), -2, axis + 1)
    return _fit_int64(out.reshape(shape[:2] + (m,)), "handle product")


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


def power_matrix(field, m, beta=0):
    """P with P[k] = field coordinates of beta-root * A^k, A = zeta_L^(L/m),
    so that vec @ P are the coordinates of beta-root * sum_k vec[k] A^k."""
    L = field.level
    if L % m:
        raise ValueError("field level %d does not contain order-%d root" % (L, m))
    if beta % 24 and L % 24:
        raise ValueError("field level %d does not contain the 24th-root phase" % L)
    exps = (np.arange(m) * (L // m) + beta * (L // 24)) % L
    return np.array([field.power_rows[k] for k in exps], dtype=np.int64)


def _convolve(a, rows):
    """Cyclic convolution of the vector a with every row of rows."""
    # |a|_1 in Python ints: an int64 sum of large entries would wrap
    _check_int64(sum(map(abs, a.tolist())) * _max_abs(rows), "convolution")
    t = np.arange(len(a))
    return rows @ a[(t[None, :] - t[:, None]) % len(a)]  # a[(v - u) mod m]


def _lead_index(rows, P):
    """Index of the first entry vector of rows that is nonzero in the field
    (coordinates rows @ P, P a `power_matrix`), or None when all are zero."""
    _check_int64(_max_abs(rows) * _l1(P), "field coordinates")
    nonzero = (rows @ P).any(axis=1)
    return int(nonzero.argmax()) if nonzero.any() else None


def _lead_products(vec, rows, P):
    """Field coordinates of vec * rows[k] for every entry vector rows[k]:
    one batched cyclic convolution, then one product with P, each behind
    an exact int64 bound."""
    out = _convolve(vec, rows)
    _check_int64(_max_abs(out) * _l1(P), "field coordinates")
    return out @ P


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
    def monomial_diag(cls, m, exps, scale=Fraction(1), beta=0):
        """diag(A^exps[0], ..., A^exps[n-1])."""
        n = len(exps)
        arr = np.zeros((n, n, m), dtype=np.int64)
        arr[np.arange(n), np.arange(n), np.mod(exps, m)] = 1
        return cls(m, arr, scale, beta)

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
        """Exact product.  When either operand is a unit monomial (a
        permutation whose entries are roots of unity, such as a translation
        operator or a diagonal generator) the product is an index map;
        otherwise it is one dense contraction."""
        if self.m != other.m:
            raise ValueError("mixed group-ring orders")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in CycMat product")
        arr = _index_map_product(self.arr, other.arr)
        if arr is None:
            arr = _dense_product(self.arr, other.arr)
        return CycMat(self.m, arr, self.scale * other.scale, self.beta + other.beta)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        (num_a, num_b, scale), beta = self._common_scale(other)
        arr = _int_combo(num_a, self.arr, sign * num_b, other.arr)
        return CycMat(self.m, _fit_int64(arr, "CycMat sum"), scale, beta)

    def _common_scale(self, other):
        if self.m != other.m or self.beta != other.beta:
            raise ValueError("cannot combine: different ring data")
        s, t = self.scale, other.scale
        from math import gcd, lcm
        den = lcm(s.denominator, t.denominator)
        g = gcd(s.numerator * (den // s.denominator) if s else 0,
                t.numerator * (den // t.denominator) if t else 0)
        if g == 0:
            g = 1
        common = Fraction(g, den)
        num_a = int(s / common) if s else 0
        num_b = int(t / common) if t else 0
        return (num_a, num_b, common), self.beta

    def scaled(self, c):
        return CycMat(self.m, self.arr, self.scale * Fraction(c), self.beta)

    def mul_root(self, e):
        """Multiply by A^e (cyclic roll of every entry)."""
        idx = (np.arange(self.m) - e) % self.m
        return CycMat(self.m, self.arr[:, :, idx], self.scale, self.beta)

    def dagger(self):
        idx = (-np.arange(self.m)) % self.m
        arr = self.arr[:, :, idx].transpose(1, 0, 2)
        return CycMat(self.m, arr, self.scale, -self.beta)

    def trace_vector(self):
        n = min(self.nrows, self.ncols)
        return self.arr[np.arange(n), np.arange(n)].sum(axis=0)

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
        compared in field coordinates.  The scales and beta-roots are common
        factors, so they drop out; one field division at entry l gives lam.
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
        if not np.array_equal(_lead_products(V[lead], U, P),
                              _lead_products(U[lead], V, P)):
            return None
        return self._entry(field, U[lead]) / other._entry(field, V[lead])

    # -- conversion to canonical field elements ---------------------------
    def to_ring(self, field):
        """RingMatrix over `field` (which must contain A = zeta^(L/m)).

        All field coordinates come from one `field_coords` product; the
        scale multiplies each coordinate once.
        """
        coords = field_coords(self.arr, field, self.m, self.beta)
        return RingMatrix(field, [[self._elt(field, vec) for vec in row]
                                  for row in coords.tolist()])

    def trace_elt(self, field):
        return self._entry(field, self.trace_vector())

    def _entry(self, field, vec):
        """The field element scale * beta-root * sum_k vec[k] A^k."""
        return self._elt(field, field_coords(vec, field, self.m, self.beta).tolist())

    def _elt(self, field, coords):
        s = self.scale
        return CycloElt(field, [s * x if x else _ZERO for x in coords])
