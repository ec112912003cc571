"""Construction of the finite Weil representation data at level p, genus g.

Provides Gauss sums, the symplectic generator matrices, the Hopf pairing,
the Schrodinger representation of the finite Heisenberg group, the
explicit genus-one lift of SL2(Z/NZ) (an integer group-ring matrix,
CycMat, whose word folds consecutive S-factors in pairs; whole element
sets are lifted at once) together with a fast exact trace evaluator, and
projective comparison keys.  The integer entry-vector kernels these run
on (rolls, normalisation, convolution, field coordinates, |v|^2) are
`cycmat`'s.

Conventions.  At level p the phase root A has order p (p odd) or 2p (p even);
the working cyclotomic field also contains the 24th root used by the lift.
The default X-generator is diag(A^{i^2}); this is the normalization under
which Fourier duality S X S^{-1} reproduces the tabulated Y-matrix exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .cyclo import CycloElt, field_for_level
from .cycmat import (
    _INT64_MAX,
    CycMat,
    _abs_sq,
    _check_int64,
    _chunks,
    _convolve,
    _coords,
    _l1,
    _max_abs,
    _max_abs_each,
    _median_shift,
    _normalise_each,
    _rolls,
    _windows,
    field_coords,
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
    k = np.arange(m)
    vec = np.bincount((a % m * k * k + b % m * k) % m, minlength=m)
    return CycloElt(field, [Fraction(x) for x in field_coords(vec, field, m).tolist()])


class WeilRep:
    """Weil representation data at level p >= 2 and genus g >= 1.

    Immutable; generators are cached on first use, as integer exponents
    on their row entries times one common factor (`generator_entries`,
    the form every certificate reads) and as the dense `generator_cyc`.
    All matrices are integer group-ring matrices (CycMat), as is the
    genus-one lift; they are compared exactly in field coordinates, and
    `CycMat.to_ring` converts one to a field matrix when a test wants it.
    """

    def __init__(self, p, g=1):
        if p < 2 or g < 1:
            raise ValueError("need level p >= 2 and genus g >= 1")
        self.p = p
        self.g = g
        self.m = _heisenberg_modulus(p)
        self.dim = p ** g
        self._cyc_cache = {}

    @cached_property
    def field(self):
        """The working field Q(zeta_L), L = lcm(2p, 24), built on first use:
        the integer certificates never need it."""
        return field_for_level(self.p)

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

    def _index_array(self):
        """a[h, t] = a_(h+1) of the tensor index t = (a1, ..., ag), a1 most
        significant."""
        return np.indices((self.p,) * self.g).reshape(self.g, -1)

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

    def generator_entries(self, tag):
        """(cols, exps, factor, scale): G[r, cols[r, j]] = scale * factor *
        A^exps[r, j], k = cols.shape[1] entries in every row, exps reduced
        mod m and factor one length-m vector that all entries share.

        Y_i = 1 (x) S (x) 1 has k = p: row r meets the p columns b that
        agree with r off handle i, S[a, b] = (1/m) gamma A^(-(a - b)^2),
        with the Gauss vector gamma[t] = #{k : k^2 = t mod m} as factor.
        X_i and Z_ij have k = 1, factor 1 and the exponents of
        `diagonal_exponents`.  gamma is nonzero (m is odd or a multiple of
        4), so two entries agree exactly when their exponents agree mod m.
        Every generator is symmetric: S[a, b] depends on (a - b)^2.  Cached."""
        key = ("entries", tag)
        if key not in self._cyc_cache:
            n, t = np.arange(self.dim)[:, None], np.arange(self.m)
            if tag[0] == "Y":
                self._check_index(tag[1])
                a, b = self._index_array()[tag[1] - 1, :, None], np.arange(self.p)
                entries = (n + (b - a) * self.p ** (self.g - tag[1]), -(a - b) ** 2 % self.m,
                           np.bincount(t * t % self.m, minlength=self.m), Fraction(1, self.m))
            else:
                entries = (n, self.diagonal_exponents(tag)[:, None] % self.m,
                           (t == 0).astype(np.int64), Fraction(1))
            self._cyc_cache[key] = entries
        return self._cyc_cache[key]

    def generator_cyc(self, tag):
        """The dense d x d x m view of `generator_entries`: one scatter of
        the factor rolled by each exponent."""
        if tag not in self._cyc_cache:
            cols, exps, factor, scale = self.generator_entries(tag)
            arr = np.zeros((self.dim, self.dim, self.m), dtype=factor.dtype)
            arr[np.arange(self.dim)[:, None], cols] = _rolls(factor, exps)
            self._cyc_cache[tag] = CycMat(self.m, arr, scale)
        return self._cyc_cache[tag]

    # -- Hopf pairing ------------------------------------------------------
    def hopf_cyc(self):
        """H[a, b] = A^(-2 a.b) over the tensor indices a, b."""
        a = self._index_array()
        return CycMat.from_exponent_matrix(self.m, -2 * a.T @ a)

    def hopf_inverse_cyc(self):
        """H^-1[a, b] = A^(2 a.b) / d."""
        a = self._index_array()
        return CycMat.from_exponent_matrix(self.m, 2 * a.T @ a, Fraction(1, self.dim))

    # -- Schrodinger representation ---------------------------------------
    def schrodinger_map(self, vecs):
        """(rows, exps) with Add(v) e_a = A^exps[k, a] e_rows[k, a] for each
        column v = vecs[:, k] (slot 2i the shift m_i, slot 2i+1 the
        modulation n_i): column a = (a_1, ..., a_g) goes to row
        a + (m_1, ..., m_g) with A^(2 sum n_h a_h) mod m.  Within each
        handle the modulation acts first: (Sh^m Mod^n) e_a = A^(2 n a)
        e_(a+m).  vecs must be 2-D with 2g rows and an integer dtype
        (ValueError otherwise: a fraction is refused, not truncated)."""
        X = np.asarray(vecs)
        if X.size and not np.issubdtype(X.dtype, np.integer):
            raise ValueError("lattice vectors of dtype %s, expected integers" % X.dtype)
        if X.ndim != 2 or len(X) != 2 * self.g:
            raise ValueError("lattice vectors of shape %s, expected (%d, k)"
                             % (X.shape, 2 * self.g))
        a = self._index_array()
        X = X.astype(np.int64).reshape(self.g, 2, -1, 1)
        rows = np.ravel_multi_index(tuple((a[:, None] + X[:, 0]) % self.p),
                                    (self.p,) * self.g)
        return rows, 2 * (X[:, 1] * a[:, None]).sum(axis=0) % self.m


# -- genus-one lift --------------------------------------------------------

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
    signs = (1, -1)
    vecs, g = _normalise_each(np.array([np.bincount(-s * t * t % m, minlength=m) for s in signs]))
    return {"m": m, "eps": eps, "gauss": dict(zip(signs, zip(vecs, g))), "norm": m * (1 + eps)}


@lru_cache(maxsize=None)
def _gather_basis(p):
    """basis[:, k p + j] = (k^2, 2 k j, j^2) of the lift's gathers: a
    gather's shifts are (roll before, sign, roll after) @ basis."""
    k, j = np.indices((p, p)).reshape(2, -1)
    return np.array([k * k, 2 * k * j, j * j])


@lru_cache(maxsize=None)
def _gauss_power(p, sign, count):
    """(vec, g) with gamma_sign^count = g vec in the field, count >= 1: the
    normalised gamma_sign convolved in count - 1 times, each product
    normalised."""
    vec, g = _lift_images(p)["gauss"][sign]
    if count == 1:
        return vec, g
    prev, h = _gauss_power(p, sign, count - 1)
    (out,), (k,) = _normalise_each(_convolve(vec[None], prev[None, None])[0])
    return out, g * h * k


def _read_word(word, eps, m):
    """The program of an S,T-word: (gathers, roll, flip, pairs, factors, beta).

    Every S-factor that does not pair with the next one is a gather, listed
    as (roll, sign): the T-powers met since the last gather, mod m, and the
    sign of the S-factor; roll is the T-power left after the last gather.
    Two consecutive S-factors are a pair, F_+-F_+- = p J or F_+-F_-+ = p I:
    each pair puts p into the content, and flip is the parity of the J's.
    factors counts the S and S^{-1} factors, beta the beta-root exponent.
    """
    gathers = []
    roll = beta = pairs = 0
    flip = False
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
            pairs += 1
            flip ^= pair == val
            continue
        gathers.append((roll % m, val))
        roll = 0
    return gathers, roll % m, flip, pairs, factors, beta


def word_products(p, Ms, rng=None):
    """(products, nets): for every M in Ms, each in SL2(Z/NZ), N = p (odd)
    or 2p (even), its word product as a CycMat and its signed Gauss
    exponent n = #S - #S^{-1}, with lift = gamma_sign(n)^|n| * product;
    the words come from `word_decompose`, drawn in the order of Ms from the
    one rng when it is given.  `lift_genus1_many` is `_gauss_step` of these.

    Each product is bitwise what the word gives on its own, whatever the
    batch: every int64 bound and every on-demand `_normalise_each` is
    decided per element.  T^k = diag(A^(-k j^2)) only rolls column j, so the
    T-powers met since the last S-factor fold into the next gather, and
    those left after the last one into the last.  S^{+-1} is (1/m)
    beta-root^(-+3 eps) gamma_+- F_+-, with F_+-[k, j] = A^(-+2kj) and the
    Gauss sum gamma_+- a central scalar, so an S-factor applies only F_+-:
    the gather W[i, j] = sum_k A^(-+2kj) out[i, k].  Two consecutive
    S-factors need no gather: F_a F_b[k, j] = sum_n A^(-2n(a k + b j)) is
    p where a k + b j = 0 mod p and 0 elsewhere, since A^2 has order p, so
    F_+-F_+- = p J with J e_j = e_(-j) and F_+-F_-+ = p I (`_read_word`).
    J commutes with every F_+- and every T-power, (-j)^2 = j^2, so all the
    J's of a word act at once, on the identity the word starts from.

    The first gather of a word acts on that J or I, so each of its entries
    is one power A^(-shift(i, j)), and the second sums p such powers per
    entry: up to there, every element of a chunk is one `np.bincount` of
    exponents.  Only the third and later gathers gather rolled rows
    (`_windows`), for all elements of a chunk at once and behind the exact
    bound p max|out| < 2^63, with `_normalise_each` only where that bound
    of the next gather would fail; the product is not normalised after its
    last gather.  Of the Gauss sums, with a factors S and b factors
    S^{-1}, gamma_+^a gamma_-^b = norm^min(a, b) gamma_+-^|a - b|, since
    gamma_+ gamma_- = norm (`_lift_images`): the product's scale takes
    norm^min(a, b) and n = a - b is left to `_gauss_step`.  Elements go in
    chunks whose gather holds at most `cycmat._GATHER_ENTRIES` entries, and
    a single element too large for one gathers its k-slices in such chunks.
    """
    img = _lift_images(p)
    m, eps = img["m"], img["eps"]
    programs = []
    for M in Ms:
        word = word_decompose(tuple(v % m for v in M), m, rng=rng)
        programs.append(_read_word(word, eps, m))
    # deepest words first: in every chunk the elements a gather acts on
    # are then a prefix
    order = sorted(range(len(programs)), key=lambda e: -len(programs[e][0]))
    products = [None] * len(programs)
    for part in _chunks(len(order), p ** 3 * m):
        chunk = order[part]
        for e, product in zip(chunk, _lift_chunk(p, [programs[e] for e in chunk])):
            products[e] = product
    nets = [factors[1] - factors[-1] for *_, factors, _beta in programs]
    return products, nets


def _gauss_step(p, products, nets):
    """The lifts gamma_sign(n)^|n| * product of `word_products` output,
    normalised: one `_convolve` of each product with n != 0 by the cached
    `_gauss_power` vector, then `_normalise_each` of every element.

    Only an element whose convolution bound 2 |vec|_1 max|arr| would not
    fit int64 is normalised before it.  Both parts of `_normalise_each`
    commute with the convolution: the all-ones vector goes to |vec|_1
    times itself, so the median shift after it takes out what one before
    it would, and the integer content factors out.  So the lifts are
    bitwise the same either way; the factor 2 keeps the range max - min of
    each convolved entry, which the median shift after it bounds, below
    2^63.  Elements go in chunks of at most `cycmat._GATHER_ENTRIES`
    entries.
    """
    m = _lift_images(p)["m"]
    out = []
    for part in _chunks(len(products), products[0].arr.size if products else 1):
        mats, ns = products[part], nets[part]
        arr = np.stack([mat.arr for mat in mats])
        content = [1] * len(mats)
        conv = [e for e, n in enumerate(ns) if n]
        if conv:
            gauss = [_gauss_power(p, 1 if ns[e] > 0 else -1, abs(ns[e])) for e in conv]
            vecs = np.array([vec for vec, _g in gauss])
            rows = arr[conv].reshape(len(conv), -1, m)
            big = [k for k, (vec, top) in enumerate(zip(vecs.tolist(), _max_abs_each(rows)))
                   if 2 * sum(map(abs, vec)) * top > _INT64_MAX]
            if big:
                rows[big], h = _normalise_each(rows[big])
                for k, hk in zip(big, h):
                    content[conv[k]] *= hk
            arr[conv] = _convolve(vecs, rows).reshape((len(conv),) + arr.shape[1:])
            for e, (_vec, g) in zip(conv, gauss):
                content[e] *= g
        arr, h = _normalise_each(arr)
        out += [CycMat(m, arr[e], mat.scale * (content[e] * h[e]), mat.beta)
                for e, mat in enumerate(mats)]
    return out


def lift_genus1_many(p, Ms, rng=None):
    """The lifts of every M in Ms, each in SL2(Z/NZ), N = p (odd) or 2p
    (even), as CycMat: `_gauss_step` of `word_products`(p, Ms, rng).  Each
    lift is bitwise what its word gives on its own, whatever the batch."""
    return _gauss_step(p, *word_products(p, Ms, rng))


def _lift_chunk(p, programs):
    """The word products of `_read_word` programs sorted by falling gather
    count."""
    img = _lift_images(p)
    m = img["m"]
    basis = _gather_basis(p)
    n = len(programs)
    k = np.arange(p)
    depth = [len(gathers) for gathers, *_ in programs]
    reach = [sum(d > g for d in depth) for g in range(depth[0])]  # elements gather g acts on
    n1, n2 = reach[0] if reach else 0, reach[1] if len(reach) > 1 else 0
    # table[e, g] = (roll before gather g, its sign, roll after it); the
    # roll after is the word's last T-power, at its last gather only.  A
    # word's J's act on its first gather, whose rows i and -i they swap,
    # and that is the gather of the opposite sign.
    table = np.zeros((n, max(depth[0], 1), 3), np.int64)
    for e in range(n1):
        gathers, roll, flip, *_ = programs[e]
        table[e, :len(gathers), :2] = gathers
        table[e, len(gathers) - 1, 2] = roll
        if flip:
            table[e, 0, 1] *= -1
    # shift[e, g, k, j] = roll k^2 + 2 sign k j + after j^2 of gather g
    shift = (table @ basis % m).reshape(n, -1, p, p)
    content = [p ** pairs for _g, _r, _f, pairs, *_ in programs]
    # up to its second gather every entry (e, i, j) counts single powers
    # A^x: one bincount of the slots cell[e, i, j] + x
    cell = np.arange(n * p * p).reshape(n, p, p) * m
    slots = []
    if n1:
        first = -shift[:n1, 0] % m  # x of entry (i, j) after gather 0
        slots.append(cell[n2:n1] + first[n2:])
    if n2:
        # after gather 1, x = first[i, k] - shift[k, j] for every k
        exps = first[:n2, :, None, :] - shift[:n2, 1].transpose(0, 2, 1)[:, None]
        exps %= m
        exps += cell[:n2, :, :, None]
        slots.append(exps)
    for e in range(n1, n):  # no gather: J^flip rolled by the last T-power
        _gathers, roll, flip, *_ = programs[e]
        slots.append(cell[e, k, -k % p if flip else k] + -roll * k * k % m)
    arr = np.bincount(np.concatenate([x.ravel() for x in slots]),
                      minlength=n * p * p * m).reshape(n, p, p, m)

    def settle(count):
        """Normalise each of the first count outputs whose next gather's
        bound would not fit int64; their max|out|."""
        tops = _max_abs_each(arr[:count])
        big = [e for e, top in enumerate(tops) if p * top > _INT64_MAX]
        if big:
            arr[big], h = _normalise_each(arr[big])
            for e, k in zip(big, h):
                content[e] *= k
            tops = _max_abs_each(arr[:count])
        return tops

    if n2:
        tops = settle(n2)
    for g in range(2, len(reach)):
        count = reach[g]
        _check_int64(p * max(tops[:count]), "lift gather")
        # W[(e p + i) p + k, s] = arr[e, i, k] rolled by s
        W = _windows(arr[:count]).reshape(count * p * p, m, m)
        base = (np.arange(count)[:, None, None, None] * p + k[:, None, None]) * p
        s = shift[:count, g]
        for b, block in enumerate(_chunks(p, count * p * p * m)):
            part = W[base + k[block, None], s[:, None, block]].sum(axis=2)
            if b:
                arr[:count] += part
            else:
                arr[:count] = part
        tops = settle(count)
    return [CycMat(m, arr[e], Fraction(content[e] * img["norm"] ** min(factors.values()),
                                       m ** (factors[1] + factors[-1])), beta)
            for e, (*_, factors, beta) in enumerate(programs)]


def lift_genus1_cyc(p, M, rng=None):
    """The lift of one M in SL2(Z/NZ): `lift_genus1_many`(p, [M], rng)[0]."""
    return lift_genus1_many(p, [M], rng)[0]


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

    Two sweeps batch this work in chunks whose gathers hold at most
    `cycmat._GATHER_ENTRIES` int64 entries, both reading the keys (u, s) of
    `_keys` and the tables of `_tables`: `column_abs_sq` sweeps all rows of
    a column's tables, `trace_vectors` gathers the rows of any elements, as
    the census needs.  `trace_vector` and `trace_abs_sq` stay the
    per-element reference.
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
        self._gauss_rolls = _windows(self._gauss)
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
            K = self._gauss_rolls[-2 * i * self._dmat(c) % self.m]
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
        (vec,), (g,) = _normalise_each(vec[None])
        return vec, scale * g

    def trace_vectors(self, Ms):
        """(rows, scales) with (rows[k], scales[k]) = `trace_vector`(Ms[k])
        for every element of Ms, in chunked gathers.

        The elements go one lower-left entry c at a time, and each one's
        row is row s of the sweep (`_sweep_rows`) of table u of `_tables`,
        with (u, s) from `_keys`: the sum `trace_vector` forms.  The tables
        are built in chunks of u, and only the rows asked for are gathered.
        The median shift and the content come off each row on its own, so
        the rows equal `trace_vector`'s exactly."""
        m, p, sq = self.m, self.p, self._sq
        a, b, c, d = (np.asarray(Ms, dtype=np.int64).reshape(-1, 4) % m).T
        bad = np.flatnonzero((a * d - b * c) % m != 1)
        if bad.size:
            raise ValueError("matrix %r is not in SL2(Z/%d)" % (tuple(Ms[bad[0]]), m))
        rows = np.empty((a.size, m), np.int64)
        i = self._rows[:p]
        for col in np.unique(c).tolist():
            pos = np.flatnonzero(c == col)
            u, s = self._keys(col, a[pos], b[pos], d[pos])
            us, which = np.unique(u, return_inverse=True)
            for part in _chunks(us.size, p * p * m):
                W = self._tables(col, us[part])
                sel = np.flatnonzero((which >= part.start) & (which < part.stop))
                for chunk in _chunks(sel.size, p * m):
                    e = sel[chunk]
                    rows[pos[e]] = W[which[e, None] - part.start, i,
                                     s[e, None] * sq % m].sum(axis=1)
        rows, g = _normalise_each(rows)
        return rows, [(self._gauss_scale if one else self._gauss_sq_scale) * k
                      for one, k in zip((self._inv[c] > 0).tolist(), g)]

    def abs_sq_rows(self, rows):
        """n with n[k] = |sum_t rows[k, t] A^t|^2 for every row of trace
        vectors: n[k] = sum_s r[s] A^s, where r[s] = sum_t v[t] v[t + s] is
        the autocorrelation of the median-shifted row v.  Raises ValueError
        unless every n[k] is a rational integer.  n owns its data, so the
        coordinate array is freed on return."""
        coords = _abs_sq(_median_shift(rows), self._powers, self._powers_l1)
        irrational = coords[:, 1:].any(axis=1)
        if irrational.any():
            raise ValueError("|Tr|^2 of row %d is not rational" % irrational.argmax())
        return coords[:, 0].copy()

    # -- batched sweep of SL2(Z/m), one lower-left entry c at a time --------

    def _sweep_rows(self, W):
        """rows[..., s, t] = sum_i W[..., i, s sq_i, t] for every s mod m, W
        the windows of one or more (p, m) tables.  The sums are the ones
        `trace_vector` forms, so the bounds checked at construction cover
        them."""
        s = np.arange(self.m)
        return W[..., self._rows[:self.p], s[:, None] * self._sq % self.m, :].sum(axis=-2)

    def _keys(self, c, a, b, d):
        """(u, s) of the elements (a, b, c, d) of one lower-left entry c: the
        trace vector of each is row s of the sweep of its table u of
        `_tables`.  A unit c gives u = 0 and s = (a + d) / c; otherwise
        `trace_vector` writes each with u = a + x c for the least x that
        makes it a unit, and s = x - (b + x d) / u."""
        m = self.m
        if self._inv[c]:
            return np.zeros_like(a), (a + d) * self._inv[c] % m
        t = np.arange(m)
        x = (self._inv[(t[:, None] + t * c) % m] > 0).argmax(axis=1)[a]
        u = (a + x * c) % m
        return u, (x - (b + x * d) * self._inv[u]) % m

    def _tables(self, c, us):
        """Windows of the tables of column c, one per u of us: for a unit c
        K_c (`_kvec`), otherwise H_u with alpha = -c / u.  The trace vector
        of keys (u, s) is, up to the scale of g0 * g0 and a unit scalar,
        sum_ij G_u[i, j, s sq_i - alpha sq_j + t] = sum_i H_u[i, s sq_i + t]:
        H_u[i, t] = sum_j G_u[i, j, t - alpha sq_j], one gather for all u."""
        if self._inv[c]:
            return self._kvec(c)[None]
        p, m = self.p, self.m
        alpha = -c * self._inv[us] % m
        shifts = np.stack([self._gmat(v) for v in us.tolist()])
        shifts -= alpha[:, None] * self._sq[self._rows % p]
        return _windows(self._gauss_sq_rolls[shifts % m].reshape(us.size, p, p, m).sum(axis=2))

    def column_abs_sq(self, c):
        """Blocks (n, scale, count) over the elements of SL2(Z/m) with
        lower-left entry c: count[k] of them have |Tr|^2 = n[k] scale^2.

        For a unit c the trace vector depends only on s = (a + d) / c, and
        each s is hit by m elements: one block, the m rows of the sweep of
        K_c.  Otherwise the one block holds the m rows of the sweep of the
        table of every u met, with counts from `_keys`.  The tables are
        swept together in chunks, as many per chunk as keep the largest
        gather, the m x p x m sweep of each u, within
        `cycmat._GATHER_ENTRIES` (at least one), and each chunk's rows go
        through one `abs_sq_rows` call, so no row escapes the bound or the
        rationality check.  The block does not depend on the chunking.
        """
        p, m = self.p, self.m
        c %= m
        if self._inv[c]:
            us, counts, scale = np.zeros(1, np.int64), np.full(m, m), self._gauss_scale
        else:
            u, s = self._keys(c, *sl2_column(m, c))
            counts = np.bincount(u * m + s, minlength=m * m).reshape(m, m)
            us = np.flatnonzero(counts.any(axis=1))
            counts, scale = counts[us].ravel(), self._gauss_sq_scale
        n = np.concatenate([self.abs_sq_rows(self._sweep_rows(self._tables(c, us[part]))
                                             .reshape(-1, m))
                            for part in _chunks(us.size, m * p * m)])
        return [(n, scale, counts)]

    def trace_abs_sq(self, M):
        """|Tr|^2 = n scale^2, n by `abs_sq_rows` on the trace vector of M."""
        vec, scale = self.trace_vector(M)
        try:
            n = self.abs_sq_rows(vec[None, :])[0]
        except ValueError as err:
            raise ValueError("|Tr|^2 of %r is not rational" % (M,)) from err
        return int(n) * scale * scale


@lru_cache(maxsize=None)
def trace_engine(p):
    return _TraceEngine(p)


def trace_abs_sq(p, M):
    """|Tr(pi_p(M))|^2 as an exact rational; independent of the word used."""
    return trace_engine(p).trace_abs_sq(M)


# -- projective comparison keys --------------------------------------------

def projective_keys(mats, field):
    """Hashable keys of CycMat matrices of one shape up to a scalar of
    absolute value one, all at once.

    The key of U is the canonical form of conj(lead) * U, where lead is the
    first entry that is nonzero in `field`: a convolution of every entry
    vector with the reversed lead, mapped to field coordinates, with the
    integer content of those moved into the scale.  The root beta cancels
    and the scale enters squared.  Keys of U and V agree exactly when
    U = lam V with lam conj(lam) = 1, because at the lead entry
    conj(a) a = conj(b) b.  No field inverse is taken.  The lead entries,
    the convolutions and the field coordinates of all the matrices are
    three batched products, each behind an exact int64 bound that holds
    exactly when it holds for every matrix on its own.
    """
    if not mats:
        return []
    m, nrows, ncols = mats[0].m, mats[0].nrows, mats[0].ncols
    P = power_matrix(field, m)
    arr = np.stack([mat.arr for mat in mats]).reshape(len(mats), -1, m)
    nonzero = _coords(arr, P).any(axis=2)
    live = np.flatnonzero(nonzero.any(axis=1) & np.array([bool(mat.scale) for mat in mats]))
    keys = [("zero", nrows, ncols)] * len(mats)
    if not live.size:
        return keys
    rows = arr[live]
    lead = rows[np.arange(live.size), nonzero[live].argmax(axis=1)][:, -np.arange(m) % m]
    coords = _coords(_convolve(lead, rows), P)
    g = np.gcd.reduce(coords.reshape(live.size, -1), axis=1).tolist()
    for e, row, k in zip(live.tolist(), coords, g):
        keys[e] = (mats[e].scale ** 2 * k, nrows, ncols, (row // k).tobytes())
    return keys


def projective_key(mat, field):
    """`projective_keys` of the one matrix mat."""
    return projective_keys([mat], field)[0]
