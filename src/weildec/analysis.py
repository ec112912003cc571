"""Group-averaged character sums, even-level trace tables, projective
faithfulness checks, and semiclassical trace limits.

The character sum of a level counts irreducible summands: averaging
|Tr|^2 over the finite matrix group gives an integer whenever the module
is multiplicity-free, and the expected values factor over coprime
levels.  |Tr|^2 takes the same values on every lower-left entry c of one
orbit c W, W = {+-t^2 : t a unit} (`modgroup.column_orbits`), so full
enumeration sweeps one column per orbit through the trace engine's
batched rows, weighted by the orbit's size, at every modulus up to 128.
2-power moduli admit a census shortcut: traces are evaluated on one
representative per conjugacy class, each moved into its orbit's least
column, all in one batch, and weighted by the class size.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from operator import mul

import numpy as np

from .modgroup import (
    _v2,
    class_representatives,
    column_orbits,
    conj_profile,
    prime_factorization,
    sl2_enumerate,
    sl2_order,
)
from .cyclo import field_for_level
from .cycmat import _abs_sq, _chunks, _coords, _normalise_each, field_coords
from .weilrep import (
    WeilRep,
    _lift_images,
    projective_keys,
    trace_engine,
    word_products,
)


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------

@dataclass
class CharSumReport:
    level: int
    modulus: int
    value: Fraction
    expected: int
    method: str
    class_count: int | None
    columns: int

    @property
    def match(self):
        return self.value == self.expected


def expected_char_sum(p):
    """Irreducible-summand count: factors as n+1 per odd r^n, n per 2^n."""
    total = 1
    for r, n in prime_factorization(p):
        total *= n if r == 2 else n + 1
    return total


def _least_columns(Ms, m):
    """The elements Ms of SL2(Z/m), each moved into its orbit's least column
    (`column_orbits`) with its trace mod m and its |Tr|^2 kept: conjugated
    by diag(t, 1/t), (a, b, c, d) -> (a, b t^2, c t^-2, d), then, where
    sign = -1, inverted, -> (d, -b, -c, a).  Either way the new lower-left
    entry is sign c t^-2 = rep[c]."""
    a, b, c, d = np.asarray(Ms, dtype=np.int64).reshape(-1, 4).T % m
    rep, t, sign = column_orbits(m)
    flip = sign[c] < 0
    return np.stack([np.where(flip, d, a), sign[c] * b * t[c] ** 2 % m, rep[c],
                     np.where(flip, a, d)], axis=1)


def char_sum(p, method=None):
    """Average of |Tr|^2 over SL2 at the level's modulus, exactly.

    Column-orbit lemma: for a unit t, conjugation by diag(t, 1/t) maps the
    elements of lower-left entry c one-to-one onto those of c t^-2, and
    inversion maps them onto those of -c.  pi is projective unitary, so
    |Tr pi(g M g^-1)|^2 = |Tr pi(M)|^2 = |Tr pi(M^-1)|^2, and |Tr|^2 takes
    the same multiset of values on every column of the orbit c W,
    W = {+-t^2 : t a unit} (`modgroup.column_orbits`).

    "full-enumeration" (moduli up to 128) takes one `column_abs_sq` block
    per orbit, at its least column, weighted by the orbit's size;
    "census-representatives" (the default for 2-power moduli from 16 to
    64) moves every class representative into its orbit's least column
    (`_least_columns`), takes their trace vectors in one `trace_vectors`
    call and their |Tr|^2 in one `abs_sq_rows` call.  Both gather in
    chunks of at most `cycmat._GATHER_ENTRIES` int64 entries, and every
    column swept passes the bound and the rationality check.  The report's
    `columns` counts the lower-left entries swept.
    """
    engine = trace_engine(p)
    modulus = engine.m
    n2 = _v2(modulus)
    two_power = modulus == 2**n2
    if method is None:
        method = (
            "census-representatives"
            if two_power and 16 <= modulus <= 64
            else "full-enumeration"
        )
    # sum the integer parts of |Tr|^2 = n * scale^2 per scale
    totals = defaultdict(int)
    if method == "census-representatives":
        if not two_power or modulus > 64:
            raise ValueError("census mode needs a 2-power modulus up to 64")
        reps = class_representatives(n2)
        moved = _least_columns([rep.matrix for rep in reps], modulus)
        rows, scales = engine.trace_vectors(moved)
        for rep, n, scale in zip(reps, engine.abs_sq_rows(rows).tolist(), scales):
            totals[scale] += rep.size * n
        order = sl2_order(modulus)
        count, columns = len(reps), np.unique(moved[:, 2]).size
    elif method == "full-enumeration":
        if modulus > 128:
            raise ValueError("full enumeration bounded at modulus 128")
        cols, sizes = np.unique(column_orbits(modulus)[0], return_counts=True)
        order = 0
        for c, size in zip(cols.tolist(), sizes.tolist()):
            n, scale, weight = engine.column_abs_sq(c)
            totals[scale] += size * sum(map(mul, n.tolist(), weight.tolist()))
            order += size * int(weight.sum())
        count, columns = None, cols.size
    else:
        raise ValueError(f"unknown method {method!r}")
    value = sum(n * scale * scale for scale, n in totals.items()) / order
    return CharSumReport(p, modulus, value, expected_char_sum(p), method, count, columns)


def char_sum_multiplicativity(a, b):
    """True when the character sum of the product level splits as a product."""
    sa = char_sum(a)
    sb = char_sum(b)
    sab = char_sum(a * b)
    return sab.value == sa.value * sb.value


# ---------------------------------------------------------------------------
# even-level trace table
# ---------------------------------------------------------------------------

@dataclass
class TraceTableRow:
    n: int
    l: int
    x_class: str
    s: int
    measured: Fraction
    expected: int | None
    match: bool


@dataclass
class TraceTableReport:
    n: int
    rows: tuple
    lemma_diag_ok: bool

    @property
    def all_match(self):
        return all(row.match for row in self.rows)


def expected_trace_sq(n, l, x_class, s):
    """Seven-case closed form for |Tr|^2 at level 2^(n-1), keyed by (l,x,s).

    Returns None for parameter combinations the closed form leaves
    ambiguous; those rows are flagged rather than failed.
    """
    if l == n and x_class == "1":
        return 2 ** (2 * n - 2)
    if l == n - 1 and x_class == "1":
        return 0
    if x_class == "-1" and 2 <= l <= n:
        return 4
    if x_class == "h+1" and 3 <= l <= n:
        return 2 ** (2 * l - 2)
    if x_class == "h-1" and 3 <= l <= n:
        return 4
    if l == 0:
        if 0 <= s <= n - 2:
            return 2**s
        if s == n - 1:
            return 0
        return 2 ** (n - 1)
    if 1 <= l <= n - 2 and x_class == "1":
        if 2 * l <= s <= n + l - 2:
            return 2**s
        if s == n + l - 1:
            return 0
        if s >= n + l:
            return 2 ** (n + l - 1)
    return None


def _unit_monomials(products, nets, a, norm):
    """True when every lift gamma^|nets[k]| * products[k] is lam_k times the
    permutation matrix with entry (i, a[k] i) equal to 1, with
    lam_k conj(lam_k) = 1.

    The Gauss power is a nonzero scalar, so the lift is such a monomial
    exactly when the product is one, with lam_k = gamma^|n| scale lam'_k
    for its entry lam'_k, and gamma_+ gamma_- = norm (`word_products`)
    makes the condition scale^2 norm^|n| |lam'_k|^2 = 1.

    Lemma: at the modulus m = 2^n, A^(m/2) = -1 and 1, A, ..., A^(m/2 - 1)
    are a basis of Q(A), so the entry vector v has the coordinates
    v[:m/2] - v[m/2:] in it, v @ P with P = [I; -I], and v is zero exactly
    when its two halves agree.  So the check needs no cyclotomic field:
    every other entry has equal halves, the entries (i, a[k] i) of each
    product have equal coordinates, and |lam'_k|^2 comes off `_abs_sq`
    under P (|P|_1 = 2) of one normalised entry per product."""
    p, m = products[0].nrows, products[0].m
    i = np.arange(p)
    on = []
    for product, cols in zip(products, a[:, None] * i % p):
        arr = product.arr
        rest = (arr[..., :m // 2] != arr[..., m // 2:]).any(axis=-1)
        rest[i, cols] = False
        if rest.any():
            return False
        on.append(arr[i, cols])
    on = np.array(on)
    unit = np.eye(m // 2, dtype=np.int64)
    P = np.concatenate([unit, -unit])
    coords = _coords(on, P)
    if (coords != coords[:, :1]).any():
        return False
    rows, g = _normalise_each(on[:, 0])
    sq = _abs_sq(rows, P, 2)
    return not sq[:, 1:].any() and all(
        product.scale ** 2 * norm ** abs(n) * k * k * x == 1
        for product, n, k, x in zip(products, nets, g, sq[:, 0].tolist()))


def lemma_diag_check(n):
    """The level-2^(n-1) lift of diag(a, 1/a) is a unit scalar times the
    permutation matrix with entry (i, a*i) equal to 1, for every odd a
    mod 2^n: then lift @ perm^dagger is a scalar matrix whose scalar has
    absolute value one.

    The check reads the word products (`word_products`), never the lifts:
    lift = gamma_sign(n)^|n| * product, and since gamma_+ gamma_- =
    |gamma_+-|^2 = norm, the lift's scalar has absolute value one exactly
    when the product is monomial with scale^2 norm^|n| |lam'|^2 = 1
    (`_unit_monomials`), in integers: at m = 2^n an entry is zero exactly
    when its two halves agree.  The odd a go in the chunks `word_products`
    gathers at once, each taken by one call and checked by one
    `_unit_monomials` call, so no more products are held than one gather
    takes."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = 2 ** (n - 1)
    norm = _lift_images(p)["norm"]
    modulus = 2**n
    odd = np.arange(1, modulus, 2)
    for part in _chunks(odd.size, p ** 3 * modulus):
        a = odd[part]
        products, nets = word_products(p, [(x, 0, 0, pow(x, -1, modulus)) for x in a.tolist()])
        if not _unit_monomials(products, nets, a, norm):
            return False
    return True


def trace_table(n):
    """Measured versus closed-form |Tr|^2 on every class at modulus 2^n."""
    if n > 5:
        raise ValueError("table bounded at n=5")
    p = 2 ** (n - 1)
    engine = trace_engine(p)
    rows = []
    for rep in class_representatives(n):
        prof = conj_profile(rep.matrix, n)
        s = prof.s
        if prof.l == 0:
            # the closed form keys non-residual classes by the 2-adic
            # distance of the trace from 2, not from 0
            t = (rep.matrix[0] + rep.matrix[3] - 2) % 2**n
            s = n if t == 0 else min(_v2(t), n)
        measured = engine.trace_abs_sq(rep.matrix)
        expected = expected_trace_sq(n, prof.l, prof.x_class, s)
        match = expected is not None and measured == expected
        rows.append(
            TraceTableRow(
                n, prof.l, prof.x_class, prof.s, measured, expected, match
            )
        )
    return TraceTableReport(n, tuple(rows), lemma_diag_check(n))


# ---------------------------------------------------------------------------
# projective faithfulness at small odd levels
# ---------------------------------------------------------------------------

@dataclass
class FaithfulnessReport:
    p: int
    group_order: int
    distinct_classes: int

    @property
    def injective(self):
        return self.group_order == self.distinct_classes


def _lift_keys(products, nets, field, norm):
    """The `projective_keys` of the lifts gamma^|n| U of the word products
    U (`word_products`), without a Gauss convolution: with lead the lead
    entry of U, conj(gamma lead) gamma U = |gamma|^2 conj(lead) U, and
    gamma_+ gamma_- = |gamma_+-|^2 = norm, so the lift's key is U's with
    its scale^2 slot times norm^|n|."""
    return [key if key[0] == "zero" else (key[0] * norm ** abs(n),) + key[1:]
            for key, n in zip(projective_keys(products, field), nets)]


def kernel_check(p):
    """Pairwise projective distinctness of the lift across SL2(Z/pZ): the
    elements go in chunks, one `word_products` and one `_lift_keys` call
    each.  The lifts' keys are read off the word products, with no Gauss
    convolution: since gamma_+ gamma_- = |gamma_+-|^2 = norm, the key of
    gamma^|n| U is U's with norm^|n| in its scale^2 slot."""
    if p not in (3, 5, 7):
        raise ValueError("bounded to levels 3, 5, 7")
    field = field_for_level(p)
    norm = _lift_images(p)["norm"]
    elements = list(sl2_enumerate(p))
    keys = set()
    for part in _chunks(len(elements), p * p * field.degree):
        keys.update(_lift_keys(*word_products(p, elements[part]), field, norm))
    return FaithfulnessReport(p, len(elements), len(keys))


# ---------------------------------------------------------------------------
# semiclassical traces
# ---------------------------------------------------------------------------

@dataclass
class SemiclassicalRow:
    level: int
    genus: int
    monomial: tuple  # ((x_exp, y_exp), ...) per handle
    value: Fraction
    target: int
    gap: Fraction


@dataclass
class SemiclassicalReport:
    level: int
    genus: int
    rows: tuple


def _normalize_monomial(monomial, g):
    if monomial and isinstance(monomial[0], Integral):
        monomial = (tuple(monomial),)
    monomial = tuple(tuple(pair) for pair in monomial)
    if len(monomial) != g:
        raise ValueError("one exponent pair per handle required")
    return monomial


def semiclassical_traces(p, g, monomials):
    """Normalized traces of quantized curve monomials against their
    classical limits (1 for the empty monomial, 0 otherwise).

    The monomial with exponent pairs (x_i, y_i) is W(v), v = (y_1, x_1,
    ..., y_g, x_g) mod p, and one `schrodinger_map` call gives every W(v)
    as an index map: Tr W(v) sums A^exps over the fixed columns (rows ==
    a), one `np.bincount` of entry vectors mapped by one `field_coords`.
    Raises ValueError if an exponent is not an integer or a trace is not
    rational."""
    rep = WeilRep(p, g)
    monos = [_normalize_monomial(monomial, g) for monomial in monomials]
    vecs = np.array([[e % p for x_exp, y_exp in mono for e in (y_exp, x_exp)]
                     for mono in monos]).reshape(-1, 2 * g)
    rows, exps = rep.schrodinger_map(vecs.T)
    fixed = rows == np.arange(rep.dim)
    keys = (np.arange(len(monos))[:, None] * rep.m + exps)[fixed]
    traces = field_coords(np.bincount(keys, minlength=len(monos) * rep.m).reshape(-1, rep.m),
                          rep.field, rep.m)
    irrational = traces[:, 1:].any(axis=1)
    if irrational.any():
        raise ValueError("trace of %r is not rational" % (monos[int(irrational.argmax())],))
    out = []
    for mono, trace in zip(monos, traces[:, 0].tolist()):
        value = Fraction(trace, p**g)
        target = 1 if all(x == 0 and y == 0 for x, y in mono) else 0
        out.append(SemiclassicalRow(p, g, mono, value, target, abs(value - target)))
    return SemiclassicalReport(p, g, tuple(out))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def charsum_json(report):
    payload = {
        "level": report.level,
        "modulus": report.modulus,
        "value": f"{report.value.numerator}/{report.value.denominator}",
        "expected": report.expected,
        "method": report.method,
        "class_count": report.class_count,
        "columns": report.columns,
        "match": report.match,
    }
    return json.dumps(payload, separators=(",", ":"))


def semiclassical_csv(report):
    lines = ["level,genus,monomial,value,target,gap"]
    for row in report.rows:
        mono = ";".join(f"{x}.{y}" for x, y in row.monomial)
        lines.append(
            f"{row.level},{row.genus},{mono},{row.value},{row.target},{row.gap}"
        )
    return "\n".join(lines) + "\n"
