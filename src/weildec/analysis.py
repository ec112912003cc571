"""Group-averaged character sums, even-level trace tables, projective
faithfulness checks, and semiclassical trace limits.

The character sum of a level counts irreducible summands: averaging
|Tr|^2 over the finite matrix group gives an integer whenever the module
is multiplicity-free, and the expected values factor over coprime
levels.  Full enumeration sweeps the group one lower-left entry c at a
time through the trace engine's batched rows.  Even moduli admit a census
shortcut: traces are evaluated on one representative per conjugacy class
and weighted by the class size.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .modgroup import (
    class_representatives,
    conj_profile,
    prime_factorization,
    sl2_enumerate,
    sl2_order,
)
from .cyclo import CycloElt
from .cycmat import CycMat, field_coords
from .weilrep import WeilRep, lift_genus1_cyc, projective_key, trace_engine


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

    @property
    def match(self):
        return self.value == self.expected


def expected_char_sum(p):
    """Irreducible-summand count: factors as n+1 per odd r^n, n per 2^n."""
    total = 1
    for r, n in prime_factorization(p):
        total *= n if r == 2 else n + 1
    return total


def _exact_2_power(m):
    n = 0
    while m % 2 == 0:
        m //= 2
        n += 1
    return n if m == 1 else None


def char_sum(p, method=None):
    """Average of |Tr|^2 over SL2 at the level's modulus, exactly."""
    engine = trace_engine(p)
    modulus = engine.m
    n2 = _exact_2_power(modulus)
    if method is None:
        method = (
            "census-representatives"
            if n2 is not None and modulus >= 16
            else "full-enumeration"
        )
    # sum the integer parts of |Tr|^2 = n * scale^2 per scale
    totals = defaultdict(int)
    if method == "census-representatives":
        if n2 is None or modulus > 64:
            raise ValueError("census mode needs a 2-power modulus up to 64")
        reps = class_representatives(n2)
        for rep in reps:
            n, scale = engine.trace_abs_sq_parts(rep.matrix)
            totals[scale] += rep.size * n
        order = sl2_order(modulus)
        count = len(reps)
    elif method == "full-enumeration":
        if modulus > 64:
            raise ValueError("full enumeration bounded at modulus 64")
        order = 0
        for c in range(modulus):
            for n, scale, weight in engine.column_abs_sq(c):
                totals[scale] += sum(map(mul, n.tolist(), weight.tolist()))
                order += int(weight.sum())
        count = None
    else:
        raise ValueError(f"unknown method {method!r}")
    value = sum(n * scale * scale for scale, n in totals.items()) / order
    return CharSumReport(p, modulus, value, expected_char_sum(p), method, count)


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


def _is_unit_scalar(mat, field):
    """True when mat is lam * I in the field with lam conj(lam) = 1: one
    `field_coords` product of the whole array, then one norm of the
    diagonal entry (the beta-root has absolute value one)."""
    coords = field_coords(mat.arr, field, mat.m)
    lead = coords[0, 0].copy()
    diag = np.arange(mat.nrows)
    coords[diag, diag] -= lead
    if coords.any():
        return False
    return CycloElt(field, [mat.scale * x for x in lead.tolist()]).norm_sq() == 1


def lemma_diag_check(n):
    """The level-2^(n-1) lift of diag(a, 1/a) is a unit scalar times the
    permutation matrix with entry (i, a*i) equal to 1, for every odd a
    mod 2^n.

    That holds exactly when lift @ perm^dagger, an index-map product that
    only moves entries, is a scalar matrix whose scalar has absolute
    value one."""
    p = 2 ** (n - 1)
    rep = WeilRep(p, 1)
    modulus = 2**n
    i = np.arange(p)
    for a in range(1, modulus, 2):
        lifted = lift_genus1_cyc(p, (a, 0, 0, pow(a, -1, modulus)))
        perm = CycMat.zero(rep.m, p, p)
        perm.arr[i, a * i % p, 0] = 1
        if not _is_unit_scalar(lifted @ perm.dagger(), rep.field):
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
            if t == 0:
                s = n
            else:
                s = 0
                while t % 2 == 0:
                    t //= 2
                    s += 1
                s = min(s, n)
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


def kernel_check(p):
    """Pairwise projective distinctness of the lift across SL2(Z/pZ)."""
    if p not in (3, 5, 7):
        raise ValueError("bounded to levels 3, 5, 7")
    field = WeilRep(p, 1).field
    keys = set()
    order = 0
    for M in sl2_enumerate(p):
        keys.add(projective_key(lift_genus1_cyc(p, M), field))
        order += 1
    return FaithfulnessReport(p, order, len(keys))


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
    if monomial and isinstance(monomial[0], int):
        monomial = (tuple(monomial),)
    monomial = tuple(tuple(pair) for pair in monomial)
    if len(monomial) != g:
        raise ValueError("one exponent pair per handle required")
    return monomial


def semiclassical_traces(p, g, monomials):
    """Normalized traces of quantized curve monomials against their
    classical limits (1 for the empty monomial, 0 otherwise)."""
    rep = WeilRep(p, g)
    rows = []
    for monomial in monomials:
        mono = _normalize_monomial(monomial, g)
        coords = []
        for x_exp, y_exp in mono:
            coords.extend([y_exp % p, x_exp % p])
        h = rep.heisenberg(coords, 0)
        trace = rep.schrodinger_cyc(h).trace_elt(rep.field)
        value = trace.as_fraction() / p**g
        target = 1 if all(x == 0 and y == 0 for x, y in mono) else 0
        rows.append(SemiclassicalRow(p, g, mono, value, target, abs(value - target)))
    return SemiclassicalReport(p, g, tuple(rows))


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
