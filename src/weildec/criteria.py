"""The acceptance criteria: one ordered registry of the checks that
certify the paper's results.

Each entry is a number, a name and a check that returns ``(ok, detail)``;
``line`` formats the entry's PASS/FAIL line.  ``weildec verify`` and
``tests/test_acceptance.py`` both run this registry.  Exact-arithmetic
checks use exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .analysis import (
    char_sum,
    char_sum_multiplicativity,
    kernel_check,
    semiclassical_traces,
    trace_table,
)
from .cycmat import CycMat
from .decompose import (
    _cyc_equal,
    commutant_dimension,
    crt_check,
    decomposition_tree,
    egorov_verify,
    omega_family_report,
    schrodinger_commutant_dimension,
    su2_so3_labels,
    tower_check,
)
from .modgroup import (
    census,
    class_representatives,
    class_size_bruteforce,
    count_quadratic_solutions,
    divisors,
    expected_quadratic_solutions,
    hensel_lift_count,
    orbit_census,
    sigma0,
    sl2_enumerate,
)
from .weilrep import WeilRep, trace_abs_sq


class Criterion(NamedTuple):
    number: int
    name: str
    check: Callable[[], tuple]


def line(criterion, ok, detail):
    """The criterion's report line; the detail is shown only on FAIL."""
    verdict = "PASS" if ok else "FAIL"
    text = f"criterion {criterion.number}: {criterion.name}: {verdict}"
    if detail and not ok:
        text += f"  ({detail})"
    return text


def criterion_01_group_order():
    ok = all(
        sum(1 for _ in sl2_enumerate(2**n)) == 3 * 2 ** (3 * n - 2)
        for n in range(1, 6)
    )
    return ok, ""


def criterion_02_hensel_lifting():
    ok = True
    for n in range(1, 4):
        N = 2**n
        for M in sl2_enumerate(N):
            if hensel_lift_count(M, N) != 8:
                ok = False
    return ok, ""


def criterion_03_census():
    bad = []
    for n in range(2, 9):
        for row in census(n):
            if not row.match:
                bad.append((n, row))
    for n in range(2, 4):
        for rep in class_representatives(n):
            if class_size_bruteforce(rep.matrix, n) != rep.size:
                bad.append((n, rep))
    return not bad, repr(bad[:3])


def criterion_04_counting_lemmas():
    bad = []
    for n in range(1, 7):
        for A in (1, 3, 5, 7):
            for D in (1, 3, 5, 7):
                for C in range(8):
                    for B in (1, 3, 5, 7):
                        if count_quadratic_solutions(
                            A, B, C, D, n
                        ) != expected_quadratic_solutions(A, B, C, D, n):
                            bad.append((A, B, C, D, n, False))
                    for B in range(8):
                        if count_quadratic_solutions(
                            A, B, C, D, n, even_cross=True
                        ) != expected_quadratic_solutions(
                            A, B, C, D, n, even_cross=True
                        ):
                            bad.append((A, B, C, D, n, True))
    return not bad, repr(bad[:3])


def criterion_05_unitarity_and_hopf():
    bad = []
    for g in (1, 2):
        for p in range(2, 10):
            rep = WeilRep(p, g)
            ident = CycMat.identity(rep.m, p**g)
            for tag in rep.tags():
                U = rep.generator_cyc(tag)
                if not _cyc_equal(U @ U.dagger(), ident, rep.field):
                    bad.append((p, g, tag, "unitary"))
            H = rep.hopf_cyc()
            Hinv = rep.hopf_inverse_cyc()
            for i in range(1, g + 1):
                X = rep.generator_cyc(("X", i))
                Y = rep.generator_cyc(("Y", i))
                if not _cyc_equal((H @ X) @ Hinv, Y, rep.field):
                    bad.append((p, g, i, "hopf"))
    return not bad, repr(bad[:3])


def criterion_06_egorov():
    bad = []
    for g in (1, 2):
        for p in range(2, 8):
            for rep in egorov_verify(p, g):
                if not rep.ok:
                    bad.append((p, g, rep.tag))
    return not bad, repr(bad[:3])


def criterion_07_schrodinger_irreducibility():
    bad = [
        (p, g)
        for g in (1, 2)
        for p in range(2, 8)
        if schrodinger_commutant_dimension(p, g) != 1
    ]
    return not bad, repr(bad)


def criterion_08_character_sums():
    bad = []
    # 2-power moduli 2^n, n = 2..5 (levels 2^(n-1)): value n - 1
    for n in range(2, 6):
        report = char_sum(2 ** (n - 1))
        if report.modulus != 2**n or report.value != n - 1:
            bad.append((2**n, report.value))
    # odd prime-power moduli: value n + 1
    for (r, n) in ((3, 1), (5, 1), (7, 1), (3, 2)):
        report = char_sum(r**n)
        if report.value != n + 1:
            bad.append((r**n, report.value))
    # census and full enumeration agree for 2-power moduli <= 8
    for p in (2, 4):
        full = char_sum(p, method="full-enumeration")
        cen = char_sum(p, method="census-representatives")
        if full.value != cen.value:
            bad.append((p, "methods"))
    return not bad, repr(bad)


def criterion_09_multiplicativity():
    pairs = ((3, 5), (3, 7), (2, 3), (2, 5), (2, 7), (4, 3))
    bad = [pair for pair in pairs if not char_sum_multiplicativity(*pair)]
    return not bad, repr(bad)


def criterion_10_trace_table():
    bad = []
    for n in range(2, 5):
        report = trace_table(n)
        if not report.all_match or not report.lemma_diag_ok:
            bad.append(n)
        level = 2 ** (n - 1)
        if trace_abs_sq(level, (1, 0, 0, 1)) != Fraction(2 ** (2 * n - 2)):
            bad.append((n, "identity"))
    return not bad, repr(bad)


def criterion_11_decomposition():
    bad = []
    cases = [(p, 1) for p in (2, 3, 4, 5, 6, 7, 8, 9, 12, 15)]
    cases += [(p, 2) for p in (2, 3, 4)]
    for p, g in cases:
        expect = sigma0(p if p % 2 else p // 2)
        dim = commutant_dimension(p, g)
        leaves = decomposition_tree(p, g).factor_count
        if not (dim == expect and leaves == expect):
            bad.append((p, g, dim, leaves, expect))
    return not bad, repr(bad)


def criterion_12_crt_and_tower():
    bad = []
    for a, b in ((3, 5), (2, 3), (4, 3), (8, 3)):
        if not crt_check(a, b).passed:
            bad.append(("crt", a, b))
    if not crt_check(2, 3, g=2).passed:
        bad.append(("crt", 2, 3, "g2"))
    for r, n in ((2, 1), (2, 2), (3, 0), (3, 1)):
        if not tower_check(r, n).passed:
            bad.append(("tower", r, n))
    if not tower_check(2, 1, g=2).passed:
        bad.append(("tower", 2, 1, "g2"))
    return not bad, repr(bad)


def criterion_13_orbit_census():
    bad = []
    for N in range(2, 13):
        count, orbits = orbit_census(N, 1)
        deltas = sorted(d for d, _ in orbits)
        if count != sigma0(N) or deltas != divisors(N):
            bad.append((N, 1))
    for N in range(2, 5):
        count, orbits = orbit_census(N, 2)
        deltas = sorted(d for d, _ in orbits)
        if count != sigma0(N) or deltas != divisors(N):
            bad.append((N, 2))
    return not bad, repr(bad)


def criterion_14_omega_generators():
    bad = []
    for p in (4, 8, 9):
        report = omega_family_report(p)
        if not (
            report.all_commute
            and report.independent
            and len(report.rows) == sigma0(p)
        ):
            bad.append(
                (
                    p,
                    [row.delta for row in report.rows if not row.commutes],
                )
            )
    return not bad, repr(bad)


def criterion_15_label_audit():
    bad = [p for p in range(2, 31) if not su2_so3_labels(p).match]
    return not bad, repr(bad)


def criterion_16_faithfulness():
    bad = [p for p in (3, 5, 7) if not kernel_check(p).injective]
    return not bad, repr(bad)


def criterion_17_semiclassical_limits():
    bad = []
    monomials = [(0, 0)] + [
        (a, b) for a in range(5) for b in range(5) if 0 < a + b <= 4
    ]
    for p in range(3, 17):
        report = semiclassical_traces(p, 1, monomials)
        for row in report.rows:
            (a, b), = row.monomial
            if a == b == 0:
                if row.value != 1:
                    bad.append((p, row.monomial, row.value))
            elif p > a + b and row.value != 0:
                bad.append((p, row.monomial, row.value))
    return not bad, repr(bad[:3])


REGISTRY = (
    Criterion(1, "group order", criterion_01_group_order),
    Criterion(2, "Hensel lifting", criterion_02_hensel_lifting),
    Criterion(3, "conjugacy census", criterion_03_census),
    Criterion(4, "counting lemmas", criterion_04_counting_lemmas),
    Criterion(5, "unitarity and Hopf duality", criterion_05_unitarity_and_hopf),
    Criterion(6, "Egorov lattice maps", criterion_06_egorov),
    Criterion(7, "Schrodinger irreducibility",
              criterion_07_schrodinger_irreducibility),
    Criterion(8, "character sums", criterion_08_character_sums),
    Criterion(9, "character sum multiplicativity",
              criterion_09_multiplicativity),
    Criterion(10, "even-level trace table", criterion_10_trace_table),
    Criterion(11, "commutant dimension vs tree", criterion_11_decomposition),
    Criterion(12, "CRT and tower intertwiners", criterion_12_crt_and_tower),
    Criterion(13, "symplectic orbit census", criterion_13_orbit_census),
    Criterion(14, "Omega generator family", criterion_14_omega_generators),
    Criterion(15, "odd-parity label audit", criterion_15_label_audit),
    Criterion(16, "projective faithfulness", criterion_16_faithfulness),
    Criterion(17, "semiclassical limits", criterion_17_semiclassical_limits),
)
