"""Seeded certificate workloads for the weildec benchmark.

A workload is a list of certificates.  Each certificate is one call a
user of weildec would make (one CLI-sized check) together with an
expected value that does not come from the code path being timed.  A
certificate passes when the call returns and its result matches; it
fails when the call raises (``OverflowError`` included) or disagrees.

The seed fixes the order in which certificates run and every sampled
input.  The same seed always yields the same certificates.  Each unit of
certificates starts from cold caches, as a separate weildec process would,
so a certificate's time does not depend on the order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from weildec import analysis, decompose, modgroup, weilrep

WORKLOADS = ("charsum", "faithful", "certify")


@dataclass(frozen=True)
class Certificate:
    """One check: ``run`` performs the library calls and returns True when
    every result equals its independently known value."""

    name: str
    run: Callable[[], bool]


# -- independent expected values -------------------------------------------

def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def prime_sl2_order(p):
    """|SL2(Z/pZ)| for a prime p."""
    return p**3 - p


def fixed_vector_count(M, N):
    """#{v in (Z/N)^2 : Mv = v}, by direct count."""
    a, b, c, d = M
    return sum(
        1
        for x in range(N)
        for y in range(N)
        if ((a - 1) * x + b * y) % N == 0 and (c * x + (d - 1) * y) % N == 0
    )


def random_sl2(rng, N):
    """A uniform element of SL2(Z/NZ), by rejection."""
    while True:
        M = tuple(rng.randrange(N) for _ in range(4))
        if (M[0] * M[3] - M[1] * M[2]) % N == 1:
            return M


# -- certificates ----------------------------------------------------------

def char_sum_cert(level):
    def run():
        report = analysis.char_sum(level)
        return report.value == analysis.expected_char_sum(level)

    return Certificate(f"char_sum({level})", run)


def oracle_cert(level, sample):
    """At odd level N, |Tr pi(M)|^2 equals the number of vectors M fixes."""

    def run():
        return all(
            weilrep.trace_abs_sq(level, M) == fixed_vector_count(M, level)
            for M in sample
        )

    return Certificate(f"fixed_point_oracle({level}, n={len(sample)})", run)


def kernel_cert(p):
    def run():
        report = analysis.kernel_check(p)
        return report.injective and report.group_order == prime_sl2_order(p)

    return Certificate(f"kernel_check({p})", run)


def lemma_diag_cert(n):
    return Certificate(f"lemma_diag_check({n})", lambda: analysis.lemma_diag_check(n))


def word_independence_cert(cases):
    """For each (level, M, word seed): the lift of M by the default word
    and by a seeded random word agree up to a scalar of absolute value one."""

    def run():
        for p, M, word_seed in cases:
            default = weilrep.lift_genus1(p, M)
            other = weilrep.lift_genus1(p, M, random.Random(word_seed))
            lam = default.equal_up_to_scalar(other)
            if lam is None or lam.norm_sq() != 1:
                return False
        return True

    levels = sorted({p for p, _M, _seed in cases})
    counts = ", ".join(f"{p}: n={sum(c[0] == p for c in cases)}" for p in levels)
    return Certificate(f"word_independence({counts})", run)


def commutant_cert(p, g):
    """Commutant dimension, pinned from both sides, against sigma0 and the
    decomposition tree."""

    def run():
        expected = divisor_count(p if p % 2 else p // 2)
        dim = decompose.commutant_dimension(p, g)
        leaves = decompose.decomposition_tree(p, g).factor_count
        return dim == expected and leaves == expected

    return Certificate(f"commutant_dimension({p}, g={g})", run)


def crt_cert(a, b, g):
    return Certificate(f"crt_check({a}, {b}, g={g})",
                       lambda: decompose.crt_check(a, b, g).passed)


def tower_cert(r, n, g):
    return Certificate(f"tower_check({r}, {n}, g={g})",
                       lambda: decompose.tower_check(r, n, g).passed)


def egorov_cert(p, g):
    return Certificate(f"egorov_verify({p}, g={g})",
                       lambda: all(rep.ok for rep in decompose.egorov_verify(p, g)))


def census_cert(n):
    return Certificate(f"census({n})",
                       lambda: all(row.match for row in modgroup.census(n)))


# -- workloads -------------------------------------------------------------

def _charsum(rng, small):
    """Trace engine both ways: cold cache builds (census mode at level 16,
    full enumeration at odd level 15) and per-element work over the
    5.7k-9.2k elements of levels 10 and 12 (warm lookups, field
    conversion, Fraction norm_sq).  The oracle runs on the level-15 engine
    its char_sum just built, so it times warm lookups only.  Level 15
    stands in for level 21: a cold char_sum(21) alone takes 14-18 s on a
    2-core machine, and two rounds must fit in one 35 s run."""
    build_levels, element_levels, oracle_level, sample = (
        ((8,), (6,), 3, 4) if small else ((16,), (12, 10), 15, 48)
    )
    oracle_inputs = [random_sl2(rng, oracle_level) for _ in range(sample)]
    units = [[char_sum_cert(level)] for level in build_levels + element_levels]
    units.append([char_sum_cert(oracle_level),
                  oracle_cert(oracle_level, oracle_inputs)])
    return units


def _faithful(rng, small):
    """The exact-field path: lifts converted to field matrices, projective
    keys and equal_up_to_scalar, with the trace engine never called.  The
    seeded share (random-word lifts) stays small and at low levels.  A
    level-7 case costs about six level-9 cases, so level 7 gets one case
    and level 9 six.  Both levels form one certificate, which stays well
    below kernel_check(5): with three certificates per round the middle
    one (task_p50_s) is kernel_check(5) for every seed.  kernel_check(7)
    is left out: at 10-12 s it allowed two rounds per run, too few samples
    of the 1 s middle certificate to hold task_p50_s within its bound;
    kernel_check(5) runs the same path."""
    if small:
        kernels, diag, words = (3,), (3,), ((3, 1), (5, 1))
    else:
        kernels, diag, words = (5,), (5,), ((7, 1), (9, 6))
    units = [[kernel_cert(p)] for p in kernels]
    units += [[lemma_diag_cert(n)] for n in diag]
    cases = [(p, random_sl2(rng, p), rng.randrange(2**32))
             for p, count in words for _ in range(count)]
    units.append([word_independence_cert(cases)])
    return units


def _certify(rng, small):
    """About 45 short certificates: mod-q rank and projector checks,
    genus-2 Kronecker products and the census; Fraction cyclotomic
    arithmetic and the trace engine stay nearly idle."""
    if small:
        genus1, genus2 = range(2, 5), range(2, 3)
        crt = ((2, 3, 1),)
        tower = ((2, 1, 1),)
        egorov_ps, census_ns = range(2, 4), range(2, 4)
    else:
        genus1, genus2 = range(2, 17), range(2, 5)
        crt = ((3, 5, 1), (2, 3, 1), (4, 3, 1), (8, 3, 1), (2, 3, 2))
        tower = ((2, 1, 1), (2, 2, 1), (3, 0, 1), (3, 1, 1), (2, 1, 2))
        egorov_ps, census_ns = range(2, 8), range(2, 7)
    certs = [commutant_cert(p, 1) for p in genus1]
    certs += [commutant_cert(p, 2) for p in genus2]
    certs += [crt_cert(*case) for case in crt]
    certs += [tower_cert(*case) for case in tower]
    certs += [egorov_cert(p, g) for g in (1, 2) for p in egorov_ps]
    certs += [census_cert(n) for n in census_ns]
    return [[cert] for cert in certs]


_BUILDERS = {"charsum": _charsum, "faithful": _faithful, "certify": _certify}


def build(workload, seed, small=False):
    """The units of one round, in the seeded order.

    A unit is what one weildec process runs: it starts from cold caches.
    Every certificate is a unit of its own, except an oracle that checks
    the trace engine its char_sum just built.  The seed shuffles units,
    never the certificates inside one.
    """
    rng = random.Random(seed)
    units = _BUILDERS[workload](rng, small)
    rng.shuffle(units)
    return units
