"""Finite symplectic groups over Z/NZ.

SL2 enumeration and word decomposition into the S/T generators, the
conjugacy-class machinery for SL2(Z/2^nZ) (profile invariants, explicit
class representatives with their sizes, the (l, x, s) census), the two
quadratic-congruence counting lemmas, lifting counts mod 2^(n+1), the one
lattice-orbit engine (orbits, transported phases and holonomy of index
maps), the symplectic lattice (Z/NZ)^(2g) as one layer (its vectors, and
the images of every vector under a stack of integer matrices), and the
orbit census of that lattice under the transvections.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import gcd

import numpy as np

# ---------------------------------------------------------------------------
# basic SL2 arithmetic on (a, b, c, d) tuples
# ---------------------------------------------------------------------------

IDENTITY = (1, 0, 0, 1)
S_MAT = (0, 1, -1, 0)


def mat_mul(M, P, N):
    a, b, c, d = M
    e, f, g, h = P
    return ((a * e + b * g) % N, (a * f + b * h) % N,
            (c * e + d * g) % N, (c * f + d * h) % N)


def mat_inv(M, N):
    a, b, c, d = M
    return (d % N, (-b) % N, (-c) % N, a % N)


def mat_neg(M, N):
    return tuple((-x) % N for x in M)


def t_power(k, N):
    return (1, k % N, 0, 1)


def det(M, N):
    a, b, c, d = M
    return (a * d - b * c) % N


def sl2_order(N):
    out = N ** 3
    for p, _ in prime_factorization(N):
        out -= out // (p * p)
    return out


# Largest modulus `sl2_enumerate` streams: SL2(Z/64Z) has 196608 elements.
SL2_ENUMERATE_MAX = 64


def sl2_enumerate(N):
    """Stream every element of SL2(Z/NZ) exactly once."""
    if N > SL2_ENUMERATE_MAX:
        raise ValueError("modulus %d exceeds enumeration bound %d"
                         % (N, SL2_ENUMERATE_MAX))
    if N == 1:
        yield (0, 0, 0, 0)
        return
    units_inv = {a: pow(a, -1, N) for a in range(N) if gcd(a, N) == 1}
    for a in range(N):
        inv_a = units_inv.get(a)
        if inv_a is not None:
            for b in range(N):
                for c in range(N):
                    yield (a, b, c, (inv_a * (1 + b * c)) % N)
        else:
            g = gcd(a, N)
            for b in range(N):
                for c in range(N):
                    r = (1 + b * c) % N
                    if r % g:
                        continue
                    # solve a*d = r (mod N): d0 mod N/g, g solutions
                    ag, rg, Ng = a // g, r // g, N // g
                    d0 = (rg * pow(ag, -1, Ng)) % Ng
                    for k in range(g):
                        yield (a, b, c, d0 + k * Ng)


def sl2_column(N, c):
    """int64 columns (a, b, d) of every element of SL2(Z/NZ) with lower-left
    entry c, in O(N^2) memory.

    bc = ad - 1 is solvable exactly when g = gcd(c, N) divides ad - 1, and
    then b = b0 + k N/g for k < g.  Every intermediate is below N^3.
    """
    g = gcd(c, N)
    Ng = N // g
    a, d = np.divmod(np.arange(N * N, dtype=np.int64), N)  # every (a, d)
    r = (a * d - 1) % N
    keep = r % g == 0
    a, d = a[keep], d[keep]
    b0 = (r[keep] // g) * pow(c // g, -1, Ng) % Ng
    b = (b0[:, None] + Ng * np.arange(g)).ravel()
    return np.repeat(a, g), b, np.repeat(d, g)


# ---------------------------------------------------------------------------
# words in the generators
# ---------------------------------------------------------------------------

def eval_word(word, N):
    """word: list of tokens ('S', e) with e = +-1 or ('T', k)."""
    cur = IDENTITY
    for tok in word:
        kind, val = tok
        if kind == "S":
            g = S_MAT if val == 1 else mat_inv(S_MAT, N)
        elif kind == "T":
            g = t_power(val, N)
        else:
            raise ValueError("bad token %r" % (tok,))
        cur = mat_mul(cur, tuple(x % N for x in g), N)
    return cur


def _rep(x, N):
    """Representative of x mod N in (-N/2, N/2]."""
    x %= N
    if x > N // 2:
        x -= N
    return x


def word_decompose(M, N, rng=None):
    """A word in S and T-powers evaluating to M in SL2(Z/NZ).

    Deterministic by default.  Passing an `rng` prepends a random prefix
    (and compensates), producing a different but still valid word.
    """
    if det(M, N) != 1:
        raise ValueError("matrix %r is not in SL2(Z/%d)" % (M, N))
    word = []
    cur = tuple(x % N for x in M)
    if rng is not None:
        k = rng.randrange(N)
        word.append(("T", k))
        word.append(("S", 1))
        # cur <- (T^k S)^{-1} M
        pre = mat_mul(t_power(k, N), S_MAT, N)
        cur = mat_mul(mat_inv(pre, N), cur, N)

    # Euclid on the first column via T-shears and S-swaps
    guard = 0
    while cur[2] % N != 0:
        guard += 1
        if guard > 4 * N + 16:
            raise RuntimeError("word decomposition failed to terminate")
        a, c = _rep(cur[0], N), _rep(cur[2], N)
        if a != 0 and c != 0:
            q = round(a / c)
            if q != 0:
                word.append(("T", q % N))
                cur = mat_mul(mat_inv(t_power(q, N), N), cur, N)
                if cur[2] % N == 0:
                    break
        word.append(("S", 1))
        cur = mat_mul(mat_inv(S_MAT, N), cur, N)

    a = cur[0] % N
    if a != 1:
        if a == N - 1:
            word.extend([("S", 1), ("S", 1)])
            cur = mat_neg(cur, N)
        else:
            # cur = diag(a, a^{-1}) * T^t ; peel off the diagonal part using
            # diag(a, a^{-1}) = T^{-a} S T^{-ainv} S T^{-a} S * S^2
            ainv = pow(a, -1, N)
            word.extend([("T", (-a) % N), ("S", 1), ("T", (-ainv) % N), ("S", 1),
                         ("T", (-a) % N), ("S", 1), ("S", 1), ("S", 1)])
            cur = mat_mul((ainv, 0, 0, a), cur, N)  # diag(a, a^{-1})^{-1} cur
    if cur[1] % N != 0:
        word.append(("T", cur[1] % N))
        cur = mat_mul(mat_inv(t_power(cur[1], N), N), cur, N)
    if cur != IDENTITY:
        raise RuntimeError("word %r leaves %r of %r" % (word, cur, M))
    return word


def hensel_lift_count(M, N):
    """Number of lifts of M in SL2(Z/2NZ); 8 for N a power of two."""
    count = 0
    for mask in range(16):
        lifted = tuple((M[i] + N * ((mask >> i) & 1)) % (2 * N) for i in range(4))
        if det(lifted, 2 * N) == 1:
            count += 1
    return count


# ---------------------------------------------------------------------------
# conjugacy invariants mod 2^n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjProfile:
    n: int
    l: int
    x: int
    tau: int
    s: int

    @property
    def x_class(self):
        return x_class_label(self.l, self.x, self.n)


def x_class_label(l, x, n):
    if l == 0 or l == 1:
        return "1"
    mod = 2 ** (l if l < n else n)
    x %= mod
    if x == 1 % mod:
        return "1"
    if x == (mod - 1) % mod:
        return "-1"
    half = mod // 2
    if x == (half + 1) % mod:
        return "h+1"
    if x == (half - 1) % mod:
        return "h-1"
    raise ValueError("unexpected scalar part x=%d at l=%d" % (x, l))


def _v2(x):
    v = 0
    while x and x % 2 == 0:
        x //= 2
        v += 1
    return v


def conj_profile(M, n):
    """The (l, x, tau, s) invariants of M in SL2(Z/2^nZ)."""
    N = 2 ** n
    a, b, c, d = (v % N for v in M)
    for l in range(n):
        pl = 2 ** l
        if b % pl or c % pl or (a - d) % pl:
            break
        x = a % pl if l > 0 else 0
        u = ((a - x) // pl, b // pl, c // pl, (d - x) // pl)
        if (u[0] % 2, u[1] % 2, u[2] % 2, u[3] % 2) not in ((0, 0, 0, 0), (1, 0, 0, 1)):
            mod_tau = 2 ** (n - l)
            if l == 0:
                tau = (a + d) % N
                s = n if tau == 0 else min(_v2(tau), n)
            else:
                tau = (u[0] * u[3] - u[1] * u[2]) % mod_tau
                s = l + n if tau == 0 else 2 * l + _v2(tau)
            return ConjProfile(n, l, x, tau, s)
    # scalar matrix
    return ConjProfile(n, n, a % N, 0, 2 * n)


# -- representatives --------------------------------------------------------

def rep_a0(tau, c1, n):
    N = 2 ** n
    cinv = pow(c1, -1, N)
    return (1 % N, (cinv * (tau - 2)) % N, c1 % N, (tau - 1) % N)


def rep_al(l, tau, c1, n):
    """Determinant-1 representative with profile (l, x=1, tau)."""
    N = 2 ** n
    cinv = pow(c1, -1, N)
    return (1 % N, (-cinv * (2 ** l) * tau) % N,
            (c1 * 2 ** l) % N, (1 - 4 ** l * tau) % N)


def rep_bl(l, tau, c1, n):
    N = 2 ** n
    h = 2 ** (l - 1)
    cinv = pow(c1, -1, N)
    xinv = pow(1 + h, -1, N)
    d = (1 + h - xinv * (2 ** l + h * h + 4 ** l * tau)) % N
    return ((1 + h) % N, (-cinv * 2 ** l * tau) % N, (c1 * 2 ** l) % N, d)


@dataclass(frozen=True)
class ClassRep:
    matrix: tuple
    l: int
    x_class: str
    tau: int
    size: int


def class_representatives(n):
    """Conjugacy-class representatives of SL2(Z/2^nZ) with class sizes.

    One entry per conjugacy class; sum of sizes is the group order.  The
    families hold for n >= 2 only.
    """
    if n < 2:
        raise ValueError("class representatives need n >= 2")
    N = 2 ** n
    reps = []

    def add(mat, l, xc, tau, size):
        reps.append(ClassRep(tuple(v % N for v in mat), l, xc, tau % (2 ** (n - l)) if l < n else 0, size))

    # l = 0, keyed by the trace
    for tau in range(N):
        if tau % 2 == 1:
            add(rep_a0(tau, 1, n), 0, "1", tau, 2 ** (2 * n - 1))
        elif tau % 4 == 2 and n >= 3:
            for c1 in (1, 3, 5, 7):
                add(rep_a0(tau, c1, n), 0, "1", tau, 3 * 2 ** (2 * n - 4))
        else:  # tau = 0 mod 4, or any even tau when n = 2
            for c1 in (1, 3):
                add(rep_a0(tau, c1, n), 0, "1", tau, 3 * 2 ** (2 * n - 3))

    # 1 <= l <= n-1, x = 1, plus mirrored families
    for l in range(1, n):
        x1_rows = []  # (matrix, tau, size)
        mod_tau = 2 ** (n - l)
        for tau in range(mod_tau):
            if l == n - 1:
                x1_rows.append((rep_al(l, tau, 1, n), tau, 3))
            elif l == n - 2:
                if tau % 4 in (0, 1):
                    for c1 in (1, 3):
                        x1_rows.append((rep_al(l, tau, c1, n), tau, 6))
                else:
                    x1_rows.append((rep_al(l, tau, 1, n), tau, 12))
            elif l == 1:
                if tau % 8 in (1, 0):
                    for c1 in (1, 3, 5, 7):
                        x1_rows.append((rep_al(l, tau, c1, n), tau, 3 * 2 ** (2 * n - 6)))
                elif tau % 8 in (3, 5, 7):
                    for c1 in (1, tau):
                        x1_rows.append((rep_al(l, tau, c1, n), tau, 3 * 2 ** (2 * n - 5)))
                else:  # tau = 2, 4, 6 mod 8
                    for c1 in (1, 3):
                        x1_rows.append((rep_al(l, tau, c1, n), tau, 3 * 2 ** (2 * n - 5)))
            else:  # 2 <= l <= n-3
                if tau % 8 in (1, 4, 5):
                    for c1 in (1, 3):
                        x1_rows.append((rep_al(l, tau, c1, n), tau, 3 * 2 ** (2 * n - 2 * l - 3)))
                elif tau % 8 in (3, 7):
                    x1_rows.append((rep_al(l, tau, 1, n), tau, 3 * 2 ** (2 * n - 2 * l - 2)))
                elif tau % 8 in (2, 6):
                    for c1 in (1, 5):
                        x1_rows.append((rep_al(l, tau, c1, n), tau, 3 * 2 ** (2 * n - 2 * l - 3)))
                else:  # tau = 0 mod 8
                    for c1 in (1, 3, 5, 7):
                        x1_rows.append((rep_al(l, tau, c1, n), tau, 3 * 2 ** (2 * n - 2 * l - 4)))
        for mat, tau, size in x1_rows:
            add(mat, l, "1", tau, size)
        if l >= 2:
            for mat, tau, size in x1_rows:
                add(mat_neg(mat, N), l, "-1", tau, size)
        if l >= 3:
            for tau in range(mod_tau):
                size = 2 ** (2 * n - 2 * l - 1) if tau % 2 else 3 * 2 ** (2 * n - 2 * l - 1)
                bm = rep_bl(l, tau, 1, n)
                add(bm, l, "h+1", tau, size)
                add(mat_neg(bm, N), l, "h-1", tau, size)

    # l = n: scalar matrices
    scalars = {1 % N, (N - 1) % N}
    if n >= 3:
        scalars |= {(N // 2 + 1) % N, (N // 2 - 1) % N}
    for x in sorted(scalars):
        add((x, 0, 0, x), n, x_class_label(n, x, n), 0, 1)

    return reps


def class_size_bruteforce(M, n):
    """Size of the conjugacy orbit of M, by closure under conjugation."""
    N = 2 ** n
    if N > 8:
        raise ValueError("brute-force class size limited to modulus 8")
    gens = [S_MAT, t_power(1, N)]
    gens = [tuple(x % N for x in g) for g in gens]
    gens += [mat_inv(g, N) for g in gens]
    start = tuple(x % N for x in M)
    orbit = {start}
    stack = [start]
    while stack:
        X = stack.pop()
        for g in gens:
            Y = mat_mul(mat_mul(g, X, N), mat_inv(g, N), N)
            if Y not in orbit:
                orbit.add(Y)
                stack.append(Y)
    return len(orbit)


# -- census -----------------------------------------------------------------

@dataclass(frozen=True)
class CensusRow:
    n: int
    l: int
    x_class: str
    s: object  # int, or None for rows aggregated over s
    count: int
    expected: object  # int, or None when the corollary gives no formula

    @property
    def match(self):
        return self.expected is None or self.count == self.expected


def census_expected(n, l, x_class, s):
    """The seven closed-form counts, when defined."""
    if l == 0:
        if s == 0:
            return 2 ** (3 * n - 2)
        if 1 <= s <= n - 1:
            return 3 * 2 ** (3 * n - s - 3)
        if s == n:
            return 3 * 2 ** (2 * n - 2)
        return None
    if l == n:
        return 1
    if x_class == "1":
        if s == l + n:
            return 3 * 2 ** (2 * n - 2 * l - 2)
        return 3 * 2 ** (3 * n - l - s - 3)
    if x_class == "-1" and l >= 2:
        return 3 * 2 ** (3 * n - 3 * l - 2)
    if x_class in ("h+1", "h-1") and l >= 3:
        return 2 ** (3 * n - 3 * l)
    return None


def _profile_counts(n):
    """Number of elements of SL2(Z/2^nZ) with each profile (l, x, s).

    The same invariants as `conj_profile`, computed elementwise on int64
    arrays one row value a at a time.  For odd a the chunk is every
    (b, c) with d = a^-1 (1 + bc); for even a, b is odd and the chunk is
    every (b, d) with c = b^-1 (ad - 1).  Every intermediate is below
    2^(3n) <= 2^24, and reductions mod 2^k are masks, which are exact on
    negative int64 values too.
    """
    N = 2 ** n
    mask = N - 1
    v2 = np.array([n] + [(t & -t).bit_length() - 1 for t in range(1, N)],
                  dtype=np.int64)  # v2[0] = n: the cap on l and s
    inv = np.zeros(N, dtype=np.int64)
    inv[1::2] = [pow(u, -1, N) for u in range(1, N, 2)]
    rows, cols = np.divmod(np.arange(N * N, dtype=np.int64), N)  # every (b, c)
    half = N * N // 2
    odd_rows, odd_cols = 2 * rows[:half] + 1, cols[:half]  # every (b odd, d)
    shape = (n + 1, N, 2 * n + 1)
    counts = np.zeros(np.prod(shape), dtype=np.int64)
    for a in range(N):
        if a % 2:
            b, c = rows, cols
            d = (inv[a] * (1 + b * c)) & mask
        else:
            b, d = odd_rows, odd_cols
            c = (inv[b] * (a * d - 1)) & mask
        l = np.minimum(np.minimum(v2[b], v2[c]), v2[(a - d) & mask])
        x = a & ((1 << l) - 1)
        u0, u1, u2, u3 = (a - x) >> l, b >> l, c >> l, (d - x) >> l
        tau = (u0 * u3 - u1 * u2) & ((1 << (n - l)) - 1)
        s = np.where(tau == 0, l + n, 2 * l + v2[tau])
        s = np.where(l == 0, v2[(a + d) & mask], s)  # at l = 0, tau is the trace
        counts += np.bincount(np.ravel_multi_index((l, x, s), shape),
                              minlength=counts.size)
    counts = counts.reshape(shape)
    return {tuple(map(int, key)): int(counts[key]) for key in zip(*np.nonzero(counts))}


def census(n):
    """Group all of SL2(Z/2^nZ) by (l, x-class, s) and compare counts."""
    if not 2 <= n <= 8:
        raise ValueError("census supports 2 <= n <= 8")
    tallies = {}
    for (l, x, s), count in _profile_counts(n).items():
        xc = x_class_label(l, x, n)
        # the corollary aggregates over s for scalars and for x-class != 1
        key = (l, xc, s if l < n and (l == 0 or xc == "1") else None)
        tallies[key] = tallies.get(key, 0) + count
    rows = []
    for (l, xc, s) in sorted(tallies, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])):
        expected = census_expected(n, l, xc, s) if (s is not None or l == n or xc in ("-1", "h+1", "h-1")) else None
        rows.append(CensusRow(n, l, xc, s, tallies[(l, xc, s)], expected))
    return rows


def census_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "l", "x_class", "s", "count", "expected", "match"])
    for r in rows:
        w.writerow([r.n, r.l, r.x_class, "" if r.s is None else r.s, r.count,
                    "" if r.expected is None else r.expected,
                    "yes" if r.match else "no"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# counting lemmas
# ---------------------------------------------------------------------------

def count_quadratic_solutions(A, B, C, D, n, even_cross=False):
    """Brute-force count of A x^2 + B xy + C y^2 = D (mod 2^n), with the
    cross term doubled (A x^2 + 2B xy + C y^2) when even_cross is set."""
    if n > 10:
        raise ValueError("exponent too large")
    if even_cross:
        if A % 2 == 0 or D % 2 == 0:
            raise ValueError("even-cross form needs A and D odd")
    else:
        if A % 2 == 0 or B % 2 == 0 or D % 2 == 0:
            raise ValueError("odd-cross form needs A, B, D odd")
    N = 2 ** n
    Beff = 2 * B if even_cross else B
    count = 0
    for x in range(N):
        ax2 = A * x * x
        for y in range(N):
            if (ax2 + Beff * x * y + C * y * y - D) % N == 0:
                count += 1
    return count


def expected_quadratic_solutions(A, B, C, D, n, even_cross=False):
    """Closed-form solution counts from the two counting lemmas."""
    if not even_cross:
        # A, B, D odd
        return 2 ** (n - 1) if C % 2 == 0 else 3 * 2 ** (n - 1)
    delta = (A * C - B * B) % 8
    ad = (A * D) % 8
    if n == 1:
        return 2
    if n == 2:
        if delta % 4 in (2, 3):
            return 4
        return 8 if (A * D) % 4 == 1 else 0
    if delta == 0:
        return 2 ** (n + 2) if ad == 1 else 0
    if delta in (2, 4, 6):
        return 2 ** (n + 1) if ad in (1, (1 + delta) % 8) else 0
    if delta in (1, 5):
        return 2 ** (n + 1) if ad in (1, 5) else 0
    return 2 ** n  # delta = 3, 7


# ---------------------------------------------------------------------------
# symplectic groups of higher genus: transvection generators, orbit census
# ---------------------------------------------------------------------------

def symplectic_form(u, v, g, N):
    """omega(u, v) in coordinates (m1, n1, ..., mg, ng)."""
    acc = 0
    for i in range(g):
        acc += u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
    return acc % N


def sp_generators(g, N):
    """Transvections generating Sp_2g(Z/NZ), one per twist curve gamma, as
    one int64 stack (k, 2g, 2g): T v = v + omega(v, gamma) gamma, that is
    T = I + gamma (Omega gamma)^T mod N with omega(u, v) = u^T Omega v.
    The curves are x_i = e_(2i), y_i = e_(2i+1), then z_ij = x_i - x_j."""
    eye = np.eye(2 * g, dtype=np.int64)
    gammas = np.array([*eye, *(eye[2 * i] - eye[2 * j]
                               for i in range(g) for j in range(i + 1, g))])
    omega = np.kron(np.eye(g, dtype=np.int64), [[0, 1], [-1, 0]])
    return (eye + gammas[:, :, None] * (gammas @ omega.T)[:, None, :]) % N


def divisors(N):
    return [d for d in range(1, N + 1) if N % d == 0]


def sigma0(N):
    """Number of divisors of N."""
    return len(divisors(N))


def prime_factorization(N):
    """[(r, n), ...] with N = prod r^n, primes increasing."""
    out = []
    t = N
    d = 2
    while d * d <= t:
        if t % d == 0:
            n = 0
            while t % d == 0:
                t //= d
                n += 1
            out.append((d, n))
        d += 1
    if t > 1:
        out.append((t, 1))
    return out


# ---------------------------------------------------------------------------
# lattice orbits: one vectorised engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeOrbits:
    """Orbits of the index maps given to `lattice_orbits`.

    roots[k] is the least index of orbit k, increasing, and labels[v] the
    orbit of v.  potentials[v] is the phase transported to v from its
    orbit's root, whose potential is 0, and free[k] says whether orbit k is
    holonomy-free: every edge v -> images[r][v] of it carries
    potentials[images[r][v]] = potentials[v] + phases[r][v] mod m.
    Without phases every potential is 0 and every orbit is free.
    """

    labels: np.ndarray
    roots: np.ndarray
    potentials: np.ndarray
    free: np.ndarray


def lattice_orbits(images, phases=None, modulus=1):
    """Orbits of the indices 0..n-1 under the maps images[r] (one length-n
    index array per generator), with phases[r][v] mod `modulus` on the edge
    v -> images[r][v] when given.  A phase may be any int64 representative
    of its class: every comparison below reduces mod m, so the phases are
    read as given and never copied.

    Label propagation with pointer jumping: each index v keeps a pointer
    ptr[v] into its orbit and the phase off[v] transported from ptr[v] to
    v.  In each round every edge whose ends reach different roots offers
    to hook the larger root under the smaller; np.minimum.at over
    lo * m + phase keeps one offer per root, so pointer and phase come
    from one edge.  Pointer jumping, (ptr, off) <- (ptr[ptr], off +
    off[ptr]), then makes every pointer a root.  Hooks only go down, so no
    cycle forms, and when no edge joins two roots each orbit's root is its
    least index.  Edges are walked one map at a time: work arrays have
    length n.  The holonomy check runs over every edge.
    """
    images = np.asarray(images, dtype=np.int64)
    n = images.shape[1]
    m = modulus
    phases = [0] * len(images) if phases is None else np.asarray(phases, dtype=np.int64)
    ptr, off = np.arange(n), np.zeros(n, np.int64)
    while True:
        best = np.full(n, n * m, np.int64)
        for img, z in zip(images, phases):
            rd = ptr[img]
            live = ptr != rd
            up = rd > ptr
            gap = off + z - off[img]  # pot(rd) - pot(ptr)
            np.minimum.at(best, np.where(up, rd, ptr)[live],
                          (np.where(up, ptr, rd) * m + np.where(up, gap, -gap) % m)[live])
        hooked = np.flatnonzero(best < n * m)
        if not hooked.size:
            break
        ptr[hooked], off[hooked] = np.divmod(best[hooked], m)
        while True:
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            off = (off + off[ptr]) % m
            ptr = nxt
    roots, labels = np.unique(ptr, return_inverse=True)
    bad = np.zeros(n, dtype=bool)
    for img, z in zip(images, phases):
        bad |= (off + z - off[img]) % m != 0
    free = np.bincount(labels[bad], minlength=roots.size) == 0
    return LatticeOrbits(labels, roots, off, free)


def lattice_vectors(N, g):
    """vec[:, v]: the lattice vector of index v in (Z/N)^(2g), slot 2i the
    shift and 2i+1 the modulation of handle i, slot 0 most significant."""
    return np.indices((N,) * (2 * g)).reshape(2 * g, -1)


def diagonal_index(delta, N, g):
    """The index of (0, delta, ..., 0, delta), every shift 0 and every
    modulation delta mod N, in `lattice_vectors`; delta may be an array."""
    delta = np.asarray(delta) % N
    return np.ravel_multi_index((np.zeros_like(delta), delta) * g, (N,) * (2 * g))


def lattice_images(Ms, N):
    """img[k, v]: the index of Ms[k] vec[:, v] mod N, for a stack Ms
    (k, 2g, 2g) of integer matrices and every lattice index v of
    `lattice_vectors`.  A slot whose row of M is the unit row mod N keeps
    its digit of v, so img starts at v and only the moved slots change it."""
    Ms = np.asarray(Ms, dtype=np.int64)
    n = Ms.shape[-1]
    vec = lattice_vectors(N, n // 2)
    weights = N ** np.arange(n - 1, -1, -1)
    img = np.tile(np.arange(vec.shape[1]), (len(Ms), 1))
    for k, M in enumerate(Ms):
        for slot in np.flatnonzero((M % N != np.eye(n, dtype=np.int64)).any(axis=1)):
            img[k] += (M[slot] @ vec % N - vec[slot]) * weights[slot]
    return img


def orbit_census(N, g):
    """Orbits of (Z/NZ)^(2g) under the transvection generators.

    Returns (count, orbits) where orbits is a list of (delta, size) with
    delta the divisor such that (0, delta, ..., 0, delta) lies in the orbit,
    in the order of the orbits' least indices (coordinate 0 most
    significant).
    """
    if N < 2 or g < 1:
        raise ValueError("need level N >= 2 and genus g >= 1")
    if N ** (2 * g) > 10 ** 6:
        raise ValueError("lattice too large")
    orbits = lattice_orbits(lattice_images(sp_generators(g, N), N))
    deltas = [None] * orbits.roots.size
    for d in reversed(divisors(N)):  # the least divisor of an orbit wins
        deltas[orbits.labels[diagonal_index(d, N, g)]] = d
    return len(deltas), list(zip(deltas, np.bincount(orbits.labels).tolist()))
