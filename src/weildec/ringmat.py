"""Dense matrices over a cyclotomic field, plus the exact linear algebra
used elsewhere: unitarity checks, projective comparison, commutant solving
and restriction of an operator to an invariant span.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloElt, CycloField


class RingMatrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0

    # -- constructors -----------------------------------------------------
    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, field, entries):
        z = field.zero()
        n = len(entries)
        return cls(field, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def copy(self):
        return RingMatrix(self.field, self.rows)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return RingMatrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return RingMatrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return RingMatrix(self.field, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        c = self.field.coerce(c)
        return RingMatrix(self.field, [[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        z = self.field.zero()
        out = []
        ocols = list(zip(*other.rows))
        for ra in self.rows:
            row = []
            for cb in ocols:
                acc = z
                for a, b in zip(ra, cb):
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RingMatrix(self.field, out)

    def apply(self, vec):
        """Matrix times column vector (list of CycloElt)."""
        z = self.field.zero()
        out = []
        for ra in self.rows:
            acc = z
            for a, v in zip(ra, vec):
                if not a.is_zero() and not v.is_zero():
                    acc = acc + a * v
            out.append(acc)
        return out

    def kron(self, other):
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return RingMatrix(self.field, out)

    def transpose(self):
        return RingMatrix(self.field, list(zip(*self.rows)))

    def dagger(self):
        return RingMatrix(self.field, [[a.conj() for a in r] for r in zip(*self.rows)])

    def trace(self):
        acc = self.field.zero()
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    # -- predicates -------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def is_identity(self):
        for i, r in enumerate(self.rows):
            for j, a in enumerate(r):
                if i == j:
                    if a != 1:
                        return False
                elif not a.is_zero():
                    return False
        return True

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def is_unitary(self):
        return (self.dagger() @ self).is_identity()

    def equal_up_to_scalar(self, other):
        """If self == lam * other for a scalar lam, return lam, else None."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return None
        pairs = [(a, b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)]
        # one inverse: lam from the first entry where other is nonzero
        lam = next((a / b for a, b in pairs if not b.is_zero()), self.field.one())
        for a, b in pairs:
            if a != (0 if b.is_zero() else lam * b):
                return None
        return lam


# -- exact linear algebra -------------------------------------------------

def _eliminate(rows, ncols):
    """In-place fraction-style Gaussian elimination over the field.

    rows: list of lists of CycloElt (each length ncols).  Returns list of
    (pivot_col, row) in echelon form.
    """
    pivots = []
    for row in rows:
        # reduce against existing pivots
        for pc, prow in pivots:
            c = row[pc]
            if not c.is_zero():
                for j in range(pc, ncols):
                    if not prow[j].is_zero():
                        row[j] = row[j] - c * prow[j]
        # find pivot (first nonzero entry)
        pc = None
        for j in range(ncols):
            if not row[j].is_zero():
                pc = j
                break
        if pc is None:
            continue
        inv = row[pc].inverse()
        for j in range(pc, ncols):
            if not row[j].is_zero():
                row[j] = inv * row[j]
        pivots.append((pc, row))
        pivots.sort(key=lambda t: t[0])
    return pivots


def nullspace_dimension(rows, ncols):
    """Dimension of the solution space of the homogeneous system."""
    pivots = _eliminate([list(r) for r in rows], ncols)
    return ncols - len(pivots)


def solve_commutant(field, generators, progress=None):
    """Dimension (and a basis description) of {T : T M = M T for all M}.

    generators: list of RingMatrix, all n x n over `field`.  Diagonal
    generators are used first to cut the unknown set (T must preserve their
    eigenspaces); the remaining constraints are eliminated exactly.

    Returns (dimension, unknown_positions) where unknown_positions is the
    list of (i, j) entries not forced to zero by the diagonal generators.
    """
    n = generators[0].nrows
    diag_gens = []
    other_gens = []
    for M in generators:
        if all(M.rows[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
            diag_gens.append(M)
        else:
            other_gens.append(M)

    unknowns = []
    for i in range(n):
        for j in range(n):
            ok = True
            for M in diag_gens:
                if M.rows[i][i] != M.rows[j][j]:
                    ok = False
                    break
            if ok:
                unknowns.append((i, j))
    index = {u: k for k, u in enumerate(unknowns)}
    nu = len(unknowns)
    zero = field.zero()

    rows = []
    for M in other_gens:
        # Equations: (T M - M T)[k, l] = 0.
        # Build sparse accumulation: position -> {unknown_index: coeff}
        eqs = {}
        for (i, j), k in index.items():
            for l in range(n):
                c = M.rows[j][l]
                if not c.is_zero():
                    eqs.setdefault((i, l), {}).setdefault(k, zero)
                    eqs[(i, l)][k] = eqs[(i, l)][k] + c
            for krow in range(n):
                c = M.rows[krow][i]
                if not c.is_zero():
                    eqs.setdefault((krow, j), {}).setdefault(k, zero)
                    eqs[(krow, j)][k] = eqs[(krow, j)][k] - c
        for pos in sorted(eqs):
            coeffs = eqs[pos]
            row = [zero] * nu
            nontrivial = False
            for k, c in coeffs.items():
                row[k] = c
                if not c.is_zero():
                    nontrivial = True
            if nontrivial:
                rows.append(row)
        if progress:
            progress(len(rows))

    dim = nullspace_dimension(rows, nu) if rows else nu
    return dim, unknowns


def restrict_to_span(field, matrix, span):
    """Restriction of `matrix` to the span of the given column vectors.

    span: list of vectors (lists of CycloElt).  Returns the matrix of the
    restricted operator on that basis, or None if the span is not invariant.
    """
    n = matrix.nrows
    k = len(span)
    # echelonize the span for solving; remember the combination
    # build augmented rows: [span vector | unit coords]
    aug = []
    for t, v in enumerate(span):
        unit = [field.zero()] * k
        unit[t] = field.one()
        aug.append(list(v) + unit)
    pivots = _eliminate(aug, n + k)
    # pivot columns must lie inside the first n coordinates (independence)
    for pc, _ in pivots:
        if pc >= n:
            raise ValueError("span vectors are linearly dependent")

    def solve_in_span(w):
        """Coefficients expressing w in the span basis, or None."""
        row = list(w) + [field.zero()] * k
        for pc, prow in pivots:
            c = row[pc]
            if not c.is_zero():
                for j in range(pc, n + k):
                    if not prow[j].is_zero():
                        row[j] = row[j] - c * prow[j]
        if any(not row[j].is_zero() for j in range(n)):
            return None
        return [-row[n + t] for t in range(k)]

    cols = []
    for v in span:
        w = matrix.apply(v)
        coords = solve_in_span(w)
        if coords is None:
            return None
        cols.append(coords)
    return RingMatrix(field, [[cols[j][i] for j in range(k)] for i in range(k)])
