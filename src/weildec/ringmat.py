"""Dense matrices over a cyclotomic field, with comparison up to a scalar.

`CycMat.to_ring` returns them and the tests use them as an exact oracle;
no certificate builds one.
"""

from __future__ import annotations


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

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

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

