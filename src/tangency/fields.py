"""Exact coefficient fields and the small linear algebra the lab needs.

Two fields: the rationals (Fraction) and prime fields F_p (ints in [0, p)).
Everything is exact, and the linear algebra runs on Python ints: one
elimination, _eliminate, gives the reduced row echelon form as an integer
matrix and one divisor (fraction-free over QQ, one % p an entry over F_p),
and each routine builds one field element per entry it returns.

forms.expand multiplies in Python ints only, so each exact ring says how
its elements become ints and come back: lifted(terms, cols) returns the
form's terms and the columns in integers together with lower(a, num),
which turns the integer num found at the output exponent a back into a
ring element.  QQ clears denominators (the y^a coefficient is num over
D * prod_j D_j^a_j), F_p lifts its ints unchanged and lowers by % p; the
Fermat root ring packs its elements by Kronecker substitution
(fermat.RootRing.lifted).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul


# Miller-Rabin to the prime bases 2..41 decides every m below _PRIME_LIMIT
# (Sorenson and Webster, 2017: the least strong pseudoprime to all of them)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for m >= _PRIME_LIMIT."""
    if m < 2:
        return False
    if m >= _PRIME_LIMIT:
        raise ValueError(f"{m} is too large: primality is decided below {_PRIME_LIMIT}")
    for a in _BASES:
        if m % a == 0:
            return m == a
    odd, twos = m - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _BASES:
        x = pow(a, odd, m)
        if x == 1:
            continue
        for _ in range(twos):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


def _integral(values) -> tuple[list, int]:
    # ([c_i], D) with values[i] = c_i / D, D the lcm of the denominators
    values = list(values)
    D = lcm(*(x.denominator for x in values))
    return [x.numerator * (D // x.denominator) for x in values], D


class RationalField:
    """Exact rational arithmetic via Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    characteristic = 0

    def of(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def random(self, rng):
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))

    def lifted(self, terms: dict, cols):
        # F = F_int / D and cols[j] = c_j / D_j, D and D_j the lcm of the
        # denominators: expanding F_int over the c_j gives D * prod_j D_j^a_j
        # times the y^a coefficient of F over the cols
        nums, D = _integral(terms.values())
        cleared = [_integral(col) for col in cols]
        dens = [Dj for _, Dj in cleared]

        def lower(a: tuple, num: int) -> Fraction:
            return Fraction(num, D * prod(Dj ** aj for Dj, aj in zip(dens, a)))

        return dict(zip(terms, nums)), [c for c, _ in cleared], lower

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            return self.of(x.numerator) * self.inv(self.of(x.denominator)) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def random(self, rng):
        return rng.randrange(self.p)

    def lifted(self, terms: dict, cols):
        # the elements are ints already; lowering reduces once
        p = self.p
        return terms, cols, lambda a, num: num % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def _over(num: int, den: int, p: int):
    # the element num / den: a Fraction over QQ (p = 0), else num % p (den is 1)
    return num % p if p else Fraction(num, den)


def _cleared(values, p: int) -> tuple[list, int]:
    # ([c_i], D) with values[i] = c_i / D; over F_p the values are ints already
    return (values, 1) if p else _integral(values)


def _eliminate(rows, ncols: int, field) -> tuple[list, list, int]:
    """(M, pivots, D) in ints: the reduced row echelon form of rows is
    M[r][j] / D, zero rows dropped.  Input rows are not modified.

    Over F_p each pivot row is scaled to 1 and D = 1.  Over QQ each row's
    denominators are cleared and the elimination is fraction-free (Bareiss
    1968): every other row becomes (piv * row - f * pivot row) // prev,
    prev the previous pivot, and the division is exact since each entry is
    a minor of the cleared matrix (Sylvester's identity), so a row with 0
    in the pivot column is rescaled too; D is the last pivot.
    """
    p = field.characteristic
    mat = []
    for r in rows:
        row = [a % p for a in r] if p else _integral(r)[0]
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        if any(row):
            mat.append(row)
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        piv = mat[rank][col]
        if p:
            iv = pow(piv, p - 2, p)
            mat[rank] = [a * iv % p for a in mat[rank]]
            piv = 1
        top = mat[rank]
        for r, row in enumerate(mat):
            f = row[col]
            if r == rank or not (f or piv != prev):
                continue
            if p:
                mat[r] = [(a - f * b) % p for a, b in zip(row, top)]
            else:
                mat[r] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev = piv
        pivots.append(col)
    return mat[:len(pivots)], pivots, prev


def row_reduce(rows, ncols: int, field):
    """Reduced row echelon form.  Returns (rref rows, pivot column list).

    Input rows are not modified; zero rows are dropped from the output.
    """
    mat, pivots, D = _eliminate(rows, ncols, field)
    p = field.characteristic
    return [[_over(a, D, p) for a in row] for row in mat], pivots


def matrix_rank(rows, ncols: int, field) -> int:
    return len(_eliminate(rows, ncols, field)[1])


def kernel_basis(rows, ncols: int, field):
    """Basis of the right kernel {v : rows @ v = 0}, one vector per free column.

    The basis is read off the reduced row echelon form, which the kernel
    alone determines, so systems with one kernel give one list; no rows
    give the identity basis.
    """
    mat, pivots, D = _eliminate(rows, ncols, field)
    p = field.characteristic
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for row, pc in zip(mat, pivots):
            v[pc] = _over(-row[free], D, p)
        basis.append(v)
    return basis


def random_kernel_vector(rows, ncols: int, field, rng):
    """A random vector in the right kernel: random values on the free columns."""
    mat, pivots, D = _eliminate(rows, ncols, field)
    p = field.characteristic
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    v = [field.zero] * ncols
    for j in free:
        v[j] = field.random(rng)
    # the free values are nums[i] / Dv; each pivot entry is -sum row[j] v[j] / D
    nums, Dv = _cleared([v[j] for j in free], p)
    for row, pc in zip(mat, pivots):
        v[pc] = _over(-sum(row[j] * c for j, c in zip(free, nums)), D * Dv, p)
    return v


def mat_vec(rows, v, field):
    p = field.characteristic
    nums, Dv = _cleared(v, p)
    out = []
    for r in rows:
        cs, Dr = _cleared(r, p)
        out.append(_over(sum(map(mul, cs, nums)), Dr * Dv, p))
    return out
