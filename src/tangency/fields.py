"""Exact coefficient fields and the small linear algebra the lab needs.

Two fields: the rationals (Fraction) and prime fields F_p (ints in [0, p)).
The elimination routines are generic over either; everything is exact.

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


def row_reduce(rows, ncols: int, field):
    """Reduced row echelon form.  Returns (rref rows, pivot column list).

    Input rows are not modified; zero rows are dropped from the output.
    """
    mat = [list(r) for r in rows]
    for r in mat:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(mat)):
            if not field.is_zero(mat[r][col]):
                sel = r
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        iv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(iv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not field.is_zero(mat[r][col]):
                f = mat[r][col]
                mat[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def matrix_rank(rows, ncols: int, field) -> int:
    return len(row_reduce(rows, ncols, field)[0])


def kernel_basis(rows, ncols: int, field):
    """Basis of the right kernel {v : rows @ v = 0}, one vector per free column.

    The basis is read off the reduced row echelon form, which the kernel
    alone determines, so systems with one kernel give one list; no rows
    give the identity basis.
    """
    rref, pivots = row_reduce(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rref[r][free])
        basis.append(v)
    return basis


def random_kernel_vector(rows, ncols: int, field, rng):
    """A random vector in the right kernel: random values on the free columns."""
    rref, pivots = row_reduce(rows, ncols, field)
    pivot_set = set(pivots)
    v = [field.zero] * ncols
    for free in range(ncols):
        if free not in pivot_set:
            v[free] = field.random(rng)
    for r, pc in enumerate(pivots):
        acc = field.zero
        for free in range(ncols):
            if free not in pivot_set and not field.is_zero(rref[r][free]):
                acc = field.add(acc, field.mul(rref[r][free], v[free]))
        v[pc] = field.neg(acc)
    return v


def mat_vec(rows, v, field):
    out = []
    for r in rows:
        acc = field.zero
        for a, b in zip(r, v):
            if not (field.is_zero(a) or field.is_zero(b)):
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out
