"""The 15 d^3 planes on the Fermat d-fold x_0^d + ... + x_5^d = 0 in P^5.

Split the six coordinates into three disjoint pairs {i, j}; for each pair
pick a d-th root mu of -1 and impose x_j = mu * x_i.  The three conditions
cut out a plane, and substituting kills the paired monomials in conjugate
pairs: x_i^d + x_j^d = (1 + mu^d) x_i^d = 0.  There are 15 pairings and
d^3 root choices.

Roots live in the exact ring Z[z]/(z^d + 1), z a formal primitive 2d-th
root of unity; the d-th roots of -1 are the odd powers z^(2e+1), e in
[0, d).  The ring can have zero divisors (z^d + 1 factors for most d), so
plane distinctness is by canonical defining data, and independence is
certified by a 3x3 minor that is a unit rather than by rank over a field:
for the constructed planes that minor is the identity at the pairs' first
columns.
The substitution is forms.expand in Python ints: RootRing.lifted packs
each element by Kronecker substitution (Harvey, J. Symb. Comp. 2009) at
the digit width B that the terms and the norms of the columns need,
worked out on every call, and reads each output back mod 2^(B*d) + 1,
where z^d = -1 (as in Schonhage and Strassen, 1971).  The ring keeps each
element's norm, and its packing at each width, across calls: the 15 d^3
planes of fermat_planes share one ring, and their entries are 0, 1 and
the odd powers of z, so the six terms and the d + 2 distinct entries are
packed once per degree while every plane is still bounded and
substituted on its own.

verify_plane checks membership of an arbitrary plane (three spanning
points) in a hypersurface over a prime field or the rationals by generic
substitution, after checking by rank that the points are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from .fields import matrix_rank
from .forms import HyperForm, expand

# fermat_planes refuses any degree above this: the checks grow as d^4
# (d = 8, 10, 12 take 0.4 s, 0.9 s, 1.6 s on a 2-core Xeon; d = 60 would
# take about a quarter of an hour by that growth)
MAX_DEGREE = 12


class RootRing:
    """Z[z]/(z^d + 1), elements as integer coefficient tuples of length d."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("ring degree must be >= 1")
        self.d = d
        self.zero = (0,) * d
        self.one = self.monomial(0)
        # lifted's memory, which repeated substitutions share: the norm
        # |a|_1 of each element met, and pack and lower at each width B
        self._norm = cache(lambda a: sum(map(abs, a)))
        self._packings: dict[int, tuple] = {}

    def of(self, x: int) -> tuple:
        return self.monomial(0, int(x))

    def monomial(self, e: int, coeff: int = 1) -> tuple:
        # z^e with z^d = -1
        quo, rem = divmod(e, self.d)
        v = [0] * self.d
        v[rem] = coeff * (-1) ** quo
        return tuple(v)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        out = [0] * self.d
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                quo, rem = divmod(i + j, self.d)
                out[rem] += x * y * (-1) ** quo
        return tuple(out)

    def is_zero(self, a: tuple) -> bool:
        return not any(a)

    def lifted(self, terms: dict, cols):
        """Kronecker substitution for forms.expand: a packs to sum_i a_i 2^(B*i).
        As |x*y|_1 <= |x|_1 |y|_1 here (|.|_1 the sum of the entries' absolute
        values), no output entry exceeds S = sum_e |c_e|_1 prod_i |lin_i|_1^e_i,
        and B is the bit length of S plus one, worked out on every call."""
        norm = self._norm
        norms = [sum(map(norm, entries)) for entries in zip(*cols)]
        B = sum(norm(c) * prod(map(pow, norms, e)) for e, c in terms.items()).bit_length() + 1
        pack, lower = self._packing(B)
        return ({e: pack(c) for e, c in terms.items()},
                [[pack(a) for a in col] for col in cols], lower)

    def _packing(self, B: int):
        """(pack, lower) at digit width B, made once per B: pack caches each
        element it packs, and lower reads the balanced residue mod
        2^(B*d) + 1, where 2^(B*d) = -1 as z^d = -1, as d balanced B-bit
        digits."""
        if B in self._packings:
            return self._packings[B]
        d = self.d
        modulus, mask, half = (1 << (B * d)) + 1, (1 << B) - 1, 1 << (B - 1)
        packed: dict[tuple, int] = {}   # the points repeat their entries

        def pack(a: tuple) -> int:
            got = packed.get(a)
            if got is None:
                got = packed[a] = sum(x << (B * i) for i, x in enumerate(a) if x)
            return got

        def lower(a: tuple, num: int) -> tuple:
            r = num % modulus
            if r > modulus >> 1:
                r -= modulus
            if not r:
                return self.zero
            out = []
            for _ in range(d):
                out.append(((r + half) & mask) - half)
                r = (r - out[-1]) >> B
            return tuple(out)

        self._packings[B] = pack, lower
        return pack, lower


def pairings_of_six() -> list[tuple[tuple[int, int], ...]]:
    """The 15 ways to split {0..5} into three unordered pairs."""

    def rec(rest: tuple) -> list:
        if not rest:
            return [()]
        i = rest[0]
        out = []
        for j in rest[1:]:
            sub = tuple(x for x in rest if x not in (i, j))
            for tail in rec(sub):
                out.append(((i, j),) + tail)
        return out

    return rec(tuple(range(6)))


@dataclass(frozen=True)
class FermatPlane:
    """A plane x_j = z^(2e+1) x_i for three disjoint pairs (i, j).

    pairing: three pairs, each sorted, sorted by first entry;
    roots: the exponent e in [0, d) for each pair, in pairing order.
    """

    pairing: tuple[tuple[int, int], ...]
    roots: tuple[int, int, int]
    d: int

    def key(self) -> tuple:
        return (self.pairing, self.roots)

    def spanning_points(self, ring: RootRing) -> list[tuple]:
        pts = []
        for (i, j), e in zip(self.pairing, self.roots):
            row = [ring.zero] * 6
            row[i] = ring.one
            row[j] = ring.monomial(2 * e + 1)
            pts.append(tuple(row))
        return pts

    def to_json(self) -> dict:
        return {
            "pairing": [list(p) for p in self.pairing],
            "rootExponents": list(self.roots),
            "d": self.d,
        }


def verify_plane(F: HyperForm, points: list) -> bool:
    """Is the plane spanned by three independent points contained in {F = 0}?

    Raises if the points do not actually span a plane.
    """
    if matrix_rank([list(p) for p in points], len(points[0]), F.field) != 3:
        raise ValueError("spanning set is dependent: not a plane")
    return not expand(F.terms, points, F.field)


def _fermat_terms(ring: RootRing) -> dict:
    return {tuple(ring.d if t == i else 0 for t in range(6)): ring.one for i in range(6)}


def fermat_planes(d: int) -> list[FermatPlane]:
    """All 15 d^3 conjugate-pair planes of the degree-d Fermat in P^5.

    Each plane is checked symbolically in Z[z]/(z^d + 1): the substituted
    form vanishes identically, and the spanning points restricted to the
    pairs' first columns are the identity, a unit minor.  A degree above MAX_DEGREE is refused
    before any of that.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d > MAX_DEGREE:
        raise ValueError(f"degree must be at most {MAX_DEGREE}, got {d}")
    ring = RootRing(d)
    terms = _fermat_terms(ring)
    identity = [[ring.one if r == c else ring.zero for c in range(3)] for r in range(3)]
    out = []
    for pairing in pairings_of_six():
        for e1 in range(d):
            for e2 in range(d):
                for e3 in range(d):
                    plane = FermatPlane(pairing=pairing, roots=(e1, e2, e3), d=d)
                    pts = plane.spanning_points(ring)
                    if [[pt[i] for i, _ in pairing] for pt in pts] != identity:
                        raise AssertionError(f"plane {plane.key()} has no identity minor")
                    if expand(terms, pts, ring):
                        raise AssertionError(f"plane {plane.key()} fails containment")
                    out.append(plane)
    return out
