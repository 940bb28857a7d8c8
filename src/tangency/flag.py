"""Chow classes on the universal line and its fiber square.

P(S) -> G(1, n) is the incidence variety of pairs (line, point on it), a
P^1-bundle with hyperplane class H satisfying H^2 = s1*H - s11.  The fiber
square P(S) x_G P(S) carries two such classes H1, H2 with the same relation
in each slot.  Elements here are polynomials in H1 (and H2 for arity 2)
with SchubertElt coefficients.  reduce_class rewrites them to the {1, H}
basis in one pass, from a table H^a = A_a*H + B_a, after which pushing
forward to G(1, n) is reading off the H1 (arity 1) or H1*H2 (arity 2)
coefficient.  Inputs are checked at the public boundary; sums and products
of valid elements go through the trusted FlagElt._of.
"""

from __future__ import annotations

from .dpoly import DPoly
from .schubert import SchubertElt, _add, _Combination, degree, mult, sigma


class FlagElt(_Combination):
    """Polynomial in the bundle classes H1 (and H2) over the Schubert ring."""

    __slots__ = ("arity",)
    _ring = staticmethod(lambda x: (x.n, x.arity))

    def __init__(self, n: int, arity: int, terms=None):
        if arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {arity!r}")
        terms = dict(terms or {})
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative bundle-class exponent ({i},{j})")
            if arity == 1 and j != 0:
                raise ValueError("arity-1 element cannot carry H2")
            if not isinstance(c, SchubertElt):
                raise TypeError("coefficients must be SchubertElt")
            if c.n != n:
                raise ValueError(f"ambient mismatch: coefficient on G(1,{c.n}), element on G(1,{n})")
        self.n, self.arity = n, arity
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _of(cls, n: int, arity: int, terms: dict) -> "FlagElt":
        """The element of terms already checked; drops zero coefficients."""
        x = cls.__new__(cls)
        x.n, x.arity, x.terms = n, arity, {e: c for e, c in terms.items() if not c.is_zero()}
        return x

    @classmethod
    def zero(cls, n: int, arity: int) -> "FlagElt":
        return cls(n, arity, {})

    @classmethod
    def from_base(cls, c: SchubertElt, arity: int) -> "FlagElt":
        return cls(c.n, arity, {(0, 0): c})

    def _product(self, other: "FlagElt") -> "FlagElt":
        return reduce_class(multiply_unreduced(self, other))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            base = self.terms[(i, j)].text()
            if len(self.terms[(i, j)].terms) > 1:
                base = f"({base})"
            piece = base
            if i:
                piece += "*H1" if i == 1 else f"*H1^{i}"
            if j:
                piece += "*H2" if j == 1 else f"*H2^{j}"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self):
        return f"FlagElt(n={self.n}, arity={self.arity}, {self.text()})"


def hclass(n: int, arity: int, slot: int = 1) -> FlagElt:
    """The hyperplane class H1 or H2."""
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    if slot > arity:
        raise ValueError(f"H{slot} does not exist at arity {arity}")
    e = (1, 0) if slot == 1 else (0, 1)
    return FlagElt(n, arity, {e: SchubertElt.one(n)})


def multiply_unreduced(x: FlagElt, y: FlagElt) -> FlagElt:
    """Bilinear product without applying the H^2 rewrite."""
    x._require_same_ring(y)
    out: dict[tuple[int, int], SchubertElt] = {}
    for (i1, j1), c1 in x.terms.items():
        for (i2, j2), c2 in y.terms.items():
            _add(out, (i1 + i2, j1 + j2), mult(c1, c2))
    return FlagElt._of(x.n, x.arity, out)


def reduce_class(x: FlagElt) -> FlagElt:
    """Canonical form, every exponent <= 1, in one pass.  Idempotent.

    H^a = A_a*H + B_a in each slot, with A_0, B_0 = 0, 1 and A_(a+1) =
    s1*A_a + B_a, B_(a+1) = -s11*A_a by H^2 = s1*H - s11; so c*H1^i*H2^j
    becomes c*(A_i*H1 + B_i)*(A_j*H2 + B_j), with no H2 term at arity 1.
    """
    n, s1, s11 = x.n, sigma(x.n, 1), sigma(x.n, 1, 1)
    table = [(SchubertElt.zero(n), SchubertElt.one(n))]
    for _ in range(max((max(e) for e in x.terms), default=0)):
        A, B = table[-1]
        table.append((mult(s1, A) + B, -mult(s11, A)))
    out: dict[tuple[int, int], SchubertElt] = {}
    for (i, j), c in x.terms.items():
        for ci, hi in zip(table[i], (1, 0)):
            ci = mult(c, ci)
            for cj, hj in zip(table[j], (1, 0)):
                _add(out, (hi, hj), mult(ci, cj))
    return FlagElt._of(n, x.arity, out)


def pushforward(x: FlagElt) -> SchubertElt:
    """Integrate over the P^1 fibers (both of them at arity 2)."""
    r = reduce_class(x)
    return r.terms.get((1, r.arity - 1), SchubertElt.zero(r.n))


def integrate(x: FlagElt) -> DPoly:
    """Full integral: push down to G(1, n), then take the degree there."""
    return degree(pushforward(x))
