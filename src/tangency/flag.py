"""Chow classes on the universal line and its fiber square.

P(S) -> G(1, n) is the incidence variety of pairs (line, point on it), a
P^1-bundle with hyperplane class H satisfying H^2 = s1*H - s11.  The fiber
square P(S) x_G P(S) carries two such classes H1, H2 with the same relation
in each slot.  Elements here are polynomials in H1 (and H2 for arity 2)
with SchubertElt coefficients; reduce() rewrites every power >= 2 down to
the {1, H} basis, after which pushing forward to G(1, n) is reading off
the H1 (arity 1) or H1*H2 (arity 2) coefficient.
"""

from __future__ import annotations

from .dpoly import DPoly
from .schubert import SchubertElt, degree, mult, sigma


class FlagElt:
    """Polynomial in the bundle classes H1 (and H2) over the Schubert ring."""

    __slots__ = ("n", "arity", "terms")

    def __init__(self, n: int, arity: int, terms=None):
        if arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {arity!r}")
        self.n = n
        self.arity = arity
        clean: dict[tuple[int, int], SchubertElt] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative bundle-class exponent ({i},{j})")
            if arity == 1 and j != 0:
                raise ValueError("arity-1 element cannot carry H2")
            if not isinstance(c, SchubertElt):
                raise TypeError("coefficients must be SchubertElt")
            if c.n != n:
                raise ValueError(f"ambient mismatch: coefficient on G(1,{c.n}), element on G(1,{n})")
            if c.is_zero():
                continue
            clean[(i, j)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int, arity: int) -> "FlagElt":
        return cls(n, arity, {})

    @classmethod
    def from_base(cls, c: SchubertElt, arity: int) -> "FlagElt":
        return cls(c.n, arity, {(0, 0): c})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_compatible(self, other: "FlagElt"):
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: G(1,{self.n}) vs G(1,{other.n})")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "FlagElt") -> "FlagElt":
        self._require_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return FlagElt(self.n, self.arity, out)

    def __neg__(self) -> "FlagElt":
        return FlagElt(self.n, self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "FlagElt") -> "FlagElt":
        return self + (-other)

    def scale(self, c) -> "FlagElt":
        """Multiply by a base Schubert class (or int/DPoly scalar)."""
        if isinstance(c, (int, DPoly)):
            return FlagElt(self.n, self.arity, {e: v.scale(c) for e, v in self.terms.items()})
        return FlagElt(self.n, self.arity, {e: mult(v, c) for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, DPoly)):
            return self.scale(other)
        return reduce_class(multiply_unreduced(self, other))

    def __rmul__(self, other):
        if isinstance(other, (int, DPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagElt):
            return NotImplemented
        return (self.n, self.arity, self.terms) == (other.n, other.arity, other.terms)

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
    x._require_compatible(y)
    out: dict[tuple[int, int], SchubertElt] = {}
    for (i1, j1), c1 in x.terms.items():
        for (i2, j2), c2 in y.terms.items():
            e = (i1 + i2, j1 + j2)
            c = mult(c1, c2)
            out[e] = out[e] + c if e in out else c
    return FlagElt(x.n, x.arity, out)


def reduce_class(x: FlagElt) -> FlagElt:
    """Canonical form: rewrite H^2 -> s1*H - s11 in each slot until all
    exponents are <= 1.  Idempotent."""
    n = x.n
    s1 = sigma(n, 1)
    s11 = sigma(n, 1, 1)
    terms = dict(x.terms)
    while True:
        out: dict[tuple[int, int], SchubertElt] = {}

        def _acc(e, c):
            out[e] = out[e] + c if e in out else c

        changed = False
        for (i, j), c in terms.items():
            if i >= 2:
                _acc((i - 1, j), mult(c, s1))
                _acc((i - 2, j), -mult(c, s11))
                changed = True
            elif j >= 2:
                _acc((i, j - 1), mult(c, s1))
                _acc((i, j - 2), -mult(c, s11))
                changed = True
            else:
                _acc((i, j), c)
        terms = {e: c for e, c in out.items() if not c.is_zero()}
        if not changed:
            return FlagElt(n, x.arity, terms)


def pushforward(x: FlagElt) -> SchubertElt:
    """Integrate over the P^1 fibers (both of them at arity 2)."""
    r = reduce_class(x)
    key = (1, 1) if r.arity == 2 else (1, 0)
    return r.terms.get(key, SchubertElt.zero(r.n))


def integrate(x: FlagElt) -> DPoly:
    """Full integral: push down to G(1, n), then take the degree there."""
    return degree(pushforward(x))
