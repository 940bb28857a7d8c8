"""Schubert calculus on the Grassmannian of lines G(1, n) = Gr(2, n+1).

Classes live in the Chow ring with its Schubert basis sigma_{a,b}, indexed
by two-row partitions n-1 >= a >= b >= 0.  Coefficients are DPoly, so the
same machinery yields answers polynomial in a hypersurface degree d.

A product walks one Pieri strip generator, _strip, and adds every
coefficient into one dict: Pieri's rule for one-row factors and Giambelli's
sigma_{a,b} = sigma_a*sigma_b - sigma_{a+1}*sigma_{b-1} for the rest, with
sigma_m = 0 past the box width n-1 (Fulton, Intersection Theory, 14.6-14.7).
Inputs are checked at the public boundary; classes built here from valid
classes go through the trusted SchubertElt._of.

The degree of a top-codimension class is its coefficient on the point
class sigma_{n-1,n-1}.
"""

from __future__ import annotations

from .dpoly import DPoly

# a partition is a pair (a, b) with a >= b >= 0
Partition = tuple[int, int]

INHOMOGENEOUS = "inhomogeneous"


def check_partition(p) -> Partition:
    if (
        not isinstance(p, tuple)
        or len(p) != 2
        or not all(isinstance(x, int) for x in p)
    ):
        raise ValueError(f"partition must be a pair of ints, got {p!r}")
    a, b = p
    if a < b or b < 0:
        raise ValueError(f"invalid partition {p!r}: need a >= b >= 0")
    return p


def in_box(p: Partition, n: int) -> bool:
    """Whether sigma_p is nonzero on G(1, n): both rows at most n-1."""
    return p[0] <= n - 1


def _add(out: dict, key, c) -> None:
    """out[key] += c: the one accumulator of the symbolic route."""
    out[key] = out[key] + c if key in out else c


def _check_ambient(n: int):
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"ambient projective dimension must be an int >= 2, got {n!r}")


class _Combination:
    """Basis classes with coefficients in one ring: the arithmetic SchubertElt
    and FlagElt share.  A subclass supplies _ring(x), the ring of its value x
    as the trusted _of(*ring, terms) takes it, and _product.  Classes of two
    rings or two types never mix: sums and products raise, and == is False."""

    __slots__ = ("n", "terms")

    def _same_ring(self, other) -> bool:
        # the class first: a FlagElt has the n of a SchubertElt
        return type(other) is type(self) and self._ring(other) == self._ring(self)

    def _require_same_ring(self, other):
        if not self._same_ring(other):
            raise ValueError(f"ambient mismatch: {_ring_text(self)} and {_ring_text(other)} "
                             "live in different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._require_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _add(out, e, c)
        return self._of(*self._ring(self), out)

    def __neg__(self):
        return self._of(*self._ring(self), {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every coefficient times c."""
        return self._of(*self._ring(self), {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, DPoly)):
            return self.scale(other)
        self._require_same_ring(other)
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, (int, DPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Combination):
            return NotImplemented
        return self._same_ring(other) and self.terms == other.terms


def _ring_text(x) -> str:
    # "FlagElt(4, 2)": the class and its ring, as its constructor takes them
    ring = x._ring(x) if isinstance(x, _Combination) else ()
    return f"{type(x).__name__}({', '.join(map(str, ring))})"


class SchubertElt(_Combination):
    """A Chow class on G(1, n): a DPoly combination of Schubert classes."""

    __slots__ = ()
    _ring = staticmethod(lambda x: (x.n,))

    def __init__(self, n: int, terms=None):
        _check_ambient(n)
        terms = {check_partition(p): DPoly.coerce(c) for p, c in (terms or {}).items()}
        self.n = n
        self.terms = {p: c for p, c in terms.items() if in_box(p, n) and not c.is_zero()}

    @classmethod
    def _of(cls, n: int, terms: dict) -> "SchubertElt":
        """The class of terms already checked and in the box; drops zeros."""
        x = cls.__new__(cls)
        x.n, x.terms = n, {p: c for p, c in terms.items() if not c.is_zero()}
        return x

    @classmethod
    def zero(cls, n: int) -> "SchubertElt":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "SchubertElt":
        return cls(n, {(0, 0): DPoly.one()})

    def coefficient(self, p: Partition) -> DPoly:
        return self.terms.get(check_partition(p), DPoly.zero())

    def _product(self, other: "SchubertElt") -> "SchubertElt":
        return mult(self, other)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def codim(self):
        """Common codimension of all terms, or "inhomogeneous".

        The zero class is homogeneous of every codimension; returns None.
        """
        weights = {a + b for (a, b) in self.terms}
        if not weights:
            return None
        if len(weights) > 1:
            return INHOMOGENEOUS
        return weights.pop()

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            parts.append(f"{_coeff_prefix(c)}s[{a},{b}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"SchubertElt(n={self.n}, {self.text()})"


def _coeff_prefix(c: DPoly) -> str:
    """Coefficient rendering in front of a basis symbol: "", "5*", "(d - 2)*"."""
    if c == DPoly.one():
        return ""
    txt = c.text()
    # parenthesize anything that is not a single positive monomial
    if len([x for x in c.coeffs if x != 0]) > 1 or txt.startswith("-"):
        return f"({txt})*"
    return f"{txt}*"


def sigma(n: int, a: int, b: int = 0, coeff=1) -> SchubertElt:
    """The class coeff * sigma_{a,b} on G(1, n).

    Rejects indices outside the 2 x (n-1) box: the zero class in the
    quotient is constructed honestly via SchubertElt, not by asking for a
    basis class that does not exist.
    """
    check_partition((a, b))
    _check_ambient(n)
    if not in_box((a, b), n):
        raise ValueError(f"sigma[{a},{b}] is outside the box on G(1,{n})")
    return SchubertElt._of(n, {(a, b): DPoly.coerce(coeff)})


def _strip(p: Partition, m: int, n: int):
    """The partitions mu of the box with sigma_p * sigma_m = sum sigma_mu
    (Pieri): p plus a horizontal strip of m boxes, so b <= mu2 <= min(a, b+m)
    and mu1 = a+b+m-mu2 <= n-1.  Empty for m < 0, where sigma_m = 0."""
    a, b = p
    for mu2 in range(max(b, a + b + m - n + 1), min(a, b + m) + 1):
        yield a + b + m - mu2, mu2


def pieri(p: Partition, m: int, n: int) -> SchubertElt:
    """sigma_p * sigma_m on G(1, n) by Pieri's rule.

    Sums sigma_mu over partitions mu obtained from p by adding a horizontal
    strip of m boxes; terms leaving the width-(n-1) box vanish.
    """
    check_partition(p)
    _check_ambient(n)
    if m < 0:
        raise ValueError(f"one-row index must be >= 0, got {m}")
    return SchubertElt._of(n, {mu: DPoly.one() for mu in _strip(p, m, n)})


def mult(x: SchubertElt, y: SchubertElt) -> SchubertElt:
    """Ring product on G(1, n): sigma_p * sigma_{m1,m2} is
    Pieri(Pieri(p, m2), m1) - Pieri(Pieri(p, m2-1), m1+1)."""
    if not isinstance(x, SchubertElt) or not isinstance(y, SchubertElt):
        raise TypeError("mult takes two SchubertElt values")
    x._require_same_ring(y)
    n, out = x.n, {}
    for p, cp in x.terms.items():
        for (m1, m2), cq in y.terms.items():
            c = cp * cq
            for coeff, first, second in ((c, m2, m1), (-c, m2 - 1, m1 + 1)):
                for mid in _strip(p, first, n):
                    for mu in _strip(mid, second, n):
                        _add(out, mu, coeff)
    return SchubertElt._of(n, out)


def degree(x: SchubertElt) -> DPoly:
    """Integral over G(1, n): the coefficient of the point class.

    Defined only for classes of top codimension 2(n-1); the zero class
    integrates to 0.
    """
    if x.is_zero():
        return DPoly.zero()
    w = x.codim()
    if w == INHOMOGENEOUS:
        raise ValueError("degree of an inhomogeneous class is undefined")
    top = 2 * (x.n - 1)
    if w != top:
        raise ValueError(
            f"not top codimension: class has codim {w}, G(1,{x.n}) needs {top}"
        )
    return x.coefficient((x.n - 1, x.n - 1))
