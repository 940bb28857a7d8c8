"""Chow classes on the universal line and its fiber square.

P(S) -> G(1, n) is the incidence variety of pairs (line, point on it), a
P^1-bundle with hyperplane class H satisfying H^2 = s1*H - s11.  The fiber
square P(S) x_G P(S) carries two such classes H1, H2 with the same relation
in each slot.  Elements here are polynomials in H1 (and H2 for arity 2)
with SchubertElt coefficients.  reduce_class rewrites them to the {1, H}
basis in one pass, from a table H^a = A_a*H + B_a, after which pushing
forward to G(1, n) is reading off the H1 (arity 1) or H1*H2 (arity 2)
coefficient.  Inputs are checked at the public boundary; sums and products
of valid elements go through the trusted FlagElt._of.  parse_expression
reads an arity-2 element from text such as s[1,1]*H1*H2, within a nesting
limit and a work budget for its products.
"""

from __future__ import annotations

import re

from .dpoly import DPoly
from .fields import _quoted, magnitude, read_int
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


# ---------------------------------------------------------------------------
# expression parsing: integers, d, s[a,b], H1, H2, + - * ^ ( )

_TOKEN = re.compile(
    r"\s*(?:(?P<sig>s\[\s*\d+\s*(?:,\s*\d+\s*)?\])|(?P<h>H[12])"
    r"|(?P<int>\d+)|(?P<var>d)|(?P<op>[-+*^()]))"
)


# parentheses and unary signs one expression may nest: each level is a few
# frames of the recursive-descent parser, far below Python's recursion limit
MAX_NESTING = 100


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read expression at: {text[pos:pos + 20]!r}")
        out.append(m.group(0).strip())
        pos = m.end()
    out.append("")  # end marker
    return out


# Steps one expression may take, charged before each product: for every
# pair of Schubert terms, one product of their coefficients and n^2 Pieri
# strip steps that add it into the result, each priced at the _size of the
# coefficients.  s[1]^118 on G(1,60) takes about 1e7, s[1]^100 on G(1,100)
# 2e7; s[1]^400 on G(1,300) and (d+1)^4000 are refused.
_SYMBOLIC_BUDGET = 1 << 28


def _size(c: DPoly) -> int:
    """c's coefficients times the 30-bit digits (Python's) of its largest."""
    return len(c.coeffs) * (1 + max(map(int.bit_length, c.coeffs)) // 30)


class _ExprParser:
    """Recursive-descent parser producing a FlagElt of arity 2."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.work = 0
        self.depth = 0

    def nested(self, parse) -> FlagElt:
        """parse() one level deeper, refused past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            raise ValueError(f"expression {_quoted(self.text)} nests parentheses and signs "
                             f"deeper than the limit of {MAX_NESTING}")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def times(self, x: FlagElt, y: FlagElt) -> FlagElt:
        """x * y, once its steps fit in what is left of the budget."""
        sizes = [[_size(c) for s in z.terms.values() for c in s.terms.values()]
                 for z in (x, y)]
        (tx, sx), (ty, sy) = ((len(z), sum(z)) for z in sizes)
        self.work += self.n ** 2 * (sx * ty + tx * sy) + sx * sy
        if self.work > _SYMBOLIC_BUDGET:
            raise ValueError(f"the products on G(1,{self.n}) would take about "
                             f"{magnitude(self.work)} steps, over the work budget of "
                             f"2^{_SYMBOLIC_BUDGET.bit_length() - 1} for one expression")
        return x * y

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> FlagElt:
        value = self.expr()
        if self.peek() != "":
            raise ValueError(f"unexpected token {self.peek()!r} in expression")
        return value

    def expr(self) -> FlagElt:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> FlagElt:
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = self.times(value, self.factor())
        return value

    def factor(self) -> FlagElt:
        if self.peek() == "-":
            self.take()
            return self.nested(self.factor).scale(-1)
        value = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"exponent must be an integer, got {tok!r}")
            # square and multiply with power * value^e fixed; once either
            # factor is zero (every class past the dimension is), so is the rest
            power, e = self._scalar(1), read_int(tok, "expression")
            while e and not (power.is_zero() or value.is_zero()):
                if e & 1:
                    power = self.times(power, value)
                e >>= 1
                if e:
                    value = self.times(value, value)
            value = FlagElt.zero(self.n, 2) if e else power
        return value

    def _scalar(self, c) -> FlagElt:
        return FlagElt.from_base(sigma(self.n, 0, 0, coeff=c), arity=2)

    def atom(self) -> FlagElt:
        tok = self.take()
        if tok == "(":
            value = self.nested(self.expr)
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in expression")
            return value
        if tok.isdigit():
            return self._scalar(read_int(tok, "expression"))
        if tok == "d":
            return self._scalar(DPoly.var())
        if tok in ("H1", "H2"):
            return hclass(self.n, 2, int(tok[1]))
        if tok.startswith("s["):
            inner = tok[2:-1]
            parts = [read_int(x, "expression") for x in inner.split(",")]
            a, b = (parts[0], 0) if len(parts) == 1 else (parts[0], parts[1])
            return FlagElt.from_base(sigma(self.n, a, b), arity=2)
        raise ValueError(f"unexpected token {tok!r} in expression")


def parse_expression(text: str, n: int) -> FlagElt:
    return _ExprParser(text, n).parse()
