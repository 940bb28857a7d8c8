"""Homogeneous forms, parametrized lines, and restriction to a line.

A HyperForm is a degree-d homogeneous polynomial in x_0..x_n over an exact
field (QQ or F_p with p > d; the bound keeps every factorial up to d
invertible, which the jet computations rely on).  A LineParam is a rank-2
parametrization L(s, t) = s*u + t*p, its rank taken by fields.row_reduce;
the marked point is p = L([0:1]).

One routine, expand, writes a form in new linear coordinates:
F(y_0*c_0 + ... + y_m*c_m), optionally cut to degree <= top in y_1..y_m
while it multiplies.  Values, pullbacks and substitutions are all this
one expansion, over QQ, F_p or the Fermat root ring: F(p) is F(y_0*p), a
pullback F(t*p + s*u) = sum_m s^m t^(d-m) G_m(p, u) (also of dF/dx_i), and
the truncation F_k comes from F(B*y) cut at top = k.

expand sums the terms by a multivariate Horner walk (Pena and Sauer, On
the multivariate Horner scheme, SIAM J. Numer. Anal. 37, 2000): the terms
whose first nonzero exponent is the same x_j^a are expanded together, and
their sum is multiplied by the cached truncated power lin_j^a once, where
lin_j = sum_i y_i c_i[j].  A lin_j of one term c y^k is raised in one
step, to c^a y^(a*k), or to nothing past the cut: nothing in the chain
of products it replaces reduces, so that is the chain's own result.  The
Fermat planes' pure powers take that step.  A term that shares its
leading factor with no other goes straight to its product chain, so
forms whose terms share nothing (the Fermat pure powers) pay only for the
grouping pass.  Each group's product, and the last product of each chain,
is added straight into the sum it belongs to, so no partial expansion is
copied or merged.
The walk runs in Python ints for every ring: ring.lifted(terms, cols)
gives the terms and columns as ints and a lower(a, num) that makes each
output coefficient one ring element at the end (QQ clears denominators,
F_p reduces by % p, the root ring Z[z]/(z^d + 1) packs by Kronecker
substitution), so no ring element is built, reduced or added inside the
expansion.  The walk is written once, as _walk, over the operations it
is given: expand gives it _products' dict products, and _expand_steps
bounds on their terms, so an expansion is priced by the very walk that
makes it, and a caller can refuse one that is too large before it starts.

Restriction to a line produces binary forms in (s, t), stored as plain
coefficient lists indexed by the s-exponent: form[m] is the coefficient
of s^m t^(D-m).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .fields import _quoted, matrix_rank, read_int

# the (n, d) whose monomial lists stay memoized: deform-fp's trials ask
# for 12 across its nine (n, d) pairs
MONOMIALS_MEMO = 32


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of degree d in n+1 variables, lex order.

    The exponents of the last MONOMIALS_MEMO (n, d) asked for are kept, as
    a tuple, so that trials over the same (n, d) enumerate them once; each
    call returns a fresh list, which the caller may change."""
    return list(_monomials(n, d))


@lru_cache(maxsize=MONOMIALS_MEMO)
def _monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    # each exponent from the one before it in lex order, in a loop: the
    # last of x_0..x_(n-1) that is nonzero gives one to the variable after
    # it, which also takes x_n's exponent
    e = [d] + [0] * n
    out = [tuple(e)]
    i = n - 1
    while True:
        while i >= 0 and not e[i]:
            i -= 1
        if i < 0:
            return tuple(out)
        tail, e[n] = e[n], 0
        e[i] -= 1
        e[i + 1] = tail + 1
        out.append(tuple(e))
        i = n - 1


def expand(terms: dict, cols, ring, top: int | None = None) -> dict:
    """F(y_0*cols[0] + ... + y_m*cols[m]) as a dict {y-exponent tuple: coefficient}.

    terms maps x-exponent tuples, all of one degree (a form), to ring
    elements and cols[j][i] is the coefficient of y_j in x_i.  With top
    set, every monomial of degree > top in y_1..y_m is dropped while the
    products are formed: that degree never falls as more linear factors
    are multiplied in, so a truncated expansion costs only what it keeps.
    Zero coefficients are left out of the result.

    The terms are summed by the Horner walk of the module docstring, the
    top cut applied at every product, in the integers of ring.lifted; the
    ring needs only lifted and is_zero.
    """
    if not terms or (top is not None and top < 0):
        return {}
    terms, cols, lower = ring.lifted(terms, cols)
    first = next(iter(terms))
    d = sum(first)
    base, times, power, chain = _products(d, cols, top)

    # a form of degree 0 is one constant, which has no leading factor
    packed = (_walk(terms.items(), d, chain, power, times, lambda items: {}) if d
              else chain(first, terms[first], 0, {}))
    out = {}
    for k, num in packed.items():
        if num:
            exps = []
            for _ in cols:
                k, a = divmod(k, base)
                exps.append(a)
            a = tuple(exps)
            c = lower(a, num)
            if not ring.is_zero(c):
                out[a] = c
    return out


def _expand_steps(terms: dict, cols, ring, top: int | None = None,
                 within: int | None = None) -> int:
    """An upper bound on the steps expand(terms, cols, ring, top) takes,
    found without expanding: the coefficient pairs its products multiply,
    the terms its grouping passes visit and the digits, one per column, of
    each term it unpacks.  It runs expand's walk, _walk, with each product
    replaced by a bound on its terms: lin_i has the r_i
    nonzero cols[j][i], its cut power lin_i^a (a >= 2) at most
    C(min(a, top) + r_i - 1, min(a, top)) with y_0 among them and otherwise
    C(a + r_i - 1, a), none past a = top, and a product of degree deg at
    most the C(m + min(deg, top), m) monomials of degree <= top in
    y_1..y_m.  Each cached power lin_i^a is priced as lin_i^(a-1) times
    lin_i, which a lin_i of one term takes in one step with no product, so
    the price stays an upper bound there.  A walk-free bound, each of the
    at most |terms| min(n + 1, d) products and grouping visits at its
    largest, is returned instead when it is at most within.
    """
    if not terms or (top is not None and top < 0):
        return 0
    d, m = sum(next(iter(terms))), len(cols) - 1
    if d == 0:   # one constant, unpacked
        return m + 1
    top = d if top is None else top
    cap = [comb(m + min(deg, top), m) for deg in range(d + 1)]
    size = []   # size[i][a]: the terms of lin_i^a
    for i in range(len(cols[0])):
        r = sum(not ring.is_zero(col[i]) for col in cols)
        if ring.is_zero(cols[0][i]):
            size.append([1, r] + [comb(a + r - 1, a) * (a <= top) for a in range(2, d + 1)])
        else:
            size.append([1, r] + [comb(min(a, top) + r - 1, min(a, top)) for a in range(2, d + 1)])
    # each power up to lin_i^d, cached, priced as lin_i^(a-1) times lin_i
    steps = sum(s[a - 1] * s[1] for s in size for a in range(2, d + 1))
    if within is not None:
        coarse = (m + 1) * cap[d] + len(terms) * min(len(cols[0]), d) * (
            1 + max(cap) * max(map(max, size)))
        if steps + coarse <= within:
            return steps + coarse

    def chain(e, c, j, out):
        # each product of one term's chain priced at its factors' terms, the
        # partial product then cut at the monomials of its degree
        part, got = 1, 0
        for i in range(j, len(e)):
            if e[i]:
                got += e[i]
                out[0] += part * size[i][e[i]]
                part = min(part * size[i][e[i]], cap[got])
        out[1] += part

    def power(i, a):
        return (size[i][a], a) if size[i][a] else None

    def times(part, lead, deg, out):
        # a group's sum, cut at its degree deg - a, times lin_i^a
        s, a = lead
        kept = min(part[1], cap[deg - a])
        out[0] += part[0] + kept * s
        out[1] += kept * s

    walked, left = _walk(terms.items(), d, chain, power, times,
                         lambda items: [len(items), 0])
    return steps + walked + (m + 1) * min(left, cap[d])


def _walk(items, d: int, chain, power, times, new):
    # the sum new(items) of the items (e, c) of a degree-d form, d >= 1, by
    # the Horner walk: the items that share a leading x_j^a are summed from
    # j + 1 into new(group), and times(sum, lead, deg, out) adds that sum
    # times lead = power(j, a) into the sum of degree deg it belongs to (a
    # falsy lead drops the group); an item alone in its group goes to
    # chain(e, c, j, out).  A frame of the stack holds the groups left, its
    # degree, its sum and the (lead, deg) it goes to: no recursion
    out = new(items)
    stack = [(_groups(items, 0), d, out, None)]
    while stack:
        left, deg, part, up = stack[-1]
        for (j, a), group in left:
            if len(group) == 1:
                e, c = group[0]
                chain(e, c, j, part)
            elif lead := power(j, a):
                stack.append((_groups(group, j + 1), deg - a, new(group), (lead, deg)))
                break
        else:
            stack.pop()
            if up:
                times(part, *up, stack[-1][2])
    return out


def _groups(items, pos: int):
    # the items (e, c) by their leading factor x_j^a, j the first nonzero
    # exponent from pos, in the order they first occur
    out: dict = {}
    for item in items:
        e = item[0]
        j = pos
        while not e[j]:
            j += 1
        out.setdefault((j, e[j]), []).append(item)
    return iter(out.items())


def _products(d: int, cols, top):
    # (base, times, power, chain) for products of degree <= d of the linear
    # forms lin_i = sum_j y_j cols[j][i], cols in ints, each a dict keyed by
    # packed y-monomials, every product cut at top: times(a, b, deg, out)
    # adds a * b into out (a new dict if None), power(i, e) is lin_i^e,
    # cached and in one step when lin_i has one term, and chain(e, c, j,
    # out) adds c * prod_(i >= j) lin_i^e_i into out
    #
    # a y-monomial is the packed integer sum_j a_j * base^j: no exponent
    # reaches base, so a product is one integer add and key % base is a_0
    base = d + 1
    places = [base ** j for j in range(len(cols))]
    lin = [{pl: col[i] for pl, col in zip(places, cols) if col[i]}
           for i in range(len(cols[0]))]

    def times(a: dict, b: dict, deg: int, out: dict | None = None) -> dict:
        # deg is the degree of every product monomial; it has degree
        # deg - a_0 in y_1..y_m
        cut = -1 if top is None else deg - top
        if out is None:
            out = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                if k % base >= cut:
                    out[k] = get(k, 0) + ca * cb
        return out

    powers: dict[tuple[int, int], dict] = {}

    def power(i: int, e: int) -> dict:
        got = powers.get((i, e))
        if got is None:
            if e == 1:
                got = lin[i]
            elif len(lin[i]) == 1:
                # c y^k to the e in one step, cut as the chain of times would
                # cut it: nothing inside that chain reduces
                (k, c), = lin[i].items()
                got = {k * e: c ** e} if top is None or k * e % base >= e - top else {}
            else:   # up from lin_i in a loop, each power kept: e can be large
                got = powers.setdefault((i, 1), lin[i])
                for b in range(2, e + 1):
                    got = powers[(i, b)] if (i, b) in powers else times(got, lin[i], b)
                    powers[(i, b)] = got
            powers[(i, e)] = got
        return got

    def chain(e: tuple, c: int, j: int, out: dict) -> dict:
        # the last product goes straight into out
        last = len(e) - 1
        while last >= j and not e[last]:
            last -= 1
        if last < j:   # a constant
            out[0] = out.get(0, 0) + c
            return out
        part, deg = {0: c}, 0
        for i in range(j, last):
            if e[i]:
                deg += e[i]
                part = times(part, power(i, e[i]), deg)
        return times(part, power(last, e[last]), deg + e[last], out)

    return base, times, power, chain


# ---------------------------------------------------------------------------
# binary forms in (s, t): list indexed by s-exponent


def s_valuation(a: list, field) -> int | None:
    """Least s-exponent with nonzero coefficient; None for the zero form."""
    for m, c in enumerate(a):
        if not field.is_zero(c):
            return m
    return None


# ---------------------------------------------------------------------------


class LineParam:
    """A line in P^n given by L(s, t) = s*u + t*p, rows[i] = (u_i, p_i)."""

    __slots__ = ("n", "field", "rows")

    def __init__(self, rows, field):
        rows = [tuple(field.of(c) for c in r) for r in rows]
        if any(len(r) != 2 for r in rows) or len(rows) < 2:
            raise ValueError("line parametrization needs n+1 rows of two entries")
        self.rows = rows
        self.n = len(rows) - 1
        self.field = field
        if matrix_rank([self.marked_point(), self.direction()], self.n + 1, field) != 2:
            raise ValueError("degenerate parametrization: rank < 2")

    @classmethod
    def from_point_direction(cls, p, u, field) -> "LineParam":
        return cls([(ui, pi) for ui, pi in zip(u, p)], field)

    def marked_point(self) -> list:
        """L([0:1]) = p."""
        return [r[1] for r in self.rows]

    def direction(self) -> list:
        """L([1:0]) = u."""
        return [r[0] for r in self.rows]


def _check_characteristic(d: int, field) -> None:
    """Refuse a field whose characteristic is positive and at most d."""
    if 0 < field.characteristic <= d:
        raise ValueError(
            f"field characteristic {field.characteristic} must exceed the degree {d}"
        )


class HyperForm:
    """A homogeneous form of degree d in x_0..x_n over an exact field."""

    __slots__ = ("n", "d", "field", "terms")

    def __init__(self, n: int, d: int, terms, field):
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        _check_characteristic(d, field)
        self.n = n
        self.d = d
        self.field = field
        clean: dict[tuple[int, ...], object] = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != n + 1 or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e!r} for n={n}")
            if sum(e) != d:
                raise ValueError(f"non-homogeneous term {e!r}: degree {sum(e)} != {d}")
            c = field.of(c)
            if field.is_zero(c):
                continue
            clean[e] = c
        self.terms = clean

    @classmethod
    def _of(cls, n: int, d: int, terms: dict, field) -> "HyperForm":
        """The form of terms already valid: n + 1 exponents of degree d
        each, coefficients elements of field and none of them zero, n and
        d at least 1 and the characteristic past d.  Nothing is checked;
        the results of expand and the sampler's kernel vectors come here,
        and every outside input goes through HyperForm(...)."""
        x = cls.__new__(cls)
        x.n, x.d, x.terms, x.field = n, d, terms, field
        return x

    @classmethod
    def fermat(cls, n: int, d: int, field) -> "HyperForm":
        terms = {}
        for i in range(n + 1):
            e = [0] * (n + 1)
            e[i] = d
            terms[tuple(e)] = field.one
        return cls(n, d, terms, field)

    def evaluate(self, point) -> object:
        """F(point): the y_0^d coefficient of F(y_0*point)."""
        got = expand(self.terms, [self._point(point)], self.field)
        return got.get((self.d,), self.field.zero)

    def _point(self, point) -> list:
        if len(point) != self.n + 1:
            raise ValueError(f"a point of P^{self.n} needs {self.n + 1} coordinates, "
                             f"got {len(point)}")
        return [self.field.of(x) for x in point]

    def pullback(self, line: LineParam) -> list:
        """Restriction F(L(s,t)) as a binary form."""
        if line.n != self.n:
            raise ValueError(f"line in P^{line.n} cannot pull back a form on P^{self.n}")
        return _along_line(self.terms, self.d, line, self.d + 1)

    def substitute(self, B, upto: int | None = None) -> "HyperForm":
        """Linear change of coordinates x_i = sum_j B[i][j] * y_j.

        upto keeps only the monomials of degree <= upto in y_1..y_n, the
        order at the point whose coordinates are column 0 of B.
        """
        f = self.field
        n1 = self.n + 1
        if len(B) != n1 or any(len(r) != n1 for r in B):
            raise ValueError("substitution matrix has wrong shape")
        cols = [[f.of(row[j]) for row in B] for j in range(n1)]
        return HyperForm._of(self.n, self.d, expand(self.terms, cols, f, upto), f)

    def text(self) -> str:
        lines = []
        for e in sorted(self.terms, reverse=True):
            lines.append(str(self.terms[e]) + " " + " ".join(str(x) for x in e))
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, HyperForm):
            return NotImplemented
        return ((self.n, self.d, self.field.characteristic, self.terms)
                == (other.n, other.d, other.field.characteristic, other.terms))

    def __repr__(self):
        return f"HyperForm(n={self.n}, d={self.d}, {len(self.terms)} terms)"


def _derivative_terms(F: HyperForm, i: int) -> dict:
    f = F.field
    out = {}
    for e, c in F.terms.items():
        if e[i] == 0:
            continue
        e2 = list(e)
        e2[i] -= 1
        out[tuple(e2)] = f.mul(c, f.of(e[i]))
    return out


def _along_line(terms: dict, deg: int, line: LineParam, width: int) -> list:
    # the degree-deg form terms on L(s,t) = s*u + t*p, first width s-coefficients
    f = line.field
    got = expand(terms, [line.marked_point(), line.direction()], f, width - 1)
    return [got.get((deg - m, m), f.zero) for m in range(width)]


def pullback_of_partial(F: HyperForm, i: int, line: LineParam, upto: int | None = None) -> list:
    """Restriction of dF/dx_i to a line, as a binary form of degree d-1.

    Works for any d >= 1 (a linear form's partial is a constant, which a
    HyperForm cannot carry).  Neither of deformation's routes takes its
    jets here: the direct route reads them off its line table and the
    truncated route off F_k's terms.  The tests check both routes against
    it, and the benchmark's tracer hooks the name in deformation.
    """
    width = F.d if upto is None else min(F.d, upto)
    return _along_line(_derivative_terms(F, i), F.d - 1, line, width)


def parse_form(text: str, field) -> HyperForm:
    """Parse the one-term-per-line format "c m0 m1 ... mn"; '#' starts a
    comment.  n + 1 exponents a line; d is the degree of the first term."""
    terms: dict[tuple[int, ...], object] = {}
    n = None
    d = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) < 3:
            raise ValueError(f"line {lineno}: need a coefficient and n+1 exponents")
        c = _parse_scalar(toks[0], field, f"line {lineno}")
        e = tuple(read_int(t, f"line {lineno}") for t in toks[1:])
        if None in e:
            raise ValueError(f"line {lineno}: exponents must be integers")
        if n is None:
            n = len(e) - 1
        elif len(e) != n + 1:
            raise ValueError(f"line {lineno}: expected {n + 1} exponents, got {len(e)}")
        if d is None:
            d = sum(e)
        terms[e] = field.add(terms.get(e, field.zero), c)
    if n is None:
        raise ValueError("empty form description")
    return HyperForm(n, d, terms, field)


def parse_line_param(text: str, field) -> LineParam:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"line {lineno}: need exactly two entries 'cs ct'")
        rows.append(tuple(_parse_scalar(t, field, f"line {lineno}") for t in toks))
    return LineParam(rows, field)


def _parse_scalar(tok: str, field, where: str):
    """The field element "a" or "a/b"; `where` (option, line) opens an error."""
    parts = [read_int(x, where) for x in tok.split("/", 1)]
    if None in parts:
        raise ValueError(f"{where}: {_quoted(tok)} is not an integer or a fraction a/b")
    c = field.of(parts[0])
    if len(parts) == 1:
        return c
    den = field.of(parts[1])
    if field.is_zero(den):
        raise ValueError(f"{where}: {_quoted(tok)} has a zero denominator in {field!r}")
    return field.mul(c, field.inv(den))
