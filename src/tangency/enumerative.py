"""Enumerative pipelines: contact-jet Chern classes and the classical counts.

The central object is the top Chern class of the bundle of relative
m-jets (principal parts) of O(d) along the universal line: its product
formula prod_{j=0}^{m} ((d-2j)H + j*s1) follows from the relative Euler
sequence, the relative canonical class being -2H + s1.  Pairing that class
against incidence conditions and integrating gives:

  * plane_bound: an upper bound for the number of 2-planes in a general
    degree-d hypersurface in P^5 (top contact along two marked points),
  * z6_conditional_bound: the sharper one-marked-point pairing, valid
    under an expected-dimension hypothesis,
  * flecnodal_degree: the degree of the flecnodal curve of a surface in P^3,
  * flex_count: the flexes of a plane curve,

all as exact polynomials in d.  fano_line_count is an independent anchor:
lines on a hypersurface counted by c_top(Sym^d S~) through the splitting
principle, no jet bundles involved.
"""

from __future__ import annotations

from .dpoly import DPoly
from .flag import FlagElt, hclass, integrate
from .schubert import SchubertElt, degree, sigma

# fano_line_count refuses any n above this: the root product grows as n^3
# (n = 400, 600 take 0.8 s, 2.6 s on a 2-core Xeon), and the count at
# n = 400 (2312 digits) still prints under Python's default limit of 4300
# digits for an int-to-str conversion
MAX_FANO_N = 400


def principal_parts_factors(n: int, m: int, arity: int = 1) -> list[FlagElt]:
    """The m+1 linear factors ((d-2j)H1 + j*s1), j = 0..m, unreduced."""
    if m < 0:
        raise ValueError(f"jet order must be >= 0, got {m}")
    d = DPoly.var()
    h = hclass(n, arity)
    out = []
    for j in range(m + 1):
        out.append(h.scale(d - 2 * j) + FlagElt.from_base(sigma(n, 1, coeff=j), arity))
    return out


def principal_parts_class(n: int, m: int, arity: int = 1) -> FlagElt:
    """Reduced top Chern class of the order-m relative principal parts of O(d)."""
    acc = FlagElt.from_base(SchubertElt.one(n), arity)
    for f in principal_parts_factors(n, m, arity):
        acc = acc * f
    return acc


def plane_bound() -> DPoly:
    """Upper bound for the number of 2-planes in a degree-d hypersurface in P^5.

    Integrates s11 * H1 * H2 * c_top(P^4(O(d)) in H1) * (d*H2) over the
    fiber square of the universal line of G(1,5).  Exact in Z[d]; the bound
    is meaningful for d >= 5.
    """
    n = 5
    d = DPoly.var()
    s11 = FlagElt.from_base(sigma(n, 1, 1), arity=2)
    h1 = hclass(n, 2, 1)
    h2 = hclass(n, 2, 2)
    cls = s11 * h1 * h2 * principal_parts_class(n, 4, arity=2) * h2.scale(d)
    return integrate(cls)


def z6_conditional_bound() -> DPoly:
    """One-marked-point bound for 2-planes in a degree-d hypersurface in P^5.

    Integrates s11 * H1 * c_top(P^5(O(d))) over the universal line of
    G(1,5).  Valid when the order-6 contact locus has its expected
    dimension 3.
    """
    n = 5
    s11 = FlagElt.from_base(sigma(n, 1, 1), arity=1)
    cls = s11 * hclass(n, 1, 1) * principal_parts_class(n, 5, arity=1)
    return integrate(cls)


def flecnodal_degree() -> DPoly:
    """Degree of the flecnodal curve of a degree-d surface in P^3.

    The order-4 contact locus in P(S) is a curve; pairing with H gives its
    degree as a space curve: integrate H1 * c_top(P^3(O(d))) over the
    universal line of G(1,3).
    """
    n = 3
    cls = hclass(n, 1, 1) * principal_parts_class(n, 3, arity=1)
    return integrate(cls)


def flex_count() -> DPoly:
    """Number of flexes of a smooth degree-d plane curve.

    The order-3 contact locus in P(S) over G(1,2) is already
    zero-dimensional, so the top Chern class integrates directly with no
    extra hyperplane factor.
    """
    n = 2
    return integrate(principal_parts_class(n, 2, arity=1))


def _roots_product(factors: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    # product of linear forms ca*alpha + cb*beta, as a dict over (i, j) monomials
    poly = {(0, 0): 1}
    for ca, cb in factors:
        nxt: dict[tuple[int, int], int] = {}
        for (i, j), c in poly.items():
            if ca:
                e = (i + 1, j)
                nxt[e] = nxt.get(e, 0) + ca * c
            if cb:
                e = (i, j + 1)
                nxt[e] = nxt.get(e, 0) + cb * c
        poly = nxt
    return poly


def symmetric_roots_to_schubert(poly: dict[tuple[int, int], int], n: int) -> SchubertElt:
    """Rewrite a symmetric polynomial in the two Chern roots of S~ in the
    Schubert basis, via s_(a,b)(alpha, beta) = sum_{b<=r<=a} alpha^r beta^{a+b-r}.

    Subtracts the Schur polynomial of the lex-leading monomial until nothing
    is left; exactness of that loop is equivalent to symmetry of the input.
    """
    work = {e: c for e, c in poly.items() if c}
    terms: dict[tuple[int, int], int] = {}
    while work:
        i, j = max(work)
        if i < j:
            raise ValueError("polynomial is not symmetric in the Chern roots")
        c = work[(i, j)]
        for r in range(j, i + 1):
            e = (r, i + j - r)
            v = work.get(e, 0) - c
            if v:
                work[e] = v
            else:
                work.pop(e, None)
        terms[(i, j)] = terms.get((i, j), 0) + c
    return SchubertElt(n, {p: DPoly.const(c) for p, c in terms.items()})


def fano_line_count(n: int, d: int, swap_roots: bool = False) -> int:
    """Number of lines on a general degree-d hypersurface in P^n, when finite.

    Requires d + 1 = 2(n-1) so that the Fano scheme has expected dimension
    zero; then the count is the degree of c_top(Sym^d S~), expanded through
    the Chern roots alpha, beta of S~ (alpha + beta = s1, alpha*beta = s11).
    swap_roots exchanges the roles of the roots; the answer must not change.
    An n above MAX_FANO_N is refused before the expansion.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if d + 1 != 2 * (n - 1):
        raise ValueError(
            f"finite line count needs d + 1 = 2(n-1): got d+1 = {d + 1}, "
            f"2(n-1) = {2 * (n - 1)}; the Fano scheme has expected dimension "
            f"{2 * (n - 1) - (d + 1)}"
        )
    if n > MAX_FANO_N:
        raise ValueError(f"n must be at most {MAX_FANO_N}, got {n}")
    factors = [(j, d - j) for j in range(d + 1)]
    if swap_roots:
        factors = [(cb, ca) for ca, cb in factors]
    elt = symmetric_roots_to_schubert(_roots_product(factors), n)
    return degree(elt).constant_value()


# validity notes and pipeline stage lists, surfaced in CLI JSON output
BOUND_INFO = {
    "planes": {
        "func": plane_bound,
        "validity": "upper bound for 2-planes valid for d >= 5",
        "pipeline": [
            "form s[1,1]*H1*H2 on the fiber square of the universal line over G(1,5)",
            "multiply by the order-4 principal parts top Chern class in H1",
            "multiply by d*H2",
            "reduce modulo H^2 = s[1,0]*H - s[1,1] in both slots",
            "push forward to G(1,5) and take the degree",
        ],
    },
    "z6": {
        "func": z6_conditional_bound,
        "validity": "conditional: assumes the order-6 contact locus Z6 has expected dimension 3; d >= 5",
        "pipeline": [
            "form s[1,1]*H1 on the universal line over G(1,5)",
            "multiply by the order-5 principal parts top Chern class in H1",
            "reduce modulo H^2 = s[1,0]*H - s[1,1]",
            "push forward to G(1,5) and take the degree",
        ],
    },
    "flecnodal": {
        "func": flecnodal_degree,
        "validity": "degree of the flecnodal curve, valid for d >= 3",
        "pipeline": [
            "form H1 on the universal line over G(1,3)",
            "multiply by the order-3 principal parts top Chern class",
            "reduce and push forward to G(1,3), take the degree",
        ],
    },
    "flex": {
        "func": flex_count,
        "validity": "flex count of a smooth plane curve, valid for d >= 3",
        "pipeline": [
            "form the order-2 principal parts top Chern class over G(1,2)",
            "reduce and push forward to G(1,2), take the degree",
        ],
    },
}
