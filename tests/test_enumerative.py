"""Frozen enumerative targets: the plane bound, the conditional Z6 bound,
the flecnodal curve degree, the flex count, and finite Fano line counts."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tangency.dpoly import DPoly
from tangency.enumerative import (
    BOUND_INFO,
    MAX_FANO_N,
    fano_line_count,
    flecnodal_degree,
    flex_count,
    plane_bound,
    principal_parts_class,
    principal_parts_factors,
    symmetric_roots_to_schubert,
    z6_conditional_bound,
)
from tangency.flag import FlagElt, hclass, integrate, parse_expression
from tangency.schubert import sigma

d = DPoly.var()


def test_plane_bound_polynomial():
    assert plane_bound() == 35 * d ** 4 - 150 * d ** 3 + 120 * d ** 2
    assert plane_bound().text("desc") == "35*d^4 - 150*d^3 + 120*d^2"
    assert plane_bound().evaluate(5) == 6125


def test_z6_polynomial():
    assert z6_conditional_bound() == 225 * d ** 3 - 1370 * d ** 2 + 1800 * d
    assert z6_conditional_bound().evaluate(5) == 2875


def test_flecnodal_polynomial():
    assert flecnodal_degree() == 11 * d ** 2 - 24 * d
    # cubic surface: flecnodal curve of degree 27
    assert flecnodal_degree().evaluate(3) == 27
    assert flecnodal_degree().evaluate(4) == 80


def test_flex_polynomial():
    assert flex_count() == 3 * d ** 2 - 6 * d
    # smooth plane cubic has 9 flexes
    assert flex_count().evaluate(3) == 9


def test_principal_parts_factors_shape():
    # j-th factor is (d - 2j) H + j s1
    n, m = 5, 4
    factors = principal_parts_factors(n, m, arity=2)
    assert len(factors) == m + 1
    for j, f in enumerate(factors):
        h_coeff = f.terms.get((1, 0))
        base = f.terms.get((0, 0))
        assert h_coeff is not None and h_coeff.coefficient((0, 0)) == d - 2 * j
        if j == 0:
            assert base is None or base.coefficient((1, 0)) == 0
        else:
            assert base.coefficient((1, 0)) == DPoly.const(j)
    with pytest.raises(ValueError, match="jet order must be >= 0, got -1"):
        principal_parts_factors(n, -1)


def test_principal_parts_class_is_reduced():
    x = principal_parts_class(3, 3)
    assert all(i <= 1 and j <= 1 for (i, j) in x.terms)


def test_plane_bound_dominates_15d_cubed():
    for dd in range(5, 41):
        assert plane_bound().evaluate(dd) >= 15 * dd ** 3


# lines on a generic hypersurface of degree 2n - 3 in P^n (OEIS A027363)
FANO_ORACLE = {(3, 3): 27, (4, 5): 2875, (5, 7): 698005, (6, 9): 305093061}


def test_fano_counts():
    for (n, dd), lines in FANO_ORACLE.items():
        assert fano_line_count(n, dd) == lines
    assert fano_line_count(2, 1) == 1  # one line through... the trivial case


def test_fano_swap_symmetry():
    for (n, dd), lines in FANO_ORACLE.items():
        assert fano_line_count(n, dd, swap_roots=True) == lines


def test_fano_dimension_error():
    with pytest.raises(ValueError, match="expected dimension"):
        fano_line_count(3, 4)
    with pytest.raises(ValueError, match="expected dimension"):
        fano_line_count(5, 5)


def test_fano_limit():
    # the largest count allowed still converts to a string
    assert len(str(fano_line_count(MAX_FANO_N, 2 * MAX_FANO_N - 3))) == 2312
    for n in (MAX_FANO_N + 1, 100000):
        with pytest.raises(ValueError, match=f"at most {MAX_FANO_N}, got {n}"):
            fano_line_count(n, 2 * n - 3)


def test_symmetric_reduction_rejects_asymmetric_input():
    # alpha^2*beta is not symmetric under root swap
    poly = {(2, 1): DPoly.one()}
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_roots_to_schubert(poly, 4)


def test_bound_registry_is_complete():
    assert set(BOUND_INFO) == {"planes", "z6", "flecnodal", "flex"}
    for name, info in BOUND_INFO.items():
        assert callable(info["func"])
        assert isinstance(info["validity"], str) and info["validity"]
        assert info["pipeline"] and all(isinstance(s, str) for s in info["pipeline"])
        # every registered bound reproduces on call
        assert info["func"]() == info["func"]()


def test_plane_bound_pipeline_equivalent_forms():
    # the H2-degree factor commutes past the order-4 jet class
    n = 5
    s11 = FlagElt.from_base(sigma(n, 1, 1), arity=2)
    h1 = hclass(n, 2, 1)
    h2 = hclass(n, 2, 2)
    jet = principal_parts_class(n, 4, arity=2)

    a = integrate(s11 * h1 * h2 * jet * h2.scale(d))
    b = integrate(s11 * h1 * jet * h2.scale(d) * h2)
    assert a == b == plane_bound()


# Bott's residue formula (Atiyah-Bott 1984; Ellingsrud-Stromme, JAMS 1996)
# as an oracle independent of flag reduction and Pieri.  A torus with
# distinct weights t_0..t_n acts on C^(n+1).  The fixed points of G(1, n)
# are the coordinate lines {i, j}, with tangent weights (t_k - t_i) and
# (t_k - t_j) for k not in {i, j}; over {i, j} the fixed points of each
# fiber P(S) are e_i and e_j, with tangent weight t_other - t_x.  There the
# Chern roots of S~ are a, b = -t_i, -t_j (s1 = a + b, s11 = a*b) and
# H = -t_x.  A top-degree class integrates to the sum over fixed points of
# its value divided by the product of the tangent weights.


def bott_sum(n, fibers, value, seed):
    t = random.Random(seed).sample(range(-50, 51), n + 1)
    total = Fraction(0)
    for i, j in combinations(range(n + 1), 2):
        base = prod((t[k] - t[i]) * (t[k] - t[j]) for k in range(n + 1) if k not in (i, j))
        for xs in product((i, j), repeat=fibers):
            euler = base * prod(t[i + j - x] - t[x] for x in xs)
            total += Fraction(value(-t[i], -t[j], [-t[x] for x in xs]), euler)
    return total


def jets(dd, m, a, b, h):
    # top Chern class of the order-m principal parts of O(d)
    return prod((dd - 2 * j) * h + j * (a + b) for j in range(m + 1))


# each bound as (function, n, fibers, its class evaluated at a fixed point)
LOCALIZED_BOUNDS = {
    "planes": (plane_bound, 5, 2,
               lambda dd, a, b, h: a * b * h[0] * h[1] * jets(dd, 4, a, b, h[0]) * dd * h[1]),
    "z6": (z6_conditional_bound, 5, 1,
           lambda dd, a, b, h: a * b * h[0] * jets(dd, 5, a, b, h[0])),
    "flecnodal": (flecnodal_degree, 3, 1, lambda dd, a, b, h: h[0] * jets(dd, 3, a, b, h[0])),
    "flex": (flex_count, 2, 1, lambda dd, a, b, h: jets(dd, 2, a, b, h[0])),
}


@pytest.mark.parametrize("name", sorted(LOCALIZED_BOUNDS))
def test_bounds_match_bott_localization(name):
    func, n, fibers, cls = LOCALIZED_BOUNDS[name]
    bound = func()
    for dd in range(1, 9):
        value = bott_sum(n, fibers, lambda a, b, h: cls(dd, a, b, h), seed=f"{name}:{dd}")
        assert value == bound.evaluate(dd), (name, dd)


def test_fano_counts_match_bott_localization():
    for (n, dd), lines in FANO_ORACLE.items():
        # c_top(Sym^d S~) through its roots j*a + (d-j)*b
        value = bott_sum(n, 0, lambda a, b, h: prod(j * a + (dd - j) * b for j in range(dd + 1)),
                         seed=f"fano:{n}")
        assert value == lines, (n, dd)


# Bott's formula against random top-degree products parsed as the CLI
# parses them, over the fiber square of the universal line of G(1, n),
# n = 2..6: factors s[a,b] inside the box, H1 and H2, each to a power, and
# a nonzero integer scalar; and sums and differences of two such products.
# This guards the +, -, * and ^ of the classes.  At a fixed point s[a,b] is
# the Schur polynomial sum_{r=b..a} a^r b^(a+b-r) in the roots, the lift
# symmetric_roots_to_schubert reads.


def _schur(i, j, a, b):
    return sum(a ** r * b ** (i + j - r) for r in range(j, i + 1))


@st.composite
def top_products(draw, n):
    # (text, value at a fixed point) of a product of degree 2n, in any
    # order; it holds H1 and H2, without which it would integrate to 0
    left = 2 * n - 2
    factors = [("H1", lambda a, b, h: h[0]), ("H2", lambda a, b, h: h[1])]
    while left:
        if draw(st.booleans()):
            i = draw(st.integers(1, min(n - 1, left)))
            j = draw(st.integers(0, min(i, left - i)))
            e = draw(st.integers(1, left // (i + j)))
            factors.append((f"s[{i},{j}]^{e}",
                            lambda a, b, h, i=i, j=j, e=e: _schur(i, j, a, b) ** e))
            left -= e * (i + j)
        else:
            slot, e = draw(st.integers(1, 2)), draw(st.integers(1, left))
            factors.append((f"H{slot}^{e}", lambda a, b, h, slot=slot, e=e: h[slot - 1] ** e))
            left -= e
    c = draw(st.integers(-5, 5).filter(bool))
    factors.append((f"({c})", lambda a, b, h: c))
    factors = draw(st.permutations(factors))
    return "*".join(t for t, _ in factors), lambda a, b, h: prod(v(a, b, h) for _, v in factors)


@st.composite
def top_classes(draw):
    n = draw(st.integers(2, 6))
    text, value = draw(top_products(n))
    if not draw(st.booleans()):
        return n, text, value
    op = draw(st.sampled_from("+-"))
    other, other_value = draw(top_products(n))
    sign = 1 if op == "+" else -1
    return n, f"{text} {op} {other}", lambda a, b, h: value(a, b, h) + sign * other_value(a, b, h)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(top_classes())
def test_random_top_products_match_bott_localization(case):
    n, text, value = case
    integral = integrate(parse_expression(text, n)).constant_value()
    assert integral == bott_sum(n, 2, value, seed=text), text
