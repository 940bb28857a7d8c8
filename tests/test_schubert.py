"""Schubert-class arithmetic on G(1,n): basis handling, Pieri, Giambelli
products, and the degree pairing."""

import random
from math import comb

import pytest

from tangency.cli import parse_expression
from tangency.dpoly import DPoly
from tangency.schubert import (
    INHOMOGENEOUS,
    SchubertElt,
    check_partition,
    degree,
    mult,
    pieri,
    sigma,
)


def random_elt(n, rng, nterms=3) -> SchubertElt:
    out = SchubertElt.zero(n)
    for _ in range(nterms):
        a = rng.randint(0, n - 1)
        b = rng.randint(0, a)
        c = DPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))))
        out = out + sigma(n, a, b, coeff=c)
    return out


def test_sigma_validation():
    with pytest.raises(ValueError):
        sigma(5, 1, 2)  # not a partition
    with pytest.raises(ValueError):
        sigma(3, 3, 0)  # out of the 2 x (n-1) box
    with pytest.raises(ValueError):
        sigma(1, 0, 0)  # ambient too small
    assert sigma(3, 2, 2).coefficient((2, 2)) == 1


@pytest.mark.parametrize("call, says", [
    (lambda: check_partition([2, 1]), "must be a pair of ints, got \\[2, 1\\]"),
    (lambda: check_partition((2, 1, 0)), "must be a pair of ints"),
    (lambda: check_partition((2, "1")), "must be a pair of ints"),
    (lambda: pieri((1, 0), -1, 4), "one-row index must be >= 0, got -1"),
], ids=["list", "triple", "string-entry", "negative-row"])
def test_malformed_partitions_and_rows_are_refused(call, says):
    with pytest.raises(ValueError, match=says):
        call()


def test_zero_coefficients_dropped():
    x = sigma(4, 1) - sigma(4, 1)
    assert x == SchubertElt.zero(4)
    assert not x.terms


def test_pieri_small_cases():
    # s1 * s1 = s2 + s11 once both fit the box
    x = pieri((1, 0), 1, 4)
    assert x.coefficient((2, 0)) == 1
    assert x.coefficient((1, 1)) == 1
    # on G(1,2) the box is 1 x 1 wide: s2 falls out
    y = pieri((1, 0), 1, 2)
    assert y.coefficient((1, 1)) == 1
    assert y.coefficient((2, 0)) == 0
    # horizontal strip: no two boxes in one column
    z = pieri((2, 1), 2, 5)
    assert z.coefficient((4, 1)) == 1
    assert z.coefficient((3, 2)) == 1
    assert z.coefficient((2, 2)) == 0


def test_pieri_degree_overflow_gives_zero():
    assert pieri((3, 3), 1, 4) == SchubertElt.zero(4)
    assert pieri((1, 0), 5, 4) == SchubertElt.zero(4)


def test_mult_agrees_with_pieri_on_one_row_factors():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for _ in range(20):
            a = rng.randint(0, n - 1)
            b = rng.randint(0, a)
            m = rng.randint(0, n - 1)
            lhs = mult(sigma(n, a, b), sigma(n, m))
            assert lhs == pieri((a, b), m, n)


def test_ring_axioms_on_random_elements():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice((3, 4, 5))
        x = random_elt(n, rng)
        y = random_elt(n, rng)
        z = random_elt(n, rng)
        assert mult(x, y) == mult(y, x)
        assert mult(mult(x, y), z) == mult(x, mult(y, z))
        assert mult(x, y + z) == mult(x, y) + mult(x, z)
        one = sigma(n, 0, 0)
        assert mult(x, one) == x


def test_known_products_g15():
    n = 5
    assert mult(sigma(n, 2, 2), sigma(n, 1, 1)) == sigma(n, 3, 3)
    s1 = sigma(n, 1)
    p = s1
    for _ in range(7):
        p = mult(p, s1)
    assert degree(p) == DPoly.const(14)  # Catalan number C_4


def test_catalan_degrees():
    # degree of s1^(2(n-1)) on G(1,n) is the Catalan number C_(n-1)
    targets = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429, 9: 1430,
               10: 4862, 11: 16796, 12: 58786}
    for n, c in targets.items():
        p = sigma(n, 0, 0)
        for _ in range(2 * (n - 1)):
            p = mult(p, sigma(n, 1))
        assert degree(p) == DPoly.const(c)



def standard_tableaux(m, n):
    # the terms of sigma_1^m on G(1, n): sigma_(a,b), a + b = m and
    # a <= n-1, with coefficient f^(a,b) = C(m, b)(a-b+1)/(a+1), the number
    # of standard tableaux of shape (a, b); a Pieri path only grows a, so
    # it never leaves the box on the way to a shape inside it
    out = {}
    for b in range(m // 2 + 1):
        a = m - b
        if a <= n - 1:
            f, r = divmod(comb(m, b) * (a - b + 1), a + 1)
            assert r == 0
            out[(a, b)] = DPoly.const(f)
    return out


@pytest.mark.parametrize("n", [40, 150])
def test_powers_of_sigma_1_count_standard_tableaux_at_large_n(n):
    p, s1 = SchubertElt.one(n), sigma(n, 1)
    assert p.terms == standard_tableaux(0, n)
    for m in range(1, 2 * (n - 1) + 1):
        p = mult(p, s1)
        assert p.terms == standard_tableaux(m, n), m


@pytest.mark.parametrize("m", [59, 118])
def test_parsed_power_of_sigma_1_counts_standard_tableaux(m):
    # square-and-multiply and the symbolic budget on the way
    x = parse_expression(f"s[1]^{m}", 60)
    assert set(x.terms) == {(0, 0)}
    assert x.terms[(0, 0)].terms == standard_tableaux(m, 60)


def test_duality_pairing():
    # sigma_{a,b} pairs to 1 exactly against sigma_{n-1-b, n-1-a}
    for n in (3, 4, 5):
        parts = [(a, b) for a in range(n) for b in range(a + 1)]
        for a, b in parts:
            for c, e in parts:
                if (a + b) + (c + e) != 2 * (n - 1):
                    continue
                got = degree(mult(sigma(n, a, b), sigma(n, c, e)))
                expected = 1 if (c, e) == (n - 1 - b, n - 1 - a) else 0
                assert got == DPoly.const(expected), (n, (a, b), (c, e))


def test_degree_requires_top_codimension():
    with pytest.raises(ValueError, match="not top codimension"):
        degree(sigma(5, 1))
    with pytest.raises(ValueError, match="inhomogeneous"):
        degree(sigma(5, 1) + sigma(5, 2))
    assert degree(SchubertElt.zero(5)) == DPoly.zero()


def test_codim_classification():
    assert sigma(4, 2, 1).codim() == 3
    assert (sigma(4, 1) + sigma(4, 2)).codim() == INHOMOGENEOUS
    assert SchubertElt.zero(4).codim() is None


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError, match="ambient"):
        mult(sigma(3, 1), sigma(4, 1))
    with pytest.raises(ValueError, match="ambient"):
        sigma(3, 1) + sigma(4, 1)


def test_dpoly_coefficients_flow_through():
    n = 4
    d = DPoly.var()
    x = sigma(n, 1, 0, coeff=d)
    y = mult(x, x)
    assert y.coefficient((2, 0)) == d * d
    assert y.coefficient((1, 1)) == d * d


def test_text_rendering():
    n = 5
    assert sigma(n, 2, 1).text() == "s[2,1]"
    two = sigma(n, 1).scale(2)
    assert "2*s[1,0]" in two.text()
    assert SchubertElt.zero(n).text() == "0"
