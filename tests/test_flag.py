"""Fiber-square classes over G(1,n): reduction modulo the bundle relation
H^2 = s1*H - s11, pushforward, and integration."""

import hashlib
import operator
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tangency.dpoly import DPoly
from tangency.flag import (
    FlagElt,
    hclass,
    integrate,
    multiply_unreduced,
    pushforward,
    reduce_class,
)
from tangency.schubert import SchubertElt, mult, sigma


def is_reduced(x: FlagElt) -> bool:
    # every term carries H1 and H2 to at most the first power
    return all(i <= 1 and j <= 1 for (i, j) in x.terms)


def h_power(n, m, arity=1, slot=1):
    h = hclass(n, arity, slot)
    out = FlagElt.from_base(sigma(n, 0, 0), arity=arity)
    for _ in range(m):
        out = out * h
    return out


def test_relation_kills_h_to_the_n_plus_one():
    for n in range(2, 9):
        assert h_power(n, n + 1) == FlagElt.zero(n, 1)


def test_relation_kills_s11_times_h_to_the_n():
    for n in range(2, 9):
        x = h_power(n, n) * FlagElt.from_base(sigma(n, 1, 1), arity=1)
        assert x == FlagElt.zero(n, 1)


def test_h_power_closed_form():
    # H^m = s_{m-1} H - s_{m-1,1} for 2 <= m <= n
    for n in (3, 4, 5, 6):
        for m in range(2, n + 1):
            got = h_power(n, m)
            want = hclass(n, 1, 1).scale(sigma(n, m - 1)) - FlagElt.from_base(
                sigma(n, m - 1, 1), arity=1
            )
            assert got == want, (n, m)


def random_flag(n, arity, rng, max_h=3) -> FlagElt:
    terms = {}
    for _ in range(4):
        i = rng.randint(0, max_h)
        j = rng.randint(0, max_h) if arity == 2 else 0
        a = rng.randint(0, n - 1)
        b = rng.randint(0, a)
        c = rng.randint(-3, 3)
        elt = sigma(n, a, b, coeff=c)
        key = (i, j)
        terms[key] = terms[key] + elt if key in terms else elt
    return FlagElt(n, arity, terms)


def test_reduce_idempotent():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5))
        arity = rng.choice((1, 2))
        x = random_flag(n, arity, rng)
        r = reduce_class(x)
        assert is_reduced(r)
        assert reduce_class(r) == r


def test_reduce_is_multiplicative():
    # reducing before or after an unreduced product is the same
    rng = random.Random(6)
    for _ in range(60):
        n = rng.choice((3, 4))
        arity = rng.choice((1, 2))
        x = random_flag(n, arity, rng, max_h=2)
        y = random_flag(n, arity, rng, max_h=2)
        raw = reduce_class(multiply_unreduced(x, y))
        staged = reduce_class(
            multiply_unreduced(reduce_class(x), reduce_class(y))
        )
        assert raw == staged


def test_mul_operator_reduces():
    n = 4
    h = hclass(n, 1, 1)
    sq = h * h
    assert is_reduced(sq)
    assert sq == hclass(n, 1, 1).scale(sigma(n, 1)) - FlagElt.from_base(
        sigma(n, 1, 1), arity=1
    )


def test_pushforward_examples():
    n = 4
    # single H: pushes to the unit class
    assert pushforward(hclass(n, 1, 1)) == sigma(n, 0, 0)
    # a pure base class has no H coefficient
    assert pushforward(FlagElt.from_base(sigma(n, 2, 1), arity=1)) == SchubertElt.zero(n)
    # arity 2 needs H1*H2
    both = hclass(n, 2, 1) * hclass(n, 2, 2)
    assert pushforward(both) == sigma(n, 0, 0)


def test_integrate_point_class():
    n = 4
    point = FlagElt.from_base(sigma(n, n - 1, n - 1), arity=1) * hclass(n, 1, 1)
    assert integrate(point) == DPoly.one()
    two_slot = (
        FlagElt.from_base(sigma(n, n - 1, n - 1), arity=2)
        * hclass(n, 2, 1)
        * hclass(n, 2, 2)
    )
    assert integrate(two_slot) == DPoly.one()


def test_arity_and_ambient_validation():
    with pytest.raises(ValueError):
        hclass(4, 1, 2)  # slot 2 needs arity 2
    with pytest.raises(ValueError):
        FlagElt(4, 3, {})
    with pytest.raises(ValueError):
        hclass(4, 1, 1) * hclass(5, 1, 1)
    with pytest.raises(ValueError):
        hclass(4, 1, 1) * hclass(4, 2, 1)


def _refused(op, x, y):
    # op(x, y) stopped by the ring check's ValueError; any other outcome, a
    # result or another exception, is an AssertionError
    try:
        out = op(x, y)
    except ValueError as e:
        assert "ambient mismatch" in str(e), e
        return
    except (AttributeError, TypeError) as e:
        raise AssertionError(f"{op.__name__}({x!r}, {y!r}) raised {e!r}") from e
    raise AssertionError(f"{op.__name__}({x!r}, {y!r}) returned a {type(out).__name__}")


# pairs from two rings: a Schubert class and a flag class of the same n
# (which once added into a corrupted class), and classes of two n or arities
MIXED_PAIRS = (
    (sigma(4, 2), hclass(4, 1)),
    (sigma(4, 1), hclass(4, 2, 2)),
    (sigma(3, 1), sigma(4, 1)),
    (hclass(4, 1), hclass(5, 1)),
    (hclass(4, 1), hclass(4, 2)),
    (hclass(4, 2, 2), hclass(5, 2, 2)),
)


def test_classes_of_two_rings_never_mix():
    for x, y in MIXED_PAIRS:
        for a, b in ((x, y), (y, x)):
            for op in (operator.add, operator.sub, operator.mul):
                _refused(op, a, b)
            assert not a == b and a != b, (a, b)
    _refused(multiply_unreduced, hclass(4, 1), hclass(4, 2))
    with pytest.raises(TypeError):
        mult(sigma(4, 2), hclass(4, 1))


def test_scale_by_base_class_and_dpoly():
    n = 4
    h = hclass(n, 1, 1)
    d = DPoly.var()
    assert h.scale(d).terms[(1, 0)].coefficient((0, 0)) == d
    s = h.scale(sigma(n, 1, 1))
    assert s.terms[(1, 0)].coefficient((1, 1)) == 1


def _random_dpoly(rng) -> DPoly:
    return DPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))))


def _random_schubert(n, rng) -> SchubertElt:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(0, n - 1)
        terms[(a, rng.randint(0, a))] = _random_dpoly(rng)
    return SchubertElt(n, terms)


def _random_top_class(n, arity, rng) -> FlagElt:
    # a sum of monomials s[a,b]*H1^i*H2^j of the total dimension 2(n-1)+arity
    terms = {}
    for _ in range(3):
        i = rng.randint(0, n)
        j = rng.randint(0, n) if arity == 2 else 0
        rest = 2 * (n - 1) + arity - i - j
        if not 0 <= rest <= 2 * (n - 1):
            continue
        b = rng.randint(max(0, rest - (n - 1)), rest // 2)
        terms[(i, j)] = sigma(n, rest - b, b, coeff=_random_dpoly(rng))
    return FlagElt(n, arity, terms)


def test_symbolic_sweep_is_pinned():
    # sha256 over a seeded sweep of products, reductions, pushforwards and
    # integrals with DPoly coefficients; recorded from the route that
    # rewrote H^2 one power per pass and built a class for every Pieri term
    rng = random.Random(2024)
    h = hashlib.sha256()
    for n in range(2, 8):
        for arity in (1, 2):
            for _ in range(12):
                x, y = _random_schubert(n, rng), _random_schubert(n, rng)
                h.update((x * y).text().encode())
                fx = FlagElt(n, arity, {(rng.randint(0, 4), rng.randint(0, 4) * (arity - 1)):
                                        _random_schubert(n, rng) for _ in range(3)})
                fy = FlagElt(n, arity, {(rng.randint(0, 3), rng.randint(0, 3) * (arity - 1)):
                                        _random_schubert(n, rng) for _ in range(2)})
                raw = multiply_unreduced(fx, fy)
                red = reduce_class(raw)
                h.update(raw.text().encode())
                h.update(red.text().encode())
                h.update(pushforward(red).text().encode())
                h.update(integrate(_random_top_class(n, arity, rng)).text().encode())
    assert h.hexdigest() == "2ed15f4276b2c2a7d0088f298472687509065b40f5bf1a18af527ff066fc436d"


def reduce_by_rewriting(x: FlagElt) -> FlagElt:
    """The reference reduction: rewrite H^2 -> s1*H - s11 in one slot of
    every term per pass, until no exponent is above 1."""
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


@st.composite
def flag_elements(draw):
    n = draw(st.integers(2, 6))
    arity = draw(st.sampled_from((1, 2)))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = (draw(st.integers(0, 6)), draw(st.integers(0, 6)) if arity == 2 else 0)
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, a))
        c = DPoly(tuple(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))))
        terms[e] = sigma(n, a, b, coeff=c)
    return FlagElt(n, arity, terms)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flag_elements())
def test_reduce_class_equals_the_rewriting_reference(x):
    assert reduce_class(x) == reduce_by_rewriting(x)
