"""Fiber-square classes over G(1,n): reduction modulo the bundle relation
H^2 = s1*H - s11, pushforward, and integration."""

import random

import pytest

from tangency.dpoly import DPoly
from tangency.flag import (
    FlagElt,
    hclass,
    integrate,
    multiply_unreduced,
    pushforward,
    reduce_class,
)
from tangency.schubert import SchubertElt, sigma


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


def test_scale_by_base_class_and_dpoly():
    n = 4
    h = hclass(n, 1, 1)
    d = DPoly.var()
    assert h.scale(d).terms[(1, 0)].coefficient((0, 0)) == d
    s = h.scale(sigma(n, 1, 1))
    assert s.terms[(1, 0)].coefficient((1, 1)) == 1
