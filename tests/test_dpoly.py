import random

import pytest

from tangency.dpoly import DPoly


def test_construction_and_normalization():
    assert DPoly((0, 0, 0)).is_zero()
    assert DPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert DPoly.zero().degree() == -1
    assert DPoly.one().degree() == 0
    assert DPoly.var().degree() == 1


def test_constant_detection():
    assert DPoly.const(7).is_constant()
    assert DPoly.const(7).constant_value() == 7
    assert not (DPoly.var() + 1).is_constant()
    with pytest.raises(ValueError):
        (DPoly.var() + 1).constant_value()


def test_arithmetic_matches_integer_evaluation():
    rng = random.Random(11)
    for _ in range(200):
        a = DPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5))))
        b = DPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5))))
        x = rng.randint(-7, 7)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
        assert (a - b).evaluate(x) == a.evaluate(x) - b.evaluate(x)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (-a).evaluate(x) == -a.evaluate(x)
        assert (a ** 3).evaluate(x) == a.evaluate(x) ** 3


def test_int_mixing():
    d = DPoly.var()
    assert 2 + d == d + 2
    assert 3 * d == d * 3
    assert (5 - d) + (d - 5) == 0
    assert DPoly.const(4) == 4
    assert hash(DPoly.const(4)) == hash(DPoly.const(4))


def test_text_descending():
    d = DPoly.var()
    p = 35 * d ** 4 - 150 * d ** 3 + 120 * d ** 2
    assert p.text("desc") == "35*d^4 - 150*d^3 + 120*d^2"
    assert (11 * d ** 2 - 24 * d).text("desc") == "11*d^2 - 24*d"
    assert (d - 1).text("desc") == "d - 1"
    assert (-d).text("desc") == "-d"
    assert DPoly.zero().text("desc") == "0"


def test_text_ascending_matches_legacy_strings():
    d = DPoly.var()
    p = 35 * d ** 4 - 150 * d ** 3 + 120 * d ** 2
    assert p.text("asc") == "120 d^2 - 150 d^3 + 35 d^4"
    z = 225 * d ** 3 - 1370 * d ** 2 + 1800 * d
    assert z.text("asc") == "1800 d - 1370 d^2 + 225 d^3"
    f = 11 * d ** 2 - 24 * d
    assert f.text("asc") == "-24 d + 11 d^2"


def test_text_rejects_unknown_order():
    with pytest.raises(ValueError):
        DPoly.one().text("sideways")


@pytest.mark.parametrize("call, error, says", [
    (lambda: DPoly.coerce("x"), TypeError, "cannot coerce str to DPoly"),
    (lambda: DPoly.var() ** -1, ValueError, "negative power"),
], ids=["coerce-a-string", "negative-power"])
def test_refusals(call, error, says):
    with pytest.raises(error, match=says):
        call()


def test_coerce():
    assert DPoly.coerce(5) == DPoly.const(5)
    p = DPoly.var()
    assert DPoly.coerce(p) is p
