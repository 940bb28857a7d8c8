"""The 15 d^3 planes on the Fermat sextic-fold family, verified in the
formal root ring Z[z]/(z^d + 1)."""

import random

import pytest

from tangency.fermat import (
    MAX_DEGREE,
    FermatPlane,
    RootRing,
    fermat_planes,
    pairings_of_six,
    verify_plane,
)
from tangency.fields import QQ, PrimeField
from tangency.forms import HyperForm, expand


def test_pairings_of_six():
    ps = pairings_of_six()
    assert len(ps) == 15
    assert len(set(ps)) == 15
    for pairing in ps:
        flat = sorted(i for pair in pairing for i in pair)
        assert flat == list(range(6))


def test_root_ring_basics():
    R = RootRing(4)
    z = R.monomial(1)
    p = R.one
    for _ in range(4):
        p = R.mul(p, z)
    assert p == R.monomial(0, -1)  # z^4 = -1
    assert R.is_zero(R.sub(p, R.of(-1)))
    assert R.is_unit_monomial(R.monomial(3))
    assert R.is_unit_monomial(R.monomial(5))  # -z after wrap
    assert not R.is_unit_monomial(R.add(R.one, R.monomial(1)))
    assert not R.is_unit_monomial(R.of(2))


def test_root_ring_mul_commutative_associative():
    rng = random.Random(8)
    R = RootRing(5)

    def rand_elt():
        return tuple(rng.randint(-3, 3) for _ in range(5))

    for _ in range(40):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert R.mul(a, b) == R.mul(b, a)
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))


def test_dth_roots_of_minus_one():
    for d in (1, 2, 3, 5):
        R = RootRing(d)
        for e in range(d):
            mu = R.monomial(2 * e + 1)
            p = R.one
            for _ in range(d):
                p = R.mul(p, mu)
            assert R.is_zero(R.add(p, R.one)), (d, e)  # mu^d = -1


def test_fermat_plane_counts_and_distinctness():
    for d in range(1, 7):
        planes = fermat_planes(d)
        assert len(planes) == 15 * d ** 3
        assert len({p.key() for p in planes}) == 15 * d ** 3


def test_fermat_plane_counts_extended():
    for d in (7, 8):
        planes = fermat_planes(d)
        assert len(planes) == 15 * d ** 3
        assert len({p.key() for p in planes}) == 15 * d ** 3


def test_containment_failure_is_detected():
    # wrong root parity: x_j = z^2 x_i does NOT lie in the Fermat cubic
    ring = RootRing(3)
    plane = FermatPlane(
        pairing=((0, 1), (2, 3), (4, 5)), roots=(0, 0, 0), d=3
    )
    pts = plane.spanning_points(ring)
    broken = [list(p) for p in pts]
    broken[0][1] = ring.monomial(2)  # even power: (z^2)^3 = 1, sum is 2 x^3
    terms = {tuple(3 if t == i else 0 for t in range(6)): ring.one for i in range(6)}
    from tangency.fermat import _certify_independent

    _certify_independent([tuple(r) for r in broken], ring)
    assert expand(terms, [tuple(r) for r in broken], ring)  # nonzero


def test_verify_plane_over_prime_field():
    f = PrimeField(7)
    quadric = HyperForm(3, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}, f)
    coords = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    assert not verify_plane(quadric, coords)
    zero = HyperForm(3, 2, {}, f)
    assert verify_plane(zero, coords)
    with pytest.raises(ValueError, match="dependent"):
        verify_plane(quadric, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)])


def test_verify_plane_finds_fermat_plane_over_field():
    # d = 3, q = 13: -1 has cube root -1 itself; plane x1 = -x0, x3 = -x2, x5 = -x4
    f = PrimeField(13)
    F = HyperForm.fermat(5, 3, f)
    pts = [
        (1, 12, 0, 0, 0, 0),
        (0, 0, 1, 12, 0, 0),
        (0, 0, 0, 0, 1, 12),
    ]
    assert verify_plane(F, pts)
    # a random-looking plane is not inside
    off = [(1, 1, 0, 0, 0, 0), (0, 0, 1, 12, 0, 0), (0, 0, 0, 0, 1, 12)]
    assert not verify_plane(F, off)


def test_verify_plane_over_rationals():
    F = HyperForm(5, 2, {tuple(2 if t == i else 0 for t in range(6)): 1 for i in range(6)}, QQ)
    # x1 = ix0 needs i; over Q no conjugate-pair plane exists, spot check one false case
    pts = [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]
    assert not verify_plane(F, pts)


def test_plane_json_shape():
    plane = fermat_planes(1)[0]
    obj = plane.to_json()
    assert set(obj) == {"pairing", "rootExponents", "d"}
    assert len(obj["pairing"]) == 3
    assert len(obj["rootExponents"]) == 3


def test_fermat_planes_rejects_bad_degree():
    with pytest.raises(ValueError):
        fermat_planes(0)
    with pytest.raises(ValueError, match="at most"):
        fermat_planes(MAX_DEGREE + 1)
