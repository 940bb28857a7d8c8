"""The 15 d^3 planes on the Fermat sextic-fold family, verified in the
formal root ring Z[z]/(z^d + 1)."""

import hashlib
import json
import random

import pytest

from tangency.fermat import (
    MAX_DEGREE,
    FermatPlane,
    RootRing,
    _fermat_terms,
    fermat_planes,
    pairings_of_six,
    verify_plane,
)
from tangency.fields import QQ, PrimeField, is_prime
from tangency.forms import HyperForm, expand, monomials

# sha256 of json.dumps([p.to_json() for p in fermat_planes(d)]), recorded
# when each plane was still certified by the minor search
PLANES_SHA256 = {
    1: "edba1653a72e8a5e8cceeca48490faebd9443a069831fc7bd66569ef57fc6af2",
    2: "8a392716fcd1dd13da6556857ca08a07bf7f0a8d3b6b58c4ccf40a9b9a8c5c27",
    3: "ae1af31611d1ed9b04e9404c59859e6f71f5d76660a6689ba8d3c4da9330699c",
    4: "43c97a96b32f462a670e3ecbbe0084273c5e4b9a7d6e98cf1831fb6e68e65e5c",
    5: "84e19f6fa1c08d9fa3a38a88842c28528f6623a9650d5f8cc80c130edc4078d1",
    6: "3a8a3bf5f6564eac68a12df98d4aeea673367ecbcd6f1db049030e98804c1ea6",
    7: "d97f096d6908060ae002c890e9b1456dd4bd89bab4daa3f9e70bfc0697f510b9",
    8: "8e2c87195eaefcfc52b507d8090db61d08fd9e06659e190afd8a7fecb360fb58",
}


def check_planes(d):
    planes = fermat_planes(d)
    assert len(planes) == 15 * d ** 3
    assert len({p.key() for p in planes}) == 15 * d ** 3
    doc = json.dumps([p.to_json() for p in planes])
    assert hashlib.sha256(doc.encode()).hexdigest() == PLANES_SHA256[d], d


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
        check_planes(d)


def test_fermat_plane_counts_extended():
    for d in (7, 8):
        check_planes(d)


# a primitive 2d-th root of unity in F_p, p = 1 mod 2d and p > d
ROOTS_OF_UNITY = {1: (13, 12), 2: (5, 2), 3: (7, 3), 4: (17, 2), 5: (11, 2)}


@pytest.mark.parametrize("d", sorted(ROOTS_OF_UNITY))
def test_fermat_planes_hold_over_a_prime_field(d):
    # z -> zeta maps Z[z]/(z^d + 1) onto F_p, so each plane lies in the F_p Fermat
    p, zeta = ROOTS_OF_UNITY[d]
    assert min(k for k in range(1, 2 * d + 1) if pow(zeta, k, p) == 1) == 2 * d
    f = PrimeField(p)
    F = HyperForm.fermat(5, d, f)
    ring = RootRing(d)
    for plane in fermat_planes(d):
        pts = [tuple(sum(c * zeta ** k for k, c in enumerate(x)) % p for x in pt)
               for pt in plane.spanning_points(ring)]
        assert verify_plane(F, pts), plane.key()


def _reduction(d: int) -> tuple[int, int]:
    # (p, zeta): the least prime p = 1 mod 2d and the least zeta with
    # zeta^d = -1 in F_p, so z -> zeta maps Z[z]/(z^d + 1) onto F_p
    p = next(p for p in range(2 * d + 1, 100 * d, 2 * d) if is_prime(p))
    return p, next(x for x in range(2, p) if pow(x, d, p) == p - 1)


def _at(a: tuple, zeta: int, p: int) -> int:
    return sum(c * pow(zeta, i, p) for i, c in enumerate(a)) % p


def test_root_ring_expansions_reduce_to_fp():
    # expand commutes with z -> zeta: 200 seeded forms of degree 1..4 in
    # P^1..P^3 through 1-3 columns, cut at top None, 1 or 2, in one ring per
    # d = 2..6 that keeps its packings across the calls, as fermat_planes'
    # ring does.  Entries are signed, small (cancelling) or large, or all
    # positive multiples of one z^t, whose outputs cancel nothing and, on
    # one column, reach the bound lifted packs against
    rng = random.Random("root ring to F_p")
    rings = {d: RootRing(d) for d in range(2, 7)}
    for _ in range(200):
        ring = rings[rng.randint(2, 6)]
        d = ring.d
        p, zeta = _reduction(d)
        kind = rng.choice(("small", "large", "positive"))
        if kind == "positive":
            t = rng.randrange(d)
            element = lambda: ring.monomial(t, rng.randint(1, 10 ** 6))
        else:
            size = 3 if kind == "small" else 10 ** 6
            element = lambda: tuple(rng.randint(-size, size) for _ in range(d))
        n, deg = rng.randint(1, 3), rng.randint(1, 4)
        terms = {e: element() for e in monomials(n, deg) if rng.random() < 0.7}
        terms = terms or {monomials(n, deg)[0]: element()}
        cols = [[element() for _ in range(n + 1)] for _ in range(rng.randint(1, 3))]
        top = rng.choice((None, 1, 2))
        got = {e: v for e, c in expand(terms, cols, ring, top).items()
               if (v := _at(c, zeta, p))}
        want = expand({e: _at(c, zeta, p) for e, c in terms.items()},
                      [[_at(a, zeta, p) for a in col] for col in cols], PrimeField(p), top)
        assert got == want, (d, terms, cols, top)


def test_a_plane_off_the_roots_of_minus_one_fails_in_both_rings():
    # x1 = z^2 x0 in place of x1 = z x0: (z^2)^d = 1, so x0^d + x1^d = 2 x0^d
    # in Z[z]/(z^d + 1) and, at z = zeta, in F_p
    for d in range(2, 7):
        p, zeta = _reduction(d)
        ring = RootRing(d)
        pts = [list(pt) for pt in FermatPlane(((0, 1), (2, 3), (4, 5)), (0, 0, 0), d)
               .spanning_points(ring)]
        pts[0][1] = ring.monomial(2)
        assert expand(_fermat_terms(ring), pts, ring)
        reduced = [[_at(a, zeta, p) for a in pt] for pt in pts]
        assert not verify_plane(HyperForm.fermat(5, d, PrimeField(p)), reduced)
        reduced[0][1] = zeta
        assert verify_plane(HyperForm.fermat(5, d, PrimeField(p)), reduced)


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
    assert expand(terms, [tuple(r) for r in broken], ring)  # nonzero


def test_root_ring_packs_each_plane_at_its_own_width():
    # one ring keeps its packings across calls, and each call packs at the
    # width its own columns need: the Fermat planes' columns have norm 1,
    # and an entry 2z makes a column of norm 2, whose output -15 y0^4
    # (x_i^4 + (2z x_i)^4, z^4 = -1) does not fit their width
    ring = RootRing(4)
    terms = _fermat_terms(ring)
    pts = [list(p) for p in FermatPlane(((0, 1), (2, 3), (4, 5)), (0, 1, 2), 4)
           .spanning_points(ring)]
    assert not expand(terms, pts, ring)
    pts[0][1] = ring.monomial(1, 2)
    assert expand(terms, pts, ring) == {(4, 0, 0): (-15, 0, 0, 0)}
    assert expand(terms, pts, RootRing(4)) == {(4, 0, 0): (-15, 0, 0, 0)}


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
