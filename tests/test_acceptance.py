"""Acceptance gate: the nine frozen criteria, one per test, each printing
a single pass/fail line with its runtime against the stated budget.

Each report line is printed with file-descriptor capture disabled so it
stays visible in the live pytest stream.
"""

import random
import sys
import time

from oracles import lines_in_hypersurface
from tangency.counting import (
    closed_count_k1,
    closed_count_k2_smooth,
    count_vk,
    dimension_slope,
)
from tangency.deformation import contact_experiment
from tangency.dpoly import DPoly
from tangency.enumerative import (
    fano_line_count,
    flecnodal_degree,
    flex_count,
    plane_bound,
    z6_conditional_bound,
)
from tangency.fermat import fermat_planes
from tangency.fields import PrimeField
from tangency.flag import (
    FlagElt,
    hclass,
    integrate,
    multiply_unreduced,
    reduce_class,
)
from tangency.forms import HyperForm
from tangency.schubert import degree, mult, sigma

d = DPoly.var()

# the degree-5 threefold line count from the pre-build computer-algebra
# oracle (top Chern class of Sym^5 S* on Gr(2,5))
QUINTIC_LINES_ORACLE = 2875


def report(capfd, num: int, ok: bool, detail: str, elapsed: float,
           budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    with capfd.disabled():
        sys.stdout.write(f"\n[{verdict}] criterion {num}: {detail} "
                         f"({elapsed:.2f}s, budget {budget:.0f}s)\n")
        sys.stdout.flush()
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_1_plane_bound(capfd):
    t0 = time.perf_counter()
    got = plane_bound()
    ok = got == 35 * d ** 4 - 150 * d ** 3 + 120 * d ** 2
    ok = ok and got.text("desc") == "35*d^4 - 150*d^3 + 120*d^2"
    report(capfd, 1, ok, "bound planes == 35*d^4 - 150*d^3 + 120*d^2",
           time.perf_counter() - t0, 1.0)


def test_criterion_2_z6_bound(capfd):
    t0 = time.perf_counter()
    got = z6_conditional_bound()
    ok = got == 225 * d ** 3 - 1370 * d ** 2 + 1800 * d
    report(capfd, 2, ok, "bound z6 == 225*d^3 - 1370*d^2 + 1800*d",
           time.perf_counter() - t0, 1.0)


def test_criterion_3_flecnodal_and_flex(capfd):
    t0 = time.perf_counter()
    ok = flecnodal_degree() == 11 * d ** 2 - 24 * d
    ok = ok and flex_count() == 3 * d ** 2 - 6 * d
    report(capfd, 3, ok, "flecnodal == 11*d^2 - 24*d and flex == 3*d^2 - 6*d",
           time.perf_counter() - t0, 1.0)


def test_criterion_4_degree_rule_regression(capfd):
    t0 = time.perf_counter()
    n = 5
    table = {
        ((1, 0),) * 6: 5,
        ((1, 0),) * 4 + ((1, 1),): 2,
        ((1, 0),) * 2 + ((1, 1),) * 2: 1,
        ((1, 1),) * 3: 1,
    }
    ok = True
    for monomial, target in table.items():
        x = sigma(n, 1, 1)
        for part in monomial:
            x = mult(x, sigma(n, *part))
        ok = ok and degree(x) == DPoly.const(target)
    # the point-class identity on the fiber square where codimensions close
    point = integrate(
        FlagElt.from_base(mult(sigma(4, 2, 2), sigma(4, 1, 1)), arity=2)
        * hclass(4, 2, 1) * hclass(4, 2, 2)
    )
    ok = ok and point == DPoly.one()
    # equivalent G(1,5) pairing of the same identity
    dual = integrate(
        FlagElt.from_base(mult(sigma(5, 2, 2), sigma(5, 1, 1)), arity=2)
        * FlagElt.from_base(sigma(5, 1, 1), arity=2)
        * hclass(5, 2, 1) * hclass(5, 2, 2)
    )
    ok = ok and dual == DPoly.one()
    report(capfd, 4, ok, "degree table {5,2,1,1} and s[2,2]*s[1,1]*H1*H2 == 1",
           time.perf_counter() - t0, 1.0)


def test_criterion_5_ring_property_suite(capfd):
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 9):
        h = hclass(n, 1, 1)
        p = FlagElt.from_base(sigma(n, 0, 0), arity=1)
        for _ in range(n + 1):
            p = p * h
        ok = ok and p == FlagElt.zero(n, 1)
        q = FlagElt.from_base(sigma(n, 1, 1), arity=1)
        for _ in range(n):
            q = q * h
        ok = ok and q == FlagElt.zero(n, 1)
    for n in (3, 4, 5):
        parts = [(a, b) for a in range(n) for b in range(a + 1)]
        for a, b in parts:
            for c, e in parts:
                if (a + b) + (c + e) != 2 * (n - 1):
                    continue
                got = degree(mult(sigma(n, a, b), sigma(n, c, e)))
                want = 1 if (c, e) == (n - 1 - b, n - 1 - a) else 0
                ok = ok and got == DPoly.const(want)
    rng = random.Random(2026)

    def rand_flag(n, arity):
        terms = {}
        for _ in range(3):
            key = (rng.randint(0, 2), rng.randint(0, 2) if arity == 2 else 0)
            a = rng.randint(0, n - 1)
            b = rng.randint(0, a)
            elt = sigma(n, a, b, coeff=rng.randint(-3, 3))
            terms[key] = terms[key] + elt if key in terms else elt
        return FlagElt(n, arity, terms)

    for _ in range(500):
        n = rng.choice((2, 3, 4))
        arity = rng.choice((1, 2))
        x = rand_flag(n, arity)
        y = rand_flag(n, arity)
        rx = reduce_class(x)
        ok = ok and reduce_class(rx) == rx
        ok = ok and reduce_class(multiply_unreduced(x, y)) == reduce_class(
            multiply_unreduced(rx, reduce_class(y))
        )
    report(capfd, 5, ok, "relation kill rules n=2..8, duality tables, 500 reduce laws",
           time.perf_counter() - t0, 30.0)


def test_criterion_6_fano_counts_with_exhaustive_oracle(capfd):
    t0 = time.perf_counter()
    ok = fano_line_count(3, 3) == 27
    cubic = HyperForm.fermat(3, 3, PrimeField(13))
    ok = ok and lines_in_hypersurface(cubic) == 27
    ok = ok and fano_line_count(4, 5) == QUINTIC_LINES_ORACLE
    report(capfd, 6, ok, "fano(3,3) == 27 == exhaustive F_13 Fermat count; "
                  "fano(4,5) == 2875", time.perf_counter() - t0, 120.0)


def test_criterion_7_deformation_suite(capfd):
    t0 = time.perf_counter()
    summary = contact_experiment(trials=200, seed=2026, prime=101)
    ok = summary.euler_failures == 0
    ok = ok and summary.congruence_failures == 0
    ok = ok and summary.route_disagreements == 0
    ok = ok and summary.matched >= 0.95 * summary.trials
    report(capfd, 7, ok,
           f"200 trials p=101: euler exact, congruence exact, "
           f"h0 matched {summary.matched} >= 0.95 * 200",
           time.perf_counter() - t0, 300.0)


def test_criterion_8_fermat_planes_and_bound_consistency(capfd):
    t0 = time.perf_counter()
    ok = True
    for dd in range(1, 7):
        planes = fermat_planes(dd)
        ok = ok and len(planes) == 15 * dd ** 3
        ok = ok and len({p.key() for p in planes}) == 15 * dd ** 3
    for dd in (5, 6):
        ok = ok and 15 * dd ** 3 <= plane_bound().evaluate(dd)
    report(capfd, 8, ok, "15*D^3 verified distinct planes for D=1..6, "
                  "bounded by plane_bound for D>=5",
           time.perf_counter() - t0, 60.0)


def test_criterion_9_finite_field_slope_probe(capfd):
    t0 = time.perf_counter()
    ok = True
    k5_records = []
    for q in (7, 11, 13):
        F = HyperForm.fermat(5, 5, PrimeField(q))
        r1 = count_vk(F, 1, workers=8)
        ok = ok and r1.count == closed_count_k1(F)
        r2 = count_vk(F, 2, workers=8)
        ok = ok and r2.count == closed_count_k2_smooth(F)
        k5_records.append(count_vk(F, 5, workers=8))
    slope = dimension_slope(k5_records).slope
    ok = ok and 3.0 <= slope <= 5.0
    report(capfd, 9, ok,
           f"Fermat quintic q=7,11,13: k1/k2 closed forms exact, "
           f"k5 slope {slope:.3f} in [3.0, 5.0]",
           time.perf_counter() - t0, 1800.0)
