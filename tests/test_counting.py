"""Finite-field contact-pair counts: chart enumeration against brute
force, closed forms, determinism under chunking, and the slope report."""

import functools
import hashlib
import math
import multiprocessing
import os
import random
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import _rref_lines, count_v3_second_form, count_vk_bruteforce, lines_in_hypersurface
from tangency import counting
from tangency.counting import (
    CountRecord,
    check_exact,
    closed_count_k1,
    closed_count_k2_smooth,
    count_vk,
    dimension_slope,
    direction_work,
    exactness_bound,
    hypersurface_points,
    pp_count,
    projective_reps,
    rational_singular_points,
    worker_count,
)
from tangency.fields import QQ, PrimeField
from tangency.forms import HyperForm, LineParam, expand, monomials


def test_pp_count():
    assert pp_count(0, 5) == 1
    assert pp_count(1, 5) == 6
    assert pp_count(2, 3) == 13
    assert pp_count(-1, 7) == 0


def test_projective_reps_of_empty_space():
    assert projective_reps(-1, 7).shape[0] == 0


def test_projective_reps_cover_exactly_once():
    for m, q in ((1, 3), (2, 3), (2, 5), (3, 3)):
        reps = projective_reps(m, q)
        assert reps.shape == (pp_count(m, q), m + 1)
        seen = set()
        for row in reps:
            row = tuple(int(x) for x in row)
            # canonical: first nonzero coordinate is 1
            lead = next(i for i, x in enumerate(row) if x)
            assert row[lead] == 1
            # distinct as projective points: canonical reps are unique
            assert row not in seen
            seen.add(row)


def seeded_forms(seed):
    """Sparse, dense, zero and cone forms in P^1..P^4 over F_2..F_13."""
    rng = random.Random(seed)
    out = []
    for n, q in ((1, 2), (1, 13), (2, 3), (2, 13), (3, 5), (3, 7), (4, 3), (4, 5)):
        d = rng.randint(1, min(q - 1, 4))
        mons = monomials(n, d)
        cone = [e for e in mons if not e[n]]  # x_n does not occur: a cone
        for kind in ("sparse", "dense", "zero", "cone"):
            if kind == "sparse":
                terms = {e: rng.randrange(1, q) for e in rng.sample(mons, min(3, len(mons)))}
            elif kind == "dense":
                terms = {e: rng.randrange(1, q) for e in mons}
            elif kind == "cone":
                terms = {e: rng.randrange(1, q) for e in cone}
            else:
                terms = {}
            out.append(HyperForm(n, d, terms, PrimeField(q)))
    return out


def test_hypersurface_points_against_direct_scan(monkeypatch):
    forms = seeded_forms(5) + [
        HyperForm(2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 4}, PrimeField(5))]
    # a table of 8 entries makes blocks of one or two points, so every
    # point set spans many blocks
    for table in (counting._TABLE, 8):
        monkeypatch.setattr(counting, "_TABLE", table)
        for F in forms:
            reps = projective_reps(F.n, F.field.p)
            on = [F.evaluate(list(row)) == 0 for row in reps]
            assert np.array_equal(hypersurface_points(F), reps[on]), (F, table)


def test_rational_singular_points_against_gradient_scan():
    for F in seeded_forms(6):
        expected = [tuple(int(x) for x in row) for row in hypersurface_points(F)
                    if not any(F.gradient(list(row)))]
        assert rational_singular_points(F) == expected, F


def diagonal_count(coeffs: list[int], d: int, q: int) -> int:
    """|X(F_q)| for F = sum_i a_i x_i^d, sharing no code with the counter:
    the affine zeros N are entry 0 of the cyclic convolution of the
    histograms of a_i x^d over F_q, and |X(F_q)| = (N - 1) / (q - 1)."""
    N = [1] + [0] * (q - 1)
    for a in coeffs:
        hist = [0] * q
        for x in range(q):
            hist[a * pow(x, d, q) % q] += 1
        N = [sum(N[u] * hist[(v - u) % q] for u in range(q)) for v in range(q)]
    return (N[0] - 1) // (q - 1)


def diagonal_form(coeffs: list[int], d: int, q: int) -> HyperForm:
    n = len(coeffs) - 1
    return HyperForm(n, d, {tuple(d * (t == i) for t in range(n + 1)): a
                            for i, a in enumerate(coeffs)}, PrimeField(q))


def test_diagonal_point_counts_by_convolution():
    rng = random.Random(1949)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for _ in range(60):
        n, d = rng.randint(1, 5), rng.randint(1, 6)
        q = rng.choice([p for p in primes if p > d and pp_count(n, p) <= 10 ** 6])
        coeffs = [rng.randrange(q) for _ in range(n + 1)]   # zeros too
        got = len(hypersurface_points(diagonal_form(coeffs, d, q)))
        assert got == diagonal_count(coeffs, d, q), (coeffs, d, q)


@pytest.mark.parametrize("q, points", [(7, 2801), (11, 36950), (13, 30941)])
def test_fermat_quintic_point_counts_by_convolution(q, points):
    assert diagonal_count([1] * 6, 5, q) == points
    assert len(hypersurface_points(HyperForm.fermat(5, 5, PrimeField(q)))) == points


def test_hypersurface_points_stream_in_small_memory():
    # P^4(F_31) has 954305 representatives, 38 MB as int64 rows; X holds
    # about 1/31 of them.  One cell of P^3(F_211) holds 211^3 values, 75 MB
    # as int64.
    rng = random.Random(31)
    forms = [HyperForm(n, 3, {e: rng.randrange(1, q) for e in monomials(n, 3)}, PrimeField(q))
             for n, q in ((4, 31), (3, 211))]
    for F in forms:
        tracemalloc.start()
        try:
            pts = hypersurface_points(F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < pts.nbytes < 2 ** 21, F
        assert peak < 16 * 2 ** 20, F


def large_powers(rng, q, d, count):
    """Residues x whose powers x, x^2, ..., x^d mod q all lie in [7q/8, q)."""
    out = []
    while len(out) < count:
        x = rng.randrange(q)
        if all(pow(x, e, q) >= q - q // 8 for e in range(1, d + 1)):
            out.append(x)
    return np.array(out, dtype=np.int64)


def test_cell_values_are_exact_near_int64_limits():
    # (q-1)^2 is just below 2^62: an int64 holds two products of residues.
    # With coefficients and powers in [7q/8, q), each axis of a cubic sums
    # four products, three of them above 2^61.3, to more than 2^63
    q, d = 2 ** 31 - 1, 3
    assert (d + 1) * (q - 1) ** 2 >= 2 ** 63 > (q - 1) ** 2
    rng = random.Random(62)
    F = HyperForm(2, d, {e: rng.randrange(q - q // 8, q) for e in monomials(2, d)},
                  PrimeField(q))
    A, exps = counting._cell(F, 0, q)
    assert A.dtype == np.int64
    xs = [large_powers(rng, q, d, 8) for _ in exps]
    # the last axis first, as hypersurface_points contracts them: 8 x 8 points
    pows = [counting._powers(x, E, q) for x, E in zip(xs, exps)]
    values = counting._axis(counting._axis(A, 1, pows[1], q), 0, pows[0], q)
    for i, a in enumerate(xs[0]):
        for j, b in enumerate(xs[1]):
            assert int(values[i, j]) == F.evaluate([1, int(a), int(b)]), (a, b)


def test_cell_tensor_keeps_only_the_exponents_that_occur():
    # over all exponents 0..60 this cell would be 61^5 int64 entries, 6.7 GB
    A, exps = counting._cell(HyperForm.fermat(5, 60, PrimeField(61)), 0, 61)
    assert A.shape == (2,) * 5 and exps == [[0, 60]] * 5


@pytest.mark.parametrize("q", [7, 101])
def test_derivatives_are_the_pullback_coefficients(q):
    # sum_alpha D_alpha F(p) v^alpha = the s^j coefficient of F(t*p + s*v)
    f = PrimeField(q)
    rng = random.Random(q)
    for _ in range(40):
        n, d = rng.randint(1, 4), rng.randint(1, 6)
        F = HyperForm(n, d, {e: rng.randrange(1, q) for e in monomials(n, d)
                             if rng.random() < 0.5}, f)
        while True:
            p = [rng.randrange(q) for _ in range(n + 1)]
            v = [rng.randrange(q) for _ in range(n + 1)]
            if any((p[i] * v[j] - p[j] * v[i]) % q for i in range(n + 1) for j in range(i)):
                break
        jets = counting._Derivatives(F, list(range(d + 1)))
        values = jets(np.array([p], dtype=np.int64))
        pulled = F.pullback(LineParam.from_point_direction(p, v, f))
        for j, alphas, vals in zip(jets.orders, jet_alphas(jets, n), values):
            got = sum(int(vals[i, 0]) * math.prod(x ** a for x, a in zip(v, alpha))
                      for i, alpha in enumerate(alphas))
            assert got % q == pulled[j], (F, p, v, j)


def jet_alphas(jets, n: int) -> list[list[tuple[int, ...]]]:
    """Each order's alphas, one per row of its jets, decoded from
    _Derivatives.keys (radix d+1, alpha_0 the most significant digit)."""
    return [list(zip(*(D.tolist() for D in np.unravel_index(keys, (jets.d + 1,) * (n + 1)))))
            for keys in jets.keys]


def test_derivatives_are_exact_near_int64_limits():
    # (q-1)^2 is just below 2^62: two products fill an int64, and a cubic
    # in two variables has four monomials
    q = 2 ** 31 - 1
    f = PrimeField(q)
    rng = random.Random(63)
    F = HyperForm(1, 3, {e: rng.randrange(q // 2, q) for e in monomials(1, 3)}, f)
    pts = [[rng.randrange(q // 2, q) for _ in range(2)] for _ in range(64)]
    value, grad = counting._Derivatives(F, [0, 1])(np.array(pts, dtype=np.int64))
    for i, p in enumerate(pts):
        assert int(value[0, i]) == F.evaluate(p)
        assert [int(g) for g in grad[:, i]] == F.gradient(p)


def derivative_matrices_by_term_loop(F, orders):
    """_Derivatives' alphas (one list per order, in row order) and matrices,
    built one term and one alpha <= e at a time with math.comb: the
    reference for its vectorized set-up."""
    q, n, d = F.field.p, F.n, F.d
    where = {j: pos for pos, j in enumerate(orders)}
    coefs = [{} for _ in orders]
    for e, c in F.terms.items():
        for alpha in product(*(range(x + 1) for x in e)):
            pos = where.get(sum(alpha))
            if pos is not None:
                rest = tuple(x - a for x, a in zip(e, alpha))
                coefs[pos][alpha, rest] = int(c) * math.prod(map(math.comb, e, alpha)) % q
    mons = counting._Monomials(n + 1, d - min(orders), (r for co in coefs for _, r in co))
    all_alphas, mats = [], []
    for j, co in zip(orders, coefs):
        alphas = sorted({a for a, _ in co}) if j >= 2 else monomials(n, j)
        rows = {a: i for i, a in enumerate(alphas)}
        cols = mons.index[d - j]
        M = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for (a, r), c in co.items():
            M[rows[a], cols[r]] = c
        all_alphas.append(list(alphas))
        mats.append(M)
    return all_alphas, mats


def test_derivative_matrices_match_the_term_loop():
    rng = random.Random(64)
    for _ in range(120):
        n, d = rng.randint(1, 5), rng.randint(1, 6)
        q = rng.choice([p for p in (2, 3, 5, 7, 11, 101) if p > d])
        mons = monomials(n, d)
        terms = rng.choice([
            {e: rng.randrange(1, q) for e in mons},
            {e: rng.randrange(1, q) for e in rng.sample(mons, min(len(mons), 3))},
            {},
        ])
        F = HyperForm(n, d, terms, PrimeField(q))
        for orders in ([1], [0, 1], list(range(1, d + 1)), list(range(d + 1)),
                       sorted(rng.sample(range(d + 1), rng.randint(1, d + 1)))):
            alphas, mats = derivative_matrices_by_term_loop(F, orders)
            jets = counting._Derivatives(F, orders)
            assert jet_alphas(jets, n) == alphas, (F, orders)
            # the matrices are held in the evaluator's dtype, exactly
            for got, want in zip(jets.mats, mats, strict=True):
                assert (got.dtype, got.shape) == (jets.dtype, want.shape), (F, orders)
                assert got.astype(np.int64).tobytes() == want.tobytes(), (F, orders)


@st.composite
def pullback_cases(draw):
    """A form over F_3, F_5 or F_7 (dense, sparse, or a cone, which leaves
    x_0 out and is singular at (1, 0, ..., 0)) and a contact order k <= d+1."""
    q = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, 4 if q < 7 else 3))
    d = draw(st.integers(1, min(q - 1, 5)))
    kind = draw(st.sampled_from(("dense", "sparse", "cone")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mons = [e for e in monomials(n, d) if kind != "cone" or e[0] == 0]
    density = 1.0 if kind == "dense" else 0.3
    terms = {e: rng.randrange(1, q) for e in mons if rng.random() < density}
    F = HyperForm(n, d, terms or {mons[-1]: 1}, PrimeField(q))
    return F, draw(st.integers(2, d + 1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pullback_cases())
# at (1, 0, 0) the chart (lead 0, pivot 1) sees no x_0-free second derivative
# of x_0 x_1: the order-2 pullback vanishes identically
@example((HyperForm(2, 2, {(1, 1, 0): 1}, PrimeField(3)), 3))
def test_pullback_is_the_expansion_along_the_chart(case):
    # oracle: F(y_0 p + sum_c r_c (e_c + w_c e_pivot)) over the free c, whose
    # y_0^(d-j) r^beta coefficient is that of r^beta in G_j on the chart
    F, k = case
    q, n, f = F.field.p, F.n, F.field
    kernel = counting._Kernel(F, k)
    pts = hypersurface_points(F)
    keys = kernel.chart_keys(pts)
    kernel.add_charts(np.unique(keys))
    for key in np.unique(keys).tolist():
        lead, pivot = divmod(key, n + 1)
        chart, group = kernel.charts[key], pts[keys == key]
        pulled = counting._pullback(chart, kernel.jets(group), q)
        by_order = {j: C for (_, j, _), C in zip(chart.orders, pulled)}
        for i, p in enumerate(group[:4].tolist()):
            grad = F.gradient(p)
            w = [0 if pivot == lead else -grad[c] * pow(grad[pivot], -1, q) % q
                 for c in chart.free]
            cols = [p] + [[int(x == c) + wc * (x == pivot) for x in range(n + 1)]
                          for c, wc in zip(chart.free, w)]
            got = expand(F.terms, cols, f)
            for j in kernel.orders:
                betas = chart.kind.mons.exps[j]
                want = [int(got.get((F.d - j,) + beta, 0)) for beta in betas]
                have = by_order[j][:, i] if j in by_order else np.zeros(len(betas))
                assert [int(x) for x in have] == want, (F, p, j)


def test_enumeration_refuses_spaces_beyond_one_array():
    # the rows of P^2(F_q), 3 int64 each, exceed 2^63 bytes: refused before
    # any array is allocated
    with pytest.raises(ValueError, match="too many points to enumerate"):
        projective_reps(2, 2147483647)


def test_evaluation_refuses_q_beyond_int64():
    q = 3037000507  # the least prime with (q-1)^2 >= 2^63
    with pytest.raises(ValueError, match="too large for int64"):
        hypersurface_points(HyperForm.fermat(1, 3, PrimeField(q)))


def quadric_f3():
    return HyperForm(3, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}, PrimeField(3))


def cone_f3():
    return HyperForm(
        3, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1}, PrimeField(3)
    )


def reducible_forms():
    f3, f5, f7 = PrimeField(3), PrimeField(5), PrimeField(7)
    return [
        # P^1: three simple roots; a double root and a simple one
        HyperForm(1, 3, {(3, 0): 1, (0, 3): 1}, f7),
        HyperForm(1, 3, {(2, 1): 1}, f7),
        # P^2: a triangle of lines, a double line plus a line
        HyperForm(2, 3, {(2, 1, 0): 1, (1, 2, 0): 1, (1, 1, 1): 1}, f5),
        HyperForm(2, 3, {(2, 0, 1): 1, (1, 1, 1): 2, (0, 2, 1): 1}, f5),
        # P^3: two planes, a double plane (every point singular)
        HyperForm(3, 2, {(1, 1, 0, 0): 1}, f3),
        HyperForm(3, 2, {(2, 0, 0, 0): 1}, f3),
    ]


def test_count_matches_bruteforce_smooth_and_singular():
    for F in [quadric_f3(), cone_f3()] + reducible_forms():
        for k in range(1, F.d + 2):
            assert count_vk(F, k).count == count_vk_bruteforce(F, k)


def test_the_zero_form_counts_every_pair():
    # F = 0 vanishes on all of P^n and on every line: a jet matrix of no
    # rows must still multiply out
    for n in (1, 2, 3):
        F = HyperForm(n, 3, {}, PrimeField(5))
        every = pp_count(n, 5) * pp_count(n - 1, 5)
        assert [count_vk(F, k).count for k in range(1, 6)] == [every] * 5


def test_count_on_the_projective_line():
    # a smooth point of X in P^1 has no tangent direction; a multiple root
    # has one, which the higher orders then filter
    f7 = PrimeField(7)
    assert count_vk(HyperForm(1, 3, {(3, 0): 1, (0, 3): 1}, f7), 2).count == 0
    double = HyperForm(1, 3, {(2, 1): 1}, f7)
    assert count_vk(double, 2).count == count_vk_bruteforce(double, 2) == 1
    assert count_vk(double, 3).count == count_vk_bruteforce(double, 3) == 0


def test_count_at_a_large_q_allocates_nothing_of_size_q():
    # P^1 admits q up to about 9.5e7 at k >= 2; the double root of
    # x0^2 x1 is its one pair, and no array of q entries (80 MB of int64
    # here) may be built for it
    F = HyperForm(1, 3, {(2, 1): 1}, PrimeField(10000019))
    tracemalloc.start()
    try:
        count = count_vk(F, 2).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 32 * 2 ** 20


def test_count_matches_bruteforce_random_forms():
    # (n, q, largest d): the brute-force route walks every line, so P^3
    # stays at small q and d
    rng = random.Random(19)
    for n, q, top in ((1, 3, 2), (1, 5, 4), (1, 7, 5), (2, 3, 2), (2, 5, 3),
                      (2, 7, 3), (3, 3, 2), (3, 5, 2)):
        f = PrimeField(q)
        for _ in range(2 if n < 3 else 1):
            d = rng.randint(1, top)
            density = rng.choice((0.3, 1.0))
            terms = {e: rng.randrange(1, q) for e in monomials(n, d) if rng.random() < density}
            if not terms:
                terms = {monomials(n, d)[0]: 1}
            F = HyperForm(n, d, terms, f)
            for k in range(1, d + 2):
                assert count_vk(F, k).count == count_vk_bruteforce(F, k), (F, k)


def oracle_b_forms() -> list[HyperForm]:
    """One seeded form per n = 2..4 and d = 2..5, dense when n + d is even:
    the quadrics at q = 3, the rest at a prime q in 5..13 above d (at most
    11 in P^3, 7 in P^4).  Then singular ones: two cones of degree 3 and 4,
    Q_p = 0 (rank 0) at the vertex, a quadric cone at q = 3 (rank 3 at the
    vertex) and a line pair at q = 3 (rank 2 where they meet)."""
    rng = random.Random("oracle B")
    forms = []
    for n, d in product(range(2, 5), range(2, 6)):
        q = 3 if d == 2 else rng.choice([q for q in (5, 7, 11, 13) if d < q <= (13, 11, 7)[n - 2]])
        f = PrimeField(q)
        forms.append(HyperForm(n, d, {e: f.random(rng) for e in monomials(n, d)
                                      if (n + d) % 2 == 0 or rng.random() < 0.3}, f))
    f3, f5, f7 = PrimeField(3), PrimeField(5), PrimeField(7)
    return forms + [
        HyperForm(3, 3, {(0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}, f7),
        HyperForm(3, 4, {(0,) + e: f5.random(rng) for e in monomials(2, 4)}, f5),
        HyperForm(3, 2, {(0, 1, 1, 0): 1, (0, 0, 0, 2): 1}, f3),
        HyperForm(2, 2, {(1, 1, 0): 1}, f3),
    ]


@functools.cache
def oracle_b_counts() -> tuple:
    """(F, |V_3| by oracle B) for the oracle_b_forms, computed once: the
    counter's mutants leave the oracle's code alone."""
    return tuple((F, count_v3_second_form(F)) for F in oracle_b_forms())


def check_oracle_b() -> None:
    for F, v3 in oracle_b_counts():
        assert count_vk(F, 3).count == v3, F


def test_v3_counts_equal_the_second_fundamental_form_oracle():
    check_oracle_b()


def sweep_forms(count, seed):
    """Dense, sparse and cone forms (a cone leaves x_0 out, so it is singular
    at (1, 0, ..., 0)) over n = 1..5, d = 1..6 and primes q = d+1..13, small
    enough that the whole sweep counts in seconds."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        n, d = rng.randint(1, 5), rng.randint(1, 6)
        qs = [q for q in (2, 3, 5, 7, 11, 13) if q > d and q ** (2 * n - 3) <= 10 ** 5]
        if not qs:
            continue
        q = rng.choice(qs)
        kind = rng.choice(("dense", "sparse", "cone"))
        mons = [e for e in monomials(n, d) if kind != "cone" or e[0] == 0]
        density = 1.0 if kind == "dense" else 0.3
        terms = {e: rng.randrange(1, q) for e in mons if rng.random() < density}
        forms.append(HyperForm(n, d, terms or {mons[-1]: 1}, PrimeField(q)))
    return forms


def seeded_digest() -> str:
    """sha256 of count_vk over 100 seeded forms and k = 1..d+2."""
    h = hashlib.sha256()
    for F in sweep_forms(100, 12):
        for k in range(1, F.d + 3):
            h.update(repr((F.n, F.d, F.field.p, sorted(F.terms.items()), k,
                           count_vk(F, k).count)).encode())
    return h.hexdigest()


# recorded from the counter that expanded (w.r)^a through multinomial tables
SEEDED_DIGEST = "0fe0e04a68e0f0158e78a23a4d05a9093586458c6505776a65491635109142c2"


def test_seeded_counts_are_pinned():
    assert seeded_digest() == SEEDED_DIGEST


def test_seeded_counts_are_pinned_in_float64(monkeypatch):
    # no bound is below 0: every count tests its directions in float64
    monkeypatch.setattr(counting, "_EXACT32", 0)
    assert seeded_digest() == SEEDED_DIGEST


@pytest.mark.parametrize("q, flexes, dtype", [(2347, 9, np.float32), (2357, 3, np.float32),
                                              (2371, 9, np.float64), (2381, 3, np.float64)])
def test_fermat_cubic_flexes_on_both_sides_of_the_float32_bound(q, flexes, dtype):
    # x^3 + y^3 + z^3 has 9 rational flexes when q = 1 mod 3 and 3 when
    # q = 2 mod 3, each with one line of contact exactly 3; its sums reach
    # 3 (q-1)^2, below 2^24 up to q = 2365; oracle B counts them too
    F = HyperForm.fermat(2, 3, PrimeField(q))
    assert counting._Kernel(F, 3).dtype == dtype
    assert count_vk(F, 3).count == count_v3_second_form(F) == flexes
    assert count_vk(F, 4).count == 0


@pytest.mark.parametrize("q, expected", [(7, 49470), (11, 3507300)])
def test_fermat_quintic_k5_counts(q, expected):
    # computed by the earlier per-point counter
    F = HyperForm.fermat(5, 5, PrimeField(q))
    for workers in (1, 2):
        assert count_vk(F, 5, workers=workers).count == expected


def test_closed_forms():
    F = quadric_f3()
    assert count_vk(F, 1).count == closed_count_k1(F)
    assert rational_singular_points(F) == []
    assert count_vk(F, 2).count == closed_count_k2_smooth(F)
    # the cone is singular at its vertex; k2 closed form does not apply
    assert rational_singular_points(cone_f3()) == [(0, 0, 0, 1)]


def test_monotone_in_k():
    F = HyperForm.fermat(3, 2, PrimeField(5))
    counts = [count_vk(F, k).count for k in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_worker_determinism(monkeypatch):
    # a count this small would not fork: make every multiply-add worth a worker
    monkeypatch.setattr(counting, "_WORK_PER_WORKER", 1)
    f7 = PrimeField(7)
    cone = HyperForm(3, 3, {(0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}, f7)
    for F in (HyperForm.fermat(3, 3, f7), cone):
        baseline = count_vk(F, 3).count
        for workers in (1, 2, 3, 5, len(os.sched_getaffinity(0))):
            assert count_vk(F, 3, workers=workers).count == baseline, F


def test_worker_count_clamps():
    cpus = len(os.sched_getaffinity(0))
    plenty = 10 ** 6 * counting._WORK_PER_WORKER
    assert worker_count(10 ** 6, plenty) == cpus
    assert worker_count(1, plenty) == 1
    assert worker_count(0, plenty) == 1
    assert worker_count(-3, plenty) == 1
    # small counts stay in-process
    assert worker_count(cpus, 0) == 1
    assert worker_count(cpus, counting._WORK_PER_WORKER - 1) == 1
    assert worker_count(2, 2 * counting._WORK_PER_WORKER) == min(2, cpus)


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    # no affinity call outside Linux: every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    plenty = 10 ** 6 * counting._WORK_PER_WORKER
    assert worker_count(10 ** 6, plenty) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(10 ** 6, plenty) == 1


def test_exactness_guard_at_the_boundary():
    # n = 2, d = 3, k = 3: the one float sum is the order-2 contraction's,
    # over the C(3, 2) = 3 monomials of degree 2 in two variables; the
    # gradient's 6 monomials sum in int64, reduced mod q
    assert exactness_bound(2, 3, 3, 11) == 3 * 10 ** 2
    last = math.isqrt((2 ** 53 - 1) // 3) + 1  # largest q with 3 (q-1)^2 < 2^53
    assert exactness_bound(2, 3, 3, last) < 2 ** 53 <= exactness_bound(2, 3, 3, last + 1)
    check_exact(2, 3, 3, last)
    with pytest.raises(ValueError, match="too large for exact counting"):
        check_exact(2, 3, 3, last + 1)


def test_exactness_bound_counts_only_the_contractions():
    # the widest GEMM row, C(n-1+j, j) for the top order j = min(k-1, d),
    # and 0 when no order 2..min(k-1, d) is tested: k <= 2 sums nothing in
    # floats, nor does d = 1
    assert [exactness_bound(5, 5, k, 2) for k in range(1, 8)] == [0, 0, 15, 35, 70, 126, 126]
    assert exactness_bound(3, 5, 5, 701) == 15 * 700 ** 2
    assert exactness_bound(3, 1, 5, 7) == 0
    check_exact(1, 3, 2, 2 ** 61 - 1)


def planted_grid(rng, q, width, targets, coefs):
    """A float64 grid of residues in [7q/8, q), one row per target: a row
    whose target is a point vanishes mod q against that point's column of
    coefs; a row whose target is None is drawn freely."""
    low = q - q // 8
    grid = np.empty((len(targets), width))
    for r, p in enumerate(targets):
        while True:
            row = [rng.randrange(low, q) for _ in range(width)]
            if p is None:
                break
            col = [int(c) for c in coefs[:, p]]
            rest = sum(a * b for a, b in zip(row[:-1], col[:-1]))
            row[-1] = -rest * pow(col[-1], -1, q) % q
            if row[-1] >= low:
                break
        grid[r] = row
    return grid


def check_planted_grids(q: int, terms: int, dtype) -> None:
    """_grid_zeros in `dtype` on planted grids and coefficients of residues in
    [7q/8, q): the singular kind's contractions for (n, d, k) = (5, 5, 5),
    then one sum of `terms` products, over a full tile and a one-point one,
    against exact integer products."""
    widths = [math.comb(4 + j, j) for j in (2, 3, 4)] + [terms]
    rng = random.Random(65)
    for m in (counting._TILE_POINTS, 1):
        coefs = [np.array([[rng.randrange(q - q // 8, q) for _ in range(m)] for _ in range(w)],
                          dtype=float) for w in widths]
        # even rows vanish at a point in every order, odd rows in the first only
        grids = [planted_grid(rng, q, w, [r % m if i == 0 or r % 2 == 0 else None
                                          for r in range(13)], C)
                 for i, (w, C) in enumerate(zip(widths, coefs))]
        zero = np.ones((13, m), dtype=bool)
        for M, C in zip(grids, coefs):
            exact = M.astype(np.int64).astype(object) @ C.astype(np.int64).astype(object)
            zero &= (exact % q == 0).astype(bool)
        assert int(zero.sum()) >= 7
        assert counting._grid_zeros([M.astype(dtype) for M in grids],
                                    [C.astype(dtype) for C in coefs], q) == int(zero.sum())


def largest_exact_q(terms: int) -> int:
    """The largest prime q with terms (q-1)^2 < 2^53."""
    q = math.isqrt((2 ** 53 - 1) // terms) + 1
    while any(q % f == 0 for f in range(2, math.isqrt(q) + 1)):
        q -= 1
    return q


def test_grid_contraction_is_exact_at_the_largest_q():
    # the largest prime q that check_exact admits for (n, d, k) = (5, 5, 5);
    # its widest sum adds 70 products, and with every residue in [7q/8, q)
    # those sums pass 2^52.6, where float32 (or any rounding) would be wrong
    n, d, k = 5, 5, 5
    terms = exactness_bound(n, d, k, 2)
    q = largest_exact_q(terms)
    check_exact(n, d, k, q)
    assert terms * (q - q // 8) ** 2 > 2 ** 52.6
    check_planted_grids(q, terms, np.float64)


def test_grid_contraction_is_exact_in_the_dtype_the_kernel_picks(monkeypatch):
    # 487 is the largest prime with 70 (q-1)^2 < 2^24, the widest sum of
    # (n, d, k) = (5, 5, 5), C(8, 4) monomials of degree 4 in 5 variables:
    # there float32 sums reach 2^23.9; from 491 on the count runs in
    # float64, and float32 misses zeros at 541
    terms = exactness_bound(5, 5, 5, 2)
    assert terms == math.comb(8, 4) and terms * 486 ** 2 < 2 ** 24 <= terms * 490 ** 2
    for q, dtype in ((487, np.float32), (491, np.float64), (541, np.float64)):
        kernel = counting._Kernel(HyperForm.fermat(5, 5, PrimeField(q)), 5)
        assert kernel.dtype == dtype, q
        check_planted_grids(q, terms, kernel.dtype)
    with pytest.raises(AssertionError):
        check_planted_grids(541, terms, np.float32)
    # the Fermat quintic surface in P^3 at k = 5: 15 (q-1)^2 < 2^24 up to q = 1058
    assert counting._Kernel(HyperForm.fermat(3, 5, PrimeField(701)), 5).dtype == np.float32
    # only a bound below 2^24 keeps float32 (a patched bound sits on either
    # side: 2^24 itself needs, say, n = 2, q = 17 and order 65535)
    F = HyperForm.fermat(5, 5, PrimeField(11))
    for bound, dtype in ((2 ** 24 - 1, np.float32), (2 ** 24, np.float64)):
        monkeypatch.setattr(counting, "exactness_bound", lambda *args: bound)
        assert counting._Kernel(F, 5).dtype == dtype, bound


def primes_below(m: int) -> list[int]:
    sieve = np.ones(m, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(m - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).tolist()


def test_divisibility_by_the_rounded_inverse_is_exact():
    # float32: every prime q the bound can admit (q - 1 < 2^12), every
    # multiple of q below 2^24 and both its neighbours
    for q in primes_below(4100):
        for lo in range(q, 2 ** 24, q << 20):
            mult = np.arange(lo, min(lo + (q << 20), 2 ** 24), q, dtype=np.int64)
            v = (mult[:, None] + np.arange(-1, 2)).astype(np.float32).ravel()
            got = np.empty(len(v), dtype=bool)
            counting._divisible(v, q, np.empty_like(v), got)
            assert np.array_equal(got, v.astype(np.int64) % q == 0), q
    # float64: the largest primes check_exact admits at the narrowest and the
    # widest sums, the top multiples below 2^53 and random ones
    rng = np.random.default_rng(67)
    for n, d, k in ((2, 3, 3), (5, 5, 5)):
        q = largest_exact_q(exactness_bound(n, d, k, 2))
        top = (2 ** 53 - 2) // q
        mult = np.concatenate([np.arange(top - 9999, top + 1),
                               rng.integers(1, top, 10 ** 5)]) * q
        v = (mult[:, None] + np.arange(-1, 2)).ravel()
        got = np.empty(len(v), dtype=bool)
        counting._divisible(v.astype(np.float64), q, np.empty(len(v)), got)
        assert np.array_equal(got, v % q == 0), q


# the exactness ladder: every stage at the primes on both sides of its
# float32 and float64 edges, on residues drawn in [7q/8, q), against
# Python ints


def is_prime(m: int) -> bool:
    return m > 1 and all(m % f for f in range(2, math.isqrt(m) + 1))


def ladder_edges(bound, limits=(2 ** 24, 2 ** 53)) -> list:
    """(q, dtype) for the largest prime q with bound(q) + q below each limit
    and the next prime, with the dtype stage_dtype must pick at each."""
    narrower = {2 ** 24: (np.float32, np.float64), 2 ** 53: (np.float64, np.int64)}
    out = []
    for limit in limits:
        lo, hi = 2, 2 ** 32   # the largest q with bound(q) + q < limit
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if bound(mid) + mid < limit else (lo, mid)
        q, above = lo, hi
        while not is_prime(q):
            q -= 1
        while not is_prime(above):
            above += 1
        out += [(q, np.dtype(narrower[limit][0])), (above, np.dtype(narrower[limit][1]))]
    return out


def large_residues(rng, q, shape):
    # residues in [7q/8, q), q - 1 (the largest) among them
    out = np.array([rng.randrange(q - q // 8, q) for _ in range(math.prod(shape))], dtype=object)
    out[0] = q - 1
    return out.reshape(shape)


@pytest.mark.parametrize("q, dtype", ladder_edges(lambda q: (q - 1) ** 2))
def test_monomial_steps_are_exact_on_both_sides_of_each_edge(q, dtype):
    # x^e = x^(e - e_i) x_i, one product of two residues a step; x and x^2
    # are drawn in [7q/8, q) (past that, F_q holds few x with every power
    # there)
    assert counting.stage_dtype((q - 1) ** 2, q) == dtype
    rng = random.Random(q)
    for nvars in (1, 3):
        mons = counting._Monomials(nvars, 4, counting._exps(nvars, 4))
        x = np.array([large_powers(rng, q, 2, 16) for _ in range(nvars)])
        got = mons.values(x.astype(dtype), q)
        for es, values in zip(mons.exps, got):
            assert values.dtype == dtype
            want = [[math.prod(pow(int(v), a, q) for v, a in zip(x[:, p], e)) % q
                     for p in range(x.shape[1])] for e in es]
            assert values.astype(np.int64).tolist() == want, (q, nvars)


def large_gradient_form(rng, q: int, d: int) -> HyperForm:
    """A dense binary form of degree d whose gradient's matrix entries,
    c e_i mod q, all lie in [7q/8, q)."""
    terms = {}
    for e in monomials(1, d):
        while not all(c * a % q >= q - q // 8 for a in e if a for c in [terms.get(e, 0)]):
            terms[e] = rng.randrange(1, q)
    return HyperForm(1, d, terms, PrimeField(q))


@pytest.mark.parametrize("q, dtype", ladder_edges(lambda q: 3 * (q - 1) ** 2))
def test_jets_are_exact_on_both_sides_of_each_edge(q, dtype):
    # the gradient of a dense cubic in two variables: 3 monomials of degree
    # 2, so 3 products a sum, every factor drawn in [7q/8, q)
    rng = random.Random(q)
    F = large_gradient_form(rng, q, 3)
    jets = counting._Derivatives(F, [1])
    assert jets.dtype == dtype and jets.mats[0].shape == (2, 3)
    pts = np.array([[1] + [int(x)] for x in large_powers(rng, q, 2, 8)] +
                   [[int(x), 1] for x in large_powers(rng, q, 2, 8)], dtype=np.int64)
    got = jets(pts)[0]
    assert got.dtype == dtype
    assert got.T.astype(np.int64).tolist() == [F.gradient(p) for p in pts.tolist()], q


@pytest.mark.parametrize("q, dtype", ladder_edges(lambda q: 4 * (q - 1) ** 2))
def test_cell_axes_are_exact_on_both_sides_of_each_edge(q, dtype):
    # a dense cubic in P^2 on the cell x_0 = 1: each axis sums 4 products,
    # the coefficients and x, x^2 drawn in [7q/8, q); the last axis is only
    # tested for divisibility, unreduced
    rng = random.Random(q)
    F = HyperForm(2, 3, {e: rng.randrange(q - q // 8, q) for e in monomials(2, 3)},
                  PrimeField(q))
    A, exps = counting._cell(F, 0, q)
    assert A.dtype == dtype and [len(E) for E in exps] == [4, 4]
    xs = [large_powers(rng, q, 2, 8).astype(dtype) for _ in exps]
    pows = [counting._powers(x, E, q) for x, E in zip(xs, exps)]
    inner = counting._axis(A, 1, pows[1], q)
    for reduce in (True, False):
        values = counting._axis(inner, 0, pows[0], q, reduce)
        want = np.array([[F.evaluate([1, int(a), int(b)]) for b in xs[1]] for a in xs[0]])
        got = values.astype(np.int64)
        assert (got % q == want).all() and ((got == want).all() or not reduce), (q, reduce)
        divisible = np.empty(want.shape, dtype=bool)
        counting._divisible(values, q, np.empty_like(values), divisible)
        assert np.array_equal(divisible, want == 0)


def horner_reference(chart, jets, q: int) -> list:
    """_pullback's coefficients with Python ints: sum_a (w.r)^a H_a(r) at
    each point, w = -grad_free / grad_pivot."""
    kind, out = chart.kind, []
    for pos, j, rows in chart.orders:
        cols = []
        for p in range(jets[0].shape[1]):
            grad = [int(g) for g in jets[0][:, p]]
            w = [-grad[c] * pow(grad[chart.pivot], -1, q) for c in chart.free]
            total = {}
            for a, at in enumerate(rows):
                term = {delta: int(jets[1 + pos][r, p]) if r >= 0 else 0
                        for delta, r in zip(kind.mons.exps[j - a], at.tolist())}
                for _ in range(a):   # times w.r
                    times = {}
                    for mu, c in term.items():
                        for i, wi in enumerate(w):
                            up = mu[:i] + (mu[i] + 1,) + mu[i + 1:]
                            times[up] = times.get(up, 0) + c * wi
                    term = times
                for beta, c in term.items():
                    total[beta] = total.get(beta, 0) + c
            cols.append([total.get(beta, 0) % q for beta in kind.mons.exps[j]])
        out.append(np.array(cols, dtype=object).T)
    return out


# (n, d, k) = (3, 3, 4): orders 2 and 3, whose widest sum is C(5, 3) (q-1)^2
HORNER_BOUND = math.comb(5, 3)


@pytest.mark.parametrize("q, dtype", ladder_edges(lambda q: HORNER_BOUND * (q - 1) ** 2 - q)[:3])
def test_horner_steps_are_exact_on_both_sides_of_each_edge(q, dtype, monkeypatch):
    # the pullback runs in the direction test's dtype, whose edges carry no
    # headroom (past the float64 edge the count is refused); a pivoted chart
    # takes Horner steps of 2 products plus a residue, here on jets drawn in
    # [7q/8, q), the pivot gradient a unit.  The chart's direction grid,
    # q + 1 rows, is not needed: one row stands in for it
    monkeypatch.setattr(counting, "projective_reps", lambda m, q: np.ones((1, m + 1), np.int64))
    rng = random.Random(q)
    F = HyperForm(3, 3, {e: rng.randrange(1, q) for e in monomials(3, 3)}, PrimeField(q))
    kernel = counting._Kernel(F, 4)
    assert kernel.dtype == dtype == counting.stage_dtype(exactness_bound(3, 3, 4, q))
    key = 0 * 4 + 1   # lead 0, pivot 1
    kernel.add_charts([key])
    chart = kernel.charts[key]
    assert [j for _, j, _ in chart.orders] == [2, 3] and chart.kind.wtop == 3
    jets = [large_residues(rng, q, (len(keys), 24)) for keys in kernel.jets.keys]
    got = counting._pullback(chart, [J.astype(dtype) for J in jets], q)
    for C, want in zip(got, horner_reference(chart, jets, q), strict=True):
        assert C.dtype == dtype
        assert C.astype(np.int64).tolist() == want.tolist(), q


def reduces_exactly(x: np.ndarray, q: int, dtype) -> bool:
    got = counting._reduce(x.astype(dtype), q)
    return got.astype(np.int64).tolist() == (x % q).tolist()


def headroom_prime(limit: int, below: int) -> int:
    """The largest prime q < below whose multiple above limit, ceil(limit/q)
    q, is odd and more than q/2 + 65 above limit: the 65 integers just below
    limit are nearer that multiple than the one below it."""
    q = below
    while not (-limit // q % 2 and limit % q > q // 2 + 65 and is_prime(q)):
        q -= 1
    return q


@pytest.mark.parametrize("limit", [2 ** 24, 2 ** 53])
def test_the_reduction_needs_its_headroom(limit):
    # q rint(x fl(1/q)) can exceed x by q/2: for a sum x just below 2^p it
    # may be an odd integer past 2^p, which the float rounds, so the
    # narrower float reduces x wrongly.  A stage whose bound sits within q
    # of 2^p therefore goes one rung up; below that, the narrower float
    # reduces every sum exactly
    narrow, wide = (np.float32, np.float64) if limit == 2 ** 24 else (np.float64, np.int64)
    for below in (4096, 94906249)[:1 if limit == 2 ** 24 else 2]:
        q = headroom_prime(limit, below)
        bound = limit - 1
        assert counting.stage_dtype(bound, q) == wide, q
        assert counting.stage_dtype(bound - q, q) == narrow, q
        x = np.arange(bound - 64, bound + 1, dtype=np.int64)
        assert reduces_exactly(x, q, wide) and reduces_exactly(x - q, q, narrow), q
        assert not reduces_exactly(x, q, narrow), q


def dense_form(n: int, d: int, q: int, seed) -> HyperForm:
    rng = random.Random(seed)
    return HyperForm(n, d, {e: rng.randrange(1, q) for e in monomials(n, d)}, PrimeField(q))


def threads_after_grid_zeros(q: int, orders: list[int]) -> int:
    """Run _grid_zeros on the Fermat quintic's direction grids in P^5, both
    kinds in both dtypes, over a full tile plus a one-point one and over a
    single point; then the jets of a dense quartic in P^8 in both dtypes,
    and the pullback of a quartic's in P^7 to one chart; return this
    process's thread count."""
    rng = np.random.default_rng(66)
    for dtype in (np.float32, np.float64):
        for nfree, pivoted in ((4, True), (5, False)):
            kind = counting._Kind(nfree, pivoted, orders, q, np.dtype(dtype))
            for m in (counting._TILE_POINTS + 1, 1):
                coefs = [rng.integers(0, q, (M.shape[1], m)).astype(dtype) for M in kind.grid]
                counting._grid_zeros(kind.grid, coefs, q)
    # a dense quartic in P^8: at q = 5 its jets run in float32, at q = 331
    # in float64 (165 (q-1)^2, the gradient's sums, passes 2^24); one
    # block's order-2 product, 45 x 45 times 595 points, would be a GEMM of
    # 1.2e6 multiply-adds
    for p in (5, 331):
        jets = counting._Derivatives(dense_form(8, 4, p, p), [1, 2, 3])
        assert jets.dtype == (np.float32 if p == 5 else np.float64)
        assert max(M.size for M in jets.mats) * jets.block > 2 ** 20
        for m in (2 * jets.block + 1, 1):
            jets(rng.integers(0, p, (m, 9)))
    kernel = counting._Kernel(dense_form(7, 4, 5, 5), 4)
    kernel.add_charts([0 * 8 + 1])
    pts = rng.integers(1, 5, (counting._POINTS, 8))
    assert counting._pullback(kernel.charts[1], kernel.jets(pts), 5)
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_grid_contraction_starts_no_threads_in_a_forked_worker():
    # the pool is the only parallelism: a BLAS thread in each worker would
    # oversubscribe the CPUs; k = 6 gives the widest tiles of the cone count,
    # and OpenBLAS decides sgemm's threads apart from dgemm's.  _gemm tiles
    # the direction test's GEMMs and the jets', which the workers run too
    with multiprocessing.get_context("fork").Pool(1) as pool:
        threads = pool.apply_async(threads_after_grid_zeros, (11, [2, 3, 4, 5])).get(timeout=120)
    assert threads == 1


def test_count_vk_refuses_inexact_q_before_enumerating():
    # enumerating P^2(F_q) at this q would take exabytes; the guard comes first
    F = HyperForm.fermat(2, 3, PrimeField(2147483647))
    with pytest.raises(ValueError, match="too large for exact counting"):
        count_vk(F, 3)


def test_count_vk_work_budget():
    # criterion 9's largest count, the Fermat quintic at q = 13 and k = 5,
    # fits in the budget ten times over
    work = (len(hypersurface_points(HyperForm.fermat(5, 5, PrimeField(13))))
            * pp_count(3, 13) * sum(math.comb(3 + j, j) for j in (2, 3, 4)))
    assert 10 * work <= counting._BUDGET
    # over F_23 its 292561 points are enumerated, but their directions would
    # take 2.3e11 multiply-adds
    with pytest.raises(ValueError, match="testing the directions at 292561 points"):
        count_vk(HyperForm.fermat(5, 5, PrimeField(23)), 5)


def split_quadric_squared(q: int) -> HyperForm:
    # (x0x1 + x2x3 + x4x5)^2 in P^5: its gradient vanishes on all of X
    pairs = [(0, 1), (2, 3), (4, 5)]
    terms = {}
    for a in pairs:
        for b in pairs:
            e = [0] * 6
            for i in a + b:
                e[i] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + 1
    return HyperForm(5, 4, terms, PrimeField(q))


def test_count_vk_budget_prices_singular_points():
    # a singular point tests the |P^4| directions over degree-j monomials in
    # 5 variables, not the |P^3| over 4 of a smooth one
    F = split_quadric_squared(11)
    kernel = counting._Kernel(F, 4)
    keys = kernel.chart_keys(hypersurface_points(F))
    assert direction_work(keys, 5, 11, kernel.orders) == 16226 * pp_count(4, 11) * (15 + 35)
    # priced as smooth, the q = 17 count fitted the budget; it takes 4.0e11
    began = time.perf_counter()
    with pytest.raises(ValueError, match=r"directions at 89030 points would take about 4\.0e\+11"):
        count_vk(split_quadric_squared(17), 4)
    assert time.perf_counter() - began < 1


def test_budget_message_past_the_float_range():
    # the step count prints as a float while one holds it, then by bit length
    assert counting.magnitude(4 * 10 ** 11) == "4.0e+11"
    assert counting.magnitude(3 ** 645) == "5.5e+307"
    assert counting.magnitude(3 ** 646) == "2^1023"
    with pytest.raises(ValueError, match=r"^P would take about 2\^4000 steps, over the work "
                                         r"budget of 2\^36 for one count$"):
        counting._check_budget(2 ** 4000, "P")


def sum_of_squares(n: int, q: int) -> HyperForm:
    # x0^2 + x1^2 in P^n: over F_3 it vanishes only where x0 = x1 = 0
    terms = {(2,) + (0,) * n: 1, (0, 2) + (0,) * (n - 1): 1}
    return HyperForm(n, 2, terms, PrimeField(q))


def test_point_bound_holds():
    for n, q in ((1, 3), (2, 3), (3, 5), (4, 3), (4, 7)):
        F = sum_of_squares(n, q)
        assert len(hypersurface_points(F)) <= counting.point_bound(F)
        assert counting.point_bound(F) == 2 * q ** (n - 1) + pp_count(n - 2, q)
    # x0^2 + x1^2 over F_3 vanishes on P^(n-2) alone
    assert len(hypersurface_points(sum_of_squares(4, 3))) == pp_count(2, 3)
    assert counting.point_bound(HyperForm(3, 2, {}, PrimeField(5))) == pp_count(3, 5)


def test_count_vk_prices_memory_before_enumerating(monkeypatch):
    # P^17, P^18 and P^20 pass the work budget, but their point arrays alone
    # would take 2.9, 9.1 and 90.9 GiB; the refusal comes before the enumerator
    def enumerate_nothing(F):
        raise AssertionError(f"enumerated X in P^{F.n}")

    monkeypatch.setattr(counting, "hypersurface_points", enumerate_nothing)
    for n in (17, 18, 20):
        F = sum_of_squares(n, 3)
        counting._check_budget((F.d + 1) * pp_count(n, 3), "enumerating")
        with pytest.raises(ValueError, match=rf"X\(F_3\) in P\^{n} could take about .* bytes, "
                                             r"over the memory budget of 2\^31 bytes"):
            count_vk(F, 2)
    # in P^14 x0^2 + x1^2 is admitted; the zero form, all of P^14, is not
    with pytest.raises(AssertionError, match="enumerated X in P\\^14"):
        count_vk(sum_of_squares(14, 3), 2)
    with pytest.raises(ValueError, match="memory budget"):
        count_vk(HyperForm(14, 2, {}, PrimeField(3)), 2)


def test_count_vk_validation():
    F = quadric_f3()
    with pytest.raises(ValueError):
        count_vk(F, 0)
    rational = HyperForm(2, 2, {(2, 0, 0): 1}, QQ)
    with pytest.raises(ValueError, match="prime field"):
        count_vk(rational, 1)


def test_line_count_formulas():
    assert sum(1 for _ in _rref_lines(2, 3)) == 13
    assert sum(1 for _ in _rref_lines(3, 3)) == (3 ** 2 + 1) * (3 ** 2 + 3 + 1)


def test_lines_on_smooth_quadric_surface():
    # two rulings with q+1 lines each
    assert lines_in_hypersurface(quadric_f3()) == 8


def test_count_record_json_roundtrip():
    rec = CountRecord(q=7, k=5, count=49470, n=5, d=5, elapsed_ms=12)
    obj = rec.to_json()
    assert obj == {"q": 7, "k": 5, "count": 49470, "n": 5, "d": 5, "elapsedMs": 12}
    assert CountRecord.from_json(obj) == rec
    # an integral float, as another JSON writer may give it, is read as an int
    again = CountRecord.from_json(dict(obj, q=7.0))
    assert again == rec and type(again.q) is int


def mk_records(pairs, k=5):
    return [
        CountRecord(q=q, k=k, count=c, n=5, d=5, elapsed_ms=0) for q, c in pairs
    ]


def test_dimension_slope_exact_power_law():
    # counts exactly q^3: slope 3
    recs = mk_records([(7, 7 ** 3), (11, 11 ** 3), (13, 13 ** 3)])
    rep = dimension_slope(recs)
    assert abs(rep.slope - 3.0) < 1e-9
    assert all(abs(s - 3.0) < 1e-9 for s in rep.pair_slopes)
    assert rep.warnings == []


def test_dimension_slope_excludes_zero_counts():
    recs = mk_records([(7, 0), (11, 11 ** 2), (13, 13 ** 2), (17, 17 ** 2)])
    rep = dimension_slope(recs)
    assert len(rep.warnings) == 1 and "q=7" in rep.warnings[0]
    assert abs(rep.slope - 2.0) < 1e-9


def test_dimension_slope_validation():
    with pytest.raises(ValueError, match="3 count records"):
        dimension_slope(mk_records([(7, 10), (11, 20)]))
    with pytest.raises(ValueError, match="distinct q"):
        dimension_slope(mk_records([(7, 10), (7, 20), (11, 30)]))
    with pytest.raises(ValueError, match="mix contact orders"):
        dimension_slope(
            mk_records([(7, 10), (11, 20)]) + mk_records([(13, 30)], k=4)
        )
    with pytest.raises(ValueError, match="positive counts"):
        dimension_slope(mk_records([(7, 0), (11, 0), (13, 5)]))
    # a quintic in P^5, a quartic in P^3 and a quintic in P^4: one series of
    # q^4 would read slope 4.0 across three hypersurfaces
    mixed = [CountRecord(q=q, k=5, count=q ** 4, n=n, d=d, elapsed_ms=0)
             for q, n, d in ((7, 5, 5), (11, 3, 4), (13, 4, 5))]
    with pytest.raises(ValueError, match=r"mix hypersurfaces \(n, d\) \[\(3, 4\), \(4, 5\), "):
        dimension_slope(mixed)
