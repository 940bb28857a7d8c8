"""Exact homogeneous forms, binary-form arithmetic along a line, and the
text input formats."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import gradient
from tangency import forms
from tangency.fermat import RootRing
from tangency.fields import QQ, PrimeField, RationalField
from tangency.forms import (
    HyperForm,
    LineParam,
    _expand_steps,
    expand,
    monomials,
    parse_form,
    parse_line_param,
    pullback_of_partial,
    s_valuation,
)


def test_a_form_of_degree_1100_is_differentiated():
    # expand's cached powers lin_i^e are built in a loop: one call per
    # exponent ran past Python's recursion limit here
    F = HyperForm(1, 1100, {(1099, 1): 1, (1, 1099): 1}, QQ)
    assert gradient(F, [2, 1]) == [1099 * 2 ** 1098 + 1, 2 ** 1099 + 1099 * 2]


def test_both_walks_take_a_leading_prefix_past_the_recursion_limit():
    # x0 x1 ... x1198 (x1199 + x1200): the two terms share 1199 leading
    # factors, a group inside a group for each, which once took one level
    # of recursion apiece in expand's walk and in _expand_steps'
    n = 1200
    assert n > sys.getrecursionlimit()
    terms = {(1,) * n + (0,): 1, (1,) * (n - 1) + (0, 1): 1}
    # through p = (1, ..., 1, 2) and u = e_1199: y0^1199 (3 y0 + y1)
    cols = [[1] * n + [2], [int(i == n - 1) for i in range(n + 1)]]
    for field in (QQ, PrimeField(101)):
        assert expand(terms, cols, field) == {(n, 0): field.of(3), (n - 1, 1): field.one}
        # the price's powers of each lin_i up to d make it loose here
        assert _steps_taken(terms, cols, field) <= _expand_steps(terms, cols, field)
    F = HyperForm(n, n, terms, QQ)
    assert F.evaluate([0] + [1] * (n - 1) + [-1]) == 0
    assert gradient(F, [0] + [1] * (n - 1) + [-1]) == [0] * (n + 1)


def test_monomials_enumeration():
    ms = monomials(2, 2)
    assert len(ms) == 6
    assert all(sum(e) == 2 and len(e) == 3 for e in ms)
    assert len(set(ms)) == 6
    from math import comb

    assert len(monomials(4, 3)) == comb(4 + 3, 3)
    # lex order, largest first, as the recursion it replaced enumerated them
    for n, d in ((0, 3), (1, 0), (2, 3), (4, 2), (3, 5)):
        every = [e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d]
        assert monomials(n, d) == sorted(every, reverse=True), (n, d)
    # one loop, not one level of recursion per variable
    ms = monomials(1200, 1)
    assert len(ms) == 1201 and ms[0] == (1,) + (0,) * 1200 and ms[-1] == (0,) * 1200 + (1,)
    assert ms == [tuple(int(i == j) for i in range(1201)) for j in range(1201)]


def test_monomials_hands_out_a_fresh_list():
    # the memo keeps the exponents; a caller that changes its list changes
    # no later call's
    first = monomials(3, 2)
    want = list(first)
    first.append((9, 9, 9, 9))
    first[0] = (0, 0, 0, 0)
    assert monomials(3, 2) == want and monomials(3, 2) is not monomials(3, 2)


def test_s_valuation():
    f = QQ
    assert s_valuation([0, 0, Fraction(3)], f) == 2
    assert s_valuation([Fraction(1)], f) == 0
    assert s_valuation([0, 0], f) is None


def test_line_param_validation():
    f = QQ
    with pytest.raises(ValueError, match="rank"):
        LineParam([(1, 0), (2, 0), (0, 0)], f)
    line = LineParam.from_point_direction([1, 0, 0], [0, 1, 0], f)
    assert line.marked_point() == [1, 0, 0]
    assert line.direction() == [0, 1, 0]


def test_hyperform_validation():
    f = QQ
    with pytest.raises(ValueError):
        HyperForm(2, 2, {(1, 0, 0): 1}, f)  # inhomogeneous exponent
    with pytest.raises(ValueError, match="exceed the degree"):
        HyperForm(2, 3, {(3, 0, 0): 1}, PrimeField(3))
    F = HyperForm(2, 2, {(2, 0, 0): 0, (0, 2, 0): 1}, f)
    assert (2, 0, 0) not in F.terms  # zero coefficients dropped


def test_forms_over_two_fields_are_unequal():
    # x0 over F_7, F_11 and QQ: the same terms, three forms; QQ and another
    # RationalField are one field
    x0 = {(1, 0): 1}
    over = [HyperForm(1, 1, x0, f) for f in (PrimeField(7), PrimeField(11), QQ)]
    assert [F == G for F in over for G in over] == [F is G for F in over for G in over]
    assert HyperForm(1, 1, x0, RationalField()) == over[2]
    assert HyperForm(1, 1, x0, PrimeField(7)) == over[0]


def test_evaluate_and_gradient_euler_identity():
    rng = random.Random(23)
    f = PrimeField(97)
    for _ in range(20):
        n = rng.choice((2, 3))
        dd = rng.choice((2, 3, 4))
        terms = {}
        for e in monomials(n, dd):
            c = rng.randrange(97)
            if c:
                terms[e] = c
        F = HyperForm(n, dd, terms, f)
        pt = [rng.randrange(97) for _ in range(n + 1)]
        grad = gradient(F, pt)
        euler = 0
        for xi, gi in zip(pt, grad):
            euler = f.add(euler, f.mul(xi, gi))
        assert euler == f.mul(f.of(dd), F.evaluate(pt))


def test_gradient_of_linear_form_is_its_coefficients():
    for f in (QQ, PrimeField(7)):
        F = HyperForm(2, 1, {(1, 0, 0): 3, (0, 0, 1): -2}, f)
        assert gradient(F, [5, 1, 4]) == [f.of(3), f.zero, f.of(-2)]


def _per_term_value(terms: dict, point: list, f):
    # the per-term evaluation the forms module used before evaluate and
    # gradient went through expand: the reference for both
    acc = f.zero
    for e, c in terms.items():
        v = c
        for x, ei in zip(point, e):
            for _ in range(ei):
                v = f.mul(v, x)
        acc = f.add(acc, v)
    return acc


def _partial_terms(F: HyperForm, i: int) -> dict:
    # d/dx_i term by term, from the exponents
    f = F.field
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: f.mul(c, f.of(e[i]))
            for e, c in F.terms.items() if e[i]}


EVAL_FIELDS = {"QQ": QQ, "F7": PrimeField(7), "F101": PrimeField(101)}


@st.composite
def forms_and_points(draw):
    field = EVAL_FIELDS[draw(st.sampled_from(sorted(EVAL_FIELDS)))]
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    monos = monomials(n, d)
    kind = draw(st.sampled_from(("zero", "sparse", "dense")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "zero":
        chosen = []
    elif kind == "sparse":
        chosen = draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
    else:
        chosen = monos
    F = HyperForm(n, d, {e: field.random(rng) for e in chosen}, field)
    coordinate = st.one_of(st.just(0), st.integers(-200, 200))
    if field is QQ:
        coordinate = st.one_of(coordinate, _rationals)
    point = [field.of(draw(coordinate)) for _ in range(n + 1)]
    return F, point


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(forms_and_points())
def test_evaluate_and_gradient_equal_the_per_term_values(case):
    F, point = case
    f = F.field
    want = _per_term_value(F.terms, point, f)
    got = F.evaluate(point)
    assert (got, type(got)) == (want, type(want))
    grad = gradient(F, point)
    for i, g in enumerate(grad):
        want = _per_term_value(_partial_terms(F, i), point, f)
        assert (g, type(g)) == (want, type(want))
    assert len(grad) == F.n + 1


def test_evaluate_and_gradient_refuse_a_point_of_the_wrong_length():
    for f in (QQ, PrimeField(7)):
        F = HyperForm(2, 2, {(1, 0, 1): 1, (0, 2, 0): -1}, f)
        for point in ([1, 0], [1, 0, 0, 0]):
            with pytest.raises(ValueError, match="3 coordinates"):
                F.evaluate(point)
            with pytest.raises(ValueError, match="3 coordinates"):
                gradient(F, point)


def test_pullback_worked_example():
    # F = x0 x2 - x1^2 along [s:t] -> [t:s:0] pulls back to -s^2
    f = QQ
    F = HyperForm(2, 2, {(1, 0, 1): 1, (0, 2, 0): -1}, f)
    line = LineParam([(0, 1), (1, 0), (0, 0)], f)
    pb = F.pullback(line)
    assert pb == [0, 0, Fraction(-1)]
    assert s_valuation(pb, f) == 2


def test_pullback_of_partial_matches_partial_pullback():
    rng = random.Random(31)
    f = PrimeField(101)
    for _ in range(25):
        n = rng.choice((2, 3, 4))
        dd = rng.choice((2, 3, 5))
        terms = {}
        for e in monomials(n, dd):
            c = rng.randrange(101)
            if c and rng.random() < 0.5:
                terms[e] = c
        if not terms:
            continue
        F = HyperForm(n, dd, terms, f)
        rows = [(rng.randrange(101), rng.randrange(101)) for _ in range(n + 1)]
        try:
            line = LineParam(rows, f)
        except ValueError:
            continue
        for i in range(n + 1):
            direct = pullback_of_partial(F, i, line)
            via_partial = HyperForm(n, dd - 1, _partial_terms(F, i), f).pullback(line)
            assert direct == via_partial


def test_substitute_identity_and_permutation():
    f = QQ
    F = HyperForm(2, 3, {(2, 1, 0): Fraction(2), (0, 0, 3): 1}, f)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert F.substitute(ident) == F
    # swap x0 <-> x1
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    G = F.substitute(swap)
    assert G.terms.get((1, 2, 0)) == Fraction(2)
    assert G.terms.get((0, 0, 3)) == 1


def test_substitute_is_multiplicative_in_the_matrix():
    rng = random.Random(41)
    f = PrimeField(101)
    F = HyperForm.fermat(2, 3, f)
    for _ in range(10):
        A = [[rng.randrange(101) for _ in range(3)] for _ in range(3)]
        B = [[rng.randrange(101) for _ in range(3)] for _ in range(3)]
        AB = [
            [sum(A[i][k] * B[k][j] for k in range(3)) % 101 for j in range(3)]
            for i in range(3)
        ]
        assert F.substitute(A).substitute(B) == F.substitute(AB)


def _random_terms(n, d, field, rng):
    return {e: field.random(rng) for e in monomials(n, d) if rng.random() < 0.6}


def test_expand_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    for field in (QQ, PrimeField(101)):
        for _ in range(25):
            n = rng.randint(1, 4)
            d = rng.randint(1, 5)
            width = rng.randint(1, n + 1)
            terms = _random_terms(n, d, field, rng)
            cols = [[field.random(rng) if rng.random() < 0.8 else field.zero
                     for _ in range(n + 1)] for _ in range(width)]
            ys = sympy.symbols(f"y0:{width}")
            xs = [sum(sympy.Rational(col[i]) * y for col, y in zip(cols, ys))
                  for i in range(n + 1)]
            F = sum(sympy.Rational(c) * sympy.Mul(*(x ** ei for x, ei in zip(xs, e)))
                    for e, c in terms.items())
            full = {}
            for mono, c in sympy.Poly(sympy.expand(F), *ys).terms():
                c = field.of(Fraction(int(c.p), int(c.q)))
                if not field.is_zero(c):
                    full[mono] = c
            assert expand(terms, cols, field) == full
            for top in range(d):
                kept = {e: c for e, c in full.items() if sum(e[1:]) <= top}
                assert expand(terms, cols, field, top) == kept


def _steps_taken(terms, cols, ring, top=None):
    # the steps expand(terms, cols, ring, top) takes, as _expand_steps counts
    # them: the coefficient pairs each product of _products multiplies, the
    # terms each grouping pass of the Horner walk visits and the digits,
    # one per column, of each packed term unpacked at the end
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        code = frame.f_code
        if code.co_filename != forms.__file__:
            return
        if event == "call" and code.co_name == "times":
            steps += len(frame.f_locals["a"]) * len(frame.f_locals["b"])
        elif event == "call" and code.co_name == "_groups":
            steps += len(frame.f_locals["items"])
        elif event == "return" and code.co_name == "expand":
            steps += len(frame.f_locals.get("packed", ())) * len(cols)

    sys.setprofile(count)
    try:
        expand(terms, cols, ring, top)
    finally:
        sys.setprofile(None)
    return steps


def test_expand_steps_bounds_the_steps_expand_takes():
    rng = random.Random("expand steps")
    for field in (QQ, PrimeField(7), PrimeField(101)):
        for trial in range(31):
            n, d = (12, 3) if trial == 30 else (rng.randint(1, 5), rng.randint(0, 6))
            share = 1.0 if trial == 30 else rng.choice((0.2, 1.0))
            terms = {e: field.random(rng) for e in monomials(n, d) if rng.random() < share}
            # about half the entries zero, so that lin_i has few terms
            cols = [[field.random(rng) if rng.random() < 0.5 else field.zero
                     for _ in range(n + 1)] for _ in range(rng.randint(1, n + 1))]
            # the last is a dense cubic in P^12, whose products the
            # C(m + top, m) monomials of degree <= top cap at small top
            for top in (1, 2) if trial == 30 else [None] + list(range(d + 1)):
                steps = _expand_steps(terms, cols, field, top)
                taken = _steps_taken(terms, cols, field, top)
                # the walked price is also close above: within half the
                # steps and a constant for the smallest expansions
                assert taken <= steps <= 1.5 * taken + 64
                # the walk-free bound is no lower
                assert _expand_steps(terms, cols, field, top, within=2 ** 200) >= steps
    # x0 x1 ... x12 through the columns (0, 1, ..., 1), e0, e2, ..., e12 to
    # top 13: expand keeps 2^11 terms in 15 2^11 + 1 steps
    n = 12
    cols = [[0] + [1] * n] + [[int(i == j) for i in range(n + 1)] for j in range(n + 1) if j != 1]
    assert _steps_taken({(1,) * (n + 1): 1}, cols, QQ, n + 1) == 15 * 2 ** 11 + 1
    assert _expand_steps({(1,) * (n + 1): 1}, cols, QQ, n + 1) >= 15 * 2 ** 11 + 1


class IntegerRing:
    """Python ints: lifted as they are, lowered as they come out."""

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def lifted(self, terms, cols):
        return terms, cols, lambda a, num: num


ZZ = IntegerRing()


_rationals = st.one_of(
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-9, 9)),
)


@st.composite
def rational_expansions(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    monos = monomials(n, d)
    size = draw(st.sampled_from((1, 1, 4, 12)))   # single-term forms often
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=size, unique=True))
    terms = {e: draw(_rationals) for e in chosen}
    cols = []
    for _ in range(draw(st.integers(1, n + 1))):
        kind = draw(st.sampled_from(("zero", "integer", "rational")))
        entry = {"zero": st.just(Fraction(0)), "integer": st.builds(Fraction, st.integers(-9, 9)),
                 "rational": _rationals}[kind]
        cols.append([draw(entry) for _ in range(n + 1)])
    top = draw(st.one_of(st.none(), st.integers(-1, d)))
    return terms, cols, top


def _all_fractions(expansion: dict) -> bool:
    return all(type(c) is Fraction for c in expansion.values())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_expansions())
def test_cleared_qq_expansion_equals_the_fraction_products(case):
    terms, cols, top = case
    got = expand(terms, cols, QQ, top)
    assert got == _per_term_sum(terms, cols, QQ, top)
    assert _all_fractions(got)


def _per_term_sum(terms: dict, cols, ring, top=None) -> dict:
    """F(y_0*cols[0] + ... + y_m*cols[m]) as expand computed it before its
    Horner walk: each term's product of linear forms in ring arithmetic,
    one factor at a time, cut at top, then summed term by term.  The
    reference for expand over every ring."""
    width = len(cols)
    total: dict = {}
    for e, c in terms.items():
        part = {(0,) * width: c}
        deg = 0
        for i, ei in enumerate(e):
            for _ in range(ei):
                deg += 1
                grown: dict = {}
                for a, v in part.items():
                    for j, col in enumerate(cols):
                        b = a[:j] + (a[j] + 1,) + a[j + 1:]
                        if ring.is_zero(col[i]) or (top is not None and deg - b[0] > top):
                            continue
                        w = ring.mul(v, col[i])
                        grown[b] = ring.add(grown[b], w) if b in grown else w
                part = grown
        for a, v in part.items():
            total[a] = ring.add(total[a], v) if a in total else v
    return {a: v for a, v in total.items() if not ring.is_zero(v)}


def _first_nonzero(e: tuple) -> int:
    return next(i for i, x in enumerate(e) if x)


@st.composite
def ring_expansions(draw):
    name = draw(st.sampled_from(("ZZ", "F2", "F3", "F101", "QQ", "root")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if name == "ZZ":
        ring, zero, element = ZZ, 0, lambda: rng.randint(-30, 30)
    elif name == "QQ":
        ring, zero = QQ, QQ.zero
        element = lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    elif name == "root":
        ring = RootRing(draw(st.integers(1, 6)))
        size = draw(st.sampled_from((3, 10**6)))   # small entries cancel more often
        zero, element = ring.zero, lambda: tuple(rng.randint(-size, size) for _ in range(ring.d))
    else:
        ring = PrimeField(int(name[1:]))
        zero, element = 0, lambda: ring.random(rng)
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 5))
    monos = monomials(n, d)
    lead = draw(st.sampled_from(monos))
    kind = draw(st.sampled_from(("dense", "sparse", "pure", "shared", "nested")))
    if kind == "dense":
        chosen = monos
    elif kind == "sparse":
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6, unique=True))
    elif kind == "pure":   # no leading factor shared
        chosen = [e for e in monos if max(e) == d and rng.random() < 0.7]
    elif kind == "shared" and d:   # every term leads with the same x_j^a
        j = _first_nonzero(lead)
        chosen = [e for e in monos if _first_nonzero(e) == j and e[j] == lead[j]]
    else:   # the same two leading exponents: the walk groups at two levels
        chosen = [e for e in monos if e[:2] == lead[:2]]
    terms = {e: element() for e in chosen or [lead]}
    cols = []
    for _ in range(draw(st.integers(1, n + 1))):
        zeros = draw(st.sampled_from((0.0, 0.4, 1.0)))   # the share of zero entries
        cols.append([zero if rng.random() < zeros else element() for _ in range(n + 1)])
    top = draw(st.one_of(st.none(), st.integers(0, d)))
    return ring, terms, cols, top


def _check_expand(ring, terms, cols, top):
    # expand against the per-term sum, and each power the walk caches
    # against the chain of times it stands for: a one-entry lin_i is raised
    # in one step, which must keep exactly the chain's cut integers
    assert expand(terms, cols, ring, top) == _per_term_sum(terms, cols, ring, top)
    _, int_cols, _ = ring.lifted(terms, cols)
    d = sum(next(iter(terms)))
    _, times, power, _ = forms._products(d, int_cols, top)
    for i in range(len(cols[0])):
        chain = power(i, 1)
        for e in range(2, d + 1):
            chain = times(chain, power(i, 1), e)
            assert power(i, e) == chain, (i, e)


def _one_entry_cases() -> list:
    # a dense quartic in x0..x3 (the walk groups at two levels) through
    # columns in which each x_i has one nonzero entry (x_i = a_i y_i), and
    # through columns in which x3 has two (x3 = a y0 + b y3), at every top,
    # over QQ, F_101 and Z[z]/(z^3 + 1)
    rng = random.Random("one-entry powers")
    root = RootRing(3)
    elements = {QQ: lambda: Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 9)),
                PrimeField(101): lambda: rng.randint(1, 100),
                root: lambda: (rng.randint(1, 5), rng.randint(-5, 5), rng.randint(-5, 5))}
    cases = []
    for ring, element in elements.items():
        zero = ring.zero
        terms = {e: element() for e in monomials(3, 4)}
        one_entry = [[element() if i == j else zero for i in range(4)] for j in range(4)]
        mixed = [row[:] for row in one_entry]
        mixed[0][3] = element()
        for cols in (one_entry, mixed):
            cases += [(ring, terms, cols, top) for top in (None, 0, 1, 2, 3, 4)]
    return cases


ONE_ENTRY_CASES = _one_entry_cases()


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ring_expansions())
@_with_examples(ONE_ENTRY_CASES)
def test_expand_equals_the_per_term_sum(case):
    _check_expand(*case)


def test_root_ring_packing_reaches_its_bound():
    # no cancellation: the coefficients are positive integers and every
    # entry a positive multiple of z, so F(y_0 * col) is -S y_0^3, z^3 = -1,
    # where S = sum_e c_e prod_i a_i^e_i is the bound RootRing.lifted packs
    # against; S is no power of two, so one bit less cannot hold -S
    ring = RootRing(3)
    rng = random.Random(3)
    terms = {e: rng.randint(1, 10**6) for e in monomials(2, 3)}
    a = [rng.randint(1, 10**6) for _ in range(3)]
    S = sum(c * a[0] ** e[0] * a[1] ** e[1] * a[2] ** e[2] for e, c in terms.items())
    assert S & (S - 1)
    col = [ring.monomial(1, ai) for ai in a]
    assert expand({e: ring.of(c) for e, c in terms.items()}, [col], ring) == {(3,): (-S, 0, 0)}


def test_truncated_substitute_is_the_low_order_part():
    rng = random.Random(47)
    for field in (QQ, PrimeField(101)):
        for _ in range(25):
            n = rng.randint(1, 4)
            d = rng.randint(1, 5)
            F = HyperForm(n, d, _random_terms(n, d, field, rng), field)
            B = [[field.random(rng) for _ in range(n + 1)] for _ in range(n + 1)]
            full = F.substitute(B).terms
            for k in range(d + 1):
                kept = {e: c for e, c in full.items() if d - e[0] <= k}
                assert F.substitute(B, upto=k).terms == kept


def test_parse_form_roundtrip_and_errors():
    f = QQ
    text = "# a smooth quadric\n1  1 0 0 1\n-1 0 1 1 0\n"
    F = parse_form(text, f)
    assert F.n == 3 and F.d == 2
    assert F.terms[(1, 0, 0, 1)] == 1
    again = parse_form(F.text(), f)
    assert again == F
    with pytest.raises(ValueError, match="line 2"):
        parse_form("1 2 0\n1 1 1 0\n", f)  # wrong number of exponents
    with pytest.raises(ValueError):
        parse_form("1 2 0\n1 1 0\n", f)  # inhomogeneous
    with pytest.raises(ValueError):
        parse_form("", f)
    # duplicate exponent rows merge
    merged = parse_form("1 1 1\n2 1 1\n", f)
    assert merged.terms[(1, 1)] == 3


def test_parse_form_rational_coefficients():
    F = parse_form("1/2 2 0\n-3/4 0 2\n", QQ)
    assert F.terms[(2, 0)] == Fraction(1, 2)
    assert F.terms[(0, 2)] == Fraction(-3, 4)


def test_parse_line_param():
    f = QQ
    line = parse_line_param("1 0\n0 1\n0 0\n", f)
    assert line.marked_point() == [0, 1, 0]
    with pytest.raises(ValueError):
        parse_line_param("1 0\n2 0\n0 0\n", f)
    # blank lines, comments and comment lines are skipped, and line
    # numbers still count them
    commented = parse_line_param("# u p\n1 0\n\n  \n0 1  # marked\n0 0\n", f)
    assert commented.rows == line.rows
    with pytest.raises(ValueError, match="^line 3: need exactly two entries"):
        parse_line_param("# u p\n\n1\n0 1\n", f)


QUADRIC = HyperForm(2, 2, {(2, 0, 0): 1, (0, 1, 1): 1}, QQ)


@pytest.mark.parametrize("make, says", [
    (lambda: HyperForm(0, 2, {(2,): 1}, QQ), "need n >= 1"),
    (lambda: HyperForm(2, 2, {(3, -1, 0): 1}, QQ), "bad exponent vector"),
    (lambda: parse_form("1 2\n", QQ), "line 1: need a coefficient and n\\+1 exponents"),
    (lambda: parse_form("1 2 0\n1 1.5 0.5\n", QQ), "line 2: exponents must be integers"),
    (lambda: parse_line_param("1 0\n1\n0 0\n", QQ), "line 2: need exactly two entries"),
    (lambda: LineParam([(1, 0)], QQ), "needs n\\+1 rows of two entries"),
    (lambda: QUADRIC.pullback(LineParam.from_point_direction([1, 0, 0, 0], [0, 1, 0, 0], QQ)),
     "line in P\\^3 cannot pull back a form on P\\^2"),
    (lambda: QUADRIC.substitute([[1, 0, 0], [0, 1, 0]]), "wrong shape"),
    (lambda: QUADRIC.substitute([[1, 0, 0], [0, 1], [0, 0, 1]]), "wrong shape"),
], ids=["n-zero", "negative-exponent", "short-line", "fractional-exponent", "one-entry-row",
        "one-row", "line-in-another-space", "short-matrix", "ragged-matrix"])
def test_malformed_forms_and_lines_are_refused(make, says):
    with pytest.raises(ValueError, match=says):
        make()


def test_fermat_constructor():
    f = PrimeField(7)
    F = HyperForm.fermat(3, 5, f)
    assert len(F.terms) == 4
    assert all(c == 1 for c in F.terms.values())
    assert F.evaluate([1, 1, 1, 1]) == f.of(4)
