"""Contact orders, truncations, the jet congruence, and the deformation
space dimensions h0 = 2n-k+1."""

import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.errors import HypothesisException

from oracles import gradient
from tangency import deformation, forms
from tangency.deformation import (
    CONTAINED,
    TRUNCATION_BUDGET,
    TrialRecord,
    _canonical_partials,
    _corrupted,
    _LineTable,
    _trial_routes,
    _truncation,
    completion_matrix,
    congruence_check,
    contact_experiment,
    contact_order,
    log_sections,
    sample_contact_form,
    sample_line,
    truncate,
)
from tangency.fields import QQ, PrimeField, RationalField, kernel_basis, mat_vec, row_reduce
from tangency.forms import (
    HyperForm,
    LineParam,
    _expand_steps,
    expand,
    monomials,
    parse_form,
    pullback_of_partial,
    s_valuation,
)


def conic_and_tangent():
    # F = x0 x2 - x1^2, L: [s:t] -> [t:s:0]; contact order 2 at [0:1]
    F = HyperForm(2, 2, {(1, 0, 1): 1, (0, 2, 0): -1}, QQ)
    L = LineParam([(0, 1), (1, 0), (0, 0)], QQ)
    return F, L


def test_contact_order_worked_example():
    F, L = conic_and_tangent()
    assert contact_order(F, L) == 2


def test_contact_order_transverse_and_contained():
    f = QQ
    quadric = HyperForm(3, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}, f)
    # line x2 = x3 = 0 lies in the quadric
    inside = LineParam([(1, 0), (0, 1), (0, 0), (0, 0)], f)
    assert contact_order(quadric, inside) == CONTAINED
    # generic line through [0:1:0:0]
    thru = LineParam([(1, 0), (0, 1), (1, 0), (1, 0)], f)
    assert contact_order(quadric, thru) == 1


def test_truncate_full_order_reproduces_the_form():
    F, _ = conic_and_tangent()
    t = truncate(F, [1, 0, 0], F.d)
    assert t.form == F.substitute(t.basis)


def test_truncate_first_order_is_tangent_form():
    F, _ = conic_and_tangent()
    t = truncate(F, [1, 0, 0], 1)
    assert t.form.d == 1
    # tangent line of the conic at [1:0:0] is x2 = 0 (in the new frame)
    assert set(t.form.terms) == {(0, 0, 1)}


def test_truncate_validation():
    F, _ = conic_and_tangent()
    with pytest.raises(ValueError, match="does not lie on"):
        truncate(F, [1, 1, 0], 1)  # F(1,1,0) = -1
    with pytest.raises(ValueError):
        truncate(F, [1, 0, 0], 0)
    with pytest.raises(ValueError):
        truncate(F, [1, 0, 0], 3)


def quadric_and_contained_line():
    # x0 x3 - x1 x2 and the line x2 = x3 = 0 on it
    F = HyperForm(3, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}, QQ)
    return F, LineParam([(1, 0), (0, 1), (0, 0), (0, 0)], QQ)


@pytest.mark.parametrize("call, says", [
    (lambda F, L: log_sections(F, L, -1), "k must be >= 0"),
    (lambda F, L: congruence_check(F, L, 3), "need 1 <= k <= d = 2, got k = 3"),
    (lambda F, L: sample_contact_form(L, 2, 3, random.Random(0)),
     "need 1 <= k <= d, got k = 3, d = 2"),
], ids=["sections-k-negative", "congruence-k-past-d", "sample-k-past-d"])
def test_orders_out_of_range_are_refused_on_a_contained_line(call, says):
    # a contained line has every contact order, so only the range of k is
    # left to refuse
    F, L = quadric_and_contained_line()
    assert contact_order(F, L) == CONTAINED
    with pytest.raises(ValueError, match=says):
        call(F, L)


def test_the_sampler_gives_up_after_its_tries(monkeypatch):
    # a zero kernel vector never has contact exactly k, so every try is
    # drawn and none is kept
    draws = []
    monkeypatch.setattr(deformation, "random_kernel_vector",
                        lambda rows, ncols, f, rng: draws.append(ncols) or [f.zero] * ncols)
    _, L = quadric_and_contained_line()
    with pytest.raises(RuntimeError, match="failed to sample a form of exact contact order"):
        sample_contact_form(L, 2, 1, random.Random(0))
    assert len(draws) == deformation.SAMPLE_TRIES


def test_congruence_holds_and_corrupts():
    F, L = conic_and_tangent()
    rep = congruence_check(F, L, 2)
    assert rep.ok and all(rep.per_index)
    bad = congruence_check(F, L, 2, corrupt=True)
    assert not bad.ok and bad.corrupted


def test_congruence_on_seeded_random_samples():
    rng = random.Random(77)
    gf = PrimeField(53)
    for _ in range(15):
        n = rng.choice((2, 3, 4))
        d = rng.choice((2, 3))
        if d > 52:
            continue
        L = sample_line(n, gf, rng)
        k = rng.randint(1, d)
        F = sample_contact_form(L, d, k, rng)
        rep = congruence_check(F, L, k)
        assert rep.ok, (n, d, k)


def test_log_sections_worked_example():
    F, L = conic_and_tangent()
    for use_truncation in (False, True):
        space = log_sections(F, L, 2, use_truncation)
        assert space.contact == 2
        assert space.raw_dim == 4
        assert space.h0 == 3
        assert space.expected_h0 == 3  # 2n-k+1 with n=2, k=2
        assert space.matches
        assert space.unexpected is None
        assert space.euler_in_kernel


def test_log_sections_no_condition_and_one_condition():
    F, L = conic_and_tangent()
    z = log_sections(F, L, 0)
    assert z.h0 == 5  # 2n+1 on P^2
    one = log_sections(F, L, 1)
    assert one.h0 == 4  # 2n


def test_log_sections_contained_line():
    f = QQ
    quadric = HyperForm(3, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}, f)
    inside = LineParam([(1, 0), (0, 1), (0, 0), (0, 0)], f)
    for use_truncation in (False, True):
        space = log_sections(quadric, inside, 2, use_truncation)
        assert space.contact == CONTAINED
        assert space.expected_h0 is None
        assert space.matches is None
        assert space.unexpected == "contained line"
        assert space.euler_in_kernel


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=("QQ", "F101"))
def test_log_sections_attach_no_expectation_at_a_singular_point(field):
    # the cusp x0^2 x1 - x2^3 is singular at p = (0, 1, 0), where the line
    # p + s (1, 0, 0) has contact 2; 2n - k + 1 is stated for smooth points
    cusp = HyperForm(2, 3, {(2, 1, 0): 1, (0, 0, 3): -1}, field)
    L = LineParam([(1, 0), (0, 1), (0, 0)], field)
    for k, h0, reason in ((0, 5, "contact 2 > k"), (1, 5, "contact 2 > k"),
                          (2, 4, "singular marked point")):
        for use_truncation in (False, True):
            space = log_sections(cusp, L, k, use_truncation)
            assert (space.contact, space.h0) == (2, h0), (k, use_truncation)
            assert space.expected_h0 is None and space.matches is None, (k, use_truncation)
            assert space.unexpected == reason, (k, use_truncation)
    # a smooth point keeps its expectation along a line of exact contact k
    F, L = conic_and_tangent()
    assert (log_sections(F, L, 2).expected_h0, log_sections(F, L, 2).matches) == (3, True)


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=("QQ", "F101"))
def test_log_sections_attach_no_expectation_past_k_2n_minus_1(field):
    # x1^4 + x0^3 x2 is smooth at p = (1, 0, 0), where the line p + s (0, 1,
    # 0) has contact 4 > 2n - 1 = 3; 2n - k + 1 = 1 would be a mismatch
    F = HyperForm(2, 4, {(0, 4, 0): 1, (3, 0, 1): 1}, field)
    L = LineParam([(0, 1), (1, 0), (0, 0)], field)
    for use_truncation in (False, True):
        space = log_sections(F, L, 4, use_truncation)
        assert (space.contact, space.h0) == (4, 2), use_truncation
        assert space.expected_h0 is None and space.matches is None, use_truncation
        assert space.unexpected == "k > 2n-1", use_truncation
        # contact 4 > k = 2: no expectation either, though h0 = 3 = 2n - k + 1
        space = log_sections(F, L, 2, use_truncation)
        assert (space.h0, space.expected_h0, space.matches, space.unexpected) \
            == (3, None, None, "contact 4 > k"), use_truncation


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=("QQ", "F101"))
def test_log_sections_expect_2n_minus_k_plus_1_only_at_exact_contact(field):
    # x1^4 + x0^3 x2 along p + s (0, 1, 0), p = (1, 0, 0), has contact 4; at
    # k = 3 <= 2n - 1 its h0 is 3, not 2n - k + 1 = 2, which counts the
    # sections along a line of exact contact k.  The conic's tangent, of
    # contact 2, keeps its expectation at k = 2 and has none at k = 0, 1
    F = HyperForm(2, 4, {(0, 4, 0): 1, (3, 0, 1): 1}, field)
    L = LineParam([(0, 1), (1, 0), (0, 0)], field)
    conic = HyperForm(2, 2, {(1, 0, 1): 1, (0, 2, 0): -1}, field)
    tangent = LineParam([(0, 1), (1, 0), (0, 0)], field)
    for use_truncation in (False, True):
        space = log_sections(F, L, 3, use_truncation)
        assert (space.contact, space.h0) == (4, 3), use_truncation
        assert space.expected_h0 is None and space.matches is None, use_truncation
        assert space.unexpected == "contact 4 > k", use_truncation
        got = [(s.h0, s.expected_h0, s.matches, s.unexpected)
               for s in (log_sections(conic, tangent, k, use_truncation) for k in range(3))]
        assert got == [(5, None, None, "contact 2 > k"), (4, None, None, "contact 2 > k"),
                       (3, 3, True, None)], use_truncation


def _product(G: HyperForm, H: HyperForm) -> HyperForm:
    f = G.field
    terms = {}
    for a, c in G.terms.items():
        for b, e in H.terms.items():
            m = tuple(x + y for x, y in zip(a, b))
            terms[m] = f.add(terms.get(m, f.zero), f.mul(c, e))
    return HyperForm(G.n, G.d + H.d, {m: c for m, c in terms.items() if not f.is_zero(c)}, f)


def _seeded_expectation_cases(field, rng):
    # (F, L, kind) in P^2..P^4 of degree 2..5: a sampled form, smooth at p
    # with exact contact c along L; a product of two such forms, singular
    # at p; and a linear form vanishing on L times a random form, which
    # contains L
    n, d = rng.randint(2, 4), rng.randint(2, 5)
    L = sample_line(n, field, rng)
    kind = rng.choice(("smooth", "singular", "contained"))
    if kind == "smooth":
        return sample_contact_form(L, d, rng.randint(1, d), rng), L, kind
    if kind == "singular":
        d1 = rng.randint(1, d - 1)
        return _product(sample_contact_form(L, d1, rng.randint(1, d1), rng),
                        sample_contact_form(L, d - d1, rng.randint(1, d - d1), rng)), L, kind
    normal = [(field.random(rng), v) for v in kernel_basis([L.marked_point(), L.direction()],
                                                           n + 1, field)]
    coeffs = [sum((field.mul(a, v[i]) for a, v in normal), field.zero) for i in range(n + 1)]
    linear = HyperForm(n, 1, {tuple(int(i == j) for j in range(n + 1)): c
                              for i, c in enumerate(coeffs) if not field.is_zero(c)}, field)
    rest = HyperForm(n, d - 1, {e: field.random(rng) for e in monomials(n, d - 1)}, field)
    return _product(linear, rest), L, kind


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=("QQ", "F101"))
def test_both_routes_attach_the_same_expectation(field):
    # each route decides the expectation from its own jets, the singular
    # test from its own s^0 coefficients: at every k up to the contact
    # order (up to d on a contained line) the two agree on the value and
    # on the reason there is none
    rng = random.Random(f"expectations {field}")
    reasons = set()
    for _ in range(24):
        F, L, kind = _seeded_expectation_cases(field, rng)
        co = contact_order(F, L)
        for k in range(F.d + 1 if co == CONTAINED else co + 1):
            direct, trunc = (log_sections(F, L, k, use_truncation) for use_truncation in (False, True))
            assert (direct.expected_h0, direct.unexpected) == \
                (trunc.expected_h0, trunc.unexpected), (kind, F.n, F.d, co, k)
            assert (direct.expected_h0 is None) == (direct.unexpected is not None)
            reasons.add(direct.unexpected and direct.unexpected.split(" ")[0])
    assert reasons == {None, "contained", "k", "contact", "singular"}


def test_log_sections_contact_too_low():
    F, L = conic_and_tangent()
    with pytest.raises(ValueError, match="contact"):
        log_sections(F, L, 3)


def test_a_line_over_another_characteristic_is_refused():
    # the conic over QQ and its tangent over F_7 once gave contact 2, h0 3
    # and a failed congruence; fields are compared by characteristic, so a
    # second instance of QQ or of F_7 is the same field
    F, L = conic_and_tangent()
    calls = (contact_order, lambda F, L: log_sections(F, L, 2),
             lambda F, L: congruence_check(F, L, 2))
    for form_field, line_field in ((QQ, PrimeField(7)), (PrimeField(7), QQ),
                                   (PrimeField(7), PrimeField(11))):
        G = HyperForm(2, 2, F.terms, form_field)
        for call in calls:
            with pytest.raises(ValueError, match="different characteristic"):
                call(G, LineParam(L.rows, line_field))
    for form_field, line_field in ((QQ, RationalField()), (PrimeField(7), PrimeField(7))):
        G, M = HyperForm(2, 2, F.terms, form_field), LineParam(L.rows, line_field)
        assert (contact_order(G, M), log_sections(G, M, 2).h0, congruence_check(G, M, 2).ok) \
            == (2, 3, True)


def test_sample_contact_form_has_exact_valuation():
    rng = random.Random(5)
    gf = PrimeField(101)
    for _ in range(10):
        n = rng.choice((2, 3))
        d = rng.choice((3, 4))
        k = rng.randint(1, min(4, d))
        L = sample_line(n, gf, rng)
        F = sample_contact_form(L, d, k, rng)
        assert s_valuation(F.pullback(L), gf) == k
        grad = gradient(F, L.marked_point())
        assert any(not gf.is_zero(g) for g in grad)


def test_small_experiment_summary():
    summary = contact_experiment(trials=25, seed=4, prime=53)
    assert summary.trials == 25
    assert summary.euler_failures == 0
    assert summary.congruence_failures == 0
    assert summary.route_disagreements == 0
    assert summary.matched >= 0.9 * summary.trials
    assert summary.seed == 4 and summary.prime == 53
    assert len(summary.records) == 25


def test_contact_experiment_refuses_a_prime_up_to_7_before_its_first_trial(monkeypatch):
    # the trials draw d up to 7: F_7 is refused at once, not after the
    # trials it can carry
    lines, sample = [], deformation.sample_line
    monkeypatch.setattr(deformation, "sample_line", lambda *args: lines.append(args) or sample(*args))
    for prime in (2, 5, 7):
        with pytest.raises(ValueError, match=f"characteristic {prime} must exceed the degree 7"):
            contact_experiment(10, seed=0, prime=prime)
    assert lines == []


def test_prime_field_degree_guard():
    with pytest.raises(ValueError, match="exceed the degree"):
        HyperForm.fermat(2, 5, PrimeField(5))


def test_log_sections_from_files(tmp_path):
    form_file = tmp_path / "conic.hs"
    form_file.write_text("1 1 0 1\n-1 0 2 0\n")
    F = parse_form(form_file.read_text(), QQ)
    L = LineParam([(0, 1), (1, 0), (0, 0)], QQ)
    assert log_sections(F, L, 2).h0 == 3


def test_sample_contact_form_linear():
    # d = 1: the gradient is the constant coefficient vector
    rng = random.Random(3)
    for f in (QQ, PrimeField(7)):
        L = sample_line(2, f, rng)
        F = sample_contact_form(L, 1, 1, rng)
        assert F.d == 1
        assert s_valuation(F.pullback(L), f) == 1
        assert any(not f.is_zero(g) for g in gradient(F, L.marked_point()))


FIELDS = {"QQ": QQ, "F7": PrimeField(7), "F101": PrimeField(101)}


@st.composite
def lines_and_degrees(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    entry = st.tuples(st.integers(-6, 6), st.integers(1, 3))
    rows = []
    for _ in range(n + 1):
        pair = draw(st.tuples(entry, entry))
        rows.append(tuple(field.mul(field.of(a), field.inv(field.of(b))) for a, b in pair))
    try:
        L = LineParam(rows, field)
    except ValueError:
        assume(False)
    return L, d


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines_and_degrees())
def test_conditioning_rows_match_per_monomial_pullbacks(case):
    # oracle: one single-term form and one truncated pullback per monomial
    L, d = case
    f = L.field
    for k in range(1, d + 1):
        monos, rows = _LineTable(L, k).conditioning_rows(d)
        assert monos == monomials(L.n, d)
        cols = [HyperForm(L.n, d, {e: f.one}, f).pullback(L)[:k + 1] for e in monos]
        assert rows == [[col[m] for col in cols] for m in range(k + 1)]


@st.composite
def contact_trials(draw):
    field = FIELDS[draw(st.sampled_from(["QQ", "F101"]))]
    n = draw(st.sampled_from((3, 4)))
    d = draw(st.sampled_from((n, n + 1)))
    k = draw(st.integers(1, min(4, d)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    L = sample_line(n, field, rng)
    return sample_contact_form(L, d, k, rng), L, k


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(contact_trials())
def test_routes_agree_on_samples(trial):
    # the truncated and direct systems cut out the same space of sections,
    # not only spaces of the same dimension
    F, L, k = trial
    ncols = 2 * (F.n + 1)
    direct = log_sections(F, L, k, use_truncation=False)
    trunc = log_sections(F, L, k, use_truncation=True)
    assert (direct.raw_dim, direct.h0) == (trunc.raw_dim, trunc.h0)
    assert row_reduce(direct.basis, ncols, F.field) == row_reduce(trunc.basis, ncols, F.field)


@pytest.mark.parametrize("label", ["QQ", "F101"])
def test_trial_routes_equal_the_public_wrappers(label):
    field = FIELDS[label]
    rng = random.Random(f"trial routes {label}")
    for _ in range(6):
        n = rng.choice((3, 4))
        d = rng.choice((n, n + 1))
        k = rng.randint(1, min(4, d))
        L = sample_line(n, field, rng)
        F = sample_contact_form(L, d, k, rng)
        direct, trunc, cc = _trial_routes(F, L, k, _LineTable(L, k))
        assert direct == log_sections(F, L, k, use_truncation=False)
        assert trunc == log_sections(F, L, k, use_truncation=True)
        assert cc == congruence_check(F, L, k)
        assert direct.contact == trunc.contact == k
        assert not direct.truncated and trunc.truncated


# (n, d, k) of each trial of contact_experiment(40, seed=2026), recorded
# from the implementation that recomputed the jets for every route; every
# trial matched h0 = 2n - k + 1 with all checks passing
PINNED_40 = ("344 454 551 354 332 454 563 351 343 441 442 443 441 454 553 463 461 "
             "572 332 463 452 563 332 342 331 452 341 461 444 462 553 462 444 461 "
             "333 332 553 451 353 333")


def test_contact_experiment_records_are_pinned():
    want = []
    for i, ndk in enumerate(PINNED_40.split()):
        n, d, k = map(int, ndk)
        h0 = 2 * n - k + 1
        want.append(TrialRecord(index=i, n=n, d=d, k=k, h0=h0, expected_h0=h0, matched=True,
                                euler_ok=True, congruence_ok=True, routes_agree=True))
    assert contact_experiment(trials=40, seed=2026).records == want


def test_sampled_forms_are_pinned():
    # digest of seeded draws over QQ and F_101, recorded from the
    # implementation that pulled back one single-term form per monomial
    h = hashlib.sha256()
    for label in ("QQ", "F101"):
        field = FIELDS[label]
        rng = random.Random(f"sampled forms {label}")
        for _ in range(8):
            n = rng.choice((2, 3, 4))
            d = rng.randint(2, 5)
            k = rng.randint(1, d)
            L = sample_line(n, field, rng)
            F = sample_contact_form(L, d, k, rng)
            h.update(f"{n} {d} {k}\n{F.text()}\n".encode())
    assert h.hexdigest() == "fc48bd92608d13eab560aeb1f1b5d7d7f91fc8e25b7648f154426c38b53f438f"


def test_qq_trials_are_pinned():
    # digest of seeded QQ trials at (n, d) in {(3,3), (3,4), (4,4), (4,5)} and
    # every k: h0, raw_dim and the row-reduced bases of both section routes,
    # and the congruence per index, plain and corrupted; recorded from the
    # implementation that expanded over QQ one Fraction product at a time
    h = hashlib.sha256()
    rng = random.Random("pinned QQ run")
    for n, d in ((3, 3), (3, 4), (4, 4), (4, 5)):
        ncols = 2 * (n + 1)
        for k in range(1, d + 1):
            L = sample_line(n, QQ, rng)
            F = sample_contact_form(L, d, k, rng)
            h.update(f"{n} {d} {k}\n".encode())
            for use_truncation in (False, True):
                space = log_sections(F, L, k, use_truncation=use_truncation)
                rref, _ = row_reduce(space.basis, ncols, QQ)
                h.update(f"{space.h0} {space.raw_dim} {rref}\n".encode())
            for corrupt in (False, True):
                h.update(f"{congruence_check(F, L, k, corrupt=corrupt).per_index}\n".encode())
    assert h.hexdigest() == "39884ec526cdb246673cb0594a69334ad2f38de0b0022777bbdaa6d9ba823a96"


def test_truncations_are_pinned():
    # digest of truncate(F, p, k), form text and basis, at every k for seeded
    # points (half their coordinates zero) of seeded forms made to vanish
    # there; recorded from the implementation that completed the point to a
    # basis with its own search for the first nonzero coordinate
    h = hashlib.sha256()
    for label in ("QQ", "F7", "F101"):
        field = FIELDS[label]
        rng = random.Random(f"pinned truncations {label}")
        for _ in range(12):
            n = rng.randint(1, 4)
            d = rng.randint(1, 5)
            p = [field.random(rng) if rng.random() < 0.5 else field.zero for _ in range(n + 1)]
            if all(field.is_zero(x) for x in p):
                p[rng.randrange(n + 1)] = field.one
            G = HyperForm(n, d, {e: field.random(rng) for e in monomials(n, d)
                                 if rng.random() < 0.6}, field)
            r = rng.choice([i for i, x in enumerate(p) if not field.is_zero(x)])
            top = tuple(d if i == r else 0 for i in range(n + 1))
            # subtract G(p) / p_r^d * x_r^d so that F(p) = 0
            shift = field.mul(G.evaluate(p), field.inv(field.of(p[r]) ** d))
            terms = dict(G.terms)
            terms[top] = field.sub(terms.get(top, field.zero), shift)
            F = HyperForm(n, d, terms, field)
            for k in range(1, d + 1):
                t = truncate(F, p, k)
                h.update(f"{label} {n} {d} {k} {p}\n{t.form.text()}\n{t.basis}\n".encode())
    assert h.hexdigest() == "8fe61cbd763f69dabd0b92b44758aca8de5c7cdda9c093e9827a198632d9219c"


def _product_form(n):
    # x0 x1 ... xn: truncated at (0, 1, ..., 1) to k = n + 1 it keeps
    # 2^(n-1) terms, and expand takes (n + 3) 2^(n-1) + 1 steps for it
    return HyperForm(n, n + 1, {(1,) * (n + 1): 1}, QQ)


def test_truncation_past_the_budget_is_refused_before_it_expands(monkeypatch):
    def expanded(*args, **kwargs):
        raise AssertionError("F_k was expanded")

    monkeypatch.setattr(deformation, "expand", expanded)
    began = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the order-41 truncation could take up to 2\^45 "
                                         r"steps, over the budget of 2\^24$"):
        truncate(_product_form(40), [0] + [1] * 40, 41)
    # the truncated route of log_sections and congruence_check: x0^20 x1 ... x40
    # has contact 20 along p + s e0, p = (0, 1, ..., 1)
    F = HyperForm(40, 60, {(20,) + (1,) * 40: 1}, QQ)
    L = LineParam.from_point_direction([0] + [1] * 40, [1] + [0] * 40, QQ)
    for route in (log_sections, congruence_check):
        with pytest.raises(ValueError, match="over the budget"):
            route(F, L, 20)
    assert time.perf_counter() - began < 1
    # the direct route never forms F_k, and answers
    assert log_sections(F, L, 20, use_truncation=False).contact == 20


def test_truncation_budget_admits_the_product_form_to_n_20():
    def price(n):
        B = completion_matrix([[0] + [1] * n], QQ)
        return _expand_steps(_product_form(n).terms, [list(c) for c in zip(*B)], QQ, n + 1)

    # the steps and the powers lin_i^a, a <= d, priced whether F reads them or not
    assert 23 * 2 ** 19 < price(20) <= TRUNCATION_BUDGET < 24 * 2 ** 20 < price(21)
    assert len(truncate(_product_form(12), [0] + [1] * 12, 13).form.terms) == 2 ** 11


def test_a_dense_septic_in_p8_at_contact_7_is_answered():
    # 6275 terms over QQ, priced at 680026 steps: F(B y) cut at order 7
    # takes about 0.2 s
    rng = random.Random("dense septic")
    L = sample_line(8, QQ, rng)
    F = sample_contact_form(L, 7, 7, rng)
    assert len(F.terms) == 6275
    assert len(truncate(F, L.marked_point(), 7).form.terms) > 6000
    assert log_sections(F, L, 7).h0 == 2 * 8 - 7 + 1
    assert congruence_check(F, L, 7).ok


# the searches that completed a point, and a line (p, u), to a basis before
# completion_matrix took the pivots from row_reduce: the reference for it


def _first_nonzero(p, f) -> int:
    for i, x in enumerate(p):
        if not f.is_zero(x):
            return i
    raise ValueError("the zero vector is not a projective point")


def _searched_point_basis(p, f):
    n1 = len(p)
    piv = _first_nonzero(p, f)
    B = [[f.zero] * n1 for _ in range(n1)]
    for i in range(n1):
        B[i][0] = p[i]
    col = 1
    for j in range(n1):
        if j != piv:
            B[j][col] = f.one
            col += 1
    return B


def _searched_line_basis(p, u, f):
    n1 = len(p)
    r1 = _first_nonzero(p, f)
    ratio = f.mul(u[r1], f.inv(p[r1]))
    # first nonzero entry of u reduced against p on row r1
    r2 = next(i for i in range(n1) if i != r1 and not f.is_zero(f.sub(u[i], f.mul(ratio, p[i]))))
    B = [[f.zero] * n1 for _ in range(n1)]
    for i in range(n1):
        B[i][0], B[i][1] = p[i], u[i]
    col = 2
    for j in range(n1):
        if j not in (r1, r2):
            B[j][col] = f.one
            col += 1
    return B


def _some_minor_is_nonzero(p, u, f) -> bool:
    return any(not f.is_zero(f.sub(f.mul(u[i], p[j]), f.mul(p[i], u[j])))
               for i in range(len(p)) for j in range(i + 1, len(p)))


BASIS_FIELDS = {"QQ": QQ, "F2": PrimeField(2), "F3": PrimeField(3), "F101": PrimeField(101)}


@st.composite
def point_pairs(draw):
    field = BASIS_FIELDS[draw(st.sampled_from(sorted(BASIS_FIELDS)))]
    n1 = draw(st.integers(2, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 5, 7))))
    p = [field.of(draw(entry)) for _ in range(n1)]
    u = [field.of(draw(entry)) for _ in range(n1)]
    if draw(st.booleans()):   # often a multiple of p plus little else
        c = field.of(draw(st.integers(-3, 3)))
        u = [field.add(field.mul(c, x), y if draw(st.booleans()) else field.zero)
             for x, y in zip(p, u)]
    return field, p, u


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(point_pairs())
def test_completion_matrix_equals_the_searched_bases(case):
    f, p, u = case
    if any(not f.is_zero(x) for x in p):
        assert completion_matrix([p], f) == _searched_point_basis(p, f)
    else:
        with pytest.raises(ValueError):
            completion_matrix([p], f)
    independent = _some_minor_is_nonzero(p, u, f)
    if independent:
        assert completion_matrix([p, u], f) == _searched_line_basis(p, u, f)
        assert LineParam.from_point_direction(p, u, f).marked_point() == p
    else:
        with pytest.raises(ValueError):
            completion_matrix([p, u], f)
        with pytest.raises(ValueError, match="rank < 2"):
            LineParam.from_point_direction(p, u, f)


# the chain rule one scaled binary form at a time: the reference for
# _LineTable.partials, which takes it in the table's integers


def _binary_add(a, b, field):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return out


def _binary_scale(a, c, field):
    return [field.mul(c, v) for v in a]


def _chain_rule_by_binary_forms(F, L, B, upto=None):
    f = F.field
    Q = [pullback_of_partial(F, j, L, upto) for j in range(F.n + 1)]
    out = []
    for i in range(F.n + 1):
        acc = [f.zero] * len(Q[0])
        for j in range(F.n + 1):
            if not f.is_zero(B[j][i]):
                acc = _binary_add(acc, _binary_scale(Q[j], B[j][i], f), f)
        out.append(acc)
    return out


def _check_chain_rule(F, L, upto):
    # the line table's jets of F' = F(B y) against the binary-form chain rule
    width = F.d if upto is None else min(F.d, upto)
    B = completion_matrix([L.marked_point(), L.direction()], F.field)
    table = _LineTable(L, width - 1)
    assert table.B == B
    got = table.partials(F, width)
    want = _chain_rule_by_binary_forms(F, L, B, upto)
    assert repr(got) == repr(want)


@st.composite
def chain_rule_cases(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    upto = draw(st.one_of(st.none(), st.integers(0, d)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    F = HyperForm(n, d, {e: field.random(rng) for e in monomials(n, d)
                         if rng.random() < 0.5}, field)
    L = sample_line(n, field, rng)
    return F, L, upto


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain_rule_cases())
def test_chain_rule_equals_the_binary_form_loop(case):
    _check_chain_rule(*case)


def test_contact_experiment_counts_one_route_failing_euler_membership(monkeypatch):
    # the truncated route's Euler membership made to fail alone: a trial's
    # euler_ok needs both routes, so every trial counts as an Euler failure
    sections = deformation._sections

    def failing(F, k, co, jets, truncated):
        space = sections(F, k, co, jets, truncated)
        space.euler_in_kernel = space.euler_in_kernel and not truncated
        return space

    monkeypatch.setattr(deformation, "_sections", failing)
    summary = contact_experiment(8, seed=5)
    assert summary.euler_failures == summary.trials == 8
    assert not any(r.euler_ok for r in summary.records)
    assert (summary.matched, summary.congruence_failures, summary.route_disagreements) == (8, 0, 0)


def test_contact_experiment_detects_a_corrupted_truncated_route(monkeypatch):
    # every trial's truncated route reads a corrupted F_k: the sections and
    # the congruence both disagree with the direct route, while the
    # dimensions, and so h0 and matched, do not change
    truncation = deformation._truncation
    monkeypatch.setattr(deformation, "_truncation",
                        lambda F, B, k: _corrupted(truncation(F, B, k), k))
    summary = contact_experiment(20, seed=5)
    assert summary.route_disagreements == 20
    assert summary.congruence_failures == 20
    assert summary.matched == 20


# the conditioning rows as one expand per degree-d monomial: the
# reference for _LineTable.conditioning_rows


def _expanded_conditioning_rows(L, d, k):
    f = L.field
    monos = monomials(L.n, d)
    got = {e: expand({e: f.one}, [L.marked_point(), L.direction()], f, k) for e in monos}
    return monos, [[got[e].get((d - m, m), f.zero) for e in monos] for m in range(k + 1)]


def _table_case(label, kind, seed):
    # (F, L): F dense, sparse (a few terms) or containing L (a linear form
    # through p and u times a random form), over QQ or F_101
    field = FIELDS[label]
    rng = random.Random(f"line table {label} {kind} {seed}")
    n = rng.randint(1, 4)
    d = rng.randint(1, 5)
    L = sample_line(n, field, rng)
    if kind == "contained":
        # ell * G, ell a linear form through p and u; in P^1 there is no
        # such ell, and F = 0 is the only form containing L
        terms = {}
        for ell in kernel_basis([L.marked_point(), L.direction()], n + 1, field)[:1]:
            for e in monomials(n, d - 1):
                c = field.random(rng)
                for i, a in enumerate(ell):
                    key = e[:i] + (e[i] + 1,) + e[i + 1:]
                    terms[key] = field.add(terms.get(key, field.zero), field.mul(a, c))
        return HyperForm(n, d, terms, field), L
    share = 1.0 if kind == "dense" else 0.2
    terms = {e: field.random(rng) for e in monomials(n, d) if rng.random() < share}
    return HyperForm(n, d, terms, field), L


@pytest.mark.parametrize("kind", ["dense", "sparse", "contained"])
@pytest.mark.parametrize("label", ["QQ", "F101"])
def test_line_table_equals_the_expansions_it_replaces(label, kind):
    for seed in range(12):
        F, L = _table_case(label, kind, seed)
        n, d = F.n, F.d
        if kind == "contained":
            assert contact_order(F, L) == CONTAINED
        B = completion_matrix([L.marked_point(), L.direction()], F.field)
        want = _chain_rule_by_binary_forms(F, L, B)
        # the public routes' table, to the width they read
        assert repr(_LineTable(L, d - 1).partials(F, d)) == repr(want)
        # the s^0 jets are B^T times the gradient at p
        grad = mat_vec([list(col) for col in zip(*B)], gradient(F, L.marked_point()), F.field)
        # contact_experiment's table, to s^k
        for k in range(1, d + 1):
            table = _LineTable(L, k)
            assert repr(table.partials(F, min(d, k + 1))) == repr(
                [w[:k + 1] for w in want])
            assert repr([g for (g,) in table.partials(F, 1)]) == repr(grad)
            assert repr(table.conditioning_rows(d)) == repr(_expanded_conditioning_rows(L, d, k))


def test_line_table_rows_are_made_in_a_loop():
    # x0^1099 x1's row walks up 1100 first parents, past Python's recursion
    # limit; it is expand's pullback of the monomial, cut at top
    L = LineParam([(Fraction(1, 2), 3), (2, Fraction(-1, 3))], QQ)
    table = _LineTable(L, 3)
    m = (1099, 1)
    got = expand({m: QQ.one}, [L.marked_point(), L.direction()], QQ, 3)
    assert [table.lower((1100 - j, j), a) for j, a in enumerate(table.row(m))] == \
        [got.get((1100 - j, j), QQ.zero) for j in range(4)]
    assert len(table.rows) == 1 + 1100


def test_line_table_work_follows_the_size_of_f():
    # a sparse form of degree 40 in P^4: the table makes at most the rows
    # of F's parents and of their first parents, 1 + sum of deg(parent)
    field = FIELDS["F101"]
    rng = random.Random("sparse line table")
    terms = {}
    while len(terms) < 6:
        cut = sorted(rng.randint(0, 40) for _ in range(4))
        e = tuple(b - a for a, b in zip([0] + cut, cut + [40]))
        terms[e] = field.random(rng) or field.one
    F = HyperForm(4, 40, terms, field)
    L = sample_line(4, field, rng)
    table = _LineTable(L, 5)
    got = table.partials(F, 6)
    parents = {parent for e in F.terms for _, _, parent in deformation._exponent_parents(e)}
    assert len(table.rows) <= 1 + 39 * len(parents)
    assert repr(got) == repr(_chain_rule_by_binary_forms(F, L, table.B, 6))


@pytest.mark.parametrize("label", ["QQ", "F101"])
def test_line_table_rows_do_not_depend_on_the_order_asked(label):
    field = FIELDS[label]
    rng = random.Random(f"row order {label}")
    L = sample_line(3, field, rng)
    monos = monomials(3, 4)
    shuffled = list(monos)
    rng.shuffle(shuffled)
    tables = []
    for order in (monos, reversed(monos), shuffled):
        tables.append(_LineTable(L, 3))
        for m in order:
            tables[-1].row(m)
    assert tables[0].rows == tables[1].rows == tables[2].rows


def test_contact_experiment_detects_a_corrupted_line_table(monkeypatch):
    # one table entry off by one once the sampling has read the table: the
    # direct route's partials read it and the truncated route never does
    sample = deformation.sample_contact_form

    def corrupting(L, d, k, rng, table):
        F = sample(L, d, k, rng, table)
        table.rows[monomials(L.n, d - 1)[0]][0] += 1
        return F

    monkeypatch.setattr(deformation, "sample_contact_form", corrupting)
    summary = contact_experiment(20, seed=5)
    assert summary.congruence_failures == 20
    assert summary.route_disagreements == 20


# the partials of F_k along the canonical line, read off its terms: the
# reference is the expansion along that line they replaced


def _canonical_partials_cases():
    # (F_k, k) for the truncation at every k of a seeded form over QQ and
    # F_101 in P^1..P^5, each also with _corrupted's bump
    cases = []
    for label in ("QQ", "F101"):
        field = FIELDS[label]
        rng = random.Random(f"canonical partials {label}")
        for n in range(1, 6):
            for d in range(1, 5):
                L = sample_line(n, field, rng)
                # a line of contact past 1 in P^1 meets F at a singular point
                F = sample_contact_form(L, d, rng.randint(1, d if n > 1 else 1), rng)
                for k in range(1, d + 1):
                    fk = truncate(F, L.marked_point(), k).form
                    cases += [(fk, k), (_corrupted(fk, k), k)]
    return cases


CANONICAL_PARTIALS_CASES = _canonical_partials_cases()


def test_canonical_partials_are_read_off_the_terms():
    for fk, k in CANONICAL_PARTIALS_CASES:
        # the canonical line (t, s, 0, ..., 0): marked point e0, direction e1
        f = fk.field
        line = LineParam([(f.zero, f.one), (f.one, f.zero)] + [(f.zero, f.zero)] * (fk.n - 1), f)
        want = [pullback_of_partial(fk, i, line, upto=k) for i in range(fk.n + 1)]
        assert repr(_canonical_partials(fk, k)) == repr(want)
    # the cases hold terms of order 1, 2 and 3 past y1
    assert {sum(e[2:]) for fk, _ in CANONICAL_PARTIALS_CASES for e in fk.terms} >= {1, 2, 3}


# the forms made by HyperForm._of, which checks nothing: each must be what
# the checking constructor makes of its terms


def _trusted_forms():
    # seeded sample_contact_form, substitute and truncate outputs
    for label in ("QQ", "F7", "F101"):
        field = FIELDS[label]
        rng = random.Random(f"trusted forms {label}")
        for _ in range(8):
            n = rng.randint(2, 4)
            d = rng.randint(1, 5)
            k = rng.randint(1, d)
            L = sample_line(n, field, rng)
            F = sample_contact_form(L, d, k, rng)
            B = completion_matrix([L.marked_point(), L.direction()], field)
            yield from (F, F.substitute(B), F.substitute(B, upto=k),
                        truncate(F, L.marked_point(), k).form)


def test_trusted_forms_equal_their_checked_copies():
    for G in _trusted_forms():
        checked = HyperForm(G.n, G.d, G.terms, G.field)
        assert checked == G and repr(checked.terms) == repr(G.terms)
        assert not any(G.field.is_zero(c) for c in G.terms.values())
    # the sampler still refuses a field of characteristic up to d
    rng = random.Random("sampled over F_3")
    with pytest.raises(ValueError, match="exceed the degree"):
        sample_contact_form(sample_line(2, PrimeField(3), rng), 3, 1, rng)


def test_direct_jets_satisfy_eulers_identity():
    # along L, sum_j p_j dF/dx_j = d/dt F|_L and sum_j u_j dF/dx_j = d/ds
    # F|_L, so t (p jet) + s (u jet) = d F|_L at full width d: in
    # coefficients p[m] + u[m - 1] = d G[m], G = F|_L
    for label in ("QQ", "F101"):
        field = FIELDS[label]
        rng = random.Random(f"euler jets {label}")
        for _ in range(12):
            n = rng.randint(1, 4)
            d = rng.randint(1, 5)
            F = HyperForm(n, d, {e: field.random(rng) for e in monomials(n, d)
                                 if rng.random() < 0.6}, field)
            L = sample_line(n, field, rng)
            G = F.pullback(L)
            for table in (_LineTable(L, d - 1), _LineTable(L, d)):
                p, u = table.partials(F, d)[:2]
                for m in range(d + 1):
                    lhs = field.add(p[m] if m < d else field.zero,
                                    u[m - 1] if m else field.zero)
                    assert lhs == field.mul(field.of(d), G[m])


# the exponent memos: forms.monomials' lists and deformation's parents of
# each exponent, kept across calls


def _memoized_outputs():
    # criterion-7 records over F_101 and F_11, and seeded QQ trials through
    # both routes of log_sections and congruence_check, as exact-rings runs
    # them
    out = [contact_experiment(12, seed=26).records,
           contact_experiment(10, seed=5, prime=11).records]
    rng = random.Random("memoized QQ trials")
    for n, d, k in ((3, 3, 2), (3, 4, 4), (4, 5, 3), (5, 5, 1)):
        L = sample_line(n, QQ, rng)
        F = sample_contact_form(L, d, k, rng)
        out.append((F.terms, log_sections(F, L, k, use_truncation=False),
                    log_sections(F, L, k, use_truncation=True), congruence_check(F, L, k)))
    return out


def test_exponent_memos_change_no_output(monkeypatch):
    memos = (forms._monomials, deformation._exponent_parents)
    for memo in memos:
        memo.cache_clear()
    cold = _memoized_outputs()
    assert all(memo.cache_info().currsize for memo in memos)
    warm = _memoized_outputs()
    assert all(memo.cache_info().hits for memo in memos)
    # and the functions the memos wrap, called afresh every time
    for module, memo in zip((forms, deformation), memos):
        monkeypatch.setattr(module, memo.__name__, memo.__wrapped__)
    assert repr(warm) == repr(cold) == repr(_memoized_outputs())


def test_exponent_memos_are_bounded_and_hold_exponents():
    # deform-fp's 35 classes ask for 12 monomial lists and about 2023
    # exponents' parents
    assert 12 <= forms._monomials.cache_info().maxsize == forms.MONOMIALS_MEMO < 2 ** 10
    assert 2 ** 12 <= deformation._exponent_parents.cache_info().maxsize \
        == deformation.PARENTS_MEMO < 2 ** 16
    assert forms._monomials(2, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert deformation._exponent_parents((2, 0, 1)) == ((0, 2, (1, 0, 1)), (2, 1, (2, 0, 0)))


# reduction mod 101 as an oracle for the exact route: the conditioning
# rows, the direct route's jets and F_k are polynomials in the
# coordinates of the line and the coefficients of F, so reducing the QQ
# answers mod 101 gives the F_101 answers on the reduced inputs, as long
# as no denominator is divisible by 101 and B keeps its pivots


F101 = PrimeField(101)


@st.composite
def reducible_cases(draw):
    # (F, L, k) over QQ, entries a / b with b in {1, 2, 3, 7}, F through
    # the marked point of L
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, d))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))
    p = draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
    u = draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
    try:
        L = LineParam.from_point_direction(p, u, QQ)
    except ValueError:
        assume(False)
    terms = {e: draw(entry) for e in monomials(n, d) if draw(st.booleans())}
    # subtract G(p) / p_r^d x_r^d, p_r the first nonzero coordinate, so that F(p) = 0
    r = next(i for i, x in enumerate(p) if x)
    top = tuple(d if i == r else 0 for i in range(n + 1))
    G = HyperForm(n, d, terms, QQ)
    terms[top] = terms.get(top, 0) - G.evaluate(p) / p[r] ** d
    return HyperForm(n, d, terms, QQ), L, k


def _reduced(x, field=F101):
    # x mod 101 (or in field), entrywise through lists, tuples and dict values
    if isinstance(x, dict):
        return {e: r for e, c in x.items() if not field.is_zero(r := _reduced(c, field))}
    if isinstance(x, (list, tuple)):
        return type(x)(_reduced(c, field) for c in x)
    return field.of(x)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reducible_cases())
def test_exact_route_commutes_with_reduction_mod_101(case):
    F, L, k = case
    try:
        terms = _reduced(F.terms)
        rows = [_reduced(row) for row in L.rows]
    except ZeroDivisionError:
        event("bad reduction: 101 in a denominator")
        assume(False)
    try:
        L101 = LineParam(rows, F101)
    except ValueError:
        event("bad reduction: (p, u) of rank < 2 mod 101")
        assume(False)
    B = completion_matrix([L.marked_point(), L.direction()], QQ)
    B101 = completion_matrix([L101.marked_point(), L101.direction()], F101)
    if _reduced(B) != B101:
        event("bad reduction: a pivot moves")
        assume(False)
    # an exception of the exact route fails the check as a wrong answer
    # does, so that the test guards against faults that crash it
    try:
        F101_form = HyperForm(F.n, F.d, terms, F101)
        monos, cond = _LineTable(L, k).conditioning_rows(F.d)
        assert (monos, _reduced(cond)) == _LineTable(L101, k).conditioning_rows(F.d)
        assert _reduced(_LineTable(L, k - 1).partials(F, k)) == \
            _LineTable(L101, k - 1).partials(F101_form, k)
        Fk, Fk101 = _truncation(F, B, k), _truncation(F101_form, B101, k)
        assert _reduced(Fk.terms) == Fk101.terms
        assert _reduced(_canonical_partials(Fk, k)) == _canonical_partials(Fk101, k)
    except (AssertionError, HypothesisException):
        raise
    except Exception as ex:
        raise AssertionError(f"the exact route raised {ex!r}") from ex


# expand and kernel_basis reduced mod a prime p drawn from 5, 7 and 101:
# at 7 a denominator of 7 makes a bad reduction, skipped and counted
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))


def _reduced_mod(x, p: int):
    """x mod p as _reduced gives it, or None where p divides a denominator."""
    try:
        return _reduced(x, PrimeField(p))
    except ZeroDivisionError:
        event(f"bad reduction: {p} in a denominator")
        return None


@st.composite
def expansion_cases(draw):
    # (terms, cols, top, p): a form in P^1..P^4 of degree 1..4 and 1..3 columns
    n, d, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    terms = {e: draw(FRACTIONS) for e in monomials(n, d) if draw(st.booleans())}
    cols = [draw(st.lists(FRACTIONS, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    return terms, cols, draw(st.sampled_from((None, 1, 2))), draw(st.sampled_from((5, 7, 101)))


@settings(max_examples=120, deadline=None)
@given(expansion_cases())
def test_expand_commutes_with_reduction_mod_p(case):
    terms, cols, top, p = case
    reduced = _reduced_mod((terms, cols), p)
    assume(reduced is not None)
    assert _reduced_mod(expand(terms, cols, QQ, top), p) == \
        expand(*reduced, PrimeField(p), top)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.sampled_from((5, 7, 101)), st.data())
def test_kernel_basis_commutes_with_reduction_mod_p(rows, cols, p, data):
    # the reduced row echelon form, which the basis is read off, reduces
    # to F_p's where the pivot columns are the same
    M = [data.draw(st.lists(FRACTIONS, min_size=cols, max_size=cols)) for _ in range(rows)]
    reduced = _reduced_mod(M, p)
    assume(reduced is not None)
    if row_reduce(M, cols, QQ)[1] != row_reduce(reduced, cols, PrimeField(p))[1]:
        event(f"bad reduction: a pivot vanishes mod {p}")
        assume(False)
    assert _reduced_mod(kernel_basis(M, cols, QQ), p) == kernel_basis(reduced, cols, PrimeField(p))


# h0 commutes with reduction: a seeded QQ trial (F, L, k), reduced mod 101,
# 103 or 107, has the same raw_dim and h0 over F_p on both routes.  A
# reduction is bad, skipped and counted, when p divides a denominator, the
# line drops rank, the contact order changes, or the marked point, smooth
# on every sampled form, becomes singular


@st.composite
def reducible_trials(draw):
    n, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    k = draw(st.integers(1, d))
    rng = random.Random(draw(st.integers(0, 2**32)))
    L = sample_line(n, QQ, rng)
    return sample_contact_form(L, d, k, rng), L, k, draw(st.sampled_from((101, 103, 107)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reducible_trials())
def test_h0_commutes_with_reduction_mod_p(trial):
    F, L, k, p = trial
    field = PrimeField(p)
    reduced = _reduced_mod((F.terms, L.rows), p)
    assume(reduced is not None)
    try:
        Lp = LineParam(reduced[1], field)
    except ValueError:
        event(f"bad reduction: (p, u) of rank < 2 mod {p}")
        assume(False)
    Fp = HyperForm(F.n, F.d, reduced[0], field)
    if contact_order(Fp, Lp) != k:
        event(f"bad reduction: the contact order changes mod {p}")
        assume(False)
    if all(field.is_zero(c) for c in gradient(Fp, Lp.marked_point())):
        event(f"bad reduction: the marked point is singular mod {p}")
        assume(False)
    qq = log_sections(F, L, k)
    direct, trunc = (log_sections(Fp, Lp, k, use_truncation=t) for t in (False, True))
    assert (direct.raw_dim, direct.h0) == (trunc.raw_dim, trunc.h0) == (qq.raw_dim, qq.h0)
    ncols = 2 * (F.n + 1)
    assert row_reduce(direct.basis, ncols, field) == row_reduce(trunc.basis, ncols, field)
