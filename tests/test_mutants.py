"""Mutants of the live code, each caught by a named guard.

A mutant rewrites fragments of one function's source, compiles the result
in a copy of the function's module globals and monkeypatches it in for one
test, on the owner the guard reads the name from.  Each fragment must occur
exactly once in the live source, so a refactor that moves the code fails
here instead of leaving the mutant untested.  Every guard also runs without
its mutant, as a control that must pass, and gives the same verdict on
every run: the hypothesis guards draw derandomized examples.

The mutants are the ones each change was checked against by hand: the
symbolic route's relation H^2 = s1 H - s11 and principal-parts factors;
expand's Horner walk (its cut, the cofactor's degree, the degree a
group's product is cut at, a chain without its leading factor, the
one-step power of a one-entry linear form, F_p's lowering) and the
operations of its price _expand_steps, made too low and too high; the
root ring's Kronecker packing width and its packings kept across calls,
each also caught by the reduction of its expansions to F_p; the direct
route's jets off the line table (a swap, a reversal and a wrong scale)
and the memoized parents of an exponent it reads them through (the
multiplicity dropped), and a row of that table made from its first
parent's without the shift by s; the truncated route's partials read off
F_k's terms (a factor dropped, a y_i term taken at any exponent) and the
sampler's forms made without checks (zero coefficients kept); a trial's
Euler membership taken from one route; PrimeField equality flipped; the
two ways to get the rescale of a fraction-free elimination row wrong; the
counter's pullback (a Horner sign flipped, the pivot solved with the
wrong sign, the zero row its missing jet rows read dropped), each caught
by oracle B, its float exactness bound without its top order, its
reduction mod q without the step that makes a residue non-negative, a
stage's dtype picked without the reduction's headroom, its GEMMs made in
one tile, caught by the threads of a forked worker, and its int64
divisibility test read off the wrong side of the remainder;
the expected h0 attached past exact contact; QQ's lowering without one
column's denominator power, caught by reduction mod p; and the ring check
Schubert and flag classes share without its class comparison.
"""

import __future__

import inspect
import random
import re
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings

import test_counting
import test_deformation
import test_enumerative
import test_fermat
import test_fields
import test_flag
import test_forms
from tangency import counting, deformation, enumerative, fields, flag, forms, schubert
from tangency.deformation import _LineTable, completion_matrix, contact_experiment, sample_line
from tangency.fermat import RootRing
from tangency.fields import QQ, PrimeField, RationalField
from tangency.forms import HyperForm, monomials


def _mutate(monkeypatch, owner, name: str, edits: dict):
    # owner.name with each key of edits replaced by its value, all at once;
    # a memoized function is recompiled with its decorator, so the mutant
    # has a memo of its own
    func = inspect.unwrap(getattr(owner, name))
    source = textwrap.dedent(inspect.getsource(func))
    for old in edits:
        assert source.count(old) == 1, f"{old!r} does not occur once in {name}"
    if edits:
        source = re.sub("|".join(map(re.escape, edits)), lambda m: edits[m.group()], source)
    code = compile(source, inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    space = dict(func.__globals__)
    exec(code, space)
    monkeypatch.setattr(owner, name, space[name])


# guards: each raises AssertionError when it detects a fault


def _routes_agree():
    # contact_experiment's own checks: the truncated and direct sections are
    # equal and the congruence holds in every trial (F_101, n = 3..5)
    summary = contact_experiment(8, seed=5)
    assert (summary.route_disagreements, summary.congruence_failures) == (0, 0)


def _chain_rule_reference():
    # test_chain_rule_equals_the_binary_form_loop's check on seeded QQ forms
    # and lines, at full and truncated widths
    rng = random.Random("chain rule mutants")
    for n, d in ((2, 3), (3, 4), (4, 2)):
        F = HyperForm(n, d, {e: QQ.random(rng) for e in monomials(n, d)}, QQ)
        L = sample_line(n, QQ, rng)
        for upto in (None, 1, d - 1):
            test_deformation._check_chain_rule(F, L, upto)


def _line_table_reference():
    test_deformation.test_line_table_equals_the_expansions_it_replaces("QQ", "dense")


def _bareiss_case(index: int):
    # one of the hand-written cases of the rescale test
    rows, rref = test_fields.RESCALE_CASES[index]
    return lambda: test_fields.test_qq_rows_with_0_in_the_pivot_column_are_rescaled(rows, rref)


def _bott_localization():
    # every bound of the symbolic route against Bott's residue formula
    for name in sorted(test_enumerative.LOCALIZED_BOUNDS):
        test_enumerative.test_bounds_match_bott_localization(name)


def _one_entry_cases():
    # the named cases test_expand_equals_the_per_term_sum runs as examples
    for case in test_forms.ONE_ENTRY_CASES:
        test_forms._check_expand(*case)


def _stopped_at_first_failure(test, cases, examples: int):
    # a hypothesis test of one strategy, stopped at its first failing case:
    # shrinking it would take seconds and tell a guard nothing.  Its
    # examples are derandomized, the same on every run, so that whether it
    # catches a mutant is the same on every run too
    def guard():
        settings(max_examples=examples, deadline=None, phases=[Phase.generate], database=None,
                 derandomize=True, suppress_health_check=[HealthCheck.too_slow])(
            given(cases())(test.hypothesis.inner_test))()
    return guard


_reduction_mod_101 = _stopped_at_first_failure(
    test_deformation.test_exact_route_commutes_with_reduction_mod_101,
    test_deformation.reducible_cases, 150)
_conditioning_rows_reference = _stopped_at_first_failure(
    test_deformation.test_conditioning_rows_match_per_monomial_pullbacks,
    test_deformation.lines_and_degrees, 80)
_expand_mod_p = _stopped_at_first_failure(
    test_deformation.test_expand_commutes_with_reduction_mod_p,
    test_deformation.expansion_cases, 60)


def _with_monkeypatch(test):
    # a test that takes the monkeypatch fixture, as a guard
    def guard():
        with pytest.MonkeyPatch.context() as mp:
            test(mp)
    return guard


P_JET = "lower((deg + 1 - m, m), sum(map(mul, self.p, N)))"
STEPS_GUARD = (test_forms.test_expand_steps_bounds_the_steps_expand_takes,)
READ_OFF_GUARD = (test_deformation.test_canonical_partials_are_read_off_the_terms,)

# every seeded form's |V_3| against the second fundamental form
ORACLE_B = (test_counting.check_oracle_b,)

# sums just below 2^24 and 2^53, reduced in the dtype their bound picks
HEADROOM = tuple(lambda limit=limit: test_counting.test_the_reduction_needs_its_headroom(limit)
                 for limit in (2 ** 24, 2 ** 53))

# a cell's last axis, summed past float64 in int64, tested for divisibility
CELL_AXES_INT64 = tuple(
    lambda q=q, dtype=dtype: test_counting.test_cell_axes_are_exact_on_both_sides_of_each_edge(
        q, dtype)
    for q, dtype in test_counting.ladder_edges(lambda q: 4 * (q - 1) ** 2) if dtype == np.int64)

# name: (owner, function, edits, guards); every guard must catch the mutant
MUTANTS = {
    # the jets of the columns p and u of B trade places
    "jets-p-and-u-swapped": (_LineTable, "partials",
                             {"self.p, N": "self.u, N", "self.u, N": "self.p, N"},
                             (_routes_agree,)),
    # the standard columns e_c of B read in the wrong order
    "standard-columns-reversed": (_LineTable, "partials",
                                  {"for c in self.standard]": "for c in reversed(self.standard)]"},
                                  (_routes_agree,)),
    # the p jet lowered as if it had no extra power of p: over F_p lowering
    # ignores the exponent, and over QQ only Euler's identity along L and
    # the two references with the binary-form chain rule see it.  Along L,
    # sum_j p_j dF/dx_j is d/dt of F|_L, so at contact k its first k
    # s-coefficients vanish, and on a contained line all of them do: a
    # wrong scale on zeros is still zero, and no section system, congruence
    # or pinned digest can see it
    "p-jet-without-its-power-of-p": (_LineTable, "partials",
                                     {P_JET: P_JET.replace("deg + 1 - m", "deg - m")},
                                     (test_deformation.test_direct_jets_satisfy_eulers_identity,
                                      _chain_rule_reference, _line_table_reference)),
    # a line table row made from its first parent's without the shift by
    # s of u_i's part: (p_i t + u_i) times the parent's row
    "row-step-without-its-s-shift": (_LineTable, "row",
                                     {"zip(r[1:], r)]": "zip(r[1:], r[1:])]"},
                                     (_line_table_reference, _conditioning_rows_reference)),
    # F_k's y0-partial read off its terms without the factor a of y0^a
    "read-off-partial-without-its-exponent": (
        test_deformation, "_canonical_partials",
        {"out[0][b] = f.mul(c, f.of(a))": "out[0][b] = c"}, READ_OFF_GUARD),
    # a term y0^a y1^b y_i^e taken into the y_i-partial at any e, and with
    # other y_j beside it
    "read-off-partial-at-any-exponent": (
        test_deformation, "_canonical_partials",
        {"elif a + b == k - 1:\n            out[e.index(1, 2)][b] = c":
         "else:\n            out[next(i for i in range(2, len(e)) if e[i])][b] = c"},
        READ_OFF_GUARD),
    # the sampled form made unchecked with the kernel vector's zeros kept
    "sampled-zeros-kept": (test_deformation, "sample_contact_form",
                           {"{m: a for m, a in zip(monos, c) if a}": "dict(zip(monos, c))"},
                           (test_deformation.test_trusted_forms_equal_their_checked_copies,)),
    # Kronecker digits one bit narrower than the bound S needs
    "packing-width-one-bit-short": (RootRing, "lifted",
                                    {".bit_length() + 1": ".bit_length()"},
                                    (test_forms.test_root_ring_packing_reaches_its_bound,
                                     test_fermat.test_root_ring_expansions_reduce_to_fp)),
    # a packing made at one width handed out at any other
    "packing-kept-across-widths": (
        RootRing, "_packing",
        {"if B in self._packings:\n        return self._packings[B]":
         "if self._packings:\n        return next(iter(self._packings.values()))"},
        (test_fermat.test_root_ring_packs_each_plane_at_its_own_width,
         test_fermat.test_root_ring_expansions_reduce_to_fp)),
    # a one-entry power kept past the cut: expand's products cut it again,
    # so only the check of the cached powers against their chain sees it
    "one-entry-power-uncut": (forms, "_products",
                              {" if top is None or k * e % base >= e - top else {}": ""},
                              (_one_entry_cases,)),
    # no product of the walk cut at top
    "horner-cut-dropped": (forms, "_products",
                           {"cut = -1 if top is None else deg - top": "cut = -1"},
                           (_one_entry_cases, _reduction_mod_101)),
    # a group's cofactor walked at the group's degree, not deg - a
    "cofactor-at-the-wrong-degree": (forms, "_walk",
                                     {"deg - a, new(group)": "deg, new(group)"},
                                     (_one_entry_cases, _reduction_mod_101) + STEPS_GUARD),
    # expand and its price share the walk, so a fault in it is seen both by
    # the expansions and by the price against the steps expand takes: a
    # group's product cut and priced at its cofactor's degree, and a term
    # alone in its group sent to its chain without its leading factor.  The
    # seeded commutation with reduction mod p sees both, and the seeded
    # conditioning rows the second.  The seeded exact route mod 101 sees
    # the first, the cut dropped and the cofactor at the wrong degree by
    # the exceptions they raise in it
    "group-product-at-its-cofactor-degree": (forms, "_walk",
                                             {"(lead, deg))": "(lead, deg - a))"},
                                             (_one_entry_cases, _expand_mod_p,
                                              _reduction_mod_101) + STEPS_GUARD),
    "chain-without-its-leading-factor": (forms, "_walk",
                                         {"chain(e, c, j, part)": "chain(e, c, j + 1, part)"},
                                         (_one_entry_cases, _expand_mod_p,
                                          _conditioning_rows_reference) + STEPS_GUARD),
    # F_p's output coefficients not reduced
    "mod-p-left-out": (PrimeField, "lifted", {"num % p": "num"},
                       (_one_entry_cases, _reduction_mod_101, _expand_mod_p)),
    # QQ's output coefficients without the denominator power of column 0
    "qq-column-denominator-dropped": (
        RationalField, "lifted",
        {"zip(dens, a)": "zip(dens[1:], a[1:])"}, (_expand_mod_p,)),
    # the counter's Horner step P <- H_a - (w.r) P
    "pullback-horner-sign-flipped": (counting._Kind, "pullback",
                                     {"H[at] += w[i] * P": "H[at] -= w[i] * P"}, ORACLE_B),
    # v_pivot = -w.r, w solved from grad.v = 0 with the wrong sign
    "pivot-solved-with-the-wrong-sign": (counting._Kind, "pullback",
                                         {"w = _reduce(-gather(": "w = _reduce(gather("},
                                         ORACLE_B),
    # the jets without the zero row their missing rows (-1) read, so that
    # a divided derivative that is zero reads the last jet row instead
    "missing-jet-rows-unmasked": (counting._Kernel, "jets_at",
                                  {"np.concatenate((J.astype(self.dtype, copy=False), zero))":
                                   "J.astype(self.dtype, copy=False)"}, ORACLE_B),
    # the counter's reduction mod q left in (-q, q), without the step that
    # adds q to a negative residue
    "reduction-without-its-one-step-fix": (
        counting, "_reduce", {"    x += np.less(x, 0) * x.dtype.type(q)\n": ""}, HEADROOM),
    # a stage's dtype picked from its bound alone, without the q that
    # q rint(x fl(1/q)) may pass x by
    "stage-bound-without-its-headroom": (counting, "stage_dtype",
                                         {"top = bound + q": "top = bound"}, HEADROOM),
    # every GEMM of the counter in one tile, which OpenBLAS may split
    # across threads of its own in each forked worker
    "gemm-untiled": (counting, "_gemm",
                     {"min(X.shape[1], _GEMM_WORK // width)": "X.shape[1]",
                      "min(_GEMV_ENTRIES // width, _GEMM_WORK // (cols * width))": "len(M)"},
                     (test_counting.test_grid_contraction_starts_no_threads_in_a_forked_worker,)),
    # int64 divisibility read off the remainder as the float test reads off
    # its product: q | v taken where v mod q == v
    "int64-divisible-against-v": (counting, "_divisible",
                                  {"np.equal(t, 0, out=out)": "np.equal(t, v, out=out)"},
                                  CELL_AXES_INT64),
    # 2n - k + 1 expected along a line of any contact >= k, not just exact k
    "expected-h0-past-exact-contact": (
        deformation, "_sections", {"elif co != k:": "elif co < k:"},
        (lambda: test_deformation.test_log_sections_expect_2n_minus_k_plus_1_only_at_exact_contact(
            QQ),)),
    # the float32/float64 choice made without the widest (top) order's sums
    "exactness-bound-without-its-top-order": (
        counting, "exactness_bound", {"min(k - 1, d) + 1)": "min(k - 1, d))"},
        (_with_monkeypatch(
            test_counting.test_grid_contraction_is_exact_in_the_dtype_the_kernel_picks),)),
    # the memoized parents of an exponent without the multiplicity e_j, so
    # dF/dx_j takes c where it needs e_j c
    "parents-without-their-multiplicity": (
        deformation, "_exponent_parents", {"(j, ej, e[:j]": "(j, 1, e[:j]"},
        (_routes_agree, _chain_rule_reference)),
    # a trial's Euler membership taken from either route, not from both
    "euler-ok-from-either-route": (
        test_deformation, "contact_experiment",
        {"direct.euler_in_kernel and trunc.euler_in_kernel":
         "direct.euler_in_kernel or trunc.euler_in_kernel"},
        (_with_monkeypatch(
            test_deformation.test_contact_experiment_counts_one_route_failing_euler_membership),)),
    # two fields of one prime unequal, and of two primes equal
    "field-equality-flipped": (PrimeField, "__eq__", {"other.p == self.p": "other.p != self.p"},
                               (test_fields.test_prime_fields_are_equal_and_hash_alike_by_their_prime,)),
    # expand's price: the seven ways it was made too low by hand
    "steps-without-unpacking": (test_forms, "_expand_steps",
                                {"return steps + walked + (m + 1) * min(left, cap[d])":
                                 "return steps + walked"}, STEPS_GUARD),
    "steps-chain-without-its-partial-product": (test_forms, "_expand_steps",
                                                {"out[0] += part * size[i][e[i]]":
                                                 "out[0] += size[i][e[i]]"}, STEPS_GUARD),
    "steps-group-without-its-sub-walk-terms": (test_forms, "_expand_steps",
                                               {"part[0] + kept * s": "part[0] + s"}, STEPS_GUARD),
    "steps-power-bounds-one-lower": (
        test_forms, "_expand_steps",
        {"comb(a + r - 1, a) * (a <= top)": "(comb(a + r - 1, a) - 1) * (a <= top)",
         "comb(min(a, top) + r - 1, min(a, top)) for":
         "comb(min(a, top) + r - 1, min(a, top)) - 1 for"}, STEPS_GUARD),
    "steps-without-grouping-visits": (test_forms, "_expand_steps",
                                      {"[len(items), 0]": "[0, 0]"},
                                      STEPS_GUARD),
    "steps-power-empty-at-top": (test_forms, "_expand_steps",
                                 {"(a <= top)": "(a < top)"}, STEPS_GUARD),
    "steps-cap-one-lower": (test_forms, "_expand_steps",
                            {"comb(m + min(deg, top), m) for deg": "comb(m + min(deg, top), m) - 1 for deg"},
                            STEPS_GUARD),
    # and two of the ways to make it too high, which the upper bound of the
    # same guard sees
    "steps-one-column-too-many": (test_forms, "_expand_steps",
                                  {"len(cols) - 1": "len(cols)"}, STEPS_GUARD),
    "steps-power-bounds-two-higher": (test_forms, "_expand_steps",
                                      {"comb(a + r - 1, a)": "comb(a + r + 1, a)"}, STEPS_GUARD),
    # H^2 = s1 H + s11, the sign of s11 flipped
    "h-squared-sign": (flag, "reduce_class", {"-mult(s11, A)": "mult(s11, A)"},
                       (_bott_localization,)),
    # the principal-parts factors (d - 2j) H + (j + 1) s1, off by one in s1
    "principal-parts-off-by-one": (enumerative, "principal_parts_factors",
                                   {"coeff=j)": "coeff=j + 1)"}, (_bott_localization,)),
    # the one ring check of Schubert and flag classes without its class
    # comparison: a flag class passes as a Schubert class of the same n
    "ring-check-without-its-class": (
        schubert._Combination, "_same_ring", {"type(other) is type(self) and ": ""},
        (test_flag.test_classes_of_two_rings_never_mix,)),
    # a row with 0 in the pivot column left as it is
    "bareiss-row-not-rescaled": (fields, "_eliminate",
                                 {"not (f or piv != prev)": "not f"},
                                 (_bareiss_case(0),)),
    # such a row multiplied by piv // prev, not by piv and then divided by prev
    "bareiss-rescaled-by-quotient": (
        fields, "_eliminate",
        {"mat[r] = [(piv * a - f * b) // prev for a, b in zip(row, top)]":
         "mat[r] = ([(piv * a - f * b) // prev for a, b in zip(row, top)] if f\n"
         "                              else [a * (piv // prev) for a in row])"},
        (_bareiss_case(1),)),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_guards_pass_without_the_mutant(name):
    for guard in MUTANTS[name][3]:
        guard()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_guards_catch_the_mutant(name, monkeypatch):
    owner, func, edits, guards = MUTANTS[name]
    _mutate(monkeypatch, owner, func, edits)
    for guard in guards:
        with pytest.raises(AssertionError):
            guard()


def test_the_mutated_functions_compile_back_to_themselves(monkeypatch):
    # with no edits, the recompiled functions give the live answers
    rng = random.Random("identity mutants")
    L = sample_line(3, QQ, rng)
    F = HyperForm(3, 4, {e: QQ.random(rng) for e in monomials(3, 4)}, QQ)
    table = _LineTable(L, 4)
    want = (table.partials(F, 4), table.rows, fields.row_reduce(completion_matrix(
        [L.marked_point(), L.direction()], QQ), 4, QQ))
    for owner, name in ((_LineTable, "partials"), (_LineTable, "row"), (fields, "_eliminate")):
        _mutate(monkeypatch, owner, name, {})
    table = _LineTable(L, 4)
    assert (table.partials(F, 4), table.rows,
            fields.row_reduce(completion_matrix([L.marked_point(), L.direction()], QQ),
                              4, QQ)) == want


def test_the_fermat_and_expand_mutants_compile_back_to_themselves(monkeypatch):
    for owner, name in ((RootRing, "lifted"), (RootRing, "_packing"), (forms, "_products"),
                        (forms, "_walk"), (PrimeField, "lifted")):
        _mutate(monkeypatch, owner, name, {})
    test_fermat.check_planes(3)
    _one_entry_cases()


def test_the_memoized_parents_compile_back_to_themselves(monkeypatch):
    _mutate(monkeypatch, deformation, "_exponent_parents", {})
    parents = deformation._exponent_parents
    assert parents.cache_info() == (0, 0, deformation.PARENTS_MEMO, 0)
    assert parents((2, 0, 1)) == ((0, 2, (1, 0, 1)), (2, 1, (2, 0, 0)))
    _routes_agree()


def test_the_truncated_route_mutants_compile_back_to_themselves(monkeypatch):
    for name in ("_canonical_partials", "sample_contact_form"):
        _mutate(monkeypatch, test_deformation, name, {})
    test_deformation.test_canonical_partials_are_read_off_the_terms()
    test_deformation.test_trusted_forms_equal_their_checked_copies()


def test_the_counter_and_lowering_mutants_compile_back_to_themselves(monkeypatch):
    for owner, name in ((counting._Kind, "pullback"), (counting._Kernel, "jets_at"),
                        (counting, "exactness_bound"),
                        (counting, "_reduce"), (counting, "stage_dtype"),
                        (counting, "_gemm"), (counting, "_divisible"),
                        (deformation, "_sections"), (RationalField, "lifted")):
        _mutate(monkeypatch, owner, name, {})
    assert counting.exactness_bound(5, 5, 5, 2) == 70
    test_counting.test_the_reduction_needs_its_headroom(2 ** 24)
    test_deformation.test_log_sections_expect_2n_minus_k_plus_1_only_at_exact_contact(QQ)
    F = test_counting.oracle_b_forms()[5]
    assert counting.count_vk(F, 3).count == test_counting.count_v3_second_form(F)
    _one_entry_cases()
