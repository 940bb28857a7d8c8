"""Mutants of the live code, each caught by a named guard.

A mutant rewrites fragments of one function's source, compiles the result
in a copy of the function's module globals and monkeypatches it in for one
test.  Each fragment must occur exactly once in the live source, so a
refactor that moves the code fails here instead of leaving the mutant
untested.  Every guard also runs without its mutant, as a control that must
pass.

The mutants are the ones each change was checked against by hand: the
direct route's jets off the line table (a swap, a reversal and a wrong
scale), the Kronecker packing width of the root ring, and the two ways to
get the rescale of a fraction-free elimination row wrong.
"""

import __future__

import inspect
import random
import re
import textwrap

import pytest

import test_deformation
import test_fields
import test_forms
from tangency import fields
from tangency.deformation import _LineTable, completion_matrix, contact_experiment, sample_line
from tangency.fermat import RootRing
from tangency.fields import QQ
from tangency.forms import HyperForm, monomials


def _mutate(monkeypatch, owner, name: str, edits: dict):
    # owner.name with each key of edits replaced by its value, all at once
    func = getattr(owner, name)
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


P_JET = "lower((deg + 1 - m, m), sum(map(mul, self.p, N)))"

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
    # ignores the exponent, and over QQ only the two references with the
    # binary-form chain rule see it.  Along L, sum_j p_j dF/dx_j is d/dt of
    # F|_L, so at contact k its first k s-coefficients vanish, and on a
    # contained line all of them do: a wrong scale on zeros is still zero,
    # and no section system, congruence or pinned digest can see it
    "p-jet-without-its-power-of-p": (_LineTable, "partials",
                                     {P_JET: P_JET.replace("deg + 1 - m", "deg - m")},
                                     (_chain_rule_reference, _line_table_reference)),
    # Kronecker digits one bit narrower than the bound S needs
    "packing-width-one-bit-short": (RootRing, "lifted",
                                    {".bit_length() + 1": ".bit_length()"},
                                    (test_forms.test_root_ring_packing_reaches_its_bound,)),
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
    table = _LineTable(L, monomials(3, 3), 3, 4)
    want = (table.partials(F.terms, 4), fields.row_reduce(completion_matrix(
        [L.marked_point(), L.direction()], QQ), 4, QQ))
    for owner, name in ((_LineTable, "partials"), (fields, "_eliminate")):
        _mutate(monkeypatch, owner, name, {})
    assert (_LineTable(L, monomials(3, 3), 3, 4).partials(F.terms, 4),
            fields.row_reduce(completion_matrix([L.marked_point(), L.direction()], QQ),
                              4, QQ)) == want
