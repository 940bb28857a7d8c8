"""Contact order, truncation, and log-tangent sections along a line.

Setting: a degree-d form F, a line L(s,t) = s*u + t*p with marked point p
on X = {F = 0}.  After the change of coordinates x = B*y, where
completion_matrix puts p and u first in B and fills the other columns
with the standard vectors e_j off the row_reduce pivots of (p, u), the line
becomes (t, s, 0, ..., 0) and F decomposes as
F' = sum_j y0^(d-j) f_j with f_j of degree j in y1..yn.  The order-k
truncation F_k = sum_{j=1..k} y0^(k-j) f_j carries all order-k contact
information at p; the key congruence is

    dF'/dy_i (a)  ==  a0^(d-k) * dF_k/dy_i (a)   (mod s^k)

along the line tuple a = (t, s, 0, ..., 0).  Sections of the log tangent
sheaf along L, to first order, are tuples b_i = beta_i*s + gamma_i*t with
sum_i b_i * dF_k/dy_i(a) = 0 mod s^k: a linear system over the base field
whose kernel dimension (minus the Euler redundancy) is h0.  For a general
smooth X and a line of exact contact k the expected value is 2n - k + 1.

Two independent routes are kept deliberately.  The truncated route
differentiates an explicit F_k along the canonical line, reading the
partials off F_k's terms: restricted to (t, s, 0, ..., 0), d/dy_i of a
term keeps only what has no y_j, j >= 2, left, so y0^a y1^b gives a c at
s^b to i = 0 and b c at s^(b-1) to i = 1, y0^a y1^b y_i gives c at s^b,
and nothing else survives.  The direct route never forms F_k: it takes the
partials of F' = F(B y) by the chain rule on L, dF'/dy_i = sum_j B[j][i]
dF/dx_j, which for B's columns p, u and e_c is sum_j p_j dF/dx_j, sum_j
u_j dF/dx_j and dF/dx_c along L.  What the routes keep apart is the
coordinates and the order of differentiation and truncation, so their
agreement is still a check.  F_k is formed in one place, _truncation,
for truncate (B completes p alone) and for the truncated route: one
forms.expand of F through the columns of B, cut at order k and regrouped
straight into F_k, with no form in between.  It is priced first by
forms._expand_steps, which runs expand's own Horner walk over F's
exponents with bounds from B's nonzero entries, n and k for its
products, and refused past TRUNCATION_BUDGET before anything expands.

The direct route reads its jets off a _LineTable, the pullbacks along L
of monomials, each row made on first use from its first parent's: x_i m'
pulls back to (p_i t + u_i s) times the pullback of m'.  A partial of F
is a combination of degree-(d-1) rows and a degree-d monomial is x_i
times one, so the table gives the jets of F' and the conditioning rows of
a sampled form by integer multiply-adds, one lower per output coefficient
(% p, or one Fraction), and makes only the rows they ask for, so its work
follows the size of F.  It also holds B, which the truncated route reads
wherever a table is built anyway.  contact_experiment builds one table a
trial, to s^k, for the sampling, its smoothness test (the s^0 jets) and
the direct route; the last two share the parent lists of F it keeps.

Nothing of one (F, L, k) is computed twice, and the jets are passed
explicitly: each entry point forms the ones it needs once, and
_trial_routes hands each route's jets to its section system and both to
_congruence.  contact_experiment takes the contact order from the exact
check sample_contact_form makes.  What depends on exponents alone is
shared across trials: forms.monomials keeps the lists of the last
forms.MONOMIALS_MEMO (n, d), and _exponent_parents the triples (j, e_j,
x^e / x_j) of the last PARENTS_MEMO exponents e, which the conditioning
rows and the parent lists read.  They fill from the exponents asked
about, never from all of a degree, and hold no field element, so no
trial sees another's field.

The routes agree when their section systems have the same kernel, and
that is equality of the two kernel_basis lists: the basis is read off the
reduced row echelon form of the system, and the kernel alone fixes that
form (its rows span the vectors orthogonal to the kernel), so equal
kernels give equal lists and equal lists span equal kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import mul

from .fields import (
    PrimeField,
    kernel_basis,
    mat_vec,
    random_kernel_vector,
    row_reduce,
)
from .forms import (
    HyperForm,
    LineParam,
    _check_characteristic,
    _expand_steps,
    expand,
    monomials,
    pullback_of_partial,  # not called here: perfbench's tracer hooks this name
    s_valuation,
)

CONTAINED = "contained"
SAMPLE_TRIES = 400   # kernel vectors sample_contact_form draws before it gives up
# the steps an order-k truncation may take, by forms._expand_steps: over QQ
# on a 2-core Xeon a priced step took 0.09 to 0.55 us on the forms timed
# (0.55 us on x0*x1*...*xn at (0, 1, ..., 1) with k = n + 1, priced at
# about its steps), so about 9 s at most at this limit
TRUNCATION_BUDGET = 2 ** 24
# the exponents whose parents stay memoized (_exponent_parents): deform-fp's
# 35 classes ask about 2023
PARENTS_MEMO = 4096


def contact_order(F: HyperForm, L: LineParam):
    """s-adic valuation of F along L at the marked point; "contained" if F|_L = 0."""
    if F.n != L.n:
        raise ValueError("form and line live in different projective spaces")
    if F.field.characteristic != L.field.characteristic:
        raise ValueError("form and line live over fields of different characteristic")
    v = s_valuation(F.pullback(L), F.field)
    return CONTAINED if v is None else v


def completion_matrix(vectors, field):
    """Invertible B whose first columns are the given vectors, followed by
    the standard vectors e_j, in increasing j, for every j that is not a
    row_reduce pivot of the vectors."""
    n1 = len(vectors[0])
    _, pivots = row_reduce(vectors, n1, field)
    if len(pivots) < len(vectors):
        raise ValueError("the zero point or a dependent pair cannot start a basis")
    cols = list(vectors) + [[field.one if i == j else field.zero for i in range(n1)]
                            for j in range(n1) if j not in pivots]
    return [[col[i] for col in cols] for i in range(n1)]


def _truncation(F: HyperForm, B, k: int) -> HyperForm:
    # F_k in the coordinates x = B y: F(B y) cut to order <= k at the point
    # e0 (column 0 of B), its graded pieces homogenized to degree k; refused
    # before it expands when its price passes the budget
    cols = [list(col) for col in zip(*B)]
    if (price := _expand_steps(F.terms, cols, F.field, k, TRUNCATION_BUDGET)) > TRUNCATION_BUDGET:
        raise ValueError(f"the order-{k} truncation could take up to 2^{price.bit_length()} "
                         f"steps, over the budget of 2^{TRUNCATION_BUDGET.bit_length() - 1}")
    out = {}
    for e, c in expand(F.terms, cols, F.field, k).items():
        j = F.d - e[0]
        if j == 0:
            raise ValueError("form does not vanish at the marked point")
        out[(k - j,) + e[1:]] = c
    return HyperForm._of(F.n, k, out, F.field)


@dataclass
class Truncation:
    form: HyperForm       # F_k, degree k, in the new coordinates
    basis: list           # B with x = B*y; column 0 is the marked point
    k: int


def truncate(F: HyperForm, point, k: int) -> Truncation:
    """Order-k truncation of F at a point of {F = 0}."""
    f = F.field
    point = [f.of(x) for x in point]
    if not f.is_zero(F.evaluate(point)):
        raise ValueError("truncation point does not lie on the hypersurface")
    if not 1 <= k <= F.d:
        raise ValueError(f"need 1 <= k <= d = {F.d}, got k = {k}")
    B = completion_matrix([point], f)
    return Truncation(_truncation(F, B, k), B, k)


@lru_cache(maxsize=PARENTS_MEMO)
def _exponent_parents(e: tuple) -> tuple:
    # (j, e_j, the exponent of x^e / x_j) for each j with e_j > 0, in
    # increasing j
    return tuple((j, ej, e[:j] + (ej - 1,) + e[j + 1:]) for j, ej in enumerate(e) if ej)


class _LineTable:
    """The pullbacks along L(s, t) = s*u + t*p of monomials to s^top, in
    the integers of L.field.lifted: rows[m][j] is the integer whose lower
    at (deg - j, j) is the s^j t^(deg-j) coefficient of m(t*p + s*u), deg
    the degree of m, with p and u lifted once (over QQ their denominators
    cleared, over F_p the rows unreduced).  A row is made on first use and
    kept.  B = completion_matrix([p, u]) is the line's basis, built once
    for both routes.
    """

    def __init__(self, L: LineParam, top: int):
        self.field, self.cols = L.field, [L.marked_point(), L.direction()]
        self.B = completion_matrix(self.cols, self.field)
        # column i >= 2 of B is the standard vector e_c, c its nonzero row
        self.standard = [next(c for c, row in enumerate(self.B) if row[i])
                         for i in range(2, len(self.B))]
        _, (self.p, self.u), self.lower = self.field.lifted({}, self.cols)
        self.top = top
        self.rows = {(0,) * len(self.p): [1] + [0] * top}
        self._parents: tuple | None = None   # (terms, _parent_lists(terms)) of the last F

    def row(self, m: tuple) -> list:
        """The row of m, made down from the nearest first parent with a
        row (m = x_i m', i the first variable of m, pulls back to (p_i t +
        u_i s) times m') in a loop, since m can have any degree.  The hot
        loops read rows first and call this on a miss: a call per lookup
        measured slower."""
        rows, path = self.rows, []
        while m not in rows:
            i = next(i for i, a in enumerate(m) if a)
            path.append((m, i))
            m = m[:i] + (m[i] - 1,) + m[i + 1:]
        r = rows[m]
        for m, i in reversed(path):
            pi, ui = self.p[i], self.u[i]
            r = rows[m] = [pi * r[0]] + [pi * a + ui * b for a, b in zip(r[1:], r)]
        return r

    def conditioning_rows(self, d: int):
        """The degree-d monomials and the (top+1) x N matrix whose column e
        holds the s^0..s^top coefficients of e along L."""
        top, lower, rows = self.top, self.lower, self.rows
        monos = monomials(len(self.p) - 1, d)
        out = [[] for _ in range(top + 1)]
        for e in monos:
            # row's step inline, its result lowered and not kept: keeping
            # the degree-d rows to take that step through row measured slower
            i, _, parent = _exponent_parents(e)[0]
            r = rows.get(parent) or self.row(parent)
            pi, ui = self.p[i], self.u[i]
            out[0].append(lower((d, 0), pi * r[0]))
            for j in range(1, top + 1):
                out[j].append(lower((d - j, j), pi * r[j] + ui * r[j - 1]))
        return monos, out

    def partials(self, F: HyperForm, width: int) -> list[list]:
        """For each column i of B, the first width s-coefficients of
        dF'/dy_i along the canonical line, F' = F(B y): by the chain rule,
        sum_j p_j dF/dx_j, sum_j u_j dF/dx_j and dF/dx_c for each column
        e_c, along L.  The partials' integer numerators share one lower per
        power of s, and their dot products with p and u lower with one more
        power of p or of u.

        The table keeps the parent lists of the last terms dict it was
        given, so the smoothness test of a sampled F and the direct route
        on the same F build them once."""
        if self._parents is None or self._parents[0] is not F.terms:
            self._parents = (F.terms, self._parent_lists(F.terms))
        lower, cols = self._parents[1]
        deg = F.d - 1
        nums = [[sum(map(mul, cs, [r[m] for r in rs])) for m in range(width)]
                for cs, rs in cols]
        by_power = list(zip(*nums))
        return ([[lower((deg + 1 - m, m), sum(map(mul, self.p, N)))
                  for m, N in enumerate(by_power)],
                 [lower((deg - m, m + 1), sum(map(mul, self.u, N)))
                  for m, N in enumerate(by_power)]]
                + [[lower((deg - m, m), a) for m, a in enumerate(nums[c])]
                   for c in self.standard])

    def _parent_lists(self, terms: dict) -> tuple:
        # (lower, [(cs, rs) for each j]): dF/dx_j lowers from the sum of
        # c * row over the pairs (c, row) of cs and rs, F lifted with the line
        ints, _, lower = self.field.lifted(terms, self.cols)
        rows = self.rows
        cols = [([], []) for _ in self.p]
        for e, c in ints.items():
            for j, ej, parent in _exponent_parents(e):
                cs, rs = cols[j]
                cs.append(c * ej)
                rs.append(rows.get(parent) or self.row(parent))
        return lower, cols


@dataclass
class CongruenceReport:
    k: int
    per_index: list[bool]
    ok: bool
    corrupted: bool


def _require_contact(F: HyperForm, L: LineParam, k: int):
    # the contact order of L at the marked point, refused if below k
    co = contact_order(F, L)
    if co != CONTAINED and co < k:
        raise ValueError(f"line has contact order {co} < k = {k} at the marked point")
    return co


def _canonical_partials(fk: HyperForm, k: int) -> list[list]:
    # dF_k/dy_i along (t, s, 0, ..., 0) to s^(k-1), read off the terms of
    # the degree-k F_k as the module docstring says
    f = fk.field
    out = [[f.zero] * k for _ in range(fk.n + 1)]
    for e, c in fk.terms.items():
        a, b = e[0], e[1]
        if a + b == k:
            if a:
                out[0][b] = f.mul(c, f.of(a))
            if b:
                out[1][b - 1] = f.mul(c, f.of(b))
        elif a + b == k - 1:
            out[e.index(1, 2)][b] = c
    return out


def congruence_check(F: HyperForm, L: LineParam, k: int, corrupt: bool = False) -> CongruenceReport:
    """Verify dF'/dy_i(a) == a0^(d-k) dF_k/dy_i(a) mod s^k for every i.

    The left side comes from the chain rule on F directly; the right side
    differentiates an explicitly truncated F_k.  With corrupt=True the
    truncation is deliberately damaged first, as a fault-injection control:
    the report must then fail.
    """
    _require_contact(F, L, k)
    if not 1 <= k <= F.d:
        raise ValueError(f"need 1 <= k <= d = {F.d}, got k = {k}")
    table = _LineTable(L, k - 1)
    fk = _truncation(F, table.B, k)
    truncated = _canonical_partials(_corrupted(fk, k) if corrupt else fk, k)
    return _congruence(table.partials(F, k), truncated, k, F.field, corrupt)


def _corrupted(fk: HyperForm, k: int) -> HyperForm:
    # the fault congruence_check injects: F_k + y0^(k-1) y1, whose
    # y1-partial along the canonical line gains 1 at s^0
    f = fk.field
    bump = (k - 1, 1) + (0,) * (fk.n - 1)
    terms = dict(fk.terms)
    terms[bump] = f.add(terms.get(bump, f.zero), f.one)
    return HyperForm(fk.n, fk.d, terms, f)


def _congruence(direct: list[list], truncated: list[list], k: int, f,
                corrupt: bool = False) -> CongruenceReport:
    # multiplying by a0^(d-k) = t^(d-k) shifts no s-exponents, so the
    # comparison mod s^k is coefficientwise on the first k entries
    per = [all(f.is_zero(f.sub(a, b)) for a, b in zip(lhs, rhs))
           for lhs, rhs in zip(direct, truncated)]
    return CongruenceReport(k, per, all(per), corrupt)


@dataclass
class DeformationSpace:
    n: int
    k: int
    contact: object            # int or "contained"
    raw_dim: int
    h0: int
    expected_h0: int | None    # 2n - k + 1, or None for the reason in unexpected
    matches: bool | None
    unexpected: str | None
    euler_in_kernel: bool
    truncated: bool
    basis: list = dc_field(repr=False, default_factory=list)


def _sections_matrix(pullbacks: list[list], n_eqs: int, field) -> list[list]:
    # unknown layout: [beta_0, gamma_0, beta_1, gamma_1, ...];
    # b_i = beta_i*s + gamma_i*t against the binary form pullbacks[i]
    n1 = len(pullbacks)
    rows = []
    for m in range(n_eqs):
        row = []
        for i in range(n1):
            w = pullbacks[i]
            row.append(w[m - 1] if 1 <= m <= len(w) else field.zero)   # beta_i
            row.append(w[m] if m < len(w) else field.zero)             # gamma_i
        rows.append(row)
    return rows


def log_sections(F: HyperForm, L: LineParam, k: int, use_truncation: bool = True) -> DeformationSpace:
    """First-order sections of the log tangent sheaf along L, mod s^k.

    Returns the kernel data of the k-equation system on tuples
    (beta_i, gamma_i); h0 discards the Euler redundancy.  For a line
    contained in the hypersurface the system instead demands the full
    identity sum b_i dF'/dy_i(a) = 0 (all s-degrees).  Whether 2n - k + 1
    is expected, and why not, _sections decides.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    co = _require_contact(F, L, k)
    truncated = use_truncation and co != CONTAINED and k > 0
    if truncated:
        B = completion_matrix([L.marked_point(), L.direction()], F.field)
        jets = _canonical_partials(_truncation(F, B, k), k)
    else:   # a line of finite contact co >= k has k <= d; k = 0 reads the s^0 jets
        width = F.d if co == CONTAINED else max(k, 1)
        jets = _LineTable(L, width - 1).partials(F, width)
    return _sections(F, k, co, jets, truncated)


def _sections(F: HyperForm, k: int, co, jets: list[list], truncated: bool) -> DeformationSpace:
    # the sections against the binary forms jets: mod s^k, or the full
    # identity in all d + 1 s-degrees on a contained line
    f = F.field
    contained = co == CONTAINED
    rows = _sections_matrix(jets, F.d + 1 if contained else k, f)
    # 2n - k + 1 counts the sections along a line of exact contact k <= 2n - 1
    # at a smooth point: the s^0 jets are B^T times the gradient there, and B
    # is invertible, so they all vanish just when the point is singular
    if contained:
        unexpected = "contained line"
    elif k > 2 * F.n - 1:
        unexpected = "k > 2n-1"
    elif co != k:
        unexpected = f"contact {co} > k"
    elif all(f.is_zero(jet[0]) for jet in jets):
        unexpected = "singular marked point"
    else:
        unexpected = None
    expected = None if unexpected else 2 * F.n - k + 1

    ncols = 2 * (F.n + 1)
    kern = kernel_basis(rows, ncols, f)   # rows == [] gives the identity basis
    raw_dim = len(kern)

    # Euler tuple in normalized coordinates: b = (t, s, 0, ..., 0)
    euler = [f.zero] * ncols
    euler[1] = f.one   # gamma_0
    euler[2] = f.one   # beta_1
    euler_ok = all(f.is_zero(v) for v in mat_vec(rows, euler, f))

    h0 = raw_dim - 1
    return DeformationSpace(
        n=F.n,
        k=k,
        contact=co,
        raw_dim=raw_dim,
        h0=h0,
        expected_h0=expected,
        matches=(None if expected is None else h0 == expected),
        unexpected=unexpected,
        euler_in_kernel=euler_ok,
        truncated=truncated,
        basis=kern,
    )


# ---------------------------------------------------------------------------
# randomized verification experiment


def sample_line(n: int, field, rng: random.Random) -> LineParam:
    while True:
        p = [field.random(rng) for _ in range(n + 1)]
        u = [field.random(rng) for _ in range(n + 1)]
        try:
            return LineParam.from_point_direction(p, u, field)
        except ValueError:
            continue


def sample_contact_form(L: LineParam, d: int, k: int, rng: random.Random,
                        table: _LineTable | None = None) -> HyperForm:
    """A random degree-d form with contact order exactly k along L at the
    marked point, smooth there.  Conditioning is linear: the first k
    restriction coefficients of each monomial give a k x N system and a
    random kernel vector is a random form with contact >= k; the s^k
    coefficients, one more row, decide whether the contact is exactly k.

    Both the rows and the smoothness test come from table, the _LineTable
    of L to s^k (built here if not given)."""
    f = L.field
    n = L.n
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k = {k}, d = {d}")
    _check_characteristic(d, f)
    if table is None:
        table = _LineTable(L, k)
    monos, rows = table.conditioning_rows(d)
    conditions, s_k = rows[:k], rows[k]
    for _ in range(SAMPLE_TRIES):
        c = random_kernel_vector(conditions, len(monos), f, rng)
        # conditions force s^0..s^(k-1) to vanish; contact is exactly k iff
        # the s^k coefficient of F along L, s_k . c, does not (so F != 0)
        if f.is_zero(mat_vec([s_k], c, f)[0]):
            continue
        F = HyperForm._of(n, d, {m: a for m, a in zip(monos, c) if a}, f)
        # smooth at p: the s^0 jets are B^T times the gradient at p, and B
        # is invertible, so they all vanish just when the gradient does
        if all(f.is_zero(g) for (g,) in table.partials(F, 1)):
            continue
        return F
    raise RuntimeError("failed to sample a form of exact contact order")


@dataclass
class TrialRecord:
    index: int
    n: int
    d: int
    k: int
    h0: int
    expected_h0: int
    matched: bool
    euler_ok: bool
    congruence_ok: bool
    routes_agree: bool


@dataclass
class ExperimentSummary:
    trials: int
    seed: int
    prime: int
    matched: int
    euler_failures: int
    congruence_failures: int
    route_disagreements: int
    records: list[TrialRecord]


def _trial_routes(F: HyperForm, L: LineParam, k: int, table: _LineTable):
    """The direct and truncated sections and the congruence report for a
    sampled (F, L) of exact contact k <= d: the direct jets off table and
    the partials of F_k through table.B, each formed once and read by both
    the section system of its route and the congruence."""
    direct = table.partials(F, k)
    truncated = _canonical_partials(_truncation(F, table.B, k), k)
    return (_sections(F, k, k, direct, False), _sections(F, k, k, truncated, True),
            _congruence(direct, truncated, k, F.field))


def contact_experiment(trials: int = 200, seed: int = 0, prime: int = 101) -> ExperimentSummary:
    """Randomized end-to-end run: sample (line, form) pairs of exact contact k
    and verify Euler membership, the congruence, agreement of the truncated
    and direct section systems, and the h0 = 2n-k+1 expectation.

    A trial computes each exact object once: one _LineTable (B, the
    conditioning rows and the direct route's jets, whose s^0 coefficients
    are the smoothness test), the contact order from the check that
    sampling makes (no contact_order call), and F_k with its partials;
    _trial_routes hands each list of jets to its section system and both
    to the congruence.  The direct and truncated routes stay separate
    computations, so routes_agree and congruence_ok still compare
    independent results.
    routes_agree compares the two kernel_basis lists as they are: each is
    canonical for its kernel (see the module docstring), so equal lists
    mean equal section spaces, not only equal dimensions.
    """
    gf = PrimeField(prime)
    # the trials draw d up to n + 2 = 7, which F_prime must carry
    _check_characteristic(7, gf)
    master = random.Random(seed)
    trial_seeds = [master.getrandbits(64) for _ in range(trials)]
    records = []
    for idx, ts in enumerate(trial_seeds):
        rng = random.Random(ts)
        n = rng.choice((3, 4, 5))
        d = rng.choice((n, n + 1, n + 2))
        k = rng.choice(tuple(range(1, min(4, d) + 1)))
        L = sample_line(n, gf, rng)
        table = _LineTable(L, k)
        F = sample_contact_form(L, d, k, rng, table)

        direct, trunc, cc = _trial_routes(F, L, k, table)
        records.append(TrialRecord(
            index=idx, n=n, d=d, k=k,
            h0=trunc.h0,
            expected_h0=trunc.expected_h0,
            matched=bool(trunc.matches and direct.matches),
            euler_ok=(direct.euler_in_kernel and trunc.euler_in_kernel),
            congruence_ok=cc.ok,
            routes_agree=(direct.basis == trunc.basis),
        ))
    return ExperimentSummary(
        trials=trials,
        seed=seed,
        prime=prime,
        matched=sum(r.matched for r in records),
        euler_failures=sum(not r.euler_ok for r in records),
        congruence_failures=sum(not r.congruence_ok for r in records),
        route_disagreements=sum(not r.routes_agree for r in records),
        records=records,
    )
