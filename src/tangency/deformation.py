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

Two independent routes are kept deliberately: the truncated route
differentiates an explicitly computed F_k (F.substitute(B, upto=k), then
regrouped, its partials by pullback_of_partial along the canonical line),
the direct route never forms F_k and instead takes the partials of
F' = F(B y) along the canonical line by the chain rule on the original
line: dF'/dy_i = sum_j B[j][i] dF/dx_j, which for B's columns p, u and
e_c is sum_j p_j dF/dx_j, sum_j u_j dF/dx_j and dF/dx_c along L.
Both expand polynomials in the integers of field.lifted, written once in
forms and pinned against a sympy oracle in the tests, and truncate
completes p alone with the same completion_matrix.  F_k is one
forms.expand of F through B, whose Horner walk multiplies each shared
leading power of a row of B once.  What the routes keep apart is the
coordinates and the order of differentiation and truncation, so their
agreement is still a check.

The direct route reads its jets off a _LineTable: the pullbacks along
L of degree-(d-1) monomials, each the product chain of forms._products
read at the packed keys of t^(deg-j) s^j.  A degree-d monomial is x_i
times one of them and a partial of F is a combination of them, so the
same table gives the conditioning rows of a sampled form and the jets of
F', each by integer multiply-adds with one lower per output coefficient
(% p, or one Fraction).  The table also builds B once, for both routes.
contact_experiment builds one table per trial, over every degree-(d-1)
monomial to s^k, for the sampling, its smoothness test (the s^0 jets)
and the direct route; log_sections and congruence_check build theirs
over only the monomials F's partials use.  The table keeps the per-index
lists of F's partials for the last F it was asked about, so the
smoothness test and the direct route read them off once.  Beyond the
table nothing of one (F, L, k) is computed twice: a _Jets holds the
table, the direct jets mod s^k and F_k with its partials, and
log_sections and congruence_check are thin wrappers that build one and
hand it to the shared section and congruence code; contact_experiment
takes the contact order from the exact check sample_contact_form
already makes.

The routes agree when their section systems have the same kernel, and
that is equality of the two kernel_basis lists: the basis is read off the
reduced row echelon form of the system, and the kernel alone fixes that
form (its rows span the vectors orthogonal to the kernel), so equal
kernels give equal lists and equal lists span equal kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
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
    _products,
    monomials,
    pullback_of_partial,
    s_valuation,
)

CONTAINED = "contained"
SAMPLE_TRIES = 400   # kernel vectors sample_contact_form draws before it gives up


def contact_order(F: HyperForm, L: LineParam):
    """s-adic valuation of F along L at the marked point; "contained" if F|_L = 0."""
    if F.n != L.n:
        raise ValueError("form and line live in different projective spaces")
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


def canonical_line(n: int, field) -> LineParam:
    rows = [(field.zero, field.one), (field.one, field.zero)]
    rows += [(field.zero, field.zero)] * (n - 1)
    return LineParam(rows, field)


def _grouped_truncation(Fp: HyperForm, k: int) -> HyperForm:
    # Fp is F in coordinates where the marked point is e0, already cut to
    # order <= k there; homogenize its graded pieces to degree k
    out: dict[tuple[int, ...], object] = {}
    for e, c in Fp.terms.items():
        j = Fp.d - e[0]
        if j == 0:
            raise ValueError("form does not vanish at the marked point")
        out[(k - j,) + e[1:]] = c
    return HyperForm(Fp.n, k, out, Fp.field)


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
    return Truncation(_grouped_truncation(F.substitute(B, upto=k), k), B, k)


def _divided(e: tuple, j: int) -> tuple:
    # the exponent vector of x^e / x_j
    return e[:j] + (e[j] - 1,) + e[j + 1:]


class _LineTable:
    """The pullbacks along L(s, t) = s*u + t*p of some degree-deg monomials,
    to s^top, in the integers of L.field.lifted: rows[m][j] is the integer
    whose lower at (deg - j, j) is the s^j t^(deg-j) coefficient of
    m(t*p + s*u), with p and u lifted once (over QQ their denominators
    cleared, over F_p the rows unreduced).  B = completion_matrix([p, u])
    is the line's basis, built once for both routes.

    A degree-(deg+1) monomial is x_i times a row's monomial and so pulls
    back to (p_i t + u_i s) times that row, and a partial dF/dx_j of a
    degree-(deg+1) form is a combination of rows: the conditioning rows of
    a sampled form and the direct route's jets are integer multiply-adds
    on the table, each output coefficient lowered to the field once.
    """

    def __init__(self, L: LineParam, monos, deg: int, top: int):
        self.field, self.cols = L.field, [L.marked_point(), L.direction()]
        self.B = completion_matrix(self.cols, self.field)
        # column i >= 2 of B is the standard vector e_c, c its nonzero row
        self.standard = [next(c for c, row in enumerate(self.B) if row[i])
                         for i in range(2, len(self.B))]
        _, (self.p, self.u), self.lower = self.field.lifted({}, self.cols)
        self.deg, self.top = deg, top
        # each monomial's product chain, read at the packed keys of
        # t^(deg-j) s^j, zero past s^deg
        base, _, _, chain = _products(deg, [self.p, self.u], top)
        keys = [deg - j + j * base for j in range(min(deg, top) + 1)]
        pad = [0] * (top + 1 - len(keys))
        self.rows = {}
        for m in monos:
            got = chain(m, 1, 0, {})
            self.rows[m] = [got.get(key, 0) for key in keys] + pad
        self._parents: tuple | None = None   # (terms, _parent_lists(terms)) of the last F

    def conditioning_rows(self):
        """The degree-(deg+1) monomials and the (top+1) x N matrix whose
        column e holds the s^0..s^top coefficients of e along L."""
        d, top, lower = self.deg + 1, self.top, self.lower
        monos = monomials(len(self.p) - 1, d)
        out = [[] for _ in range(top + 1)]
        for e in monos:
            i = next(i for i, ei in enumerate(e) if ei)
            r = self.rows[_divided(e, i)]
            pi, ui = self.p[i], self.u[i]
            out[0].append(lower((d, 0), pi * r[0]))
            for j in range(1, top + 1):
                out[j].append(lower((d - j, j), pi * r[j] + ui * r[j - 1]))
        return monos, out

    def partials(self, terms: dict, width: int) -> list[list]:
        """For each column i of B, the first width s-coefficients of
        dF'/dy_i along the canonical line, F' = F(B y) and F the
        degree-(deg+1) form with these terms: by the chain rule, sum_j p_j
        dF/dx_j, sum_j u_j dF/dx_j and dF/dx_c for each column e_c, along
        L.  The partials' integer numerators share one lower per power of
        s, and their dot products with p and u lower with one more power
        of p or of u.

        The table keeps the parent lists of the last terms dict it was
        given, so the smoothness test of a sampled F and the direct route
        on the same F build them once."""
        if self._parents is None or self._parents[0] is not terms:
            self._parents = (terms, self._parent_lists(terms))
        lower, cols = self._parents[1]
        deg = self.deg
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
        cols = [([], []) for _ in self.p]
        for e, c in ints.items():
            for j, ej in enumerate(e):
                if ej:
                    cs, rs = cols[j]
                    cs.append(c * ej)
                    rs.append(self.rows[_divided(e, j)])
        return lower, cols


def _partials_table(F: HyperForm, L: LineParam, width: int) -> _LineTable:
    # the table over only the monomials F's partials use, to s^(width-1)
    support = {_divided(e, j) for e in F.terms for j, ej in enumerate(e) if ej}
    return _LineTable(L, list(support), F.d - 1, width - 1)


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


class _Jets:
    """The jets of F along L mod s^k that both routes of one (F, L, k) read,
    each computed on first use and then kept.

    chain is the direct route (the partials of F(B y) read off the
    _LineTable of L, B the table's basis); fk and fk_partials are the
    truncated route (F_k, F substituted through the same B, and its
    partials along the canonical line).  Neither is derived from the
    other, so comparing them stays a check.
    """

    def __init__(self, F: HyperForm, k: int, table: _LineTable):
        self.F, self.k, self.table = F, k, table

    @cached_property
    def chain(self) -> list[list]:
        return self.table.partials(self.F.terms, min(self.F.d, self.k))

    @cached_property
    def fk(self) -> HyperForm:
        return _grouped_truncation(self.F.substitute(self.table.B, upto=self.k), self.k)

    @cached_property
    def fk_partials(self) -> list[list]:
        return _canonical_partials(self.fk, self.k)


def _canonical_partials(fk: HyperForm, k: int) -> list[list]:
    Lc = canonical_line(fk.n, fk.field)
    return [pullback_of_partial(fk, i, Lc, upto=k) for i in range(fk.n + 1)]


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
    return _congruence(_Jets(F, k, _partials_table(F, L, k)), corrupt)


def _corrupted_partials(fk: HyperForm, k: int) -> list[list]:
    # the fault congruence_check injects: F_k + y0^(k-1) y1, whose
    # y1-partial along the canonical line gains 1 at s^0
    f = fk.field
    bump = (k - 1, 1) + (0,) * (fk.n - 1)
    terms = dict(fk.terms)
    terms[bump] = f.add(terms.get(bump, f.zero), f.one)
    return _canonical_partials(HyperForm(fk.n, fk.d, terms, f), k)


def _congruence(jets: _Jets, corrupt: bool = False) -> CongruenceReport:
    k = jets.k
    f = jets.F.field
    rhs = _corrupted_partials(jets.fk, k) if corrupt else jets.fk_partials
    # multiplying by a0^(d-k) = t^(d-k) shifts no s-exponents, so the
    # comparison mod s^k is coefficientwise on the first k entries
    per = [all(f.is_zero(f.sub(a, b)) for a, b in zip(lhs, rh))
           for lhs, rh in zip(jets.chain, rhs)]
    return CongruenceReport(k, per, all(per), corrupt)


@dataclass
class DeformationSpace:
    n: int
    k: int
    contact: object            # int or "contained"
    raw_dim: int
    h0: int
    expected_h0: int | None
    matches: bool | None
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
    identity sum b_i dF'/dy_i(a) = 0 (all s-degrees), and no expected
    h0 is attached.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    co = _require_contact(F, L, k)
    table = _partials_table(F, L, F.d if co == CONTAINED else min(F.d, k))
    return _sections(_Jets(F, k, table), co, use_truncation)


def _sections(jets: _Jets, co, use_truncation: bool) -> DeformationSpace:
    F, k = jets.F, jets.k
    f = F.field
    expected: int | None = 2 * F.n - k + 1
    used_truncation = False
    if co == CONTAINED:
        rows = _sections_matrix(jets.table.partials(F.terms, F.d), F.d + 1, f)
        expected = None
    elif k == 0:
        rows = []
    elif use_truncation:
        rows = _sections_matrix(jets.fk_partials, k, f)
        used_truncation = True
    else:
        rows = _sections_matrix(jets.chain, k, f)

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
        euler_in_kernel=euler_ok,
        truncated=used_truncation,
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
    of the degree-(d-1) monomials along L to s^k (built here if not
    given)."""
    f = L.field
    n = L.n
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k = {k}, d = {d}")
    if table is None:
        table = _LineTable(L, monomials(n, d - 1), d - 1, k)
    monos, rows = table.conditioning_rows()
    conditions, s_k = rows[:k], rows[k]
    for _ in range(SAMPLE_TRIES):
        c = random_kernel_vector(conditions, len(monos), f, rng)
        # conditions force s^0..s^(k-1) to vanish; contact is exactly k iff
        # the s^k coefficient of F along L, s_k . c, does not (so F != 0)
        if f.is_zero(mat_vec([s_k], c, f)[0]):
            continue
        F = HyperForm(n, d, dict(zip(monos, c)), f)
        # smooth at p: the s^0 jets are B^T times the gradient at p, and B
        # is invertible, so they all vanish just when the gradient does
        if all(f.is_zero(g) for (g,) in table.partials(F.terms, 1)):
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

    @property
    def match_rate(self) -> float:
        return self.matched / self.trials if self.trials else 0.0


def _trial_routes(F: HyperForm, L: LineParam, k: int, table: _LineTable):
    """The direct and truncated sections and the congruence report for a
    sampled (F, L) of exact contact k, from one shared _Jets on table."""
    jets = _Jets(F, k, table)
    return _sections(jets, k, False), _sections(jets, k, True), _congruence(jets)


def contact_experiment(trials: int = 200, seed: int = 0, prime: int = 101) -> ExperimentSummary:
    """Randomized end-to-end run: sample (line, form) pairs of exact contact k
    and verify Euler membership, the congruence, agreement of the truncated
    and direct section systems, and the h0 = 2n-k+1 expectation.

    A trial computes each exact object once: one _LineTable (B, the
    conditioning rows and the direct route's jets, whose s^0 coefficients
    are the smoothness test), the contact order from the check that
    sampling makes (no contact_order call), and one _Jets (the direct jets
    mod s^k, F_k and its partials) that both section systems and the
    congruence read.  The direct and truncated routes stay separate
    computations, so routes_agree and congruence_ok still compare
    independent results.
    routes_agree compares the two kernel_basis lists as they are: each is
    canonical for its kernel (see the module docstring), so equal lists
    mean equal section spaces, not only equal dimensions.
    """
    gf = PrimeField(prime)
    master = random.Random(seed)
    trial_seeds = [master.getrandbits(64) for _ in range(trials)]
    records = []
    for idx, ts in enumerate(trial_seeds):
        rng = random.Random(ts)
        n = rng.choice((3, 4, 5))
        d = rng.choice((n, n + 1, n + 2))
        k = rng.choice(tuple(range(1, min(4, d) + 1)))
        L = sample_line(n, gf, rng)
        table = _LineTable(L, monomials(n, d - 1), d - 1, k)
        F = sample_contact_form(L, d, k, rng, table)

        direct, trunc, cc = _trial_routes(F, L, k, table)
        expected = 2 * n - k + 1
        records.append(TrialRecord(
            index=idx, n=n, d=d, k=k,
            h0=trunc.h0,
            expected_h0=expected,
            matched=(trunc.h0 == expected and direct.h0 == expected),
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
