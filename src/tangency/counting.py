"""Exact counts of contact pairs (point, line) over prime fields.

V_k(X) is the locus of pairs (p, l) with p in X and l a line meeting X at
p to order >= k.  Writing F(p + u*v) = sum_m G_m(p, v) u^m with G_m the
divided (factorial-free) directional derivatives, contact >= k means
G_0 = ... = G_{k-1} = 0; q > d keeps that expansion faithful.

The counter enumerates p over X(F_q) (canonical representatives: first
nonzero coordinate 1) and the lines through p as directions v with
v_lead = 0 at p's leading index, a complement of <p>.  G_1 = grad F(p).v
is solved, not tested: a point's chart is (lead, pivot), the pivot being
the first other coordinate where the gradient is nonzero, and its tangent
directions are v_free = r, v_pivot = w.r with w = -grad_free / grad_pivot
and r running over the grid projective_reps(n-2, q).  At a singular point
every v with v_lead = 0 is tangent, and r runs over projective_reps(n-1, q).

The points of P^n are evaluated per axis, one affine cell at a time: on
the cell x_lead = 1, x_c = 0 for c < lead, F is a polynomial in the free
coordinates, and its coefficients form a tensor with one axis per
coordinate, indexed by the exponents of it that occur.  Contracting an
axis against the powers x^e of a coordinate's values evaluates it there:
the trailing axes over all of F_q while the result stays near _TABLE
entries, then the leading ones one value at a time, the last of them a
slice of values at a time.  Each axis but a cell's first is walked once
per value of the axes before it, so its powers over all of F_q are made
once per cell, a table of q rows where the cell holds at least q^2
values.  The values come out in base-q order, the order of
projective_reps, so a zero's index decodes to its point, and no array of
values holds much more than _TABLE of them.

At the points of X, one evaluator, _Derivatives, gives the gradient
(charts, singular points) and the divided derivatives d^alpha F / alpha!
of orders 2..k-1.  One pass over F's terms gives, per order j, a matrix
over the monomials of degree d-j that occur, D_alpha(c x^e) = c prod_i
C(e_i, alpha_i) x^(e - alpha).  A block of points holds as many as keep one
table of those monomials near _TABLE entries; each matrix multiplies that
table.

The higher orders are pulled back per kind of point, smooth or singular:
a block's points, sorted by chart, fall into runs sharing a chart, and
the runs of one kind are pulled back together, each run's jets gathered
through its chart's row of the kind's jet-row tables.  G_j(p, v) =
sum_a (w.r)^a H_a(r), H_a gathering the d^alpha F / alpha! with
alpha_pivot = a, is built by Horner's rule, P <- H_a + (w.r) P,
vectorized over the kind's runs (_Kind.pullback).  A direction survives
when every pulled-back form vanishes at it, which one contraction per
order and tile decides: (grid monomials, R x C(nfree-1+j, j)) times
(coefficients, C(nfree-1+j, j) x points).  Everything that depends only
on the form, k and q (the derivative matrices, the kinds' tables of jet
rows, the grid monomials) is built once per count_vk call; the only
inverses taken are those of the pivot gradients the pullback divides by.

Exactness of a count.  Every stage sums products of two residues in
[0, q), each stage in one dtype of the ladder float32 (precision p = 24
bits), float64 (p = 53), int64, which stage_dtype picks from a bound on
the stage's largest sum:
- a monomial step, x^e = x^(e - e_i) x_i: (q-1)^2;
- a cell axis: at most d+1 products, (d+1) (q-1)^2;
- a derivative of order j: the width of its matrix (the monomials of
  degree d-j that occur) times (q-1)^2;
- a Horner step: at most nfree products plus one residue, nfree (q-1)^2
  + q - 1;
- the direction test: exactness_bound(n, d, k, q).
A float stage forms each sum with one BLAS GEMM (np.matmul) or one
elementwise product and add.  Its operands are integers, so every
product, and every partial sum in whatever order, blocking or fused
multiply-add the BLAS kernel uses, is an integer no larger in absolute
value than the bound: below 2^p, each is exact in the dtype.  It then
reduces each sum x mod q by r = x - q rint(x fl(1/q)) and one step, r + q
where r < 0 (_reduce).  With u = 2^-p, x fl(1/q) lies within |x| (2u +
u^2) / q < 2/q of x/q, so |r| < q/2 + 2 < q for q >= 5; at q = 2 the
product is exact, and at q = 3 fl(1/3) rounds by a relative 2^-(p+1),
which keeps |r| <= 2.  The product q rint(x fl(1/q)) is x - r, which can
exceed |x| by |r| < q, so it is exact while |x| + q < 2^p: a stage runs
in float32 when bound + q < 2^24, in float64 when bound + q < 2^53, and
otherwise in int64, where it reduces (np.remainder) after every
(2^63 - 1) // (q-1)^2 products (_span), exact for any q with (q-1)^2 <
2^63.  The int64 band is the same code: only _reduce, _divisible and
the span of a sum depend on the dtype.  A cell's last axis is not
reduced at all, only tested for divisibility (_divisible), like the
direction test's sums.

The direction test never reduces, so it needs no headroom: count_vk
refuses, before it enumerates anything, a q for which exactness_bound
reaches 2^53, and the test runs in float32 when the bound is below 2^24
and in float64 otherwise.  The bound is C(nfree-1+j, j) (q-1)^2 for the
orders j = 2..min(k-1, d), widest at a singular chart (nfree = n); 0
when there is no such order (k <= 2).  The pullback runs in the same
dtype, so the coefficients it hands over need no conversion.  That dtype
holds a Horner step: with nfree <= n-1, nfree (q-1)^2 + q - 1 + q < n
(q-1)^2 <= C(n+1, 2) (q-1)^2, the order-2 sum's bound, for every q >= 5,
and at q <= 3 every such sum is far below 2^24 for any n the work budget
admits.  Each sum V of the test is an integer exact in the dtype, and
rint(V * fl(1/q)) * q == V, with 1/q correctly rounded in the dtype, is
an exact divisibility test.  If q does not divide V, no integer times q
equals V.  If q | V and V/q < 2^(p-2), then fl(1/q) and the product each
round by a relative 2^-p at most, so V * fl(1/q) lies within 1/2 of V/q,
rint returns V/q, and V/q times q is V exactly.  V < 2^p <= q 2^(p-2) for
every q >= 4; at q = 2, 1/q is exact, and at q = 3 it rounds by a
relative 2^-(p+1), which keeps the product within 1/2 of V/3 for every V
< 2^p.

The pool is the only parallelism: every GEMM must run on the calling
thread, or each forked worker starts BLAS threads of its own on top of
the other workers.  OpenBLAS decides that from the shape of the call, so
the tiles are sized for it.  In forked workers on a 2-core Xeon (OpenBLAS
0.3.31), a dgemm stayed on one thread up to about 1e6 multiply-adds (111
x 256 x 35 did, 112 x 256 x 35 started a second thread), and sgemm and
dgemm both stayed on one at 2^19 and started a second at 2^20; a
one-point or one-row tile is a GEMV, which stayed on one thread below
about 4.6e5 matrix entries, and a dot product up to 10^4 terms.  _gemm
makes every two-dimensional product, the jets' and the direction test's,
in tiles of at most _GEMM_WORK multiply-adds and _GEMV_ENTRIES entries
of the left factor, well inside both limits; the divisibility test runs
on larger blocks, each filled by several tiles.

Counts are exact integers; the worker count (capped by the CPUs and by the
size of the count) only changes the chunking, never the sum.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .fields import PrimeField, is_prime, magnitude
from .forms import HyperForm, monomials


def pp_count(m: int, q: int) -> int:
    """Number of points of P^m(F_q)."""
    if m < 0:
        return 0
    return (q ** (m + 1) - 1) // (q - 1)


def _check_enumerable(m: int, q: int) -> None:
    if pp_count(m, q) * (m + 1) * 8 >= _INT64:
        raise ValueError(f"P^{m}(F_{q}) has too many points to enumerate")


def _decode(indices: list[np.ndarray], q: int) -> np.ndarray:
    """The points of P^m(F_q), m = len(indices) - 1, whose free coordinates
    have the base-q indices indices[lead] in the cell x_lead = 1 (the last
    one counting fastest), cell after cell."""
    m = len(indices) - 1
    rows = np.zeros((sum(map(len, indices)), m + 1), dtype=np.int64)
    at = 0
    for lead, index in enumerate(indices):
        cell = rows[at:at + len(index)]
        cell[:, lead] = 1
        for c in range(m, lead, -1):
            quotient = index // q
            cell[:, c] = index - quotient * q
            index = quotient
        at += len(cell)
    return rows


def projective_reps(m: int, q: int) -> np.ndarray:
    """Canonical representatives of P^m(F_q): first nonzero coordinate is 1.

    One affine cell per leading index, its free coordinates counting up in
    base q; the union covers every point exactly once, which is what makes
    the pair counts exact.  Refuses a P^m(F_q) too large for one int64
    array of its rows, which is what hypersurface_points returns for F = 0.
    """
    if m < 0:
        return np.zeros((0, 0), dtype=np.int64)
    _check_enumerable(m, q)
    return _decode([np.arange(q ** (m - lead), dtype=np.int64) for lead in range(m + 1)], q)


def _prime_of(F: HyperForm) -> int:
    if not isinstance(F.field, PrimeField):
        raise ValueError("finite-field counting needs a form over a prime field")
    return F.field.p


def hypersurface_points(F: HyperForm) -> np.ndarray:
    """All canonical representatives of X(F_q), X = {F = 0}, in the order of
    projective_reps: each affine cell's values come out in base-q order, so
    its zeros are decoded from their indices."""
    q, n = _prime_of(F), F.n
    _check_enumerable(n, q)
    found = []
    for lead in range(n + 1):
        A, exps = _cell(F, lead, q)
        # the powers of every axis walked more than once (module docstring)
        tables = [None] + [_powers(np.arange(q, dtype=A.dtype), E, q) for E in exps[1:]]
        found.append(np.concatenate(list(_cell_zeros(A[..., None], exps, tables, q, 0))))
    return _decode(found, q)


def _cell(F: HyperForm, lead: int, q: int) -> tuple[np.ndarray, list[list[int]]]:
    """F on the cell x_lead = 1, x_c = 0 for c < lead: its coefficients mod q
    as a tensor with one axis per free coordinate x_(lead+1)..x_n, indexed
    by the exponents of that coordinate that occur (exps, ascending), in
    the dtype of a cell axis, whose sums add at most d+1 products."""
    dtype = stage_dtype((F.d + 1) * (q - 1) ** 2, q)
    terms = [(e[lead + 1:], int(c) % q) for e, c in F.terms.items() if not any(e[:lead])]
    exps = [sorted({e[i] for e, _ in terms} or {0}) for i in range(F.n - lead)]
    A = np.zeros([len(E) for E in exps], dtype=dtype)
    for e, c in terms:
        A[tuple(E.index(x) for E, x in zip(exps, e))] = c
    return A, exps


def _cell_zeros(A: np.ndarray, exps: list[list[int]], tables: list, q: int, base: int):
    """Base-q indices, plus `base`, of the zeros of sum_e A[e, y] prod_i x_i^e_i
    over x in F_q^len(exps), the first coordinate slowest, and over the
    trailing value axis y of A.  tables[i] holds the powers x^e, e in
    exps[i], of all of F_q (_powers), or is None: then they are made as
    they are needed.

    The last exponent axis is contracted over all of F_q while the result
    stays within _TABLE entries.  Past that the first one is walked one
    value at a time, or a slice of values at a time when it is the only one
    left, so no array grows much beyond _TABLE entries.  The contraction of
    the last axis left is not reduced, only tested for divisibility by q.
    """
    exps, tables = list(exps), list(tables)
    while exps and A.size // len(exps[-1]) * q <= _TABLE:
        E, powers = exps.pop(), tables.pop()
        if powers is None:
            powers = _powers(np.arange(q, dtype=A.dtype), E, q)
        A = _axis(A, len(exps), powers, q, reduce=bool(exps))
        A = A.reshape(A.shape[:-2] + (-1,))
    if not exps:
        yield base + np.flatnonzero(_divisible(A, q, np.empty_like(A),
                                               np.empty(A.shape, dtype=bool)))
        return
    stride = q ** (len(exps) - 1) * A.shape[-1]
    step = max(1, _TABLE // (stride * len(exps[0]))) if len(exps) == 1 else 1
    for lo in range(0, q, step):
        hi = min(lo + step, q)
        if tables[0] is None:
            powers = _powers(np.arange(lo, hi, dtype=A.dtype), exps[0], q)
        else:
            powers = tables[0][lo:hi]
        B = _axis(A, 0, powers, q, reduce=len(exps) > 1)
        yield from _cell_zeros(B.reshape((-1,) + B.shape[2:]), exps[1:], tables[1:], q,
                               base + lo * stride)


def _axis(A: np.ndarray, axis: int, powers: np.ndarray, q: int, reduce: bool = True) -> np.ndarray:
    """sum_e A[..., e, ...] x^e along `axis`, mod q unless `reduce` is False
    (see _dot), for the residues x whose powers, one row each over that
    axis's exponents, are given: they take the axis's place."""
    shape = A.shape
    out = np.empty((math.prod(shape[:axis]), len(powers), math.prod(shape[axis + 1:])),
                   dtype=A.dtype)
    _dot(powers, A.reshape(len(out), powers.shape[1], -1), q, out, reduce)
    return out.reshape(shape[:axis] + (len(powers),) + shape[axis + 1:])


def _powers(x: np.ndarray, exps: list[int], q: int) -> np.ndarray:
    """x^e mod q for e in exps (ascending), one column each, in x's dtype,
    built by repeated multiplication."""
    out = np.empty((len(x), len(exps)), dtype=x.dtype)
    power, done = np.ones_like(x), 0
    for j, e in enumerate(exps):
        for _ in range(e - done):
            power *= x
            _reduce(power, q)
        out[:, j], done = power, e
    return out


def stage_dtype(bound: int, q: int = 0) -> np.dtype:
    """The dtype a counter stage runs in, from a bound on its largest sum
    (the module docstring lists each stage's): float32 when bound + q <
    2^24, float64 when bound + q < 2^53, and int64 otherwise.

    q is the modulus the stage reduces its sums by: _reduce's q rint(x
    fl(1/q)) can exceed |x| by up to q.  The direction test, which never
    reduces, passes none.  An int64 stage refuses a q for which not even
    one product of two residues fits (_span).
    """
    top = bound + q
    if top < _EXACT32:
        return np.dtype(np.float32)
    if top < _EXACT:
        return np.dtype(np.float64)
    _span(q)
    return np.dtype(np.int64)


def _span(q: int) -> int:
    """Products of two residues mod q an int64 sum may add, staying below
    2^63; refuses a q for which not even one fits."""
    if (q - 1) ** 2 >= _INT64:
        raise ValueError(f"q = {q} is too large for int64 evaluation")
    return (_INT64 - 1) // (q - 1) ** 2


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, and x, for integers x exact in x's dtype: in a
    float dtype of precision p, where |x| + q < 2^p, x - q rint(x fl(1/q))
    and one step, + q where that is negative (the module docstring says
    why it is exact); np.remainder in int64."""
    if x.dtype == np.int64:
        return np.remainder(x, q, out=x)
    t = x * (x.dtype.type(1) / x.dtype.type(q))
    np.rint(t, out=t)
    t *= q
    x -= t
    x += np.less(x, 0) * x.dtype.type(q)
    return x


def _dot(M: np.ndarray, X: np.ndarray, q: int, out: np.ndarray, reduce: bool = True) -> None:
    """out = M @ X mod q, for residues M (r, e) and X (e, m) or a stack X
    (a, e, y), out (r, m) or (a, r, y), all in one dtype.

    A float dtype holds the whole sum (stage_dtype picked it for that), so
    one product forms it; an int64 sum is reduced after every _span(q)
    columns of M.  reduce=False leaves the last reduction out, for a sum
    that is only tested for divisibility (_divisible).
    """
    span = _span(q) if out.dtype == np.int64 else max(1, M.shape[1])
    matmul = _gemm if X.ndim == 2 else np.matmul
    matmul(M[:, :span], X[..., :span, :], out=out)
    for lo in range(span, M.shape[1], span):
        _reduce(out, q)
        part = np.empty_like(out)
        matmul(M[:, lo:lo + span], X[..., lo:lo + span, :], out=part)
        out += _reduce(part, q)
    if reduce:
        _reduce(out, q)


def _gemm(M: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
    """out = M @ X for M (r, e) and X (e, m), in GEMMs that OpenBLAS runs on
    the calling thread (see the module docstring): each of at most
    _GEMM_WORK multiply-adds and _GEMV_ENTRIES entries of M, over as many
    columns of X as that allows."""
    width = max(1, M.shape[1])
    cols = max(1, min(X.shape[1], _GEMM_WORK // width))
    step = max(1, min(_GEMV_ENTRIES // width, _GEMM_WORK // (cols * width)))
    for r in range(0, len(M), step):
        for c in range(0, X.shape[1], cols):
            np.matmul(M[r:r + step], X[:, c:c + cols], out=out[r:r + step, c:c + cols])


def rational_singular_points(F: HyperForm) -> list[tuple[int, ...]]:
    """The F_q-rational points of X where the gradient vanishes.

    This is the smoothness pre-check for the closed-form count identities;
    singular points over extensions stay invisible to it.
    """
    pts = hypersurface_points(F)
    singular = ~_Derivatives(F, [1])(pts)[0].any(axis=0)
    return [tuple(int(x) for x in row) for row in pts[singular]]


# The ladder of stage_dtype: float32's integers are exact below _EXACT32,
# float64's below _EXACT; the direction test must stay below _EXACT.
_EXACT = 1 << 53
_EXACT32 = 1 << 24

# One test block: at most _BLOCK grid rows x points (256 KB of float32,
# 512 KB of float64), at most _TILE_POINTS of them points; small enough for
# the block's buffers to stay in cache.
_BLOCK = 1 << 16
_TILE_POINTS = 256

# One tile of _gemm: at most _GEMM_WORK multiply-adds and _GEMV_ENTRIES
# entries of the left factor, so that OpenBLAS runs it on the calling
# thread (see the module docstring).
_GEMM_WORK = 1 << 19
_GEMV_ENTRIES = 1 << 13

# Contraction multiply-adds that pay for one more pool worker: 14-40 ms of
# a float32 count on one core of a 2-core Xeon (30-55 ms in float64),
# against 10-25 ms to fork, feed and close a pool.  There a second worker
# lost at 2^27.8 multiply-adds and won from 2^28.55 on in float32 (from
# 2^26.7 on in float64); it starts at 2^28.
_WORK_PER_WORKER = 1 << 27

# The most work count_vk starts, in steps: (d+1) |P^n(F_q)| to enumerate X,
# then the contraction's multiply-adds.  Criterion 9's largest count, the
# Fermat quintic at q = 13 and k = 5, takes about 4.8e9 of the latter.
_BUDGET = 1 << 36

# The most bytes of point arrays count_vk allocates: _COPIES int64 arrays of
# (n+1) coordinates per point of X at once (the points, their gradient for
# the chart keys or their sorted copy, and the per-point keys, order and
# indices together), with |X(F_q)| priced by Serre's bound before X is
# enumerated.
_MEMORY = 1 << 31
_COPIES = 3

# Points whose jets are evaluated and pulled back at once, which bounds the
# memory of the per-point work.
_POINTS = 2048

# An int64 stage's sums must stay below this; numpy wraps silently.
_INT64 = 1 << 63

# Entries of one block's monomial table (1 MB of int64): the evaluator takes
# as many points at once as keep its table this size, so it stays in cache.
# hypersurface_points keeps each array of a cell's values about this size.
_TABLE = 1 << 17


def exactness_bound(n: int, d: int, k: int, q: int) -> int:
    """A bound on every float sum of count_vk's direction test over F_q.

    The widest is one GEMM row at a singular chart: the C(n-1+j, j)
    monomials of degree j in its n variables, times residues, at most
    C(n-1+j, j) (q-1)^2, over the orders j = 2..min(k-1, d) the test
    takes; 0 when there are none (k <= 2).  stage_dtype(bound) is the
    direction test's dtype: float32 when the bound is below 2^24 and
    float64 otherwise.
    """
    terms = max((comb(n - 1 + j, j) for j in range(2, min(k - 1, d) + 1)), default=0)
    return terms * (q - 1) ** 2


def check_exact(n: int, d: int, k: int, q: int) -> None:
    """Refuse a count whose sums could leave the exactly representable range."""
    bound = exactness_bound(n, d, k, q)
    if bound >= _EXACT:
        raise ValueError(
            f"q = {q} is too large for exact counting at n = {n}, d = {d}, "
            f"k = {k}: sums reach {bound} >= 2^53"
        )


def _check_budget(work: int, what: str) -> None:
    """Refuse a count that would take more than _BUDGET steps."""
    if work > _BUDGET:
        raise ValueError(f"{what} would take about {magnitude(work)} steps, over the work "
                         f"budget of 2^{_BUDGET.bit_length() - 1} for one count")


def point_bound(F: HyperForm) -> int:
    """An upper bound on |X(F_q)|, read off n, d and q alone.

    Serre's bound d q^(n-1) + |P^(n-2)| (Serre, Lettre a M. Tsfasman, 1991)
    holds for F != 0 of degree d <= q + 1, which q > d gives; a form with
    no terms vanishes on all of P^n.
    """
    q, n = _prime_of(F), F.n
    if not F.terms:
        return pp_count(n, q)
    return F.d * q ** (n - 1) + pp_count(n - 2, q)


def _check_memory(F: HyperForm) -> None:
    """Refuse a count whose point arrays could take more than _MEMORY bytes."""
    size = point_bound(F) * (F.n + 1) * 8 * _COPIES
    if size > _MEMORY:
        raise ValueError(f"the points of X(F_{F.field.p}) in P^{F.n} could take about "
                         f"{magnitude(size)} bytes, over the memory budget of "
                         f"2^{_MEMORY.bit_length() - 1} bytes for one count")


def direction_work(keys: np.ndarray, n: int, q: int, orders: list[int]) -> int:
    """Multiply-adds of the direction test at points with these chart keys:
    |P^(n-2)| directions by C(n-2+j, j) monomials of each order j at a smooth
    point, |P^(n-1)| by C(n-1+j, j) at a singular one (pivot == lead)."""
    lead, pivot = np.divmod(keys, n + 1)
    singular = int(np.count_nonzero(lead == pivot))
    return sum(points * pp_count(m - 1, q) * sum(comb(m - 1 + j, j) for j in orders)
               for points, m in ((len(keys) - singular, n - 1), (singular, n)))


def worker_count(requested: int, work: int) -> int:
    """Workers count_vk starts for `work` multiply-adds of contraction.

    At least 1; at most the CPUs this process may run on; and one per
    _WORK_PER_WORKER, since below that a forked pool costs more than it
    saves.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus, work // _WORK_PER_WORKER))


def _exps(nvars: int, t: int) -> list[tuple[int, ...]]:
    """Exponent vectors of degree t in nvars variables, in the forms order."""
    if nvars == 0:
        return [()] if t == 0 else []
    return monomials(nvars - 1, t)


class _Monomials:
    """The monomials `needed` (of degree <= top in nvars variables) and every
    one they reach by dividing by their first variable.

    With that closure each monomial of degree t >= 1 is one of degree t-1
    times its first variable, so `values` builds a whole degree with one
    gather and one product.  exps[t] lists degree t in the forms order.
    """

    def __init__(self, nvars: int, top: int, needed):
        first = {(0,) * nvars: None}  # monomial -> (first variable, quotient)
        for e in needed:
            while e not in first:
                i = next(i for i, x in enumerate(e) if x)
                first[e] = i, e[:i] + (e[i] - 1,) + e[i + 1:]
                e = first[e][1]
        self.exps = [[] for _ in range(top + 1)]
        for e in sorted(first, reverse=True):
            self.exps[sum(e)].append(e)
        self.index = [{e: i for i, e in enumerate(es)} for es in self.exps]
        self.steps = [(np.array([index[first[e][1]] for e in es], dtype=np.intp),
                       np.array([first[e][0] for e in es], dtype=np.intp))
                      for index, es in zip(self.index, self.exps[1:])]

    def values(self, x: np.ndarray, q: int, top: int | None = None) -> list[np.ndarray]:
        """[x^e mod q for e of degree t, as rows] for t = 0..top, in x's
        dtype; x is (nvars, m)."""
        out = [np.ones((1, x.shape[1]), dtype=x.dtype)]
        for parent, var in self.steps[:top]:
            t = out[-1][parent]
            t *= x[var]
            out.append(_reduce(t, q))
        return out


class _Derivatives:
    """F's divided derivatives d^alpha F / alpha! of the given orders |alpha|
    at points (m, n+1), mod q.  keys[i] gives the alpha of each row of order
    orders[i], as one integer in the radix d+1 (alpha_0 the most
    significant digit): F for order 0, the whole gradient in coordinate
    order for order 1, the alphas whose derivative is not zero above that,
    ascending, so that their keys ascend too.  They are evaluated in the
    dtype of the widest matrix's sums.
    """

    def __init__(self, F: HyperForm, orders: list[int]):
        q, n, d = _prime_of(F), F.n, F.d
        self.q, self.d, self.orders = q, d, orders
        # every pair (term e, alpha <= e) with no alpha_i above the top order,
        # alpha counting in the mixed radix min(e, top) + 1
        E = np.array(list(F.terms), dtype=np.int64).reshape(-1, n + 1)
        radix = np.minimum(E, max(orders)) + 1
        sizes = np.prod(radix, axis=1)
        term = np.repeat(np.arange(len(E)), sizes)
        digit = np.arange(len(term)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        alpha = np.empty((len(term), n + 1), dtype=np.int64)
        for i in range(n, -1, -1):
            digit, alpha[:, i] = np.divmod(digit, radix[term, i])
        binom = np.array([[comb(e, a) % q for a in range(d + 1)] for e in range(d + 1)],
                         dtype=np.int64)
        # c prod_i C(e_i, alpha_i) mod q, one product of two residues at a time
        value = np.array([int(c) % q for c in F.terms.values()], dtype=np.int64)[term]
        for i in range(n + 1):
            value = value * binom[E[term, i], alpha[:, i]] % q
        order = alpha.sum(axis=1)
        picked = [order == j for j in orders]
        rests = [_distinct(E[term[p]] - alpha[p], d + 1) for p in picked]
        place = (d + 1) ** np.arange(n, -1, -1)
        self.mons = _Monomials(n + 1, d - min(orders), (r for rest, _ in rests for r in rest))
        self.block = max(1, _TABLE // sum(map(len, self.mons.exps)))
        self.keys, mats = [], []
        for j, p, (rest, col) in zip(orders, picked, rests):
            A, row = _distinct(alpha[p], d + 1)
            alphas = A if j >= 2 else _exps(n + 1, j)
            rows = {a: i for i, a in enumerate(alphas)}
            self.keys.append(np.array(alphas, dtype=np.int64).reshape(-1, n + 1) @ place)
            cols = self.mons.index[d - j]
            M = np.zeros((len(rows), len(cols)), dtype=np.int64)
            M[_lookup(rows, A)[row], _lookup(cols, rest)[col]] = value[p]
            mats.append(M)
        self.dtype = stage_dtype(max(1, *(M.shape[1] for M in mats)) * (q - 1) ** 2, q)
        self.mats = [M.astype(self.dtype) for M in mats]

    def __call__(self, pts: np.ndarray, upto: int | None = None) -> list[np.ndarray]:
        """[D_alpha F at pts, (alphas, m)] for the first `upto` orders, in
        self.dtype."""
        mats = self.mats[:upto]
        out = [np.empty((len(M), len(pts)), dtype=self.dtype) for M in mats]
        for lo in range(0, len(pts), self.block):
            x = np.ascontiguousarray(pts[lo:lo + self.block].T, dtype=self.dtype)
            pows = self.mons.values(x, self.q)
            for o, M, j in zip(out, mats, self.orders):
                _dot(M, pows[self.d - j], self.q, o[:, lo:lo + self.block])
        return out


def _distinct(vectors: np.ndarray, radix: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct rows of `vectors` (entries below radix) as tuples,
    ascending, and each row's position among them."""
    keys = np.ravel_multi_index(vectors.T, (radix,) * vectors.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return [tuple(v) for v in vectors[first].tolist()], inverse


def _lookup(index: dict, keys: list) -> np.ndarray:
    return np.array([index[k] for k in keys], dtype=np.intp)


class _Kind:
    """The tables of the tangent charts of one kind of point, smooth or
    singular, one row per chart (lead, pivot).

    A smooth point has n-1 chart variables r (the pivot coordinate is solved
    from the gradient), a singular one has n.  All charts of a kind share
    the grid projective_reps(nfree-1, q) of directions and the top power
    wtop of v_pivot in a pullback (0 at a singular point, whose pivot is its
    leading coordinate).  free[c] and pivot[c] are chart c's nfree free
    coordinates and its pivot, and:
    - orders: (position among the kernel's orders, j, rows) for each order
      j whose pullback is not identically zero on every chart, if the kind
      has any directions; rows[a][c], a = 0..min(j, wtop), gives for each
      monomial delta of degree j-a in r the jet row of the alpha with
      alpha_free = delta, alpha_pivot = a on chart c, or -1 where that
      divided derivative is zero;
    - grid: per one of those orders j, the grid's monomials of degree j,
      R x C(nfree-1+j, j), in the count's dtype;
    - shifts[t][i]: the position of mu + e_i among the monomials of degree
      t+1, for each monomial mu of degree t.
    """

    def __init__(self, n: int, charts: list[tuple[int, int]], jets: _Derivatives, q: int,
                 dtype: np.dtype):
        nfree = n - 1 if charts[0][0] != charts[0][1] else n
        self.size = pp_count(nfree - 1, q)
        top = max(jets.orders[1:], default=0)
        self.mons = _Monomials(nfree, top, _exps(nfree, top))
        exps = [np.array(es, dtype=np.int64).reshape(len(es), nfree) for es in self.mons.exps]
        self.wtop = top if nfree < n else 0
        self.shifts = [[_lookup(up, [mu[:i] + (mu[i] + 1,) + mu[i + 1:] for mu in es])
                        for i in range(nfree)]
                       for es, up in zip(self.mons.exps, self.mons.index[1:])]
        self.free = np.array([[c for c in range(n + 1) if c not in chart] for chart in charts],
                             dtype=np.intp)
        self.pivot = np.array([pivot for _, pivot in charts], dtype=np.intp)
        # each alpha's key in the radix of the jets' keys, looked up among
        # the order's keys: one search per order and a, for every chart
        place = (jets.d + 1) ** np.arange(n, -1, -1)
        self.orders = []
        for pos, (j, keys) in enumerate(zip(jets.orders[1:], jets.keys[1:])):
            rows = []
            for a in range(min(j, self.wtop) + 1):
                wanted = place[self.free] @ exps[j - a].T + a * place[self.pivot][:, None]
                at = np.searchsorted(keys, wanted)
                hit = at < len(keys)
                hit[hit] = keys[at[hit]] == wanted[hit]
                rows.append(np.where(hit, at, -1))
            if self.size and any((r >= 0).any() for r in rows):
                self.orders.append((pos, j, rows))
        self.grid = []
        if self.orders:   # a monomial step's sums, then the test's dtype
            reps = projective_reps(nfree - 1, q).T.astype(stage_dtype((q - 1) ** 2, q))
            grid = self.mons.values(reps, q, top)
            self.grid = [np.ascontiguousarray(grid[j].T, dtype=dtype) for _, j, _ in self.orders]

    def pullback(self, runs: list[tuple[int, int, int]], jets: list[np.ndarray],
                 q: int) -> list[np.ndarray]:
        """For each of self.orders, j: C[beta, p], in the kind's dtype, the
        coefficient mod q of r^beta in G_j(p, v) on p's chart (v_free = r,
        v_pivot = w.r), at the points lo..hi-1 of the jets of each run (c,
        lo, hi) on chart c, run after run; each jet ends in a zero row,
        which a missing jet row (-1) reads (_Kernel.jets_at).

        G_j = sum_a (w.r)^a H_a(r), H_a gathering the d^alpha F / alpha!
        with alpha_pivot = a: Horner's rule P <- H_a + (w.r) P, for a from
        min(j, wtop) down to 0, reducing mod q after each step.  The jets
        are in the kind's dtype, which holds a step's nfree products of two
        residues plus a residue (see the module docstring).
        """
        def gather(J, table):   # rows table[c] of J at each run's points
            return np.concatenate([J[table[c], lo:hi] for c, lo, hi in runs], axis=-1)

        w = _reduce(-gather(jets[0], self.free) * _inverse(gather(jets[0], self.pivot), q), q)
        out = []
        for pos, j, rows in self.orders:
            P = None
            for a in range(len(rows) - 1, -1, -1):
                H = gather(jets[1 + pos], rows[a])
                if P is not None:
                    for i, at in enumerate(self.shifts[j - a - 1]):
                        H[at] += w[i] * P
                    _reduce(H, q)
                P = H
            out.append(P)
        return out


class _Kernel:
    """Everything the counter needs that depends only on the form, k and q.

    Built once per count_vk call and handed to forked pool workers: the
    divided derivatives of orders 1..k-1 (at most d), the dtype of the
    direction test and the pullback (stage_dtype of exactness_bound), and
    charts[key] = (kind, the chart's row in its tables).  `count` does the
    per-point work for a chunk of points sorted by chart key.
    """

    def __init__(self, F: HyperForm, k: int):
        self.q, self.n = _prime_of(F), F.n
        # G_j vanishes identically for j > d
        self.orders = list(range(2, min(k - 1, F.d) + 1))
        self.dtype = stage_dtype(exactness_bound(self.n, F.d, k, self.q))
        self.jets = _Derivatives(F, [1] + self.orders)
        self.charts: dict[int, tuple[_Kind, int]] = {}

    def chart_keys(self, pts: np.ndarray) -> np.ndarray:
        """lead * (n+1) + pivot for every point: the leading index and the first
        coordinate != lead where the gradient is nonzero (lead if none is)."""
        grad = self.jets(pts, 1)[0]
        lead = np.argmax(pts != 0, axis=1)
        grad[lead, np.arange(len(pts))] = 0
        pivot = lead.copy()
        for c in range(self.n, -1, -1):   # the first nonzero coordinate wins
            pivot[grad[c] != 0] = c
        return lead * (self.n + 1) + pivot

    def add_charts(self, keys) -> None:
        charts = [divmod(int(key), self.n + 1) for key in keys]
        for mine in ([c for c in charts if c[0] != c[1]], [c for c in charts if c[0] == c[1]]):
            if mine:   # the smooth kind, then the singular one
                kind = _Kind(self.n, mine, self.jets, self.q, self.dtype)
                self.charts.update((lead * (self.n + 1) + pivot, (kind, c))
                                   for c, (lead, pivot) in enumerate(mine))

    def jets_at(self, pts: np.ndarray) -> list[np.ndarray]:
        """The gradient and the jets of the kernel's orders at pts, in the
        direction test's dtype (residues, so exact in either), each with a
        zero row last, which a kind's missing jet rows (-1) read."""
        zero = np.zeros((1, len(pts)), dtype=self.dtype)
        return [np.concatenate((J.astype(self.dtype, copy=False), zero)) for J in self.jets(pts)]

    def count(self, pts: np.ndarray, keys: np.ndarray) -> int:
        """Pairs (p, tangent direction) with G_2 = ... = G_{k-1} = 0 at p:
        every G_j pulled back to each point's chart, a kind at a time, then
        the kind's grid tested; every direction of a kind with no order."""
        total = 0
        for start in range(0, len(pts), _POINTS):
            part = keys[start:start + _POINTS]
            # with no order to test (k <= 2) no jet is needed
            jets = self.jets_at(pts[start:start + _POINTS]) if self.orders else []
            cuts = [0, *(np.flatnonzero(np.diff(part)) + 1).tolist(), len(part)]
            runs: dict[_Kind, list[tuple[int, int, int]]] = {}
            for lo, hi in zip(cuts, cuts[1:]):
                kind, c = self.charts[int(part[lo])]
                runs.setdefault(kind, []).append((c, lo, hi))
            for kind, group in runs.items():
                if kind.orders:
                    total += _grid_zeros(kind.grid, kind.pullback(group, jets, self.q), self.q)
                else:
                    total += kind.size * sum(hi - lo for _, lo, hi in group)
        return total


# The kernel of the count a forked pool worker serves: the fork hands it
# over in memory, so only the chunks of points and keys are pickled.
_worker_kernel: _Kernel | None = None


def _adopt(kernel: _Kernel) -> None:
    global _worker_kernel
    _worker_kernel = kernel


def _count_chunk(pts: np.ndarray, keys: np.ndarray) -> int:
    return _worker_kernel.count(pts, keys)


def _inverse(x: np.ndarray, q: int) -> np.ndarray:
    """x^(q-2) mod q entrywise, in x's dtype, by square-and-multiply: the
    inverse of each unit.  Only the entries asked about are inverted; a
    table of all of F_q would take 8q bytes."""
    out = np.ones_like(x)
    e = q - 2
    while e:
        if e & 1:
            out = _reduce(out * x, q)
        x = _reduce(x * x, q)
        e >>= 1
    return out


def _grid_zeros(grid: list[np.ndarray], coefs: list[np.ndarray], q: int) -> int:
    """Pairs (grid row r, point p) with sum_beta grid_j[r, beta] coefs_j[beta, p]
    = 0 mod q for every order j, tested one block of rows x points at a time.

    The grids' dtype (float32 or float64, see _Kernel) is the dtype of every
    sum.  A test block holds at most _TILE_POINTS points and about _BLOCK
    rows x points; _gemm fills it, one order at a time, in tiles that
    OpenBLAS runs on the calling thread.  Every sum V is an integer exact
    in the dtype, and rint(V * fl(1/q)) * q == V tests divisibility
    (_divisible; the module docstring says why).
    """
    dtype = grid[0].dtype
    R, m = len(grid[0]), coefs[0].shape[1]
    cols = min(m, _TILE_POINTS)
    rows = max(1, min(R, _BLOCK // cols))
    V, T = np.empty(rows * cols, dtype=dtype), np.empty(rows * cols, dtype=dtype)
    ok, alive = np.empty(rows * cols, dtype=bool), np.empty(rows * cols, dtype=bool)
    count = 0
    for r in range(0, R, rows):
        for c in range(0, m, cols):
            nr, nc = min(rows, R - r), min(cols, m - c)
            v, t, o, a = (B[:nr * nc].reshape(nr, nc) for B in (V, T, ok, alive))
            for i, (M, C) in enumerate(zip(grid, coefs)):
                _gemm(M[r:r + nr], C[:, c:c + nc], v)
                _divisible(v, q, t, a if i == 0 else o)
                if i:
                    a &= o
            count += int(np.count_nonzero(a))
    return count


def _divisible(v: np.ndarray, q: int, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = (q divides v), and out, for integers v exact in v's dtype,
    reduced or not: by rint(v * fl(1/q)) * q == v in a float dtype (the
    module docstring says why it is exact), by np.remainder in int64; t is
    scratch of v's shape and dtype."""
    if v.dtype == np.int64:
        np.remainder(v, q, out=t)
        return np.equal(t, 0, out=out)
    np.multiply(v, v.dtype.type(1) / v.dtype.type(q), out=t)
    np.rint(t, out=t)
    t *= q
    return np.equal(t, v, out=out)


@dataclass
class CountRecord:
    q: int
    k: int
    count: int
    n: int
    d: int
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "q": self.q, "k": self.k, "count": self.count,
            "n": self.n, "d": self.d, "elapsedMs": self.elapsed_ms,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CountRecord":
        """Read a record written by to_json; refuse anything else with a
        ValueError (elapsedMs may be left out)."""
        if not isinstance(obj, dict):
            raise ValueError(f"a count record must be a JSON object, got {obj!r}")
        got = {key: _whole(obj, key) for key in ("q", "k", "count", "n", "d")}
        for key, least in (("k", 1), ("count", 0), ("n", 1), ("d", 1)):
            if got[key] < least:
                raise ValueError(f"count record has {key} = {got[key]}; "
                                 f"{key} must be at least {least}")
        if not is_prime(got["q"]):
            raise ValueError(f"count record has q = {got['q']}; q must be a prime")
        return cls(**got, elapsed_ms=_whole(obj, "elapsedMs") if "elapsedMs" in obj else 0)


def _whole(obj: dict, key: str) -> int:
    if key not in obj:
        raise ValueError(f"count record {obj!r} has no {key!r}")
    v = obj[key]
    if type(v) is float and v.is_integer():
        v = int(v)
    if type(v) is not int:   # bools, strings and non-integral numbers
        raise ValueError(f"count record field {key!r} must be an integer, got {v!r}")
    return v


def count_vk(F: HyperForm, k: int, workers: int = 1) -> CountRecord:
    """Exact |V_k(X)(F_q)|: pairs (p, line through p) with contact >= k.

    `workers` is an upper bound: worker_count caps it by the CPUs this
    process may run on and by the size of the count.  A worker process
    that dies raises ChildProcessError.
    """
    q = _prime_of(F)
    if k < 1:
        raise ValueError("contact order k must be >= 1")
    check_exact(F.n, F.d, k, q)
    _check_budget((F.d + 1) * pp_count(F.n, q), f"enumerating X(F_{q}) in P^{F.n}")
    _check_memory(F)
    t0 = time.perf_counter()
    pts = hypersurface_points(F)
    if k == 1:
        # every line through a point of X meets it: no direction condition
        count = pts.shape[0] * pp_count(F.n - 1, q)
    else:
        kernel = _Kernel(F, k)
        keys = kernel.chart_keys(pts)
        order = np.argsort(keys, kind="stable")
        pts, keys = pts[order], keys[order]
        work = direction_work(keys, F.n, q, kernel.orders)
        _check_budget(work, f"testing the directions at {len(pts)} points")
        workers = worker_count(workers, work)
        kernel.add_charts(np.unique(keys))
        if workers == 1:
            count = kernel.count(pts, keys)
        else:
            # a worker that dies breaks the pool: the count raises
            # ChildProcessError (an OSError) instead of waiting for its chunk
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            chunks = np.array_split(pts, workers * 4), np.array_split(keys, workers * 4)
            try:
                with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                         _adopt, (kernel,)) as pool:
                    count = sum(pool.map(_count_chunk, *chunks))
            except BrokenProcessPool as ex:
                raise ChildProcessError(f"a counting worker died: {ex}") from ex
    elapsed = int(round((time.perf_counter() - t0) * 1000))
    return CountRecord(q=q, k=k, count=count, n=F.n, d=F.d, elapsed_ms=elapsed)


def closed_count_k1(F: HyperForm) -> int:
    q = _prime_of(F)
    return hypersurface_points(F).shape[0] * pp_count(F.n - 1, q)


def closed_count_k2_smooth(F: HyperForm) -> int:
    """|X| * |P^(n-2)|; valid when X has no rational singular points."""
    q = _prime_of(F)
    return hypersurface_points(F).shape[0] * pp_count(F.n - 2, q)


@dataclass
class SlopeReport:
    slope: float
    pair_slopes: list[float]
    used: list[tuple[int, int]]
    warnings: list[str]

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "pairSlopes": self.pair_slopes,
            "used": [{"q": q, "count": c} for q, c in self.used],
            "warnings": self.warnings,
        }


def dimension_slope(records: list[CountRecord]) -> SlopeReport:
    """Least-squares slope of log(count) against log(q).

    An empirical dimension proxy: a d-dimensional count grows like c*q^d.
    The records must share k, n and d.  Zero counts are excluded with a
    warning (the locus may be empty or irrational over small fields); at
    least two positive counts must remain.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 count records")
    qs = [r.q for r in records]
    if len(set(qs)) != len(qs):
        raise ValueError("records must have distinct q")
    ks = {r.k for r in records}
    if len(ks) != 1:
        raise ValueError(f"records mix contact orders {sorted(ks)}")
    shapes = {(r.n, r.d) for r in records}
    if len(shapes) != 1:
        raise ValueError(f"records mix hypersurfaces (n, d) {sorted(shapes)}")
    warnings = []
    used = []
    for r in sorted(records, key=lambda r: r.q):
        if r.count <= 0:
            warnings.append(
                f"excluded q={r.q}: count {r.count} (empty or irrational locus)"
            )
            continue
        used.append((r.q, r.count))
    if len(used) < 2:
        raise ValueError("fewer than two positive counts; slope undefined")
    xs = [math.log(q) for q, _ in used]
    ys = [math.log(c) for _, c in used]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    slope = num / den
    pair_slopes = [
        (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(used) - 1)
    ]
    return SlopeReport(slope=slope, pair_slopes=pair_slopes, used=used, warnings=warnings)
