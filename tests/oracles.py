"""Independent routes of the finite-field counts, which only tests use.

The brute-force route enumerates every line of P^n(F_q) by its reduced
row-echelon pair and asks deformation.contact_order, the exact s-adic
valuation of F along the line, so it shares no code with counting's chart
counter (its derivatives, charts or GEMMs) and checks it independently at
small q.  It also counts the lines a hypersurface contains, exhaustively.

Oracle B counts V_3 from the second fundamental form, one quadratic form
per point of X, with no line enumerated, so it reaches large q in P^2
and larger n at small q; of the counter it shares only the points of X.
The gradient it reads is one expand at the point, which other tests use as
the reference for the gradients the program computes its own ways.

Import them from a test module as `oracles`; pytest does not collect
this file.
"""

from itertools import product
from math import prod

from tangency.counting import _prime_of, hypersurface_points
from tangency.deformation import CONTAINED, contact_order
from tangency.fields import kernel_basis
from tangency.forms import HyperForm, LineParam, expand


def _rref_lines(n: int, q: int):
    """Every line of P^n(F_q) exactly once, as a reduced row pair (r1, r2)."""
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            free1 = [c for c in range(i + 1, n + 1) if c != j]
            free2 = [c for c in range(j + 1, n + 1)]
            for vals in product(range(q), repeat=len(free1) + len(free2)):
                r1 = [0] * (n + 1)
                r2 = [0] * (n + 1)
                r1[i] = 1
                r2[j] = 1
                for c, v in zip(free1, vals):
                    r1[c] = v
                for c, v in zip(free2, vals[len(free1):]):
                    r2[c] = v
                yield tuple(r1), tuple(r2)


def count_vk_bruteforce(F: HyperForm, k: int) -> int:
    """Same count as count_vk, by walking every line and every marked point.

    Only sensible at very small q; kept as the independent correctness
    route for the chart-based counter.
    """
    if k < 1:
        raise ValueError("contact order k must be >= 1")
    return counts_vk_bruteforce(F, [k])[0]


def counts_vk_bruteforce(F: HyperForm, ks) -> list:
    """count_vk_bruteforce(F, k) for each k in ks, with one walk."""
    q = _prime_of(F)
    f = F.field
    counts = [0] * len(ks)
    for r1, r2 in _rref_lines(F.n, q):
        # marked points of the line: canonical P^1 combinations
        marks = [([(r1[i] + lam * r2[i]) % q for i in range(F.n + 1)], r2)
                 for lam in range(q)]
        marks.append((list(r2), r1))
        for p, u in marks:
            v = contact_order(F, LineParam.from_point_direction(p, u, f))
            for i, k in enumerate(ks):
                counts[i] += v == CONTAINED or v >= k
    return counts


def lines_in_hypersurface(F: HyperForm) -> int:
    """Exhaustive count of F_q-lines contained in {F = 0}."""
    q = _prime_of(F)
    f = F.field
    count = 0
    for r1, r2 in _rref_lines(F.n, q):
        if contact_order(F, LineParam.from_point_direction(r1, r2, f)) == CONTAINED:
            count += 1
    return count


def gradient(F: HyperForm, point) -> list:
    """The partials of F at point: dF/dx_i(p) is the y_0^(d-1) y_(i+1)
    coefficient of F(y_0*p + y_1*e_0 + ... + y_(n+1)*e_n)."""
    f = F.field
    units = [tuple(int(i == j) for j in range(F.n + 1)) for i in range(F.n + 1)]
    cols = [F._point(point)] + [[f.of(x) for x in e] for e in units]
    got = expand(F.terms, cols, f, top=1)
    return [got.get((F.d - 1,) + e, f.zero) for e in units]


def count_v3_second_form(F: HyperForm) -> int:
    """|V_3(X)(F_q)| for odd q > d, from the rank and discriminant of the
    second fundamental form at each point of X.

    At p (first nonzero coordinate x_lead = 1), the tangent directions with
    v_lead = 0 are kernel_basis of the rows [grad F(p); e_lead]: m = n-1
    of them at a smooth point, n at a singular one.  On them G_2(p, v) is
    a quadratic form Q_p in m variables, the y^2 part of
    F(y_0 p + y_1 b_1 + ... + y_m b_m) cut at top = 2, and the lines of
    contact >= 3 through p are its zeros in P^(m-1): (N_aff - 1) / (q - 1),
    N_aff its affine zeros (Lidl and Niederreiter, Finite Fields, Theorems
    6.26 and 6.27).
    """
    q, f, n = _prime_of(F), F.field, F.n
    half = f.inv(2)
    total = 0
    for p in hypersurface_points(F).tolist():
        lead = p.index(1)
        basis = kernel_basis([gradient(F, p), [int(i == lead) for i in range(n + 1)]], n + 1, f)
        m = len(basis)
        A = [[0] * m for _ in range(m)]
        for e, c in expand(F.terms, [p] + basis, f, top=2).items():
            y = [i for i, a in enumerate(e[1:]) for _ in range(a)]
            if len(y) == 2:
                i, j = y
                A[i][j] = A[j][i] = c if i == j else c * half % q
        total += (_affine_zeros(m, _diagonal(A, q), q) - 1) // (q - 1)
    return total


def _diagonal(A: list, q: int) -> list:
    """The nonzero entries of a diagonal form congruent to the symmetric
    matrix A over F_q, q odd: their number is A's rank and their product
    its discriminant, up to squares."""
    A = [row[:] for row in A]
    m = len(A)
    out = []
    for i in range(m):
        piv = next((j for j in range(i, m) if A[j][j]), None)
        if piv is None:
            # x_j -> x_j + x_l makes A_jj = 2 A_jl, nonzero for q odd
            piv, l = next(((j, l) for j in range(i, m) for l in range(j + 1, m) if A[j][l]),
                          (None, None))
            if piv is None:
                break
            _add(A, piv, l, 1, q)
        A[i], A[piv] = A[piv], A[i]
        for row in A:
            row[i], row[piv] = row[piv], row[i]
        a = A[i][i]
        for j in range(i + 1, m):
            _add(A, j, i, -A[j][i] * pow(a, q - 2, q), q)
        out.append(a)
    return out


def _add(A: list, j: int, i: int, c: int, q: int) -> None:
    """x_j -> x_j + c x_i on the symmetric A: row j += c row i, then
    column j += c column i."""
    A[j] = [(a + c * b) % q for a, b in zip(A[j], A[i])]
    for row in A:
        row[j] = (row[j] + c * row[i]) % q


def _affine_zeros(m: int, diagonal: list, q: int) -> int:
    """Zeros in F_q^m, q odd, of a quadratic form in m variables congruent
    to sum diagonal[i] y_i^2."""
    r = len(diagonal)
    if r == 0:
        return q ** m
    if r % 2:
        return q ** (m - 1)
    square = pow((-1) ** (r // 2) * prod(diagonal), (q - 1) // 2, q) == 1
    return q ** (m - r) * (q ** (r - 1) + (1 if square else -1) * (q - 1) * q ** (r // 2 - 1))
