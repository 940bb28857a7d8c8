"""The brute-force route of the finite-field counts, which only tests use.

It enumerates every line of P^n(F_q) by its reduced row-echelon pair and
asks deformation.contact_order, the exact s-adic valuation of F along the
line, so it shares no code with counting's chart counter (its
derivatives, charts or GEMMs) and checks it independently at small q.  It
also counts the lines a hypersurface contains, exhaustively.  Import it
from a test module as `oracles`; pytest does not collect this file.
"""

from itertools import product

from tangency.counting import _prime_of
from tangency.deformation import CONTAINED, contact_order
from tangency.forms import HyperForm, LineParam


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
    q = _prime_of(F)
    if k < 1:
        raise ValueError("contact order k must be >= 1")
    f = F.field
    count = 0
    for r1, r2 in _rref_lines(F.n, q):
        # marked points of the line: canonical P^1 combinations
        marks = [([(r1[i] + lam * r2[i]) % q for i in range(F.n + 1)], r2)
                 for lam in range(q)]
        marks.append((list(r2), r1))
        for p, u in marks:
            v = contact_order(F, LineParam.from_point_direction(p, u, f))
            if v == CONTAINED or v >= k:
                count += 1
    return count


def lines_in_hypersurface(F: HyperForm) -> int:
    """Exhaustive count of F_q-lines contained in {F = 0}."""
    q = _prime_of(F)
    f = F.field
    count = 0
    for r1, r2 in _rref_lines(F.n, q):
        if contact_order(F, LineParam.from_point_direction(r1, r2, f)) == CONTAINED:
            count += 1
    return count
