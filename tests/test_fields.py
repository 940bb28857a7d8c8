"""The fields and their linear algebra.

Primality of field sizes: deterministic Miller-Rabin against trial
division, and its refusal past the range its bases decide.  Exact
elimination: row_reduce, matrix_rank, kernel_basis, random_kernel_vector
and mat_vec, which work in Python ints, against the per-entry Gauss-Jordan
in field methods that they replaced, over QQ, F_2, F_7 and F_101; and
kernel_basis against the row space it must depend on alone."""

import random
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangency.fields import (
    QQ,
    PrimeField,
    is_prime,
    kernel_basis,
    mat_vec,
    matrix_rank,
    random_kernel_vector,
    row_reduce,
)


def test_is_prime_matches_trial_division():
    primes = []
    for m in range(2 * 10 ** 5):
        prime = m >= 2 and all(m % p for p in takewhile(lambda p: p * p <= m, primes))
        if prime:
            primes.append(m)
        assert is_prime(m) == prime, m


def test_is_prime_near_and_past_its_limit():
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 15 + 37)
    assert not is_prime((2 ** 31 - 1) * (10 ** 15 + 37))
    # a Carmichael number with no prime factor up to 41: it passes the Fermat
    # test a^(m-1) = 1 to every base, and only the strong test finds a
    # square root of 1 other than +-1
    assert not is_prime(211 * 421 * 631)
    # the least strong pseudoprime to the prime bases 2..37, and to 2..41
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="too large"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2 ** 89 - 1)


def test_prime_fields_are_equal_and_hash_alike_by_their_prime():
    a, b = PrimeField(101), PrimeField(101)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != PrimeField(103) and not a == PrimeField(103)
    assert a != QQ and a != 101
    # so a field made twice finds the same dict entry
    assert {a: "F_101"}[b] == "F_101" and PrimeField(103) not in {a: "F_101"}


# the row-reduced span of a basis identifies its space: the reference for
# kernel_basis, whose lists must be equal exactly when their spans are


def _kernel_space_signature(basis, ncols, field):
    rref, _ = row_reduce(basis, ncols, field)
    return [tuple(r) for r in rref]


KERNEL_FIELDS = {"QQ": QQ, "F2": PrimeField(2), "F7": PrimeField(7), "F101": PrimeField(101)}


def _combine(coefs, rows, field):
    # the matrix coefs @ rows
    out = []
    for c in coefs:
        row = [field.zero] * len(rows[0])
        for a, r in zip(c, rows):
            row = [field.add(x, field.mul(a, y)) for x, y in zip(row, r)]
        out.append(row)
    return out


def _random_rows(nrows, ncols, field, rng):
    return [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def systems(draw):
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    A = [[field.random(rng) if rng.random() < 0.6 else field.zero for _ in range(ncols)]
         for _ in range(nrows)]
    return field, ncols, A, rng


@settings(max_examples=300, deadline=None)
@given(systems())
def test_kernel_basis_depends_only_on_the_row_space(case):
    field, ncols, A, rng = case
    n = len(A)
    while True:
        M = _random_rows(n, n, field, rng)
        if matrix_rank(M, n, field) == n:
            break
    recombined = _combine(M, A, field) + _combine(_random_rows(rng.randint(0, 3), n, field, rng),
                                                  A, field)
    rng.shuffle(recombined)
    assert kernel_basis(recombined, ncols, field) == kernel_basis(A, ncols, field)


@pytest.mark.parametrize("label", sorted(KERNEL_FIELDS))
def test_kernel_basis_of_no_rows_is_the_identity(label):
    field = KERNEL_FIELDS[label]
    for ncols in range(1, 7):
        assert kernel_basis([], ncols, field) == [
            [field.one if c == i else field.zero for c in range(ncols)] for i in range(ncols)]


@settings(max_examples=300, deadline=None)
@given(systems(), st.booleans())
def test_equal_kernel_bases_exactly_when_the_signatures_agree(case, related):
    # the second system is often built from the first, so that equal
    # kernels come up, and otherwise drawn afresh
    field, ncols, A, rng = case
    nrows = rng.randint(1, 5)
    if related:
        B = _combine(_random_rows(nrows, len(A), field, rng), A, field)
    else:
        B = _random_rows(nrows, ncols, field, rng)
    ka, kb = kernel_basis(A, ncols, field), kernel_basis(B, ncols, field)
    assert (ka == kb) == (_kernel_space_signature(ka, ncols, field)
                          == _kernel_space_signature(kb, ncols, field))


# the per-entry Gauss-Jordan in field methods that the integer elimination
# replaced: the oracle for row_reduce and everything read off it


def _oracle_row_reduce(rows, ncols, field):
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(mat)) if not field.is_zero(mat[r][col])), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        iv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(iv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not field.is_zero(mat[r][col]):
                f = mat[r][col]
                mat[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def _oracle_kernel_basis(rows, ncols, field):
    rref, pivots = _oracle_row_reduce(rows, ncols, field)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [field.one if j == free else field.zero for j in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rref[r][free])
        basis.append(v)
    return basis


def _oracle_random_kernel_vector(rows, ncols, field, rng):
    rref, pivots = _oracle_row_reduce(rows, ncols, field)
    free = [j for j in range(ncols) if j not in pivots]
    v = [field.zero] * ncols
    for j in free:
        v[j] = field.random(rng)
    for r, pc in enumerate(pivots):
        acc = field.zero
        for j in free:
            acc = field.add(acc, field.mul(rref[r][j], v[j]))
        v[pc] = field.neg(acc)
    return v


def _oracle_mat_vec(rows, v, field):
    out = []
    for r in rows:
        acc = field.zero
        for a, b in zip(r, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def _same(got, want):
    # equal values of equal types: the reprs of Fractions and ints differ
    assert got == want and repr(got) == repr(want)


def _entries(field):
    if field is QQ:
        big = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))
        small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        return st.one_of(st.just(field.zero), small, big)
    return st.one_of(st.just(field.zero), st.integers(0, field.p - 1))


@st.composite
def matrices(draw):
    # entries drawn in the field, then zero rows, repeats and combinations
    # of two rows put in at random places
    field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    ncols = draw(st.integers(1, 12))
    entry = _entries(field)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "combine")), max_size=3)):
        if kind == "zero" or not rows:
            extra = [field.zero] * ncols
        elif kind == "repeat":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entry)
            extra = [field.add(x, field.mul(c, y)) for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return field, ncols, rows


@settings(max_examples=400, deadline=None)
@given(matrices(), st.integers(0, 2 ** 32))
def test_elimination_equals_the_per_entry_oracle(case, seed):
    field, ncols, rows = case
    before = [list(r) for r in rows]
    rref, pivots = _oracle_row_reduce(rows, ncols, field)
    _same(row_reduce(rows, ncols, field), (rref, pivots))
    assert matrix_rank(rows, ncols, field) == len(pivots)
    _same(kernel_basis(rows, ncols, field), _oracle_kernel_basis(rows, ncols, field))
    v = random_kernel_vector(rows, ncols, field, random.Random(seed))
    _same(v, _oracle_random_kernel_vector(rows, ncols, field, random.Random(seed)))
    assert all(field.is_zero(x) for x in _oracle_mat_vec(rows, v, field))
    w = [field.random(random.Random(seed + j)) for j in range(ncols)]
    _same(mat_vec(rows, w, field), _oracle_mat_vec(rows, w, field))
    assert rows == before


@pytest.mark.parametrize("label", sorted(KERNEL_FIELDS))
def test_elimination_of_no_rows(label):
    field = KERNEL_FIELDS[label]
    for ncols in range(1, 13):
        assert row_reduce([], ncols, field) == ([], []) and matrix_rank([], ncols, field) == 0
        _same(random_kernel_vector([], ncols, field, random.Random(ncols)),
              _oracle_random_kernel_vector([], ncols, field, random.Random(ncols)))
        assert mat_vec([], [field.one] * ncols, field) == []


# (rows, rref) over QQ with a row that has 0 in a pivot column
RESCALE_CASES = [
    # each row has 0 in the other's pivot column, and the fraction-free step
    # rescales it all the same (by 2, then by 6 // 2): left as it is, the
    # first row would be read over D = 6 as (2/3, 0, 1/3)
    ([[2, 0, 1], [0, 3, 1]], [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 3)]]),
    # the third row meets the second pivot 3 after the first, 2: it is
    # multiplied by 3 before the exact division by 2, not by 3 // 2
    ([[2, 1, 0, 1], [1, 2, 0, 1], [0, 0, 1, 1]],
     [[1, 0, 0, Fraction(1, 3)], [0, 1, 0, Fraction(1, 3)], [0, 0, 1, 1]]),
]


@pytest.mark.parametrize("rows, rref", RESCALE_CASES)
def test_qq_rows_with_0_in_the_pivot_column_are_rescaled(rows, rref):
    _same(row_reduce(rows, len(rows[0]), QQ),
          ([[Fraction(a) for a in r] for r in rref], list(range(len(rows)))))
