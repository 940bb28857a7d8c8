"""Primality of field sizes: deterministic Miller-Rabin against trial
division, and its refusal past the range its bases decide."""

import random
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangency.fields import QQ, PrimeField, is_prime, kernel_basis, matrix_rank, row_reduce


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
