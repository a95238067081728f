"""Kernel validation against the independent oracles."""

import itertools
import random

import numpy as np
import pytest

from crtour import (
    InvalidArgumentError,
    ResourceLimitError,
    Tournament,
    kernels,
    transitive_tournament,
)
from crtour.detkit import det_exact

from oracles import det_leibniz, random_tournament


def _random_skew(rng, n):
    a = np.zeros((n, n), np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = rng.choice((-1, 1))
            a[j, i] = -a[i, j]
    return a


def _random_int_matrix(rng, n, lo=-3, hi=3):
    return np.array(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)], np.int64
    )


def test_bareiss_matches_leibniz_small():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = _random_int_matrix(rng, n)
        assert kernels.bareiss_det(a) == det_leibniz(a)


def test_bareiss_singular_and_zero_pivots():
    a = np.array([[0, 0, 1], [0, 0, -1], [-1, 1, 0]], np.int64)
    assert kernels.bareiss_det(a) == det_leibniz(a)
    z = np.zeros((4, 4), np.int64)
    assert kernels.bareiss_det(z) == 0


def test_max_even_minor_matches_bruteforce():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(2, 7)
        t = random_tournament(rng, n)
        from oracles import brute_max_even_minor

        best, sub = brute_max_even_minor(t)
        got_best, got_mask = kernels.max_even_minor(t.skew)
        assert got_best == best
        got_sub = tuple(v for v in range(n) if (got_mask >> v) & 1)
        assert got_sub == sub


def test_first_minor_above_consistent_with_max():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(2, 7)
        t = random_tournament(rng, n)
        best, _ = kernels.max_even_minor(t.skew)
        for bound in (0, 1, 9, best - 1, best):
            if bound < 0:
                continue
            mask = kernels.first_minor_above(t.skew, bound)
            if bound < best:
                assert mask != 0
                sub = [v for v in range(n) if (mask >> v) & 1]
                d = det_leibniz(t.skew[np.ix_(sub, sub)])
                assert d > bound
            else:
                assert mask == 0


def test_bareiss_matches_leibniz_on_skew_matrices():
    rng = random.Random(4)
    for n in range(2, 9):
        for _ in range(40 if n < 8 else 3):
            s = _random_skew(rng, n)
            assert kernels.bareiss_det(s) == det_leibniz(s)


def test_bareiss_exact_beyond_int64():
    big = 3 * 2**70
    a = np.array(
        [[big, 5, -1], [7, -big, 2], [1, 4, big + 1]], dtype=object
    )
    d = kernels.bareiss_det(a)
    assert d == det_leibniz(a)
    assert abs(d) > 2**200
    assert det_exact(a) == d


def test_minor_scans_refuse_orders_past_int64_bound():
    s = Tournament.from_bits(kernels.SCAN_LIMIT + 1, 0).skew
    with pytest.raises(ResourceLimitError):
        kernels.max_even_minor(s)
    with pytest.raises(ResourceLimitError):
        kernels.first_minor_above(s, 1)


def test_minor_scans_refuse_entries_outside_skew_range():
    a = np.array([[0, 2], [-2, 0]], np.int64)
    with pytest.raises(InvalidArgumentError):
        kernels.max_even_minor(a)
    with pytest.raises(InvalidArgumentError):
        kernels.first_minor_above(a, 1)


def test_det_exact_object_fallback():
    # triangular with huge diagonal: determinant is the diagonal product,
    # far outside int64
    n = 9
    d = 10**9
    a = np.zeros((n, n), object)
    for i in range(n):
        a[i, i] = d
        for j in range(i + 1, n):
            a[i, j] = 7
    assert det_exact(a) == d**n


def test_det_exact_rejects_non_integer():
    from crtour.errors import InvalidArgumentError

    with pytest.raises(InvalidArgumentError):
        det_exact(np.array([[0.5, 1.0], [1.0, 0.5]]))
    with pytest.raises(InvalidArgumentError):
        det_exact(np.zeros((2, 3)))


def _members(mask, n):
    return [v for v in range(n) if (mask >> v) & 1]


def test_pfaffian_table_matches_leibniz():
    rng = random.Random(5)
    for n in range(2, 9):
        for _ in range(4 if n < 8 else 2):
            t = random_tournament(rng, n)
            pf = kernels.pfaffian_table(t.skew)
            assert pf.dtype == np.int64 and pf.shape == (1 << n,)
            assert pf[0] == 1
            for mask in range(1, 1 << n):
                sub = _members(mask, n)
                if len(sub) % 2:
                    assert pf[mask] == 0
                else:
                    assert pf[mask] ** 2 == det_leibniz(t.skew[np.ix_(sub, sub)])


@pytest.mark.parametrize("q", [7, 11])
def test_pfaffian_table_on_doubled_paley(q):
    from test_detkit import doubled_paley

    s = doubled_paley(q).skew
    n = q + 1
    pf = kernels.pfaffian_table(s)
    assert int(pf[-1]) ** 2 == q ** ((q + 1) // 2)
    for mask in range(1, 1 << n):
        sub = _members(mask, n)
        if len(sub) % 2 == 0:
            assert int(pf[mask]) ** 2 == kernels.bareiss_det(s[np.ix_(sub, sub)])


def test_max_even_minor_ties_go_to_lex_smallest_witness():
    from oracles import brute_max_even_minor

    # every even subset of a transitive tournament has determinant 1
    for n in range(2, 11):
        t = transitive_tournament(n)
        assert kernels.max_even_minor(t.skew) == (1, 0b11)
        if n <= 6:
            best, sub = brute_max_even_minor(t)
            assert (best, tuple(_members(0b11, n))) == (1, sub)


def test_first_minor_above_is_first_in_size_then_lex_order():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 7)
        t = random_tournament(rng, n)
        bound = rng.choice((0, 1, 9))
        want = 0
        for c in range(2, n + 1, 2):
            for sub in itertools.combinations(range(n), c):
                if det_leibniz(t.skew[np.ix_(sub, sub)]) > bound:
                    want = sum(1 << v for v in sub)
                    break
            if want:
                break
        assert kernels.first_minor_above(t.skew, bound) == want


def test_minor_scans_refuse_non_skew_input():
    a = np.array([[0, 1], [1, 0]], np.int64)
    with pytest.raises(InvalidArgumentError):
        kernels.pfaffian_table(a)
    with pytest.raises(InvalidArgumentError):
        kernels.max_even_minor(a)
