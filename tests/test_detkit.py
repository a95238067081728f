"""Determinants, minor scans and D_k membership."""

import itertools
import math
import random

import numpy as np
import pytest

from crtour import (
    InvalidArgumentError,
    ResourceLimitError,
    Tournament,
    det_exact,
    gen_ln,
    in_dk,
    in_dk_exactly,
    induced,
    max_subtournament_det,
    skew_adjacency,
    switch,
    tournament_det,
    transitive_blowup,
    transitive_tournament,
)
from crtour.kernels import SCAN_LIMIT
from crtour.verify import d7_six_tournament

import oracles


EQ11_ROWS = [
    [0, 1, 1, 1, -1, -1],
    [-1, 0, 1, 1, -1, 1],
    [-1, -1, 0, 1, 1, 1],
    [-1, -1, -1, 0, -1, -1],
    [1, 1, -1, 1, 0, 1],
    [1, -1, -1, 1, -1, 0],
]


def test_skew_adjacency_shape_and_antisymmetry():
    t = transitive_tournament(3)
    s = skew_adjacency(t)
    assert np.array_equal(np.triu(s, 1), np.triu(np.ones((3, 3)), 1))
    for n in (3, 5):
        s = skew_adjacency(gen_ln(n))
        assert np.array_equal(s + s.T, np.zeros((n, n)))


def test_det_examples():
    assert det_exact([[0]]) == 0
    assert tournament_det(transitive_tournament(4)) == 1
    assert tournament_det(gen_ln(6)) == 25
    assert tournament_det(gen_ln(4)) == 9


def test_eq11_matrix_det_49():
    t = Tournament(np.array(EQ11_ROWS, np.int8))
    assert oracles.det_leibniz(EQ11_ROWS) == 49
    assert tournament_det(t) == 49
    assert t == d7_six_tournament()


def test_odd_order_dets_vanish(classes):
    for n in (3, 5):
        for t in classes[n]:
            assert tournament_det(t) == 0


def test_parity_law_exhaustive(classes):
    for n in range(1, 7):
        for t in classes[n]:
            d = tournament_det(t)
            if n % 2 == 1:
                assert d == 0
            else:
                k = math.isqrt(d)
                assert k * k == d and k % 2 == 1


def test_det_agrees_with_leibniz_oracle_bulk():
    # entries in {-1,0,1}, order <= 6, large random sample
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        mats = rng.integers(-1, 2, size=(2000, n, n)).astype(np.int64)
        ref = oracles.det_leibniz_batch(mats)
        for m, r in zip(mats, ref):
            assert det_exact(m) == int(r)


def test_max_subtournament_det_examples():
    rep = max_subtournament_det(transitive_tournament(6))
    assert (rep.max_minor, rep.k) == (1, 1)
    rep = max_subtournament_det(gen_ln(6))
    assert (rep.max_minor, rep.k) == (25, 5)
    rep = max_subtournament_det(d7_six_tournament())
    assert (rep.max_minor, rep.k) == (49, 7)
    rep = max_subtournament_det(transitive_tournament(1))
    assert (rep.max_minor, rep.k, rep.witness) == (0, 1, ())


def test_max_subtournament_det_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 6)
        t = oracles.random_tournament(rng, n)
        ref_best, ref_sub = oracles.brute_max_even_minor(t)
        rep = max_subtournament_det(t)
        assert rep.max_minor == ref_best
        assert rep.witness == ref_sub


def test_max_subtournament_det_cap():
    with pytest.raises(ResourceLimitError):
        max_subtournament_det(transitive_tournament(SCAN_LIMIT + 1))


def test_dk_report_json_is_one_based():
    rep = max_subtournament_det(gen_ln(4))
    assert rep.to_json() == {"max_minor": 9, "k": 3, "witness": [1, 2, 3, 4]}


def test_in_dk_examples():
    l4 = gen_ln(4)
    assert in_dk(l4, 3)
    assert not in_dk(l4, 1)
    assert in_dk(transitive_tournament(1), 1)
    with pytest.raises(InvalidArgumentError):
        in_dk(l4, 2)


def test_in_dk_exactly_examples():
    assert in_dk_exactly(gen_ln(8), 7)
    assert not in_dk_exactly(gen_ln(8), 9)
    assert in_dk_exactly(transitive_blowup(gen_ln(4), (2, 1, 1, 1)), 3)
    assert in_dk_exactly(transitive_tournament(1), 1)


def test_in_dk_consistent_with_full_scan(classes):
    for n in range(1, 7):
        for t in classes[n]:
            rep = max_subtournament_det(t)
            for k in (1, 3, 5, 7):
                assert in_dk(t, k) == (rep.max_minor <= k * k)
                assert in_dk_exactly(t, k) == (rep.k == k)


def test_minor_scan_switching_invariant():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 6)
        t = oracles.random_tournament(rng, n)
        w = frozenset(v for v in range(n) if rng.random() < 0.5)
        t2 = switch(t, w)
        assert max_subtournament_det(t).max_minor == max_subtournament_det(t2).max_minor
        for c in range(1, n + 1):
            for sub in itertools.combinations(range(n), c):
                assert tournament_det(induced(t, sub)) == tournament_det(
                    induced(t2, sub)
                )


def doubled_paley(q: int) -> Tournament:
    """Paley tournament on F_q (q a prime, q = 3 mod 4) plus a vertex
    beating all others.  Its skew matrix S satisfies S S^t = q I, so
    det = q^((q+1)/2): a skew-Hadamard extremal case for elimination."""
    squares = {x * x % q for x in range(1, q)}
    arr = np.zeros((q + 1, q + 1), np.int8)
    for i in range(q):
        for j in range(q):
            if i != j:
                arr[i, j] = 1 if (j - i) % q in squares else -1
        arr[q, i], arr[i, q] = 1, -1
    return Tournament(arr)


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_doubled_paley_determinants(q):
    t = doubled_paley(q)
    s = t.skew.astype(np.int64)
    assert np.array_equal(s @ s.T, q * np.eye(q + 1, dtype=np.int64))
    expected = q ** ((q + 1) // 2)
    assert det_exact(s) == expected
    assert tournament_det(t) == expected
    if q == 7:
        # Leibniz expansion is feasible at order 8 (8! terms), not at 12
        assert oracles.det_leibniz(t.skew) == expected


def test_minor_scan_refuses_int64_overflow_range():
    t = oracles.random_tournament(random.Random(18), 18)
    with pytest.raises(ResourceLimitError):
        max_subtournament_det(t)
    with pytest.raises(ResourceLimitError):
        in_dk(t, 17)
