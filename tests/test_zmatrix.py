"""Z-matrix calculus, bordered determinants and the deletion identity."""

import itertools
import random

import numpy as np
import pytest

from crtour import (
    InvalidArgumentError,
    all_sigmas,
    assemble_bordered,
    b_diff_predicted,
    bordered_det,
    delta_total,
    det_exact,
    diagonal_vector,
    ln_deletion_det_check,
    row_sums,
    sigma_from_string,
    transitive_inverse,
    transitive_tournament,
    z_matrix,
)

import oracles

R9 = sigma_from_string("+++---+--")

# the order-9 worked display, row by row
Z9_EXPECTED = [
    [7, -5, -3, 1, 1, 3, 5, -7],
    [-7, -5, 3, -1, 1, 3, -5, 7],
    [-7, 5, -3, -1, 1, -3, 5, -7],
    [7, -5, -3, -1, -1, 3, -5, 7],
    [-7, -5, -3, 1, 1, -3, 5, 7],
    [-7, -5, 3, -1, -1, 3, 5, -7],
    [-7, 5, -3, 1, 1, 3, -5, 7],
    [7, -5, 3, -1, 1, -3, 5, 7],
    [-7, 5, -3, -1, -1, 3, 5, 7],
]

GAMMA9_EXPECTED = {
    1: (0, 7, 5, 3, 1, -1, -3, -5, -7),
    2: (7, 0, -7, -5, -3, -1, 1, 3, 5),
    3: (-5, -7, 0, 7, 5, 3, 1, -1, -3),
    4: (-3, -5, -7, 0, 7, 5, 3, 1, -1),
    5: (1, 3, 5, 7, 0, -7, -5, -3, -1),
    6: (1, -1, -3, -5, -7, 0, 7, 5, 3),
    7: (3, 1, -1, -3, -5, -7, 0, 7, 5),
    8: (5, 3, 1, -1, -3, -5, -7, 0, 7),
    9: (-7, -5, -3, -1, 1, 3, 5, 7, 0),
}


def test_order9_display_entries():
    z = z_matrix(9, R9)
    assert z.entries.tolist() == Z9_EXPECTED
    assert z.entry(1, 1) == 7
    assert z.entry(1, 8) == -7


def test_order9_display_diagonals():
    z = z_matrix(9, R9)
    for ell, expected in GAMMA9_EXPECTED.items():
        g = diagonal_vector(z, ell)
        assert g.entries == expected
        assert g.entries[ell - 1] == 0


def test_order9_row_sums_and_delta():
    z = z_matrix(9, R9)
    b = row_sums(z)
    assert int(b[0]) == 7 - 5 - 3 + 1 + 1 + 3 + 5 - 7 == 2
    assert delta_total(R9) == -6


def test_entry_magnitudes():
    rng = random.Random(0)
    for m in (3, 5, 9, 13):
        r = tuple(rng.choice((1, -1)) for _ in range(m))
        z = z_matrix(m, r)
        for i in range(1, m + 1):
            for j in range(1, m):
                assert abs(z.entry(i, j)) == abs(m - 2 * j)


def test_order3_all_plus_hand_values():
    # two-branch formula by hand: rows (1,1), (-1,1), (-1,-1)
    z = z_matrix(3, (1, 1, 1))
    assert z.entries.tolist() == [[1, 1], [-1, 1], [-1, -1]]
    assert row_sums(z).tolist() == [2, 0, -2]
    # single run, so consecutive b-differences must all equal delta
    assert delta_total((1, 1, 1)) == -2
    assert b_diff_predicted(1, (1, 1, 1)) == -2
    assert b_diff_predicted(2, (1, 1, 1)) == -2


def test_pretty_and_csv_render_all_entries():
    z = z_matrix(9, R9)
    lines = z.pretty().splitlines()
    assert len(lines) == 9
    assert lines[0].split() == ["[", "7", "-5", "-3", "1", "1", "3", "5", "-7", "]"]
    assert z.csv().splitlines()[0] == "7,-5,-3,1,1,3,5,-7"


def test_z_matrix_validation():
    with pytest.raises(InvalidArgumentError):
        z_matrix(4, (1, 1, 1, 1))
    with pytest.raises(InvalidArgumentError):
        z_matrix(3, (1, 1))
    with pytest.raises(InvalidArgumentError):
        z_matrix(3, (1, 0, 1))


def test_delta_all_ones_is_minus_two():
    for m in (3, 5, 7, 9, 11):
        assert delta_total((1,) * m) == -2


def test_delta_all_odd_runs():
    # runs all odd with leading +1 gives -2t
    rng = random.Random(1)
    for _ in range(50):
        t_runs = rng.choice((1, 3, 5))
        runs = []
        sign = 1
        for _ in range(t_runs):
            runs.append(sign * rng.choice((1, 3)))
            sign = -sign
        sigma = []
        for a in runs:
            sigma.extend([1 if a > 0 else -1] * abs(a))
        # an odd count of odd runs always sums to an odd length
        assert len(sigma) % 2 == 1
        assert delta_total(tuple(sigma)) == -2 * t_runs


def test_row_sum_differences_match_prediction():
    rng = random.Random(2)
    for m in (3, 5, 7):
        for r in itertools.product((1, -1), repeat=m):
            b = row_sums(z_matrix(m, r))
            for i in range(1, m):
                assert int(b[i]) - int(b[i - 1]) == b_diff_predicted(i, r)
    for m in (9, 11, 13, 15):
        for _ in range(150):
            r = tuple(rng.choice((1, -1)) for _ in range(m))
            b = row_sums(z_matrix(m, r))
            for i in range(1, m):
                assert int(b[i]) - int(b[i - 1]) == b_diff_predicted(i, r)


def test_diagonal_steps_constant_off_exempt():
    rng = random.Random(3)
    for m in (3, 5, 9, 15):
        for _ in range(100):
            r = tuple(rng.choice((1, -1)) for _ in range(m))
            z = z_matrix(m, r)
            for ell in range(1, m + 1):
                g = diagonal_vector(z, ell)
                want = 2 * (1 if ell % 2 == 0 else -1) * r[ell - 1]
                assert g.step == want
                for i in range(1, m):
                    if i in (ell - 1, ell):
                        continue
                    assert g.entries[i] - g.entries[i - 1] == want


def _oracle_sequences(m):
    if m <= 7:
        return itertools.product((1, -1), repeat=m)
    rng = random.Random(m)
    return [tuple(rng.choice((1, -1)) for _ in range(m)) for _ in range(200)]


@pytest.mark.parametrize("m", range(3, 22, 2))
def test_z_layer_matches_entrywise_oracles(m):
    # every r up to m = 7, 200 seeded r beyond
    for r in _oracle_sequences(m):
        z = z_matrix(m, r)
        want = oracles.z_entries(m, r)
        assert np.array_equal(z.entries, want)
        for ell in range(1, m + 1):
            g = diagonal_vector(z, ell)
            assert g.entries == oracles.gamma_entries(want, ell)
        b = row_sums(z)
        assert np.array_equal(b, want.sum(axis=1))
        diffs = oracles.b_diffs_by_runs(r)
        assert np.diff(b).tolist() == diffs
        assert [b_diff_predicted(i, r) for i in range(1, m)] == diffs


# --- transitive inverse and bordered determinants ---------------------------


def test_transitive_inverse_smallest():
    assert transitive_inverse(2).tolist() == [[0, -1], [1, 0]]


def test_transitive_inverse_is_inverse():
    for p in range(2, 41, 2):
        inv = transitive_inverse(p)
        # the alternating band: (-1)^(j-i) above the diagonal, skew below
        band = [
            [0 if i == j else (-1) ** ((j - i) % 2) * (1 if i < j else -1)
             for j in range(p)]
            for i in range(p)
        ]
        assert inv.tolist() == band
        s = transitive_tournament(p).skew.astype(np.int64)
        assert np.array_equal(s @ inv, np.eye(p, dtype=np.int64))


def test_transitive_inverse_first_row_pattern():
    inv = transitive_inverse(8)
    assert inv[0].tolist() == [0, -1, 1, -1, 1, -1, 1, -1]
    with pytest.raises(InvalidArgumentError):
        transitive_inverse(5)


def test_bordered_det_p2_closed_form():
    for a in (1, -1):
        for b1 in (1, -1):
            for b2 in (1, -1):
                assert bordered_det(a, (1, -1), (b1, b2)) == (a - b1 - b2) ** 2


def test_bordered_det_alternating_x_closed_form():
    rng = random.Random(4)
    for p in (2, 4, 6, 8):
        x = tuple((-1) ** i for i in range(p))  # 1, -1, 1, ...
        for _ in range(50):
            a = rng.choice((1, -1))
            y = tuple(rng.choice((1, -1)) for _ in range(p))
            closed = (
                a
                + sum(
                    (-1) ** i * (p + 1 - 2 * i) * y[i - 1]
                    for i in range(1, p + 1)
                )
            ) ** 2
            assert bordered_det(a, x, y) == closed


def test_bordered_det_matches_assembled_matrix():
    rng = random.Random(5)
    for p in (2, 4):
        for a in (1, -1):
            for x in itertools.product((1, -1), repeat=p):
                for y in itertools.product((1, -1), repeat=p):
                    s = assemble_bordered(a, x, y)
                    assert bordered_det(a, x, y) == det_exact(s)
                    assert det_exact(s) == oracles.det_leibniz(s)
    for p in (6, 8, 10):
        for _ in range(100):
            a = rng.choice((1, -1))
            x = tuple(rng.choice((1, -1)) for _ in range(p))
            y = tuple(rng.choice((1, -1)) for _ in range(p))
            assert bordered_det(a, x, y) == det_exact(assemble_bordered(a, x, y))


def test_bordered_det_rejects_odd_p():
    with pytest.raises(InvalidArgumentError):
        bordered_det(1, (1, -1, 1), (1, 1, 1))


# --- skew and Schur identities ----------------------------------------------


def test_skew_bilinear_identity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        a = rng.integers(-4, 5, size=(n, n))
        s = a - a.T
        x = rng.integers(-5, 6, size=n)
        y = rng.integers(-5, 6, size=n)
        assert x @ s @ y == -(y @ s @ x)
        assert x @ s @ x == 0


def _adjugate(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    adj = np.zeros((n, n), object)
    for i in range(n):
        for j in range(n):
            sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * oracles.det_leibniz(sub)
    return adj


def test_schur_identity_unimodular_block():
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        lo = np.tril(rng.integers(-2, 3, size=(q, q)), -1) + np.eye(q, dtype=np.int64)
        up = np.triu(rng.integers(-2, 3, size=(q, q)), 1) + np.eye(q, dtype=np.int64)
        m22 = (lo @ up).astype(np.int64)
        d22 = det_exact(m22)
        assert d22 in (1, -1)
        m11 = rng.integers(-3, 4, size=(k, k)).astype(np.int64)
        m12 = rng.integers(-3, 4, size=(k, q)).astype(np.int64)
        m21 = rng.integers(-3, 4, size=(q, k)).astype(np.int64)
        full = np.block([[m11, m12], [m21, m22]])
        inv22 = (_adjugate(m22) * d22).astype(object)
        schur = m11.astype(object) - m12.astype(object) @ inv22 @ m21
        assert det_exact(full) == det_exact(schur) * d22


# --- deletion identity ---------------------------------------------------------


def test_deletion_identity_small_exhaustive():
    for sig in all_sigmas(4):
        assert ln_deletion_det_check(4, sig)
    for sig in all_sigmas(6):
        assert ln_deletion_det_check(6, sig)


def test_deletion_identity_random_large():
    rng = random.Random(8)
    for n in (8, 10):
        assert ln_deletion_det_check(n, (1,) * n)
        for _ in range(60):
            sig = tuple(rng.choice((1, -1)) for _ in range(n))
            assert ln_deletion_det_check(n, sig)


def test_deletion_identity_validation():
    with pytest.raises(InvalidArgumentError):
        ln_deletion_det_check(5, (1,) * 5)
    with pytest.raises(InvalidArgumentError):
        ln_deletion_det_check(4, (1, 1, 1))
