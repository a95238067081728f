"""Acceptance criteria, one test per criterion.

Every check is exact integer equality (no tolerances anywhere); each
criterion also carries a wall-clock budget.  One pass/fail line prints
per criterion (visible with `pytest -s` or on failure).
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from crtour import (
    Tournament,
    all_sigmas,
    assemble_bordered,
    b_diff_predicted,
    bordered_det,
    count_cr_sigmas,
    cr_vertex_witness,
    delta_total,
    det_exact,
    diagonal_vector,
    enumerate_tournaments,
    extend,
    gen_ln,
    gen_ln_minus,
    in_dk,
    in_dk_exactly,
    induced,
    is_basic,
    is_cr_tournament,
    is_diamond,
    is_strong_cr,
    ln_deletion_det_check,
    ln_extension_is_cr,
    max_subtournament_det,
    row_sums,
    sigma_from_string,
    switch,
    switching_isomorphic,
    switching_to_transitive,
    tournament_det,
    transitive_blowup,
    xi_blowup_check,
    z_matrix,
)
from crtour.blowup import _verify_decomposition, decompose_transitive_blowup
from crtour.verify import d7_six_tournament

import oracles


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{name} took {elapsed:.1f}s (budget {seconds}s)"
    print(f"{name}: PASS ({elapsed:.2f}s)")


def test_ac01_ln_determinants():
    with budget("AC01 det(L_n) = (n-1)^2 for even n <= 12", 1.0):
        for n in (2, 4, 6, 8, 10, 12):
            assert tournament_det(gen_ln(n)) == (n - 1) ** 2


def test_ac02_ln_exact_class_by_full_scan():
    with budget("AC02 L_n in D_{n-1} \\ D_{n-3} for even n <= 10", 30.0):
        for n in (2, 4, 6, 8, 10):
            rep = max_subtournament_det(gen_ln(n))
            assert rep.max_minor == (n - 1) ** 2
            assert rep.k == n - 1
            assert in_dk_exactly(gen_ln(n), n - 1)
            if n >= 4:
                assert not in_dk(gen_ln(n), n - 3)


def test_ac03_order6_det49_classification():
    with budget("AC03 the order-6 det-49 tournament sits in D_7 \\ D_5", 1.0):
        t = d7_six_tournament()
        assert oracles.det_leibniz(t.skew) == 49
        assert tournament_det(t) == 49
        rep = max_subtournament_det(t)
        assert (rep.max_minor, rep.k) == (49, 7)
        assert in_dk_exactly(t, 7)
        assert not in_dk(t, 5)


def test_ac04_d1_equivalences_exhaustive():
    with budget("AC04 D_1 <=> no diamond <=> switched transitive, n <= 6", 120.0):
        from crtour import classify_d5

        failures = 0
        for n in range(1, 7):
            for t in enumerate_tournaments(n, classes=True):
                a = in_dk(t, 1)
                b = not any(
                    tournament_det(induced(t, sub)) == 9
                    for sub in itertools.combinations(range(n), 4)
                )
                w = switching_to_transitive(t)
                c = w is not None
                if not (a == b == c):
                    failures += 1
                if a and n >= 2:
                    cls = classify_d5(t)
                    if cls.label != "D1" or not cls.agree:
                        failures += 1
        assert failures == 0


def test_ac05_det25_iff_swiso_l6():
    with budget("AC05 sw-iso to L_6 <=> det 25, all order-6 classes", 60.0):
        l6 = gen_ln(6)
        for t in enumerate_tournaments(6, classes=True):
            assert (switching_isomorphic(t, l6) is not None) == (
                tournament_det(t) == 25
            )


def test_ac06_order3_cr_with_two_noncr():
    with budget("AC06 both 3-tournaments CR, 2 non-CR relations, det 9", 10.0):
        reps = list(enumerate_tournaments(3, classes=True))
        assert len(reps) == 2
        for t in reps:
            assert is_cr_tournament(t).ok
            noncr = [
                s for s in all_sigmas(3) if cr_vertex_witness(t, s) is None
            ]
            assert len(noncr) == 2
            for s in noncr:
                assert tournament_det(extend(t, s)) == 9


def test_ac07_cr_relation_count_bound():
    with budget("AC07 CR-relation count <= 4n (2^n on trivial cases)", 60.0):
        for n in range(3, 7):
            for t in enumerate_tournaments(n, classes=True):
                c = count_cr_sigmas(t)
                if is_diamond(t):
                    assert c == 1 << n
                else:
                    assert c <= 4 * n
                    assert c < 1 << n


def test_ac08_run_count_rule_matches_detection():
    with budget("AC08 run-count rule == direct CR detection, n in {4,6,8}", 60.0):
        for n in (4, 6, 8):
            for minus in (False, True):
                t = gen_ln_minus(n) if minus else gen_ln(n)
                for sig in all_sigmas(n):
                    assert ln_extension_is_cr(n, sig, minus=minus) == (
                        cr_vertex_witness(t, sig) is not None
                    )


def test_ac09_l8_basic_strong_cr():
    with budget("AC09 L_8 is basic strong CR (full definition scan)", 600.0):
        t = gen_ln(8)
        assert is_basic(t)
        rep = is_strong_cr(t)
        assert rep.ok
        assert len(rep.blowups) == 8
        assert all(r.ok for _, r in rep.blowups)
        assert rep.base.ok


def test_ac10_zmatrix_display_reproduced():
    with budget("AC10 order-9 Z-matrix display, all 72 entries + 9 diagonals", 10.0):
        r = sigma_from_string("+++---+--")
        z = z_matrix(9, r)
        expected = [
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
        assert z.entries.tolist() == expected
        gammas = {
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
        for ell, want in gammas.items():
            assert diagonal_vector(z, ell).entries == want


def test_ac11_zmatrix_laws():
    with budget("AC11 row-sum/step/difference laws, exhaustive + random", 120.0):
        rng = random.Random(0)

        def check(m, r):
            z = z_matrix(m, r)
            b = row_sums(z)
            gammas = [diagonal_vector(z, ell) for ell in range(1, m + 1)]
            sums = [sum(col) for col in zip(*(g.entries for g in gammas))]
            assert b.tolist() == sums  # b = sum_ell Gamma_ell, entrywise
            delta = delta_total(r)
            assert delta == sum(g.step for g in gammas)
            for ell, g in enumerate(gammas, start=1):
                for i in range(1, m):
                    if i not in (ell - 1, ell):
                        assert g.entries[i] - g.entries[i - 1] == g.step
            for i in range(1, m):
                assert int(b[i]) - int(b[i - 1]) == b_diff_predicted(i, r)

        for m in (3, 5, 7):
            for r in itertools.product((1, -1), repeat=m):
                check(m, r)
        for m in (9, 11, 13, 15):
            for _ in range(1000):
                check(m, tuple(rng.choice((1, -1)) for _ in range(m)))


def test_ac12_bordered_det_equals_assembled():
    with budget("AC12 bordered closed form == assembled det", 120.0):
        rng = random.Random(1)
        for p in (2, 4, 6):
            for a in (1, -1):
                for x in itertools.product((1, -1), repeat=p):
                    for y in itertools.product((1, -1), repeat=p):
                        assert bordered_det(a, x, y) == det_exact(
                            assemble_bordered(a, x, y)
                        )
        for p in (8, 10):
            for _ in range(1000):
                a = rng.choice((1, -1))
                x = tuple(rng.choice((1, -1)) for _ in range(p))
                y = tuple(rng.choice((1, -1)) for _ in range(p))
                assert bordered_det(a, x, y) == det_exact(
                    assemble_bordered(a, x, y)
                )


def test_ac13_deletion_determinant_identity():
    with budget("AC13 deletion det == (a + b_i)^2, n in {8,10}", 120.0):
        rng = random.Random(2)
        for n in (8, 10):
            for _ in range(1000):
                sig = tuple(rng.choice((1, -1)) for _ in range(n))
                assert ln_deletion_det_check(n, sig)


def test_ac14_three_cycle_blowup_multiplies_by_nine():
    with budget("AC14 one-3-cycle blowups scale det by 9", 60.0):
        rng = random.Random(3)
        cycle = Tournament(
            np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], np.int8)
        )
        from crtour import transitive_tournament
        from crtour.blowup import blowup

        for _ in range(1000):
            n = rng.randint(2, 6)
            base = oracles.random_tournament(rng, n)
            i = rng.randrange(n)
            parts = [
                cycle if j == i else transitive_tournament(1)
                for j in range(n)
            ]
            assert tournament_det(blowup(base, parts)) == 9 * tournament_det(
                base
            )


def test_ac15_xi_equivalence_round_trip():
    with budget("AC15 100 switched L_8 blowups decompose and test xi-positive", 600.0):
        rng = random.Random(4)
        base = gen_ln(8)
        for _ in range(100):
            sizes = [1] * 8
            for _ in range(rng.randint(0, 3)):
                sizes[rng.randrange(8)] += 1
            t = transitive_blowup(base, sizes)
            t = switch(
                t, frozenset(v for v in range(t.n) if rng.random() < 0.5)
            )
            assert t.n <= 11
            assert xi_blowup_check(t, 7) == (True, True)
            dec = decompose_transitive_blowup(t, base)
            assert dec is not None and _verify_decomposition(t, dec)
        assert xi_blowup_check(d7_six_tournament(), 7) == (False, False)
