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


def test_every_scan_route_reads_one_order_guard(monkeypatch):
    # lowering SCAN_LIMIT moves every route's cap with it: each route
    # answers at its largest order and refuses the next one
    from crtour import cr
    from crtour.blowup import _first_switching_copy
    from crtour.zmatrix import ln_deletion_det_check

    monkeypatch.setattr(kernels, "SCAN_LIMIT", 5)
    t = transitive_tournament
    routes = [
        (kernels.pfaffian_table, t(5).skew, t(6).skew),
        (cr.cr_witness_table, t(5), t(6)),
        (cr.is_cr_tournament, t(4), t(5)),  # extensions of order n + 1
        (cr.is_strong_cr, t(3), t(4)),  # blowup extensions, n + 2
        (lambda s: _first_switching_copy(s, t(2)), t(5), t(6)),
        (lambda n: ln_deletion_det_check(n, (1,) * n), 4, 6),  # n + 1
    ]
    for route, largest, refused in routes:
        route(largest)
        with pytest.raises(ResourceLimitError):
            route(refused)


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


def _doubled_cases():
    from crtour import gen_ln
    from test_detkit import doubled_paley

    rng = random.Random(13)
    ts = [random_tournament(rng, n) for n in range(1, 11) for _ in range(3)]
    return ts + [gen_ln(n) for n in range(2, 11)] + [doubled_paley(7)]


def test_doubled_table_is_the_blowup_table():
    # Pf_b(X + v + v') = Pf(X) and Pf_b(X + v') = Pf(X + v)
    from crtour import one_transitive_blowups

    for t in _doubled_cases():
        pf = kernels.pfaffian_table(t.skew)
        for v, b in enumerate(one_transitive_blowups(t)):
            pf_b, coef_b = kernels._doubled_attach_table(pf, v)
            want_pf, want_coef = kernels.attach_table(b.skew)
            assert pf_b.tolist() == want_pf.tolist()
            assert coef_b.tolist() == want_coef.tolist()


def test_attach_table_matches_bordered_pfaffians():
    # Pf(X + u) = C[X] @ s[:, u] for every odd X, u the last vertex
    rng = random.Random(14)
    for n in range(2, 9):
        s = random_tournament(rng, n + 1).skew
        pf_big = kernels.pfaffian_table(s)
        pf, coef = kernels.attach_table(s[:n, :n])
        odd = [x for x in range(1 << n) if bin(x).count("1") % 2]
        assert pf.tolist() == pf_big[: 1 << n].tolist()
        assert coef.shape == (len(odd), n)
        assert (coef @ s[:n, n].astype(np.int64)).tolist() == [
            int(pf_big[x | 1 << n]) for x in odd
        ]


def test_index_tables_are_built_only_for_a_new_top_order(monkeypatch):
    built = []
    real = kernels._attach_index
    monkeypatch.setattr(kernels, "_INDEX", real(0))
    monkeypatch.setattr(
        kernels, "_attach_index", lambda h: built.append(h) or real(h)
    )
    s = random_tournament(random.Random(15), 9).skew
    kernels.pfaffian_table(s)  # blocks up to h = 8
    kernels.attach_table(s[:7, :7])
    kernels.pfaffian_table(s[:5, :5])
    assert built == [8]
    kernels.attach_table(s)  # attaches to all 9 vertices
    kernels.max_even_minor(s)
    assert built == [8, 9]


def test_cached_tables_are_read_only():
    from crtour import cr, is_cr_tournament

    t = random_tournament(random.Random(16), 8)
    is_cr_tournament(t)
    tables = (*kernels._INDEX, *kernels._index(5), *cr._RELATIONS, *cr._relations(5))
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[..., 0] = 0


_ANSWERS_BY_ORDER = """
import json, random
from crtour import Tournament, gen_ln, is_cr_tournament, is_strong_cr, kernels
rng = random.Random(17)
out = []
for n in range(3, 10):
    for t in (gen_ln(n), Tournament.from_bits(n, rng.getrandbits(n * (n - 1) // 2))):
        rep = is_strong_cr(t) if n <= 7 else is_cr_tournament(t)
        out.append([kernels.pfaffian_table(t.skew).tolist(), rep.to_json()])
print(json.dumps(out))
"""


def test_cached_tables_give_fresh_answers():
    # answers at orders 3-9 after an order-12 call equal a fresh process's
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from crtour import gen_ln, is_cr_tournament

    src = str(Path(kernels.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    fresh = subprocess.run(
        [sys.executable, "-c", _ANSWERS_BY_ORDER],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert is_cr_tournament(gen_ln(12)).ok
    assert kernels._INDEX[1].shape[0] >= 12
    here = {}
    exec(_ANSWERS_BY_ORDER.replace("print(json.dumps(out))", ""), here)
    # compared as text, so witness_map key order counts too
    assert fresh.strip() == json.dumps(here["out"])


@pytest.mark.parametrize("n", [1, 8, 62, 63, 64, 65, 100])
def test_out_masks_match_a_double_loop_across_the_int64_boundary(n):
    # bit u of beats[v] is set exactly when v beats u, at orders on both
    # sides of 64 bits
    rng = random.Random(n)
    randoms = [_random_skew(rng, n) for _ in range(3)]
    for s in (transitive_tournament(n).skew, *randoms):
        ref = [0] * n
        for v in range(n):
            for u in range(n):
                if s[v, u] > 0:
                    ref[v] |= 1 << u
        assert kernels._out_masks(s) == ref
