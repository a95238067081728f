"""Blowups, decomposition, xi-membership and the D_5 classifier."""

import itertools
import random

import numpy as np
import pytest

from crtour import (
    InvalidArgumentError,
    ResourceLimitError,
    Tournament,
    all_sigmas,
    as_transitive_blowup_of,
    classify_d5,
    contains_switching_isomorphic,
    cr_associated,
    cr_vertex_witness,
    decompose_brute_force,
    decompose_transitive_blowup,
    extend,
    gen_ln,
    in_dk,
    in_dk_exactly,
    induced,
    is_basic,
    is_transitive,
    max_subtournament_det,
    one_transitive_blowups,
    switch,
    switching_to_transitive,
    tournament_det,
    transitive_blowup,
    transitive_tournament,
    xi_blowup_check,
)
from crtour.blowup import Decomposition, _verify_decomposition, blowup
from crtour.kernels import SCAN_LIMIT
from crtour.verify import d7_six_tournament

import oracles


def cycle3() -> Tournament:
    return Tournament(np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], np.int8))


def random_switched_blowup(rng, base, max_order):
    sizes = [1] * base.n
    for _ in range(rng.randint(0, max_order - base.n)):
        sizes[rng.randrange(base.n)] += 1
    t = transitive_blowup(base, sizes)
    w = frozenset(v for v in range(t.n) if rng.random() < 0.5)
    return switch(t, w)


# --- construction -------------------------------------------------------


def test_identity_blowup():
    base = gen_ln(2)
    assert blowup(base, [transitive_tournament(1)] * 2) == base
    assert transitive_blowup(base, (1, 1)) == base


def test_blowup_of_two_chain_is_transitive():
    t = transitive_blowup(transitive_tournament(2), (3, 2))
    assert is_transitive(t) == (0, 1, 2, 3, 4)


def test_three_cycle_part_multiplies_det_by_nine():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 6)
        base = oracles.random_tournament(rng, n)
        i = rng.randrange(n)
        parts = [
            cycle3() if j == i else transitive_tournament(1) for j in range(n)
        ]
        assert tournament_det(blowup(base, parts)) == 9 * tournament_det(base)


def test_l4_cycle_blowup_det_81():
    parts = [cycle3()] + [transitive_tournament(1)] * 3
    assert tournament_det(blowup(gen_ln(4), parts)) == 81


def test_transitive_blowup_keeps_exact_class():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 5)
        base = oracles.random_tournament(rng, n)
        sizes = [rng.randint(1, 3) for _ in range(n)]
        big = transitive_blowup(base, sizes)
        k = max_subtournament_det(base).k
        assert in_dk_exactly(big, k)
        for bound in (1, 3, 5, 7):
            assert in_dk(base, bound) == in_dk(big, bound)


def test_equivalent_bases_give_equivalent_blowups():
    from crtour import switching_equivalent

    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 5)
        t1 = oracles.random_tournament(rng, n)
        w = frozenset(v for v in range(n) if rng.random() < 0.5)
        t2 = switch(t1, w)
        parts = [
            oracles.random_tournament(rng, rng.randint(1, 3))
            for _ in range(n)
        ]
        b1 = blowup(t1, parts)
        b2 = blowup(t2, parts)
        assert switching_equivalent(b1, b2) is not None


def test_ln_transitive_blowup_class():
    t = transitive_blowup(gen_ln(4), (2, 1, 1, 1))
    assert max_subtournament_det(t).max_minor == 9
    assert in_dk_exactly(t, 3)


def test_blowup_rejects_bad_parts():
    with pytest.raises(InvalidArgumentError):
        blowup(gen_ln(2), [transitive_tournament(1)])
    with pytest.raises(InvalidArgumentError):
        transitive_blowup(gen_ln(2), (0, 2))


def test_one_transitive_blowups_shape():
    t = gen_ln(5)
    bs = one_transitive_blowups(t)
    assert len(bs) == 5
    assert all(b.n == 6 for b in bs)
    # the duplicated pair are covertices by construction
    for i, b in enumerate(bs):
        assert cr_associated(b, i, i + 1) == "covertices"


# --- structural facts ----------------------------------------------------


def test_covertex_extension_of_basic_is_basic(classes):
    # attach covertex copies of two distinct vertices, inverting the
    # connecting arc relative to the base pair: still basic
    for t in classes[4] + classes[5]:
        if not is_basic(t):
            continue
        n = t.n
        for vi, vj in itertools.permutations(range(n), 2):
            sig1 = tuple(int(t.skew[vi, x]) if x != vi else 1 for x in range(n))
            e1 = extend(t, sig1)
            sig2 = []
            for x in range(n + 1):
                if x == vj:
                    sig2.append(1)
                elif x == n:
                    # theta(u1, u2) must invert the base arc vi -> vj
                    sig2.append(int(t.skew[vi, vj]))
                else:
                    sig2.append(int(t.skew[vj, x]))
            e2 = extend(e1, tuple(sig2))
            assert is_basic(e2)


def test_cycle_blowup_of_basic_is_basic(classes):
    for t in classes[4] + classes[5]:
        if not is_basic(t):
            continue
        for i in range(t.n):
            parts = [
                cycle3() if j == i else transitive_tournament(1)
                for j in range(t.n)
            ]
            assert is_basic(blowup(t, parts))


# --- xi membership --------------------------------------------------------


def test_outside_d1_contains_diamond_pattern(classes):
    l4 = gen_ln(4)
    for t in classes[5]:
        if not in_dk(t, 1):
            sub = contains_switching_isomorphic(t, l4)
            assert sub is not None
            assert len(sub) == 4


def test_d5_minus_d3_contains_l6_pattern():
    rng = random.Random(2)
    l6 = gen_ln(6)
    for _ in range(10):
        t = random_switched_blowup(rng, l6, 8)
        assert in_dk_exactly(t, 5)
        sub = contains_switching_isomorphic(t, l6)
        assert sub is not None and len(sub) == 6


def test_d7_six_tournament_has_no_l8_pattern():
    assert contains_switching_isomorphic(d7_six_tournament(), gen_ln(8)) is None


def test_contains_switching_isomorphic_matches_bruteforce():
    rng = random.Random(9)
    l4 = gen_ln(4)
    for _ in range(40):
        t = oracles.random_tournament(rng, rng.randint(3, 5))
        got = contains_switching_isomorphic(t, l4)
        ref = None
        for sub in itertools.combinations(range(t.n), 4):
            if oracles.brute_switching_isomorphic(induced(t, sub), l4):
                ref = sub
                break
        assert (got is None) == (ref is None)
        assert got == ref  # both scan subsets in lexicographic order


# --- decomposition ---------------------------------------------------------


def test_decompose_plain_blowup_keeps_empty_switch():
    t = transitive_blowup(gen_ln(4), (2, 1, 1, 1))
    dec = decompose_transitive_blowup(t, gen_ln(4))
    assert dec is not None
    assert dec.switch_set == frozenset()
    assert _verify_decomposition(t, dec)


def test_decompose_round_trip_random_switched_blowups():
    rng = random.Random(3)
    for base_n, max_order in ((4, 7), (6, 8)):
        base = gen_ln(base_n)
        for _ in range(25):
            t = random_switched_blowup(rng, base, max_order)
            dec = decompose_transitive_blowup(t, base)
            assert dec is not None
            assert _verify_decomposition(t, dec)
            if t.n <= 7:
                assert decompose_brute_force(t, base) is not None


def test_blowup_module_is_not_shadowed():
    import crtour.blowup as module

    assert module.__name__ == "crtour.blowup"
    assert module.blowup is blowup


def test_bruteforce_verifies_each_success_once(monkeypatch):
    results = []

    def counted(t, dec):
        results.append(_verify_decomposition(t, dec))
        return results[-1]

    monkeypatch.setattr("crtour.blowup._verify_decomposition", counted)
    rng = random.Random(6)
    base = gen_ln(4)
    for _ in range(10):
        t = random_switched_blowup(rng, base, 7)
        results.clear()
        dec = decompose_brute_force(t, base)
        assert dec is not None and _verify_decomposition(t, dec)
        assert results.count(True) == 1


def test_decompose_agrees_with_bruteforce_on_nonblowups():
    rng = random.Random(4)
    base = gen_ln(4)
    for _ in range(40):
        t = oracles.random_tournament(rng, rng.randint(4, 6))
        got = decompose_transitive_blowup(t, base)
        ref = decompose_brute_force(t, base)
        assert (got is None) == (ref is None)
        if got is not None:
            assert _verify_decomposition(t, got)


def test_noncr_extension_does_not_decompose():
    rng = random.Random(5)
    base = gen_ln(6)
    noncr = [
        s for s in all_sigmas(6) if cr_vertex_witness(base, s) is None
    ]
    for sig in noncr[:10]:
        ext = extend(base, sig)
        assert decompose_transitive_blowup(ext, base) is None
        assert not in_dk(ext, 5)


def test_verify_decomposition_names_every_base_vertex():
    l4 = gen_ln(4)
    exact = Decomposition(frozenset(), ((0,), (1,), (2,), (3,)), (0, 1, 2, 3), l4)
    assert _verify_decomposition(l4, exact)
    # three vertices cannot be a blowup of the 4-vertex L_4
    short = Decomposition(frozenset(), ((0,), (1,), (2,)), (0, 1, 2), l4)
    assert not _verify_decomposition(induced(l4, [0, 1, 2]), short)
    twice = Decomposition(frozenset(), ((0,), (1,), (2,), (3,)), (0, 1, 2, 2), l4)
    assert not _verify_decomposition(l4, twice)
    repeated = Decomposition(frozenset(), ((0, 0), (1,), (2,), (3,)), (0, 1, 2, 3), l4)
    assert not _verify_decomposition(l4, repeated)


def test_copy_search_stops_at_scan_limit():
    big = transitive_tournament(SCAN_LIMIT + 1)
    with pytest.raises(ResourceLimitError):
        contains_switching_isomorphic(big, gen_ln(4))
    with pytest.raises(ResourceLimitError):
        decompose_transitive_blowup(big, gen_ln(4))


def test_decompose_rejects_non_basic_base():
    with pytest.raises(InvalidArgumentError):
        decompose_transitive_blowup(gen_ln(5), gen_ln(5))
    with pytest.raises(InvalidArgumentError):
        as_transitive_blowup_of(gen_ln(5), transitive_tournament(4))


def test_decomposition_json_labels_ln_bases():
    t = transitive_blowup(gen_ln(4), (1, 2, 1, 1))
    dec = decompose_transitive_blowup(t, gen_ln(4))
    j = dec.to_json()
    assert j["base"] == "L4"
    assert sorted(sum(j["blocks"], [])) == [1, 2, 3, 4, 5]
    assert j["base_vertex_of_block"] == [1, 2, 3, 4]


# --- switching to transitive ------------------------------------------------


def test_switching_to_transitive(classes):
    # order 7 by sample: switched relabelled chains (all diamond-free)
    # and random tournaments
    rng = random.Random(10)
    order7 = []
    for _ in range(100):
        p = rng.sample(range(7), 7)
        chain = Tournament(transitive_tournament(7).skew[np.ix_(p, p)])
        w = [v for v in range(7) if rng.random() < 0.5]
        order7 += [switch(chain, w), oracles.random_tournament(rng, 7)]
    for t in classes[4] + classes[5] + classes[6] + tuple(order7):
        w = switching_to_transitive(t)
        diamond_free = not oracles.has_diamond(t)
        assert (w is not None) == diamond_free
        if w is not None:
            assert 0 not in w
            assert is_transitive(switch(t, w)) is not None


# --- classify ---------------------------------------------------------------


def test_classify_examples():
    c = classify_d5(transitive_tournament(6))
    assert c.label == "D1" and c.agree and c.decomposition is not None
    c = classify_d5(gen_ln(4))
    assert c.label == "D3\\D1" and c.agree
    assert c.decomposition.base == gen_ln(4)
    c = classify_d5(d7_six_tournament())
    assert c.label == "beyond-D5" and c.decomposition is None
    with pytest.raises(InvalidArgumentError):
        classify_d5(transitive_tournament(1))


def test_classify_blowups_of_l6():
    rng = random.Random(6)
    for _ in range(10):
        t = random_switched_blowup(rng, gen_ln(6), 8)
        c = classify_d5(t)
        assert c.label == "D5\\D3" and c.agree
        assert _verify_decomposition(t, c.decomposition)


def test_classify_exhaustive_small(classes):
    for n in (2, 3, 4, 5):
        for t in classes[n]:
            c = classify_d5(t)
            assert c.agree
            k = max_subtournament_det(t).k
            label = {1: "D1", 3: "D3\\D1", 5: "D5\\D3"}.get(k, "beyond-D5")
            assert c.label == label


# --- xi equivalence -----------------------------------------------------------


def test_xi_check_positive_cases():
    rng = random.Random(7)
    for _ in range(5):
        t = random_switched_blowup(rng, gen_ln(8), 10)
        assert xi_blowup_check(t, 7) == (True, True)


def test_xi_check_negative_case():
    assert xi_blowup_check(d7_six_tournament(), 7) == (False, False)


def test_xi_check_runs_one_copy_search(monkeypatch):
    import sys

    mod = sys.modules["crtour.blowup"]
    calls = []
    real = mod._first_switching_copy
    monkeypatch.setattr(
        mod, "_first_switching_copy", lambda t, h: calls.append(1) or real(t, h)
    )
    t = random_switched_blowup(random.Random(8), gen_ln(8), 9)
    for case, want in ((t, (True, True)), (d7_six_tournament(), (False, False))):
        calls.clear()
        assert xi_blowup_check(case, 7) == want
        assert len(calls) == 1


def test_xi_check_l10_against_itself():
    assert xi_blowup_check(gen_ln(10), 9) == (True, True)


def test_xi_check_rejects_wrong_class():
    with pytest.raises(InvalidArgumentError):
        xi_blowup_check(gen_ln(6), 7)
    with pytest.raises(InvalidArgumentError):
        xi_blowup_check(gen_ln(8), 6)


def test_blowups_match_entrywise_definition():
    # entry (a, b) of a blowup is the base arc between the parts of a
    # and b, or the part's own arc when both lie in one part
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 6)
        base = oracles.random_tournament(rng, m)
        parts = [oracles.random_tournament(rng, rng.randint(1, 3)) for _ in range(m)]
        where = [(i, a) for i, p in enumerate(parts) for a in range(p.n)]
        want = np.zeros((len(where), len(where)), np.int8)
        for x, (i, a) in enumerate(where):
            for y, (j, b) in enumerate(where):
                want[x, y] = parts[i].skew[a, b] if i == j else base.skew[i, j]
        assert np.array_equal(blowup(base, parts).skew, want)
        sizes = [p.n for p in parts]
        chains = [transitive_tournament(s) for s in sizes]
        assert transitive_blowup(base, sizes) == blowup(base, chains)
