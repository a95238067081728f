"""Tournament values, switching, isomorphism, enumeration, formats."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crtour import (
    InvalidArgumentError,
    ResourceLimitError,
    Tournament,
    apply_permutation,
    bordered_det,
    canonical_encoding,
    enumerate_tournaments,
    extend,
    format_skew,
    format_trn,
    gen_ln,
    gen_ln_minus,
    induced,
    is_diamond,
    is_isomorphic,
    is_transitive,
    parse_tournament,
    switch,
    switching_equivalent,
    switching_isomorphic,
    theta,
    tournament_det,
    transitive_blowup,
    transitive_tournament,
    z_matrix,
)
from crtour import kernels
from crtour.blowup import blowup
from crtour.core import ENUM_LIMIT, _chain, _pm1_sequence, automorphism_count

import oracles


def cycle3() -> Tournament:
    # v1 -> v2 -> v3 -> v1
    return Tournament(np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], np.int8))


@st.composite
def tournaments(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    bits = draw(st.integers(0, (1 << m) - 1)) if m else 0
    return Tournament.from_bits(n, bits)


# --- theta ------------------------------------------------------------


def test_theta_ln_last_vertex():
    l4 = gen_ln(4)
    assert theta(l4, 3, 0) == 1  # v4 beats the odd-indexed chain head
    assert theta(l4, 3, 1) == -1
    assert theta(l4, 3, 2) == 1


def test_theta_antisymmetry_and_cycle():
    t = cycle3()
    assert theta(t, 2, 0) == 1
    for u in range(3):
        for v in range(3):
            if u != v:
                assert theta(t, u, v) * theta(t, v, u) == -1


def test_theta_rejects_bad_vertices():
    t = cycle3()
    with pytest.raises(InvalidArgumentError):
        theta(t, 0, 0)
    with pytest.raises(InvalidArgumentError):
        theta(t, 0, 5)


# --- switch -----------------------------------------------------------


def test_switch_empty_and_full_are_identity():
    t = gen_ln(5)
    assert switch(t, ()) == t
    assert switch(t, range(5)) == t


def test_switch_ln_at_last_vertex_gives_minus_variant():
    for n in (2, 4, 5, 6):
        assert switch(gen_ln(n), {n - 1}) == gen_ln_minus(n)


def test_switch_rejects_foreign_vertices():
    with pytest.raises(InvalidArgumentError):
        switch(cycle3(), {3})
    with pytest.raises(InvalidArgumentError):
        switch(cycle3(), [-1])


@given(tournaments(), st.data())
def test_switch_involution_and_complement(t, data):
    w = data.draw(st.sets(st.integers(0, t.n - 1)))
    assert switch(switch(t, w), w) == t
    assert switch(t, w) == switch(t, set(range(t.n)) - w)


# --- induced ----------------------------------------------------------


def test_induced_full_set_is_identity():
    t = gen_ln(6)
    assert induced(t, range(6)) == t


def test_induced_ln_chain_parts_are_transitive():
    assert is_transitive(induced(gen_ln(6), range(5))) is not None
    assert is_transitive(induced(gen_ln(4), (0, 1, 2))) is not None


def test_induced_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        induced(cycle3(), ())


def test_induced_rejects_out_of_range_vertices():
    # numpy would read -1 as the last vertex; n is past the end
    t = gen_ln(4)
    for verts in ([-1], [t.n], [0, 2, t.n], [-1, 0, 1]):
        with pytest.raises(InvalidArgumentError):
            induced(t, verts)


# --- +-1 sequences ------------------------------------------------------


def test_pm1_entries_are_tested_before_the_cast():
    ok = (1, -1, 1.0, True, np.int64(-1), np.int8(1))
    assert _pm1_sequence(ok, "r") == (1, -1, 1, 1, -1, 1)
    for bad in (1.7, 2, "1"):
        with pytest.raises(InvalidArgumentError):
            _pm1_sequence((1, bad), "r")
    # each of these truncated 1.x to 1 and returned an answer
    with pytest.raises(InvalidArgumentError):
        extend(gen_ln(2), (1.7, -1.3))
    with pytest.raises(InvalidArgumentError):
        z_matrix(3, (1.2, -1.4, 1.9))
    with pytest.raises(InvalidArgumentError):
        bordered_det(1, (1.5, -1.5), (1, 1))


# --- is_transitive ----------------------------------------------------


def test_chain_matches_its_definition():
    # (i, j) is +1 when i < j: the earlier vertex beats the later one
    for n in range(1, 13):
        want = [[(i < j) - (i > j) for j in range(n)] for i in range(n)]
        assert _chain(n).dtype == np.int8 and _chain(n).tolist() == want
        assert transitive_tournament(n).skew.tolist() == want


def test_is_transitive_examples():
    assert is_transitive(cycle3()) is None
    assert is_transitive(transitive_tournament(3)) == (0, 1, 2)
    assert is_transitive(gen_ln(4)) is None


def test_is_transitive_exhaustive_vs_3cycle_scan():
    for n in range(1, 6):
        for t in enumerate_tournaments(n):
            assert (is_transitive(t) is not None) == oracles.brute_is_transitive(t)


def test_is_transitive_ordering_is_a_chain():
    rng = random.Random(7)
    for _ in range(50):
        order = list(range(6))
        rng.shuffle(order)
        t = apply_permutation(transitive_tournament(6), order)
        chain = is_transitive(t)
        assert chain is not None
        for a, b in itertools.combinations(range(6), 2):
            assert theta(t, chain[a], chain[b]) == 1


# --- isomorphism ------------------------------------------------------


def test_is_isomorphic_identity_first():
    from test_detkit import doubled_paley

    for t in (gen_ln(6), induced(doubled_paley(11), range(11))):
        assert is_isomorphic(t, t) == tuple(range(t.n))


def test_is_isomorphic_cycle_relabelings():
    t = cycle3()
    t2 = apply_permutation(t, (2, 0, 1))
    phi = is_isomorphic(t, t2)
    assert phi is not None
    assert apply_permutation(t, phi) == t2


def test_l4_not_isomorphic_to_transitive():
    # determinants 9 vs 1 already forbid it; confirm by search
    assert tournament_det(gen_ln(4)) == 9
    assert tournament_det(transitive_tournament(4)) == 1
    assert is_isomorphic(gen_ln(4), transitive_tournament(4)) is None
    assert oracles.brute_isomorphic(gen_ln(4), transitive_tournament(4)) is None


def test_is_isomorphic_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 5)
        t1 = oracles.random_tournament(rng, n)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            t2 = apply_permutation(t1, perm)
        else:
            t2 = oracles.random_tournament(rng, n)
        got = is_isomorphic(t1, t2)
        ref = oracles.brute_isomorphic(t1, t2)
        assert (got is None) == (ref is None)
        if got is not None:
            assert apply_permutation(t1, got) == t2


# --- switching equivalence --------------------------------------------


def test_switching_equivalent_self_is_empty():
    t = gen_ln(5)
    assert switching_equivalent(t, t) == frozenset()


def test_switching_equivalent_ln_variants():
    for n in (2, 4, 6, 8):
        assert switching_equivalent(gen_ln(n), gen_ln_minus(n)) == frozenset({n - 1})


def test_cycle_not_equivalent_to_chain_on_same_labels():
    assert switching_equivalent(cycle3(), transitive_tournament(3)) is None
    assert oracles.brute_switching_equivalent(cycle3(), transitive_tournament(3)) is None


def test_switching_equivalent_rejects_order_mismatch():
    with pytest.raises(InvalidArgumentError):
        switching_equivalent(cycle3(), gen_ln(4))


def test_switching_equivalent_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(1, 6)
        t1 = oracles.random_tournament(rng, n)
        if rng.random() < 0.5:
            w = frozenset(v for v in range(n) if rng.random() < 0.5)
            t2 = switch(t1, w)
        else:
            t2 = oracles.random_tournament(rng, n)
        got = switching_equivalent(t1, t2)
        ref = oracles.brute_switching_equivalent(t1, t2)
        assert (got is None) == (ref is None)
        if got is not None:
            assert switch(t1, got) == t2


@given(tournaments(min_n=2, max_n=6), st.data())
def test_switching_equivalence_is_transitive(t1, data):
    n = t1.n
    w1 = data.draw(st.sets(st.integers(0, n - 1)))
    w2 = data.draw(st.sets(st.integers(0, n - 1)))
    t2 = switch(t1, w1)
    t3 = switch(t2, w2)
    assert switching_equivalent(t1, t2) is not None
    assert switching_equivalent(t2, t3) is not None
    assert switching_equivalent(t1, t3) is not None


# --- switching isomorphism --------------------------------------------


def test_switching_isomorphic_subsumes_equivalence():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 6)
        t1 = oracles.random_tournament(rng, n)
        w = frozenset(v for v in range(n) if rng.random() < 0.5)
        res = switching_isomorphic(t1, switch(t1, w))
        assert res is not None


def test_two_diamond_variants_are_switching_isomorphic():
    apex_beats = Tournament(
        np.array(
            [[0, 1, 1, 1], [-1, 0, 1, -1], [-1, -1, 0, 1], [-1, 1, -1, 0]],
            np.int8,
        )
    )
    apex_loses = Tournament(-apex_beats.skew)
    assert is_diamond(apex_beats) and is_diamond(apex_loses)
    assert is_isomorphic(apex_beats, apex_loses) is None
    assert switching_isomorphic(apex_beats, apex_loses) is not None


def test_det25_six_tournament_is_switching_isomorphic_to_l6():
    rng = random.Random(19)
    l6 = gen_ln(6)
    perm = list(range(6))
    rng.shuffle(perm)
    t = apply_permutation(switch(l6, {0, 3}), perm)
    assert tournament_det(t) == 25
    res = switching_isomorphic(t, l6)
    assert res is not None
    w, phi = res
    assert apply_permutation(switch(t, w), phi) == l6


def test_switching_isomorphic_different_orders_returns_none():
    assert switching_isomorphic(cycle3(), gen_ln(4)) is None


def test_switching_isomorphic_matches_bruteforce():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        t1 = oracles.random_tournament(rng, n)
        t2 = oracles.random_tournament(rng, n)
        got = switching_isomorphic(t1, t2)
        ref = oracles.brute_switching_isomorphic(t1, t2)
        assert (got is None) == (ref is None)
        if got is not None:
            w, phi = got
            assert apply_permutation(switch(t1, w), phi) == t2


def test_isomorphism_witnesses_where_many_leaves_tie():
    from test_detkit import doubled_paley

    # the canonical search keeps many tied leaves on Paley q = 7, 11, 19
    # (|Aut| = q(q-1)/2), doubled Paley 8 and 12, and L_4 to L_12
    tied = [induced(doubled_paley(q), range(q)) for q in (7, 11, 19)]
    tied += [doubled_paley(q) for q in (7, 11)]
    tied += [gen_ln(n) for n in range(4, 13)]
    rng = random.Random(29)
    for t in tied:
        n = t.n
        for _ in range(3):
            w = frozenset(v for v in range(n) if rng.random() < 0.5)
            perm = rng.sample(range(n), n)
            moved = apply_permutation(t, perm)
            switched = apply_permutation(switch(t, w), perm)
            phi = is_isomorphic(t, moved)
            assert phi is not None and apply_permutation(t, phi) == moved
            got = is_isomorphic(t, switched)
            if got is not None:
                assert apply_permutation(t, got) == switched
            res = switching_isomorphic(t, switched)
            assert res is not None
            assert apply_permutation(switch(t, res[0]), res[1]) == switched
            if n <= 6:
                ref = oracles.brute_isomorphic(t, switched)
                assert (got is None) == (ref is None)
                assert oracles.brute_switching_isomorphic(t, switched)


# --- diamonds ---------------------------------------------------------


def test_is_diamond_examples():
    assert is_diamond(gen_ln(4))
    assert not is_diamond(transitive_tournament(4))
    assert not is_diamond(gen_ln(5))
    assert oracles.det_leibniz(transitive_tournament(4).skew) == 1


# --- enumeration ------------------------------------------------------


def test_enumerate_labeled_counts():
    for n in range(1, 5):
        m = n * (n - 1) // 2
        assert sum(1 for _ in enumerate_tournaments(n)) == 1 << m


def _assert_carries_fresh_search(reps):
    # each representative carries exactly what a fresh search of it
    # returns: its own bits, |Aut| and the identity leaf.  A seeded
    # relabelling of every class, the symmetric ones (most tied
    # prefixes) included, searches back to that code and |Aut|, and
    # its leaf relabels it onto the code.
    rng = random.Random(78)
    for t in reps:
        assert t._canon == kernels._canonical_search(t.skew)
        assert t._canon == (t.packed(), automorphism_count(t), tuple(range(t.n)))
        moved = apply_permutation(t, rng.sample(range(t.n), t.n))
        code, aut, leaf = kernels._canonical_search(moved.skew)
        assert (code, aut) == t._canon[:2]
        # leaf[i] is the vertex of moved placed at position i
        phi = [leaf.index(v) for v in range(t.n)]
        assert apply_permutation(moved, phi).packed() == code


def test_enumerate_classes_complete_and_distinct(classes):
    # distinct canonical codes prove pairwise non-isomorphism; the
    # orbit-size sum hitting 2^(n(n-1)/2) proves completeness
    for n in range(1, 7):
        reps = classes[n]
        codes = [canonical_encoding(t) for t in reps]
        assert len(set(codes)) == len(reps)
        assert codes == sorted(codes)
        total = sum(
            math.factorial(n) // automorphism_count(t) for t in reps
        )
        assert total == 1 << (n * (n - 1) // 2)
        _assert_carries_fresh_search(reps)


def test_enumerate_class_counts(classes):
    assert [len(classes[n]) for n in range(1, 7)] == [1, 1, 2, 4, 12, 56]


def test_enumerate_order7_classes_complete():
    reps = list(enumerate_tournaments(7, classes=True))
    codes = [canonical_encoding(t) for t in reps]
    assert len(set(codes)) == len(reps)
    total = sum(math.factorial(7) // automorphism_count(t) for t in reps)
    assert total == 1 << 21
    assert len(reps) == 456
    _assert_carries_fresh_search(reps)


def test_census_questions_on_representatives_run_no_search(monkeypatch):
    reps = list(enumerate_tournaments(7, classes=True))

    def no_search(*_args):
        raise AssertionError("a class representative was searched again")

    monkeypatch.setattr(kernels, "_search", no_search)
    monkeypatch.setattr(kernels, "_canonical_search", no_search)
    total = sum(math.factorial(7) // automorphism_count(t) for t in reps)
    assert total == 1 << 21
    for t in reps:
        assert canonical_encoding(t) == t.packed()
        assert is_isomorphic(t, t) == tuple(range(7))


def test_enumerate_order8_classes():
    # OEIS A000568: 6880 tournaments of order 8 up to isomorphism
    reps = list(enumerate_tournaments(8, classes=True))
    codes = [canonical_encoding(t) for t in reps]
    assert len(reps) == 6880
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert [t.packed() for t in reps] == codes
    total = sum(math.factorial(8) // automorphism_count(t) for t in reps)
    assert total == 1 << 28
    _assert_carries_fresh_search(reps)


def test_enumerate_rejects_beyond_cap(monkeypatch):
    # the cap is fixed: the environment variable that once raised it
    # is ignored
    monkeypatch.setenv("CRTOUR_MAX_N", "9")
    with pytest.raises(ResourceLimitError):
        list(enumerate_tournaments(ENUM_LIMIT + 1))
    with pytest.raises(InvalidArgumentError):
        list(enumerate_tournaments(0))


def test_automorphism_count_matches_bruteforce():
    rng = random.Random(29)
    for _ in range(40):
        t = oracles.random_tournament(rng, rng.randint(1, 5))
        assert automorphism_count(t) == oracles.brute_canonical(t)[1]


def test_canonical_encoding_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(40):
        t = oracles.random_tournament(rng, rng.randint(2, 5))
        ref = int(oracles.brute_canonical(t)[0], 2)
        assert canonical_encoding(t) == ref


def _relabelings(t, rng, k):
    for _ in range(k):
        perm = list(range(t.n))
        rng.shuffle(perm)
        yield apply_permutation(t, perm)


def test_canonical_forms_match_oracles_on_every_small_class(classes):
    # only the representative itself carries its enumeration's search:
    # a stale identity leaf on a relabelled copy would make
    # is_isomorphic return a wrong witness
    rng = random.Random(43)
    draw = random.Random(53)
    for n in range(1, 7):
        for rep in classes[n]:
            bits, aut = oracles.brute_canonical(rep)
            code = int(bits or "0", 2)
            copies = (Tournament(rep.skew), Tournament.from_bits(n, rep.bits()))
            for t in (rep, *copies, *_relabelings(rep, rng, 3)):
                assert t is rep or t._canon is None
                assert canonical_encoding(t) == code
                assert automorphism_count(t) == aut
                phi = is_isomorphic(rep, t)
                assert phi is not None and apply_permutation(rep, phi) == t
            w = {v for v in range(n) if draw.random() < 0.5}
            u = draw.sample(range(n), draw.randint(1, n))
            for t in (switch(rep, w), induced(rep, u)):
                assert t._canon is None
                bits, aut = oracles.brute_canonical(t)
                assert canonical_encoding(t) == int(bits or "0", 2)
                assert automorphism_count(t) == aut


def test_canonical_forms_match_oracles_at_order7():
    rng = random.Random(47)
    for _ in range(10):
        t = oracles.random_tournament(rng, 7)
        bits, aut = oracles.brute_canonical(t)
        assert canonical_encoding(t) == int(bits, 2)
        assert automorphism_count(t) == aut


def test_transitive_canonical_form():
    # in reversed chain order every later vertex beats every earlier one,
    # so every bit is 0
    for n in range(1, 10):
        t = transitive_tournament(n)
        assert canonical_encoding(t) == 0
        assert automorphism_count(t) == 1


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_paley_canonical_form(q):
    from test_detkit import doubled_paley

    # the Paley tournament on F_q: its automorphisms are the maps
    # x -> a x + b with a a nonzero square, q (q - 1) / 2 of them
    t = induced(doubled_paley(q), range(q))
    rng = random.Random(q)
    code = canonical_encoding(t)
    assert automorphism_count(t) == q * (q - 1) // 2
    assert is_isomorphic(Tournament.from_bits(q, code), t) is not None
    for moved in _relabelings(t, rng, 3):
        assert canonical_encoding(moved) == code
        assert automorphism_count(moved) == q * (q - 1) // 2


def test_canonical_encoding_is_isomorphism_invariant():
    rng = random.Random(37)
    for _ in range(30):
        t = oracles.random_tournament(rng, rng.randint(2, 6))
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_encoding(t) == canonical_encoding(
            apply_permutation(t, perm)
        )


def test_canonical_search_is_exact_above_order_63():
    # out-neighbourhood bitmasks of 70 vertices pass 64 bits: int64
    # masks would wrap and read L_70 as having 720 automorphisms
    assert automorphism_count(gen_ln(70)) == 1
    assert canonical_encoding(transitive_tournament(70)) == 0
    rng = random.Random(70)
    t = oracles.random_tournament(rng, 70)
    moved = apply_permutation(t, rng.sample(range(70), 70))
    assert canonical_encoding(t) == canonical_encoding(moved)
    phi = is_isomorphic(t, moved)
    assert phi is not None and apply_permutation(t, phi) == moved


# --- formats ----------------------------------------------------------


def test_trn_round_trip():
    rng = random.Random(41)
    for _ in range(40):
        t = oracles.random_tournament(rng, rng.randint(1, 8))
        assert parse_tournament(format_trn(t)) == t
        assert parse_tournament(format_skew(t)) == t


def test_l4_trn_text():
    assert format_trn(gen_ln(4)) == "4\n110110\n"


def test_parse_rejects_garbage():
    for bad in ("", "3\n01", "x\nyz", "-2\n", "1 2\n3 4 5", "1\n0101"):
        with pytest.raises(InvalidArgumentError):
            parse_tournament(bad)


def test_parse_single_vertex_forms():
    for text in ("1", "1\n", "0"):
        assert parse_tournament(text) == transitive_tournament(1)


def test_parse_skew_rejects_asymmetric():
    with pytest.raises(InvalidArgumentError):
        parse_tournament("0 1\n1 0")


def test_tournament_rejects_entries_that_wrap_in_int8():
    # 257 and -257 would cast to the 2-cycle's 1 and -1
    for arr in (
        np.array([[0, 257], [-257, 0]]),
        np.array([[0, 257], [-257, 0]], np.int16),
        [[0, 257], [-257, 0]],
    ):
        with pytest.raises(InvalidArgumentError):
            Tournament(arr)
    with pytest.raises(InvalidArgumentError):
        parse_tournament("0 257\n-257 0\n")


# --- construction -----------------------------------------------------


def _is_tournament_matrix(rows) -> bool:
    """Definition: square, n >= 1, zero diagonal, one arc per pair."""
    n = len(rows)
    return (
        n >= 1
        and all(len(r) == n for r in rows)
        and all(rows[i][i] == 0 for i in range(n))
        and all(
            {rows[i][j], rows[j][i]} == {1, -1}
            for i in range(n)
            for j in range(i + 1, n)
        )
    )


def _accepts(arr) -> bool:
    try:
        Tournament(arr)
    except InvalidArgumentError:
        return False
    return True


@pytest.mark.parametrize(
    "matrix",
    [
        np.zeros((2, 3), np.int8),
        np.zeros((0, 0), np.int8),
        np.array([[1, 1], [-1, 0]]),  # nonzero diagonal, otherwise skew
        np.array([[0, 1, -1], [-1, 0, 1], [1, 1, 0]]),  # one asymmetric pair
        np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]),  # skew, one zero pair
        np.array([[0, 2], [-2, 0]], np.int16),
        np.array([[0, 2], [-2, 0]], np.int64),
        np.array([[0, 0.5], [-0.5, 0]]),
        # int8 input skips the range check, and -128 is its own negative
        np.array([[0, 2], [-2, 0]], np.int8),
        np.array([[0, -128], [-128, 0]], np.int8),
        np.array([[-128, 1, 0], [-1, -128, 1], [0, -1, 0]], np.int8),
    ],
)
def test_tournament_rejects_invalid_matrices(matrix):
    with pytest.raises(InvalidArgumentError):
        Tournament(matrix)


def test_tournament_accepts_exactly_the_tournaments():
    # every 3 x 3 matrix over {-1, 0, 1}, as int8 and as int64, then
    # random int8 matrices with entries outside that range
    for entries in itertools.product((-1, 0, 1), repeat=9):
        rows = [list(entries[3 * i : 3 * i + 3]) for i in range(3)]
        want = _is_tournament_matrix(rows)
        assert _accepts(np.array(rows, np.int8)) == want
        assert _accepts(np.array(rows, np.int64)) == want
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 4)
        rows = [
            [rng.choice((-128, -2, -1, 0, 1, 2, 127)) for _ in range(n)]
            for _ in range(n)
        ]
        # mirror most entries so the skew test is what gets exercised
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.8:
                    rows[i][j] = -rows[j][i] if rows[j][i] != -128 else -128
        assert _accepts(np.array(rows, np.int8)) == _is_tournament_matrix(rows)


@given(tournaments(), st.data())
def test_derived_results_are_fresh_valid_tournaments(t, data):
    n = t.n
    w = data.draw(st.sets(st.integers(0, n - 1)))
    sub = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    sigma = data.draw(
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    )
    phi = data.draw(st.permutations(range(n)))
    parts = [data.draw(tournaments(max_n=3)) for _ in range(n)]
    results = [
        (switch(t, w), (t,)),
        (induced(t, sub), (t,)),
        (extend(t, sigma), (t,)),
        (apply_permutation(t, phi), (t,)),
        (blowup(t, parts), (t, *parts)),
        (transitive_blowup(t, [p.n for p in parts]), (t,)),
        (Tournament.from_bits(n, t.packed()), (t,)),
        (Tournament.from_bits(n, t.bits()), (t,)),
        (gen_ln(n + 1), ()),
    ]
    for res, inputs in results:
        assert res.skew.dtype == np.int8
        assert not res.skew.flags.writeable
        assert res == Tournament(res.skew)
        for src in inputs:
            assert not np.shares_memory(res.skew, src.skew)


def test_from_bits_rejects_empty_order():
    for n in (0, -2):
        with pytest.raises(InvalidArgumentError):
            Tournament.from_bits(n, 0)


def test_relabel_and_extension_match_entrywise_definitions():
    from crtour import extend

    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 9)
        t = oracles.random_tournament(rng, n)
        phi = list(range(n))
        rng.shuffle(phi)
        assert apply_permutation(t, phi) == oracles.relabel(t, phi)
        sigma = [rng.choice((1, -1)) for _ in range(n)]
        assert np.array_equal(extend(t, sigma).skew, oracles.extend_skew(t, sigma))
