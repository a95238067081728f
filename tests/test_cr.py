"""CR association, extensions, and the CR/basic/strong-CR predicates."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crtour import (
    InvalidArgumentError,
    Tournament,
    all_sigmas,
    count_cr_sigmas,
    cr_associated,
    cr_normalize,
    cr_vertex_witness,
    cr_witness_table,
    extend,
    gen_ln,
    in_dk_exactly,
    induced,
    is_basic,
    is_cr_tournament,
    is_diamond,
    is_isomorphic,
    is_strong_cr,
    is_trivial_cr,
    max_subtournament_det,
    one_transitive_blowups,
    sigma_from_string,
    sigma_to_string,
    switch,
    theta,
    transitive_blowup,
    transitive_tournament,
)

from crtour.kernels import SCAN_LIMIT

import oracles


def cycle3() -> Tournament:
    return Tournament(np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], np.int8))


# --- sigma plumbing ----------------------------------------------------


def test_sigma_string_round_trip():
    assert sigma_from_string("+-+") == (1, -1, 1)
    assert sigma_to_string((1, -1, 1)) == "+-+"
    with pytest.raises(InvalidArgumentError):
        sigma_from_string("+x")


def test_all_sigmas_order_and_count():
    sigmas = list(all_sigmas(3))
    assert len(sigmas) == 8
    assert sigmas[0] == (-1, -1, -1)
    assert sigmas[1] == (-1, -1, 1)
    assert sigmas[-1] == (1, 1, 1)


# --- cr_associated -----------------------------------------------------


def test_two_tournament_pair_is_both():
    t = transitive_tournament(2)
    assert cr_associated(t, 0, 1) == "covertices-and-revertices"


def test_duplicated_vertices_are_covertices():
    t = transitive_blowup(transitive_tournament(2), (2, 1))
    assert cr_associated(t, 0, 1) == "covertices"


def test_l4_has_no_associated_pair():
    l4 = gen_ln(4)
    for u, v in itertools.combinations(range(4), 2):
        assert cr_associated(l4, u, v) is None


def test_cr_associated_product_criterion(classes):
    # association iff all pairwise products of theta-products are 1;
    # basic iff order >= 4 and no pair meets the criterion
    for n in range(3, 7):
        for t in classes[n]:
            any_pair = False
            for u1, u2 in itertools.combinations(range(n), 2):
                others = [v for v in range(n) if v not in (u1, u2)]
                prods = [
                    theta(t, u1, v) * theta(t, u2, v) for v in others
                ]
                crit = all(
                    a * b == 1 for a in prods for b in prods
                )
                any_pair |= crit
                assert (cr_associated(t, u1, u2) is not None) == crit
            assert is_basic(t) == (n >= 4 and not any_pair)


def test_cr_associated_heredity(classes):
    for n in range(4, 6):
        for t in classes[n]:
            for u1, u2 in itertools.combinations(range(n), 2):
                kind = cr_associated(t, u1, u2)
                if kind is None:
                    continue
                for c in range(3, n):
                    for sub in itertools.combinations(range(n), c):
                        if u1 not in sub or u2 not in sub:
                            continue
                        loc = {v: i for i, v in enumerate(sorted(sub))}
                        assert (
                            cr_associated(induced(t, sub), loc[u1], loc[u2])
                            is not None
                        )


def test_cr_associated_rejects_equal_vertices():
    with pytest.raises(InvalidArgumentError):
        cr_associated(cycle3(), 1, 1)


# --- extend -------------------------------------------------------------


def test_extend_chain_gives_l4():
    assert extend(transitive_tournament(3), (1, -1, 1)) == gen_ln(4)


def test_extend_cycle_gives_diamond():
    assert is_diamond(extend(cycle3(), (1, 1, 1)))
    assert is_diamond(extend(cycle3(), (-1, -1, -1)))


def test_extend_then_induce_restores():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        t = oracles.random_tournament(rng, n)
        sig = tuple(rng.choice((1, -1)) for _ in range(n))
        assert induced(extend(t, sig), range(n)) == t


def test_extend_rejects_length_mismatch():
    with pytest.raises(InvalidArgumentError):
        extend(cycle3(), (1, 1))


# --- cr_vertex_witness ---------------------------------------------------


def test_witness_chain_all_plus():
    wit = cr_vertex_witness(transitive_tournament(3), (1, 1, 1))
    assert wit is not None and wit.vertex == 0 and wit.kind == "covertices"


def test_witness_chain_alternating_is_none():
    assert cr_vertex_witness(transitive_tournament(3), (1, -1, 1)) is None
    assert cr_vertex_witness(transitive_tournament(3), (-1, 1, -1)) is None


def test_witness_l6_run_count_three_is_none():
    # first five entries have three sign runs
    assert cr_vertex_witness(gen_ln(6), sigma_from_string("++--+-")) is None


def test_witness_is_lowest_index():
    # duplicated pair: both base copies witness, the lower index returned
    t = transitive_blowup(transitive_tournament(2), (2, 1))
    wit = cr_vertex_witness(t, (1, 1, 1))
    assert wit.vertex == 0


# --- count_cr_sigmas ------------------------------------------------------


def test_count_cr_sigmas_examples():
    assert count_cr_sigmas(gen_ln(4)) == 16
    assert count_cr_sigmas(transitive_tournament(3)) == 6
    assert count_cr_sigmas(cycle3()) == 6


def test_count_cr_sigmas_bound(classes):
    for n in range(3, 6):
        for t in classes[n]:
            c = count_cr_sigmas(t)
            if is_diamond(t):
                assert c == 1 << n
            else:
                assert c <= 4 * n
                assert c < 1 << n  # a non-CR relation exists


def test_small_orders_have_no_noncr_relation(classes):
    for n in (1, 2):
        for t in classes[n]:
            assert count_cr_sigmas(t) == 1 << n


# --- cr_normalize ---------------------------------------------------------


def _is_one_transitive_blowup_of(ext, base):
    # some adjacent duplicated pair of covertices contracts back to base
    n = base.n
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            if cr_associated(ext, i, j) == "covertices":
                rest = [v for v in range(n + 1) if v != j]
                if is_isomorphic(induced(ext, rest), base) is not None:
                    return True
    return False


def test_cr_normalize_cases():
    chain = transitive_tournament(3)
    # covertex witness
    assert cr_normalize(chain, (1, 1, 1)) == frozenset()
    # revertex witness: relation opposite to vertex 0 on {1, 2}
    sig = (-1, -1, -1)
    wit = cr_vertex_witness(chain, sig)
    assert wit.kind == "revertices"
    assert cr_normalize(chain, sig) == frozenset({3})
    # non-CR
    assert cr_normalize(chain, (1, -1, 1)) is None


def test_cr_normalize_yields_one_transitive_blowup():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        t = oracles.random_tournament(rng, n)
        sig = tuple(rng.choice((1, -1)) for _ in range(n))
        w = cr_normalize(t, sig)
        if w is None:
            continue
        normal = switch(extend(t, sig), w)
        assert _is_one_transitive_blowup_of(normal, t)


# --- predicates -------------------------------------------------------------


def test_scan_caps_raise_resource_limit():
    from crtour import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        # extensions need order SCAN_LIMIT + 1
        is_cr_tournament(transitive_tournament(SCAN_LIMIT))
    with pytest.raises(ResourceLimitError):
        count_cr_sigmas(transitive_tournament(SCAN_LIMIT + 1))


def test_is_trivial_cr():
    assert is_trivial_cr(transitive_tournament(1))
    assert is_trivial_cr(transitive_tournament(2))
    assert is_trivial_cr(gen_ln(4))
    assert not is_trivial_cr(gen_ln(6))
    assert not is_trivial_cr(transitive_tournament(5))


def test_every_3_tournament_is_cr(classes):
    for t in classes[3]:
        rep = is_cr_tournament(t)
        assert rep.ok and not rep.trivial and rep.k == 1


def test_l6_and_l8_are_cr():
    assert is_cr_tournament(gen_ln(6)).ok
    assert is_cr_tournament(gen_ln(8)).ok


def test_cr_report_contents():
    rep = is_cr_tournament(transitive_tournament(3))
    assert rep.k == 1
    assert len(rep.witness_map) == 6
    assert "+-+" not in rep.witness_map
    j = rep.to_json()
    assert j["ok"] and j["failures"] == []


def test_cr_extension_stays_in_exact_class():
    # CR relations keep the extension in D_k minus D_{k-2}
    for t in (gen_ln(4), gen_ln(6)):
        k = max_subtournament_det(t).k
        for sig in all_sigmas(t.n):
            if cr_vertex_witness(t, sig) is not None:
                assert in_dk_exactly(extend(t, sig), k)


def test_cr_check_agrees_with_naive_full_scans(classes):
    # the production check only scans extension subsets through the new
    # vertex; the naive route rescans everything
    for n in range(1, 6):
        for t in classes[n]:
            rep = is_cr_tournament(t)
            k = max_subtournament_det(t).k
            assert rep.k == k
            naive_ok = True
            if not is_trivial_cr(t):
                for sig in all_sigmas(n):
                    ext = extend(t, sig)
                    full = max_subtournament_det(ext)
                    if cr_vertex_witness(t, sig) is None:
                        if full.max_minor <= k * k:
                            naive_ok = False
                    else:
                        if full.k != k:
                            naive_ok = False
            assert rep.ok == naive_ok


def test_is_basic_examples():
    assert is_basic(gen_ln(4))
    assert not is_basic(gen_ln(5))
    assert not is_basic(transitive_tournament(3))
    assert not is_basic(transitive_tournament(2))
    for n in range(3, 10):
        assert is_basic(gen_ln(n)) == (n % 2 == 0)


def test_witness_unique_on_basic(classes):
    for n in range(4, 6):
        for t in classes[n]:
            if not is_basic(t):
                continue
            for sig in all_sigmas(n):
                ext = extend(t, sig)
                wits = [
                    v
                    for v in range(n)
                    if cr_associated(ext, n, v) is not None
                ]
                assert len(wits) <= 1


def test_order6_class_census(classes):
    # counts recomputed independently through naive full minor scans:
    # 46 of the 56 classes are CR, every one of those is strong CR, 18
    # are basic and 8 are basic strong CR
    cr = [t for t in classes[6] if is_cr_tournament(t).ok]
    assert len(cr) == 46
    assert sum(1 for t in classes[6] if is_basic(t)) == 18
    strong = [t for t in cr if is_strong_cr(t).ok]
    assert len(strong) == 46
    assert sum(1 for t in strong if is_basic(t)) == 8


def test_strong_cr_small_ln():
    assert is_strong_cr(gen_ln(2)).ok
    assert is_strong_cr(gen_ln(3)).ok
    assert is_strong_cr(gen_ln(4)).ok


def test_strong_cr_report_shape():
    rep = is_strong_cr(gen_ln(4))
    assert len(rep.blowups) == 4
    assert all(r.ok for _, r in rep.blowups)
    assert rep.base.ok
    assert rep.to_json()["ok"]


def test_one_transitive_blowup_orientation_irrelevant():
    # duplicating with either internal arc direction gives isomorphic
    # tournaments
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 5)
        t = oracles.random_tournament(rng, n)
        i = rng.randrange(n)
        b = one_transitive_blowups(t)[i]
        arr = b.skew.copy()
        arr[i, i + 1] = -arr[i, i + 1]
        arr[i + 1, i] = -arr[i + 1, i]
        flipped = Tournament(arr)
        assert is_isomorphic(b, flipped) is not None


_KINDS = {1: "covertices", -1: "revertices"}


def _full_report(rep):
    return rep.ok, rep.k, rep.trivial, rep.failures, rep.witness_map


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cr_report_matches_definition_level_route(classes, n):
    # every class up to order 5; at order 6, L_6 and three classes of
    # which two are not CR, so failing relations are compared too
    ts = classes[n] if n <= 5 else (gen_ln(6), *classes[6][8:11])
    failing = 0
    for t in ts:
        expected = oracles.brute_cr_report(t)
        failing += len(expected[3])
        assert _full_report(is_cr_tournament(t)) == expected
        witnesses = [
            oracles.brute_cr_witness(t, sigma) for sigma in all_sigmas(n)
        ]
        assert count_cr_sigmas(t) == sum(w is not None for w in witnesses)
        if n >= 2:
            vertex, sign = cr_witness_table(t)
            assert [
                None if v < 0 else {"vertex": v + 1, "kind": _KINDS[s]}
                for v, s in zip(vertex.tolist(), sign.tolist())
            ] == witnesses
            for sigma, want in zip(all_sigmas(n), witnesses):
                got = cr_vertex_witness(t, sigma)
                if got is not None:
                    got = {"vertex": got.vertex + 1, "kind": got.kind}
                assert got == want
    assert failing > 0 or n <= 5


@pytest.mark.parametrize("n", [10, 12])
def test_large_ln_are_cr(n):
    rep = is_cr_tournament(gen_ln(n))
    assert rep.ok and rep.k == n - 1 and not rep.trivial


def _per_relation_cases():
    from test_detkit import doubled_paley

    rng = random.Random(8)
    cases = [(f"L{n}", gen_ln(n)) for n in range(7, 13)]
    cases.append(("paley11x2", doubled_paley(11)))
    for i in range(20):
        n = rng.randint(8, 11)
        cases.append((f"random{i}-order{n}", oracles.random_tournament(rng, n)))
    return cases


@pytest.mark.parametrize(
    "t", [t for _, t in _per_relation_cases()],
    ids=[name for name, _ in _per_relation_cases()],
)
def test_cr_report_matches_per_relation_route(t):
    # orders 8-12 with scans of several chunks: every relation attached
    # and decided by its own minor scan, every witness by brute force
    assert _full_report(is_cr_tournament(t)) == oracles.scan_cr_report(t)


def test_relation_scan_does_not_depend_on_chunking(classes, monkeypatch):
    # one norm-sorted row per product, so relations leave the active
    # set one row at a time and most rows see a shrunken set
    import crtour.cr as cr_mod

    rng = random.Random(9)
    ts = [*classes[5], *classes[6][::4], gen_ln(7), gen_ln(8)]
    ts += [oracles.random_tournament(rng, rng.randint(7, 9)) for _ in range(6)]
    want = [_full_report(is_cr_tournament(t)) for t in ts]
    monkeypatch.setattr(cr_mod, "_SCAN_ENTRIES", 1)
    assert [_full_report(is_cr_tournament(t)) for t in ts] == want


def test_l12_is_strong_cr():
    rep = is_strong_cr(gen_ln(12))
    assert rep.ok and rep.base.ok and len(rep.blowups) == 12


# --- closed-form CR relations and strong CR from one table ----------------


def _ordered_report(rep):
    # witness_map compared with its key order
    return rep.ok, rep.k, rep.trivial, rep.failures, list(rep.witness_map.items())


def _witness_entries(t):
    vertex, sign = cr_witness_table(t)
    return [
        None if v < 0 else {"vertex": v + 1, "kind": _KINDS[s]}
        for v, s in zip(vertex.tolist(), sign.tolist())
    ]


def test_witness_table_matches_brute_force_on_every_class(classes):
    # the closed form reads the CR relations off the rows of S
    for n in range(2, 7):
        for t in classes[n]:
            assert _witness_entries(t) == [
                oracles.brute_cr_witness(t, sigma) for sigma in all_sigmas(n)
            ]


def test_witness_table_matches_relation_product():
    rng = random.Random(12)
    ts = [gen_ln(n) for n in range(2, 13)]
    ts += [oracles.random_tournament(rng, n) for n in range(1, 13) for _ in range(3)]
    for t in ts:
        vertex, sign = cr_witness_table(t)
        want_vertex, want_sign = oracles.product_witness_table(t)
        assert vertex.tolist() == want_vertex.tolist()
        assert sign.tolist() == want_sign.tolist()


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
    )
)
@settings(max_examples=40)
def test_cr_extension_has_the_determinants_of_a_blowup(drawn):
    # every CR extension is a 1-transitive blowup up to switching {u}
    # and relabelling, so its subset determinants are the blowup's; this
    # is why the relation scan never checks CR relations
    from crtour import kernels

    t = Tournament.from_bits(*drawn)
    blowups = one_transitive_blowups(t)
    vertex, _ = cr_witness_table(t)
    for sigma, v in zip(all_sigmas(t.n), vertex.tolist()):
        if v < 0:
            continue
        got = np.sort(kernels.pfaffian_table(extend(t, sigma).skew) ** 2)
        want = np.sort(kernels.pfaffian_table(blowups[v].skew) ** 2)
        assert got.tolist() == want.tolist()


def _strong_cr_cases(classes):
    return [t for n in range(1, 7) for t in classes[n]] + [
        gen_ln(n) for n in range(4, 11)
    ]


def test_strong_cr_reports_match_blowup_reports(classes):
    for t in _strong_cr_cases(classes):
        rep = is_strong_cr(t)
        assert [v for v, _ in rep.blowups] == list(range(t.n))
        for (_, got), b in zip(rep.blowups, one_transitive_blowups(t)):
            assert _ordered_report(got) == _ordered_report(is_cr_tournament(b))
        base = is_cr_tournament(t)
        assert _ordered_report(rep.base) == _ordered_report(base)
        assert rep.ok == (base.ok and all(r.ok for _, r in rep.blowups))


def test_strong_cr_fills_one_table(monkeypatch):
    from crtour import kernels

    fills = []
    real = kernels._fill
    monkeypatch.setattr(kernels, "_fill", lambda arr: fills.append(1) or real(arr))
    for t in (gen_ln(6), gen_ln(9), cycle3(), transitive_tournament(5)):
        fills.clear()
        is_strong_cr(t)
        assert len(fills) == 1


def test_cr_routes_take_no_relation_product(monkeypatch):
    import crtour.cr as cr_mod

    def forbidden(*args):
        raise AssertionError("relation product used")

    monkeypatch.setattr(cr_mod, "_witnesses", forbidden)
    for t in (gen_ln(7), transitive_tournament(6), cycle3()):
        cr_witness_table(t)
        count_cr_sigmas(t)
        is_cr_tournament(t)
        is_strong_cr(t)
