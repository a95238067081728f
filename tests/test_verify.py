"""Suite registry behaviour and a pass over every registered suite."""

import pytest

from crtour import (
    InvalidArgumentError,
    ResourceLimitError,
    Tournament,
    parse_tournament,
    switch,
    tournament_det,
)
from crtour.lfamily import sigma_to_signature
from crtour.verify import available_suites, d7_six_tournament, run_suite
from crtour.zmatrix import _gamma

FAST_PARAMS = {
    # trimmed sizes so the whole registry runs quickly in CI
    "d1-diamond": dict(max_n=5),
    "d3-six-subs": dict(max_n=8),
    "d5-blowup": dict(max_n=8),
    "det-sw-invariance": dict(max_n=6),
    "cr-assoc-sw": dict(max_n=5),
    "cr-pred-sw": dict(max_n=4),
    "strongcr-equiv": dict(max_n=4),
    "basic-not-d1": dict(max_n=6),
    "noncr-nondecomp": dict(max_n=7),
    "cr-order3": dict(),
    "l4l6-strongcr": dict(),
    "ln-cr-formula": dict(max_n=6),
    "l8-strongcr": dict(max_n=8),
    "t6-det25": dict(),
    "ninedet": dict(max_n=5),
    "xi-decomp": dict(max_n=10),
    "zmatrix-props": dict(max_n=9),
}


def test_every_suite_is_exercised():
    assert sorted(FAST_PARAMS) == available_suites()


@pytest.mark.parametrize("name", sorted(FAST_PARAMS))
def test_suite_passes(name):
    rep = run_suite(name, seed=0, **FAST_PARAMS[name])
    assert rep.passed, rep.failures[:3]
    assert rep.checked > 0
    j = rep.to_json()
    assert j["schema"] == "crtour/1"
    assert j["params"]["seed"] == 0


def test_reports_are_deterministic():
    a = run_suite("ninedet", max_n=5, seed=42)
    b = run_suite("ninedet", max_n=5, seed=42)
    assert a.checked == b.checked and a.failures == b.failures


def test_unknown_suite_rejected():
    with pytest.raises(InvalidArgumentError):
        run_suite("no-such-suite")


def test_suite_cap_enforced():
    with pytest.raises(ResourceLimitError):
        run_suite("d1-diamond", max_n=9)


def test_d7_six_tournament_round_trips():
    t = d7_six_tournament()
    assert tournament_det(t) == 49
    from crtour import format_trn

    assert parse_tournament(format_trn(t)) == t


def test_zmatrix_props_orders_follow_max_n():
    # odd m from 9 to max_n are sampled, 1000 sequences each
    at15 = run_suite("zmatrix-props", max_n=15, seed=0)
    at17 = run_suite("zmatrix-props", max_n=17, seed=0)
    assert at15.passed and at17.passed
    assert at17.checked == at15.checked + 1000


def test_l8_strongcr_orders_follow_max_n():
    # the top order is cheap since strong CR reads one Pfaffian table
    rep = run_suite("l8-strongcr", max_n=14, seed=0)
    assert rep.passed and rep.params["orders"] == [8, 10, 12, 14]
    assert rep.seconds < 1
    with pytest.raises(ResourceLimitError):
        run_suite("l8-strongcr", max_n=15)


def _switch_and_flip(t, w):
    # one arc more than the switch: some subset determinant changes
    arr = switch(t, w).skew.copy()
    arr[0, 1], arr[1, 0] = arr[1, 0], arr[0, 1]
    return Tournament(arr)


def _shifted_gamma(z, ell):
    # every diagonal vector off by one: their steps hold, their sum not
    return _gamma(z, ell) + 1


def _runs_of_flipped_r(r):
    # the odd-run formula reads r with r_1 negated
    return sigma_to_signature((-r[0], *r[1:]))


@pytest.mark.parametrize(
    "name, route, fake",
    [
        ("d1-diamond", "in_dk", lambda t, k: True),
        ("d3-six-subs", "in_dk", lambda t, k: True),
        ("det-sw-invariance", "switch", _switch_and_flip),
        ("zmatrix-props", "_gamma", _shifted_gamma),
        ("zmatrix-props", "sigma_to_signature", _runs_of_flipped_r),
    ],
)
def test_suite_reports_a_broken_route(monkeypatch, name, route, fake):
    monkeypatch.setattr(f"crtour.verify.{route}", fake)
    rep = run_suite(name, seed=0, **FAST_PARAMS[name])
    assert not rep.passed
    if name == "d1-diamond":
        # the table side sees the diamonds that in_dk was made to miss
        assert any(f["diamond_free"] is False for f in rep.failures)
    if name == "d3-six-subs":
        assert {(f["in_d3"], f["six_subs"]) for f in rep.failures} == {(True, False)}
    if name == "zmatrix-props":
        # each counterexample names the Z-matrix it was found on
        law = "row_sum_at" if route == "_gamma" else "by_runs"
        assert all(f["m"] % 2 == 1 and len(f["r"]) == f["m"] for f in rep.failures)
        assert {law in f for f in rep.failures} == {True}


def test_d3_six_subs_orders():
    rep = run_suite("d3-six-subs", seed=0)
    # both sides of the law are exercised at the default orders 8..10
    assert rep.passed and 0 < rep.params["in_d3"] < rep.checked
    with pytest.raises(ResourceLimitError):
        run_suite("d3-six-subs", max_n=17)
