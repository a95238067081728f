"""Suite registry behaviour and a pass over every registered suite."""

import pytest

from crtour import (
    InvalidArgumentError,
    ResourceLimitError,
    parse_tournament,
    tournament_det,
)
from crtour.verify import available_suites, d7_six_tournament, run_suite

FAST_PARAMS = {
    # trimmed sizes so the whole registry runs quickly in CI
    "d1-diamond": dict(max_n=5),
    "d3-six-subs": dict(max_n=7),
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
    rep = run_suite("l8-strongcr", max_n=12, seed=0)
    assert rep.passed and rep.params["orders"] == [8, 10, 12]
    with pytest.raises(ResourceLimitError):
        run_suite("l8-strongcr", max_n=15)
