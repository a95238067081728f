"""End-to-end command-line behaviour."""

import concurrent.futures
import json

import pytest

from crtour import format_skew, format_trn, gen_ln, parse_tournament
from crtour import verify as verify_mod
from crtour.cli import main
from crtour.verify import available_suites, d7_six_tournament, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_emits_trn(capsys):
    code, out, _ = run_cli(capsys, "gen", "ln", "6")
    assert code == 0
    assert parse_tournament(out) == gen_ln(6)


def test_gen_minus_and_skew(capsys):
    code, out, _ = run_cli(capsys, "gen", "ln", "4", "--minus", "--skew")
    assert code == 0
    t = parse_tournament(out)
    assert t.n == 4


def test_analyze_stdin_pipeline(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(format_trn(gen_ln(6))))
    code, out, _ = run_cli(capsys, "analyze", "-", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["det"] == 25
    assert data["max_minor"]["k"] == 5
    assert data["class"] == "D5\\D3"
    assert data["basic"] is True
    assert data["cr"] is True


def test_analyze_eq11_file(capsys, tmp_path):
    f = tmp_path / "eq11.trn"
    f.write_text(format_skew(d7_six_tournament()))
    code, out, _ = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["det"] == 49
    assert data["max_minor"]["k"] == 7


def test_switch_round_trip(capsys, tmp_path):
    f = tmp_path / "t.trn"
    f.write_text(format_trn(gen_ln(6)))
    code, out, _ = run_cli(capsys, "switch", str(f), "--w", "6")
    assert code == 0
    from crtour import gen_ln_minus

    assert parse_tournament(out) == gen_ln_minus(6)


def test_extend_command(capsys, tmp_path):
    f = tmp_path / "c.trn"
    f.write_text("3\n111\n")
    code, out, _ = run_cli(capsys, "extend", str(f), "--sigma", "+-+")
    assert code == 0
    assert parse_tournament(out) == gen_ln(4)


def test_extend_accepts_run_form(capsys, tmp_path):
    f = tmp_path / "c.trn"
    f.write_text("3\n111\n")
    code, out, _ = run_cli(capsys, "extend", str(f), "--sigma", "1,-1,1")
    assert code == 0
    assert parse_tournament(out) == gen_ln(4)


def test_blowup_sizes(capsys):
    code, out, _ = run_cli(capsys, "blowup", "ln:4", "--sizes", "2,1,1,1")
    assert code == 0
    t = parse_tournament(out)
    assert t.n == 5


def test_blowup_parts(capsys, tmp_path):
    cyc = tmp_path / "cyc.trn"
    cyc.write_text("3\n101\n")  # 0->1, 2->0, 1->2 is a 3-cycle
    one = tmp_path / "one.trn"
    one.write_text("1\n\n")
    code, out, _ = run_cli(
        capsys, "blowup", "ln:4", "--parts", f"{cyc},{one},{one},{one}"
    )
    assert code == 0
    t = parse_tournament(out)
    assert t.n == 6
    from crtour import tournament_det

    assert tournament_det(t) == 81


def test_check_flags(capsys, tmp_path):
    f = tmp_path / "l4.trn"
    f.write_text(format_trn(gen_ln(4)))
    code, out, _ = run_cli(
        capsys, "check", str(f), "--basic", "--cr", "--strong-cr", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["basic"] is True
    assert data["cr"]["ok"] is True
    assert data["strong_cr"]["ok"] is True


def test_decompose_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "blowup", "ln:4", "--sizes", "1,2,1,1")
    f = tmp_path / "b.trn"
    f.write_text(out)
    code, out, _ = run_cli(capsys, "decompose", str(f), "--base", "ln:4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"]["base"] == "L4"
    assert data["decomposition"]["W"] == []


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "cr-order3")
    assert code == 0
    assert "pass" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "t6-det25", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["passed"] is True


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_comma_list_parallel(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "cr-order3,t6-det25", "--jobs", "2"
    )
    assert code == 0
    assert out.count("pass") == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    def broken(max_n, seed):
        from crtour import format_trn, gen_ln

        return 1, [{"tournament": format_trn(gen_ln(4)), "why": "synthetic"}], {}

    monkeypatch.setitem(verify_mod._SUITES, "synthetic-fail", (broken, 1, 4, 4))
    code, out, _ = run_cli(capsys, "verify", "synthetic-fail")
    assert code == 1
    assert "FAIL" in out and "counterexample" in out
    # the failure payload round-trips through the .trn format
    import re

    m = re.search(r"'tournament': '([^']+)'", out)
    assert m is not None
    parse_tournament(m.group(1).replace("\\n", "\n"))


def test_broken_zmatrix_law_exits_one(capsys, monkeypatch):
    # the odd-run formula fed r with r_1 negated: Delta disagrees, and
    # the suite reports the Z-matrices instead of stopping the run
    from crtour.lfamily import sigma_to_signature

    monkeypatch.setattr(
        "crtour.verify.sigma_to_signature",
        lambda r: sigma_to_signature((-r[0], *r[1:])),
    )
    code, out, err = run_cli(capsys, "verify", "zmatrix-props", "--max-n", "7")
    assert code == 1 and err == ""
    assert "zmatrix-props: FAIL" in out and "'by_runs'" in out


def test_verify_text_reports_failure_count(capsys, monkeypatch):
    # with switching to transitive broken, every D_1 class fails the
    # law; the text line carries the count, not just the first five
    monkeypatch.setattr("crtour.verify.switching_to_transitive", lambda t: None)
    code, out, _ = run_cli(capsys, "verify", "d1-diamond", "--max-n", "6", "--json")
    report = json.loads(out)["reports"][0]
    count = report["failure_count"]
    assert code == 1 and count > 5
    code, out, _ = run_cli(capsys, "verify", "d1-diamond", "--max-n", "6")
    assert code == 1
    assert f"d1-diamond: FAIL ({count} failures, {report['checked']} checks, " in out
    assert out.count("counterexample") == 5


def test_enumerate_count_and_classes(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "--count")
    assert (code, out.strip()) == (0, "8")
    code, out, _ = run_cli(capsys, "enumerate", "4", "--classes", "--count")
    assert (code, out.strip()) == (0, "4")


def test_enumerate_stream_parses(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "3", "--classes")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2
    for b in blocks:
        parse_tournament(b)


def test_enumerate_resource_limit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "9")
    assert code == 3
    assert "cap" in err


def test_zmat_output(capsys):
    code, out, _ = run_cli(
        capsys, "zmat", "9", "--r", "+++---+--", "--diagonals", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["entries"][0] == [7, -5, -3, 1, 1, 3, 5, -7]
    assert data["row_sums"][0] == 2
    assert data["delta"] == -6
    assert data["diagonals"][0] == [0, 7, 5, 3, 1, -1, -3, -5, -7]


def test_zmat_csv(capsys):
    code, out, _ = run_cli(capsys, "zmat", "3", "--r", "+++", "--csv")
    assert code == 0
    assert out == "1,1\n-1,1\n-1,-1\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/x.trn")
    assert code == 2


def test_bad_sigma_is_usage_error(capsys, tmp_path):
    f = tmp_path / "c.trn"
    f.write_text("3\n111\n")
    code, _, err = run_cli(capsys, "extend", str(f), "--sigma", "+bad")
    assert code == 2


@pytest.mark.parametrize("sigma", ["99999999999999999999", "5000000000"])
def test_run_form_sigma_is_checked_before_expanding(capsys, tmp_path, sigma):
    # a run of 10^20 overflowed the expansion and one of 5*10^9 filled
    # memory; the run lengths are summed and refused first
    f = tmp_path / "c.trn"
    f.write_text("3\n111\n")
    code, out, err = run_cli(capsys, "extend", str(f), "--sigma", sigma)
    assert (code, out, err) == (2, "", "error: sigma must have length 3\n")


def test_malformed_numbers_are_usage_errors(capsys):
    for argv in (
        ("blowup", "ln:x", "--sizes", "1,1,1,1"),
        ("blowup", "ln:4", "--sizes", "2,x,1,1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_input_is_usage_error(capsys, tmp_path):
    binary = tmp_path / "b.trn"
    binary.write_bytes(bytes([0x97, 0xFF, 0x00, 0x80]))
    for path in (tmp_path, binary):
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def test_suite_that_checks_nothing_is_usage_error(capsys):
    for argv in (
        ("verify", "d1-diamond", "--max-n", "0"),
        ("verify", "ln-cr-formula", "--max-n", "3"),
        ("verify", "d3-six-subs", "--max-n", "7"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "pass" not in out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "checks nothing" in err


@pytest.mark.parametrize(
    "suite, max_n",
    [
        ("l8-strongcr", "3"),
        ("t6-det25", "2"),
        ("cr-order3", "1"),
        ("d5-blowup", "3"),
        ("xi-decomp", "3"),
    ],
)
def test_suite_checks_no_order_above_max_n(capsys, suite, max_n):
    code, out, err = run_cli(capsys, "verify", suite, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert "checks nothing" in err


# the least max_n at which each suite has something to check
SUITE_MINIMA = {
    "d1-diamond": 1,
    "det-sw-invariance": 1,
    "cr-pred-sw": 1,
    "strongcr-equiv": 1,
    "zmatrix-props": 1,
    "cr-assoc-sw": 2,
    "ninedet": 2,
    "cr-order3": 3,
    "basic-not-d1": 4,
    "l4l6-strongcr": 4,
    "ln-cr-formula": 4,
    "d5-blowup": 6,
    "t6-det25": 6,
    "xi-decomp": 6,  # its order-6 negative instance
    "noncr-nondecomp": 6,  # every relation of L_4 itself is CR
    "d3-six-subs": 8,
    "l8-strongcr": 8,
}


@pytest.mark.parametrize("name", available_suites())
def test_suite_declares_its_least_max_n(capsys, monkeypatch, name):
    fn, least, default, cap = verify_mod._SUITES[name]
    assert least == SUITE_MINIMA[name]

    def never(max_n, seed):
        raise AssertionError(f"{name} ran at max_n={max_n}")

    # refused before the suite is called, naming the order it needs
    monkeypatch.setitem(verify_mod._SUITES, name, (never, least, default, cap))
    code, out, err = run_cli(capsys, "verify", name, "--max-n", str(least - 1))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"it needs max_n >= {least}\n" in err
    monkeypatch.undo()
    assert run_suite(name, max_n=least, seed=0).checked > 0


def test_small_max_n_is_usage_error(capsys):
    for argv in (
        ("verify", "ninedet", "--max-n", "1"),
        ("verify", "ninedet", "--max-n", "0"),
        ("verify", "ninedet", "--max-n", "-1"),
        ("verify", "det-sw-invariance", "--max-n", "-1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_theorem_violation_exits_four(capsys, monkeypatch, tmp_path):
    from crtour import TheoremViolationError

    def broken(t):
        raise TheoremViolationError("synthetic disagreement")

    monkeypatch.setattr("crtour.cli.is_basic", broken)
    f = tmp_path / "l4.trn"
    f.write_text(format_trn(gen_ln(4)))
    code, out, err = run_cli(capsys, "check", str(f), "--basic")
    assert code == 4
    assert out == ""
    assert err == "internal error: synthetic disagreement\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 9.31 GiB"), "Unable to allocate 9.31 GiB"),
        (MemoryError(), "out of memory"),
    ],
)
def test_memory_error_is_resource_limit(capsys, monkeypatch, exc, message):
    def too_large(n):
        raise exc

    monkeypatch.setattr("crtour.cli.gen_ln", too_large)
    code, out, err = run_cli(capsys, "gen", "ln", "99999")
    assert code == 3
    assert out == ""
    assert err == f"resource limit: {message}\n"


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records the worker count it
    was asked for and runs every submitted call in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize(
    "suites, jobs, workers",
    [
        ("cr-order3,t6-det25", "100000", [2]),
        ("cr-order3,t6-det25,l4l6-strongcr", "2", [2]),
        ("cr-order3", "100000", []),
        ("cr-order3,t6-det25", "1", []),
    ],
)
def test_verify_jobs_capped_at_suite_count(capsys, monkeypatch, suites, jobs, workers):
    monkeypatch.setattr(_InlineExecutor, "max_workers", [])
    monkeypatch.setattr("crtour.cli.ProcessPoolExecutor", _InlineExecutor)
    code, out, _ = run_cli(capsys, "verify", suites, "--jobs", jobs)
    assert code == 0
    assert out.count("pass") == len(suites.split(","))
    assert _InlineExecutor.max_workers == workers


def test_gen_ln_beyond_limit_is_resource_limit(capsys):
    from crtour.lfamily import LN_LIMIT

    code, out, err = run_cli(capsys, "gen", "ln", str(LN_LIMIT + 1))
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("n, cr", [(12, True), (16, None)])
def test_analyze_decides_cr_up_to_the_scan_limit(capsys, tmp_path, n, cr):
    f = tmp_path / "t.trn"
    f.write_text(format_trn(gen_ln(n)))
    code, out, _ = run_cli(capsys, "analyze", str(f), "--json")
    assert code == 0
    assert json.loads(out)["cr"] is cr
    code, out, _ = run_cli(capsys, "analyze", str(f))
    assert code == 0
    line = "CR tournament: yes" if cr else "CR tournament: skipped (order > 15)"
    assert line in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "ln", "4"),
        ("switch", "-", "--w", "1"),
        ("blowup", "ln:4", "--sizes", "2,1,1,1"),
        ("extend", "-", "--sigma", "++++"),
    ],
)
def test_emitting_verbs_take_no_json_flag(capsys, monkeypatch, argv):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(format_trn(gen_ln(4))))
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_strongcr_equiv_records_a_failed_implication(capsys, monkeypatch):
    # make one 3-tournament look non-CR while its blowups stay CR: the
    # suite must report it with its .trn payload (exit 1)
    import dataclasses

    import numpy as np

    from crtour import cr
    from crtour.verify import _classes

    target = _classes(3)[0]
    real = cr._cr_report

    def report(s, pf, coef):
        rep = real(s, pf, coef)
        if np.array_equal(s, target.skew):
            return dataclasses.replace(rep, ok=False, failures=("+++",))
        return rep

    monkeypatch.setattr(cr, "_cr_report", report)
    code, out, _ = run_cli(capsys, "verify", "strongcr-equiv", "--max-n", "3", "--json")
    assert code == 1
    failures = json.loads(out)["reports"][0]["failures"]
    assert failures
    assert {f["tournament"] for f in failures} == {format_trn(target)}
    assert any(
        f.get("blowups_cr") is True and f.get("base_cr") is False
        for f in failures
    )
