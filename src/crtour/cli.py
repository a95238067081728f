"""Command-line front end.

Verbs: analyze, gen, switch, blowup, extend, check, decompose, verify,
enumerate, zmat.  "-" means stdin wherever a tournament file is
expected, so verbs compose in pipelines.  Human text by default,
machine JSON with --json.  Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 resource limit, 4 internal error (two routes
that must agree by a proven identity disagreed).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from . import kernels
from .core import (
    Tournament,
    enumerate_tournaments,
    format_skew,
    format_trn,
    is_transitive,
    parse_tournament,
    switch,
)
from .cr import (
    extend,
    is_basic,
    is_cr_tournament,
    is_strong_cr,
    is_trivial_cr,
    sigma_from_string,
)
from .blowup import blowup, decompose_transitive_blowup, transitive_blowup
from .detkit import max_subtournament_det, tournament_det
from .errors import (
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)
from .lfamily import (
    gen_ln,
    gen_ln_minus,
    signature_from_text,
    signature_to_sigma,
)
from .verify import available_suites, run_suite
from .zmatrix import diagonal_vector, delta_total, row_sums, z_matrix

SCHEMA = "crtour/1"


def _read_tournament(path: str) -> Tournament:
    if path == "-":
        return parse_tournament(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tournament(fh.read())


def _emit_tournament(t: Tournament, args) -> None:
    sys.stdout.write(format_skew(t) if getattr(args, "skew", False) else format_trn(t))


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"bad {what} {text!r}") from None


def _parse_vertices(text: str) -> frozenset[int]:
    # user-facing labels are 1-based
    vals = [_parse_int(x, "vertex label") for x in text.split(",") if x.strip()]
    if any(v < 1 for v in vals):
        raise InvalidArgumentError("vertex labels are 1-based")
    return frozenset(v - 1 for v in vals)


def _parse_base(text: str) -> Tournament:
    if text.startswith("ln:"):
        return gen_ln(_parse_int(text[3:], "base order"))
    if text.startswith("ln-:"):
        return gen_ln_minus(_parse_int(text[4:], "base order"))
    return _read_tournament(text)


def _cmd_analyze(args) -> int:
    t = _read_tournament(args.file)
    rep = max_subtournament_det(t)
    out = {
        "schema": SCHEMA,
        "order": t.n,
        "det": tournament_det(t),
        "max_minor": rep.to_json(),
        "class": f"D{rep.k}" + (f"\\D{rep.k - 2}" if rep.k > 1 else ""),
        "transitive": is_transitive(t) is not None,
        "basic": is_basic(t),
        "trivial_cr": is_trivial_cr(t),
    }
    # the CR scan builds tables of the order-(n+1) extensions
    out["cr"] = (
        is_cr_tournament(t).ok if t.n + 1 <= kernels.SCAN_LIMIT else None
    )
    if args.json:
        print(json.dumps(out))
        return 0
    print(f"order: {out['order']}")
    print(f"det: {out['det']}")
    print(
        f"max subtournament det: {rep.max_minor} (k = {rep.k}), "
        f"witness {{{', '.join(str(v) for v in rep.to_json()['witness'])}}}"
    )
    print(f"class: {out['class']}")
    print(f"transitive: {'yes' if out['transitive'] else 'no'}")
    print(f"basic: {'yes' if out['basic'] else 'no'}")
    print(f"trivial CR: {'yes' if out['trivial_cr'] else 'no'}")
    if out["cr"] is None:
        print(f"CR tournament: skipped (order > {kernels.SCAN_LIMIT - 1})")
    else:
        print(f"CR tournament: {'yes' if out['cr'] else 'no'}")
    return 0


def _cmd_gen(args) -> int:
    if args.family != "ln":
        raise InvalidArgumentError(f"unknown family {args.family!r}")
    t = gen_ln_minus(args.n) if args.minus else gen_ln(args.n)
    _emit_tournament(t, args)
    return 0


def _cmd_switch(args) -> int:
    t = _read_tournament(args.file)
    _emit_tournament(switch(t, _parse_vertices(args.w)), args)
    return 0


def _cmd_blowup(args) -> int:
    base = _parse_base(args.base)
    if args.sizes:
        sizes = [_parse_int(x, "part size") for x in args.sizes.split(",")]
        t = transitive_blowup(base, sizes)
    elif args.parts:
        parts = [_read_tournament(p) for p in args.parts.split(",")]
        t = blowup(base, parts)
    else:
        raise InvalidArgumentError("blowup needs --sizes or --parts")
    _emit_tournament(t, args)
    return 0


def _parse_sigma_arg(text: str, n: int):
    # relations come as '+-+' strings or as run-length text like '3,-2,1';
    # run lengths are checked against the order before they are expanded
    if any(c.isdigit() for c in text):
        runs = signature_from_text(text)
        if sum(map(abs, runs)) != n:
            raise InvalidArgumentError(f"sigma must have length {n}")
        return signature_to_sigma(runs)
    return sigma_from_string(text)


def _cmd_extend(args) -> int:
    t = _read_tournament(args.file)
    _emit_tournament(extend(t, _parse_sigma_arg(args.sigma, t.n)), args)
    return 0


def _cmd_check(args) -> int:
    t = _read_tournament(args.file)
    results = {}
    if args.basic:
        results["basic"] = is_basic(t)
    if args.cr:
        results["cr"] = is_cr_tournament(t).to_json()
    if args.strong_cr:
        results["strong_cr"] = is_strong_cr(t).to_json()
    if not results:
        raise InvalidArgumentError("check needs --basic, --cr or --strong-cr")
    if args.json:
        print(json.dumps({"schema": SCHEMA, **results}))
        return 0
    for key, val in results.items():
        flag = val if isinstance(val, bool) else val["ok"]
        print(f"{key.replace('_', ' ')}: {'yes' if flag else 'no'}")
        if isinstance(val, dict) and val.get("failures"):
            print(f"  failing relations: {', '.join(val['failures'])}")
    return 0


def _cmd_decompose(args) -> int:
    t = _read_tournament(args.file)
    base = _parse_base(args.base)
    dec = decompose_transitive_blowup(t, base)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "decomposition": None if dec is None else dec.to_json(),
                }
            )
        )
        return 0
    if dec is None:
        print("no decomposition")
        return 0
    d = dec.to_json()
    print(f"W: {{{', '.join(str(v) for v in d['W'])}}}")
    for blk, bv in zip(d["blocks"], d["base_vertex_of_block"]):
        print(f"block -> base vertex {bv}: {{{', '.join(str(v) for v in blk)}}}")
    print(f"base: {d['base'] if isinstance(d['base'], str) else 'inline'}")
    return 0


def _cmd_verify(args) -> int:
    names = available_suites() if args.suite == "all" else args.suite.split(",")
    # the pool starts every worker up front: one per suite at most
    jobs = min(max(1, args.jobs), len(names))
    reports = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [
                pool.submit(run_suite, name, args.max_n, args.seed)
                for name in names
            ]
            reports = [f.result() for f in futs]
    else:
        reports = [run_suite(name, args.max_n, args.seed) for name in names]
    if args.json:
        print(json.dumps({"schema": SCHEMA, "reports": [r.to_json() for r in reports]}))
    else:
        for rep in reports:
            status = "pass" if rep.passed else "FAIL"
            failed = "" if rep.passed else f"{rep.failure_count} failures, "
            print(
                f"{rep.suite}: {status} ({failed}{rep.checked} checks, "
                f"{rep.seconds:.2f}s, params {rep.params})"
            )
            for f in rep.failures[:5]:
                print(f"  counterexample: {f}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_enumerate(args) -> int:
    stream = enumerate_tournaments(args.n, classes=args.classes)
    if args.count:
        print(sum(1 for _ in stream))
        return 0
    if args.json:
        payload = [{"n": t.n, "bits": t.bits()} for t in stream]
        print(json.dumps({"schema": SCHEMA, "tournaments": payload}))
        return 0
    first = True
    for t in stream:
        if not first:
            print()
        sys.stdout.write(format_skew(t) if args.skew else format_trn(t))
        first = False
    return 0


def _cmd_zmat(args) -> int:
    r = sigma_from_string(args.r)
    z = z_matrix(args.m, r)
    b = row_sums(z)
    delta = delta_total(r)
    if args.csv:
        sys.stdout.write(z.csv())
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "m": z.m,
                    "entries": z.entries.tolist(),
                    "row_sums": b.tolist(),
                    "delta": delta,
                    "diagonals": [
                        list(diagonal_vector(z, ell).entries)
                        for ell in range(1, z.m + 1)
                    ]
                    if args.diagonals
                    else None,
                }
            )
        )
        return 0
    print(z.pretty())
    print(f"row sums b: {b.tolist()}")
    print(f"delta: {delta}")
    if args.diagonals:
        for ell in range(1, z.m + 1):
            g = diagonal_vector(z, ell)
            print(f"Gamma_{ell}: {list(g.entries)} (step {g.step})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crtour",
        description="tournament determinants, switching classes and CR checks",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine output")

    def add_skew(p):
        p.add_argument("--skew", action="store_true", help="emit skew-matrix form")

    p = sub.add_parser("analyze", help="determinant, minor scan and flags")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("gen", help="generate a named tournament")
    p.add_argument("family", choices=["ln"])
    p.add_argument("n", type=int)
    p.add_argument("--minus", action="store_true")
    add_skew(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("switch", help="switch with respect to a vertex set")
    p.add_argument("file")
    p.add_argument("--w", required=True, help="1-based labels, e.g. 1,3,5")
    add_skew(p)
    p.set_defaults(fn=_cmd_switch)

    p = sub.add_parser("blowup", help="blow up a base tournament")
    p.add_argument("base", help="file, '-', or ln:K / ln-:K")
    p.add_argument("--sizes", help="transitive part sizes, e.g. 2,1,1,1")
    p.add_argument("--parts", help="comma-separated part files")
    add_skew(p)
    p.set_defaults(fn=_cmd_blowup)

    p = sub.add_parser("extend", help="attach a new vertex by a relation")
    p.add_argument("file")
    p.add_argument("--sigma", required=True, help="'+-+-' or run form '2,-2'")
    add_skew(p)
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("check", help="basic / CR / strong-CR predicates")
    p.add_argument("file")
    p.add_argument("--basic", action="store_true")
    p.add_argument("--cr", action="store_true")
    p.add_argument("--strong-cr", dest="strong_cr", action="store_true")
    add_json(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("decompose", help="switched transitive-blowup decomposition")
    p.add_argument("file")
    p.add_argument("--base", required=True, help="file, ln:K or ln-:K")
    add_json(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify", help="run claim-verification suites")
    p.add_argument("suite", help="suite name, comma list, or 'all'")
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel suites (one worker per suite at most)"
    )
    add_json(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("enumerate", help="stream tournaments of an order")
    p.add_argument("n", type=int)
    p.add_argument("--classes", action="store_true", help="one per isomorphism class")
    p.add_argument("--count", action="store_true", help="print only the count")
    add_json(p)
    add_skew(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("zmat", help="Z-matrix, diagonals, row sums")
    p.add_argument("m", type=int)
    p.add_argument("--r", required=True, help="+-sequence of length m")
    p.add_argument("--diagonals", action="store_true")
    p.add_argument("--csv", action="store_true")
    add_json(p)
    p.set_defaults(fn=_cmd_zmat)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # an order too large to allocate, e.g. ``gen ln 99999``
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        # unreadable input files: missing, a directory, not text
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
