#!/usr/bin/env python3
"""Benchmark crtour's public API on one seeded workload.

    python3 perfbench/run.py --workload cr-definition --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; crtour is imported from its
``src/`` in this one process, on one thread.  Each round asks the
workload's whole question set (see workloads.py) and checks every
answer against an independent value; rounds repeat until ``--seconds``
have passed.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
fresh processes that import, call each kernel once and build the
inputs), the time to answer the whole question set (median over
rounds), the median and tail of job latency (each job's latency being
the median of its repeats), and peak memory.  Times are scaled to a
reference machine speed (see speed.py); the raw figures are printed
too.  ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics from the traced ones (see tracer.py): calls and
raw self time per public function, computed work counts, each layer's
share of wall time, and the tracing overhead and coverage.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record FILE`` also
appends the full result, stamped with the environment, as one JSON
line; compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # kept out of version control
# crtour's tree stays untouched: no bytecode, and numba's cache (when
# numba is present) goes under the benchmark's own state directory
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
os.environ.setdefault("NUMBA_CACHE_DIR", str(STATE / "numba-cache"))
sys.dont_write_bytecode = True

import speed as sp  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def import_crtour():
    sys.path.insert(0, str(SRC))
    try:
        import crtour
    except ImportError as exc:
        sys.exit(f"cannot import crtour from {SRC}: {exc}")
    if not Path(crtour.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"crtour was imported from {crtour.__file__}, not from {SRC}")
    return crtour


def warm_kernels(ct) -> None:
    """First call of each kernel, as every user's first question pays it."""
    s = ct.gen_ln(4).skew
    k = ct.kernels
    k.bareiss_det(s)
    k.max_even_minor(s)
    k.first_minor_above(s, 1)
    k.perm_min_encoding(s)
    k.perm_aut_count(s)


def resolve(api: str):
    mod, fn = api.split(".")
    return getattr(sys.modules[f"crtour.{mod}"], fn)


def run_round(jobs, speed, tracer=None) -> dict:
    """Ask every question once; return the answers, the errors and each
    job's raw (start, end).  Untraced rounds are calibrated (speed.py);
    traced rounds are left undisturbed."""
    answers = [None] * len(jobs)
    errors = {}
    spans = []
    gc.collect()
    with speed.ticking() if tracer is None else nullcontext():
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            try:
                args = job.args(answers) if callable(job.args) else job.args
                out = resolve(job.api)(*args)
                if inspect.isgenerator(out):
                    out = list(out)
                answers[i] = out
            except Exception as exc:  # a raising job is a failed job
                errors[i] = f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
    return {"answers": answers, "errors": errors, "spans": spans}


def check_round(jobs, answers, errors) -> list[int]:
    bad = []
    for i, job in enumerate(jobs):
        if i in errors:
            bad.append(i)
            continue
        try:
            ok = job.check(answers[i], answers)
        except Exception:
            ok = False
        if not ok:
            bad.append(i)
    return bad


def normalize(x):
    """A JSON-able, order-stable view of an answer, for the digest."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if hasattr(x, "skew") and hasattr(x, "bits"):
        return x.bits()
    if hasattr(x, "tolist"):
        return x.tolist()
    if isinstance(x, dict):
        return sorted((str(k), normalize(v)) for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(normalize(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [normalize(v) for v in x]
    if hasattr(x, "__dataclass_fields__"):
        return [type(x).__name__] + [normalize(getattr(x, f)) for f in x.__dataclass_fields__]
    raise TypeError(f"cannot normalise {type(x).__name__}")


def digest(answers, errors) -> str:
    view = [errors.get(i, normalize(a)) for i, a in enumerate(answers)]
    return hashlib.sha256(json.dumps(view).encode()).hexdigest()[:16]


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def source_digest() -> str:
    return tree_digest(SRC)


def bench_digest() -> str:
    return tree_digest(Path(__file__).resolve().parent)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(ct) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": ct.kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_seconds(workload: str, seed: int, speed) -> tuple[float, float]:
    """Median set-up time of fresh processes, scaled and raw."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            speed.sample()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        for _ in range(3):
            speed.sample()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.scale(t0, t1))
    return statistics.median(scaled), statistics.median(raw)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its
    value; the maximum when there are too few samples for that."""
    s = sorted(times)
    i = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return 100.0 * (i + 1) / len(s), s[i]


def remember(kind: str, key: str, value) -> str | None:
    """Check ``value`` against what an earlier run stored under ``key``;
    store it when there is none.  Returns a mismatch message or None."""
    path = STATE / "recorded.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    seen = book.setdefault(kind, {}).get(key)
    if seen is None:
        book[kind][key] = value
        STATE.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return None if seen == value else f"{kind} for {key} differ from an earlier run: {seen} != {value}"


def end_to_end(plain: list[dict], setup: tuple[float, float]) -> dict:
    """End-to-end metrics from the untraced rounds, printed as well."""
    # a job's latency is the median of its repeats in this run
    latency = [statistics.median(t) for t in zip(*(r["scaled"] for r in plain))]
    pct, tail_s = tail(latency)
    m = {
        "setup_s": (setup[0], "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "job_p50_ms": (1e3 * statistics.median(latency), "ms"),
        "job_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_wall = statistics.median(r["raw_s"] for r in plain)
    print(f"times at reference speed (see speed.py); raw: setup_s {setup[1]:.4g} s, wall_s {raw_wall:.4g} s")
    print(f"job_tail_ms is p{pct:.2f} of {len(latency)} jobs ({TAIL_BEYOND} beyond it), each the median of {len(plain)} repeats")
    for name, (value, unit) in m.items():
        print(f"  {name:16s} {value:>12.6g} {unit}")
    return m


def layer_metrics(traced: list[dict], untraced_raw: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rounds, and any inconsistency."""
    problems = []
    first = traced[0]["summary"]
    for rnd in traced[1:]:
        if rnd["summary"]["calls"] != first["calls"] or rnd["summary"]["counts"] != first["counts"]:
            problems.append("computed counts differ between traced rounds")
    med = statistics.median
    m = {}
    for name in tr.SPAN_NAMES:
        m[f"{name}.calls"] = (first["calls"][name], "count")
        m[f"{name}.self_s"] = (med(r["summary"]["self_s"][name] for r in traced), "s")
    for name, value in first["counts"].items():
        m[name] = (value, "count")
    dec = first["decompose"]
    det_calls = dec["detkit.tournament_det"]
    m["blowup.decompose.iso_per_det_filter"] = (
        dec["core.switching_isomorphic"] / det_calls if det_calls else 0.0,
        "ratio",
    )
    for layer in tr.LAYERS:
        shares = [
            sum(v for k, v in r["summary"]["self_s"].items() if k.startswith(layer + ".")) / r["raw_s"]
            for r in traced
        ]
        m[f"{layer}.share"] = (med(shares), "frac")
    m["trace.overhead_frac"] = (med(r["raw_s"] for r in traced) / med(untraced_raw) - 1.0, "frac")
    m["trace.coverage"] = (med(r["summary"]["root_s"] / r["raw_s"] for r in traced), "frac")
    return m, problems


COMPUTED = (".calls", "kernels.minor_scan.subsets", "kernels.perm_scan.perms", "cr.relations_scanned")


def print_layers(m: dict, wall_s: float) -> None:
    print("per-layer metrics (computed: exact counts that repeat run to run; measured: times)")
    for name, (value, unit) in m.items():
        label = "computed" if name.endswith(COMPUTED) else "measured"
        print(f"  {name:48s} {value:>14.6g} {unit:6s} {label}")
    print(f"share of the traced wall_s ({wall_s:.4g} s) by layer and by function (>= 1%), from self time:")
    for layer in tr.LAYERS:
        print(f"  {layer:10s} {100 * m[layer + '.share'][0]:6.1f}%")
    for name in sorted(tr.SPAN_NAMES, key=lambda n: -m[n + ".self_s"][0]):
        share = m[name + ".self_s"][0] / wall_s
        if share >= 0.01:
            print(f"    {name:40s} {100 * share:6.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="append the stamped result to this JSON-lines file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        ct = import_crtour()
        warm_kernels(ct)
        wl.build(args.workload, ct, args.seed)
        return 0

    if not (SRC / "crtour").is_dir():
        sys.exit(f"no crtour sources under {SRC}")
    speed = sp.Speed()
    setup = setup_seconds(args.workload, args.seed, speed) if not args.trace else None
    ct = import_crtour()
    warm_kernels(ct)
    jobs = wl.build(args.workload, ct, args.seed)
    env = environment(ct)
    tracer = tr.Tracer("crtour") if args.trace else None

    rounds = []
    attempted = failed = 0
    digests = set()
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds
        use_trace = tracer is not None and len(rounds) % 2 == 1
        if use_trace:
            tracer.install()
        try:
            rnd = run_round(jobs, speed, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        rnd["traced"] = use_trace
        if use_trace:
            rnd["summary"] = tracer.summary()
        bad = check_round(jobs, rnd["answers"], rnd["errors"])
        attempted += len(jobs)
        failed += len(bad)
        for i in bad[:5]:
            print(f"wrong answer: job {i} {jobs[i].kind}: {rnd['errors'].get(i, 'check failed')}")
        digests.add(digest(rnd.pop("answers"), rnd["errors"]))
        rounds.append(rnd)
        if time.perf_counter() - start >= args.seconds and (tracer is None or len(rounds) >= 2):
            break
    for rnd in rounds:
        raw = [t1 - t0 - speed.inside(t0, t1) for t0, t1 in rnd["spans"]]
        rnd["raw_s"] = sum(raw)
        if not rnd["traced"]:
            # each job scaled by the speed around it, so a speed change
            # inside a long round is followed
            rnd["scaled"] = [r * speed.scale(t0, t1) for r, (t0, t1) in zip(raw, rnd["spans"])]
            rnd["wall_s"] = sum(rnd["scaled"])
    plain = [r for r in rounds if not r["traced"]]

    problems = []
    if len(digests) != 1:
        problems.append("answers differ between rounds")
    key = f"{args.workload}:{args.seed}:{bench_digest()}"
    problems.append(remember("digests", key, min(digests)))
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics, more = layer_metrics(traced, [r["raw_s"] for r in plain])
        problems += more
        computed = {k: v[0] for k, v in metrics.items() if k.endswith(COMPUTED)}
        problems.append(remember("counts", f"{key}:{env['source_digest']}", computed))
        print_layers(metrics, statistics.median(r["raw_s"] for r in traced))
    else:
        metrics = end_to_end(plain, setup)
    problems = [p for p in problems if p]
    for p in problems:
        print(f"inconsistent: {p}")
    scales = [r["wall_s"] / r["raw_s"] for r in plain]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(jobs)} jobs, digest {min(digests)}")
    print(f"speed scale per untraced round: {', '.join(f'{k:.3f}' for k in scales)} ({len(speed.took)} calibration samples)")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} jobs wrong or raising)")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env, digest=min(digests), scales=scales)
        with args.record.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
