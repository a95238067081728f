"""The benchmark in ``perfbench/`` looks crtour up by name: every span
in ``tracer.TRACED``, every ``Job.api`` of its workloads and every
attribute ``run.py`` reads off the package must resolve, or a
benchmark run fails where tier-1 passed.  One traced round of each
workload must also run clean, since a run exits 1 on anything that
raises outside a job: an open span, a count JSON cannot take, or an
answer the digest cannot normalise."""

import importlib
import json
import os
import re
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # the benchmark's tree stays untouched: no bytecode written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def _resolve(mod: str, name: str):
    return getattr(importlib.import_module(f"crtour.{mod}"), name)


def test_traced_names_resolve(perfbench):
    tracer, _ = perfbench
    for mod, names in tracer.TRACED.items():
        for name in names:
            assert callable(_resolve(mod, name)), f"{mod}.{name}"


def test_run_attributes_resolve():
    # such as ct.kernels.BACKEND, stamped into every record
    import crtour

    source = (PERFBENCH / "run.py").read_text()
    chains = set(re.findall(r"\bct\.(\w+(?:\.\w+)*)", source))
    assert chains
    for chain in sorted(chains):
        obj = crtour
        for name in chain.split("."):
            assert hasattr(obj, name), f"crtour.{chain}"
            obj = getattr(obj, name)


def test_workload_apis_resolve(perfbench):
    import crtour

    _, workloads = perfbench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for name in (w["name"] for w in declared):
        jobs = workloads.build(name, crtour, 0)
        assert jobs
        for api in {job.api for job in jobs}:
            assert callable(_resolve(*api.split("."))), f"{name}: {api}"


# seed-1 answer digests; a change here means a changed answer
SEED1_DIGESTS = {
    "cr-definition": "b88a05f9bac431fe",
    "class-census": "9f0430bbc4b95da1",
    "decompose-witness": "2b82d30a261cf161",
}


@pytest.fixture
def run(perfbench):
    # run.py sets thread and bytecode variables on import; put them back
    env = dict(os.environ)
    try:
        yield importlib.import_module("run")
    finally:
        os.environ.clear()
        os.environ.update(env)


@pytest.mark.parametrize("name", sorted(SEED1_DIGESTS))
def test_one_traced_round(perfbench, run, name):
    import crtour

    tracer, workloads = perfbench
    jobs = workloads.build(name, crtour, 1)
    spans = tracer.Tracer("crtour")
    spans.install()
    try:
        rnd = run.run_round(jobs, None, spans)
    finally:
        spans.uninstall()
    assert rnd["errors"] == {}
    assert run.check_round(jobs, rnd["answers"], rnd["errors"]) == []
    summary = spans.summary()  # raises on a span left open
    json.dumps([summary["calls"], summary["counts"]])
    assert run.digest(rnd["answers"], rnd["errors"]) == SEED1_DIGESTS[name]


@pytest.mark.xfail(
    strict=True,
    raises=statistics.StatisticsError,
    reason=(
        "ROADMAP, Fix first, 'Mend perfbench': Speed.scale takes the median "
        "of no calibration samples, so a traced run whose rounds all last "
        "under EVERY_S exits 1; the change that mends it drops this marker"
    ),
)
def test_speed_scale_needs_no_calibration_sample(perfbench):
    speed = importlib.import_module("speed")
    assert isinstance(speed.Speed().scale(0.0, 1.0), float)
