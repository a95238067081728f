"""Layer spans for a traced run, recorded from outside the package.

``Tracer.install`` wraps each public function named in ``TRACED`` at
every name callers look it up by: the defining module's attribute and
every from-import binding of the same function object in any loaded
``crtour`` module (so ``cr.first_minor_above`` via ``kernels.*`` and
``blowup.tournament_det`` via ``from .detkit import`` are both seen).
The ``Tournament`` constructor is wrapped at ``Tournament.__init__``.
``Tracer.uninstall`` puts every original back.

Each call becomes one span ``[name, start, end, parent, job]`` kept in
memory; ``Tracer.summary`` turns the spans of one round into per-name
calls and self time (duration minus the time covered by child spans),
plus the computed work counts below.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "kernels": (
        "bareiss_det",
        "max_even_minor",
        "first_minor_above",
        "perm_min_encoding",
        "perm_aut_count",
    ),
    "detkit": ("det_exact", "tournament_det", "max_subtournament_det"),
    "core": (
        "Tournament",
        "switch",
        "induced",
        "is_isomorphic",
        "switching_isomorphic",
        "canonical_encoding",
        "automorphism_count",
        "enumerate_tournaments",
    ),
    "cr": (
        "cr_vertex_witness",
        "count_cr_sigmas",
        "extend",
        "is_cr_tournament",
        "is_strong_cr",
        "cr_associated",
        "is_basic",
    ),
    "blowup": (
        "decompose_transitive_blowup",
        "transitive_blowup",
        "one_transitive_blowups",
    ),
    "zmatrix": (
        "z_matrix",
        "row_sums",
        "diagonal_vector",
        "bordered_det",
        "transitive_inverse",
    ),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
LAYERS = tuple(TRACED)


def _even_sizes(n: int, forced: bool):
    """(size, candidate count) for each even subset size 2..n; with a
    forced vertex only subsets containing it are candidates."""
    for c in range(2, n + 1, 2):
        yield c, math.comb(n - 1, c - 1) if forced else math.comb(n, c)


def _order(x) -> int:
    return len(x.skew) if hasattr(x, "skew") else len(x)


def _minor_scan_full(args, kwargs, out):
    return sum(k for _, k in _even_sizes(_order(args[0]), False))


def _minor_scan_first(args, kwargs, out):
    # Size levels are scanned whole and in increasing order, up to the
    # level of the returned witness (every level when there is none).
    n = _order(args[0])
    forced = kwargs.get("forced", args[2] if len(args) > 2 else -1) >= 0
    top = bin(out).count("1") if out else n
    return sum(k for c, k in _even_sizes(n, forced) if c <= top)


def _perm_scan(args, kwargs, out):
    n = _order(args[0])
    return math.factorial(n) if n > 1 else 0


def _relations_cr(args, kwargs, out):
    return 0 if out.trivial else 1 << args[0].n


def _relations_count(args, kwargs, out):
    return 1 << args[0].n


# span name -> (computed count name, count from call arguments and result)
COUNTERS = {
    "kernels.max_even_minor": ("kernels.minor_scan.subsets", _minor_scan_full),
    "kernels.first_minor_above": ("kernels.minor_scan.subsets", _minor_scan_first),
    "kernels.perm_min_encoding": ("kernels.perm_scan.perms", _perm_scan),
    "kernels.perm_aut_count": ("kernels.perm_scan.perms", _perm_scan),
    "cr.is_cr_tournament": ("cr.relations_scanned", _relations_cr),
    "cr.count_cr_sigmas": ("cr.relations_scanned", _relations_count),
}
COUNT_NAMES = ("kernels.minor_scan.subsets", "kernels.perm_scan.perms", "cr.relations_scanned")


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        def open_span() -> list:
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            return rec

        def close_span(rec: list) -> None:
            rec[2] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            def traced(*args, **kwargs):
                rec = open_span()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    close_span(rec)

        else:

            def traced(*args, **kwargs):
                rec = open_span()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    close_span(rec)
                if counter is not None:
                    counts[counter[0]] += counter[1](args, kwargs, out)
                return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        }
        wrappers = {}
        for mod_name, fns in TRACED.items():
            mod = mods[f"{self.package}.{mod_name}"]
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                span = f"{mod_name}.{fn_name}"
                if inspect.isclass(orig):
                    init = orig.__init__
                    self._restore.append((orig, "__init__", init))
                    orig.__init__ = self._wrap(span, init)
                else:
                    wrappers[id(orig)] = (orig, self._wrap(span, orig))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, val = self._restore.pop()
            setattr(obj, attr, val)

    # -- summarising -------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self seconds for the spans recorded since
        the last summary, then forget them.

        ``root_s`` is the time covered by spans without a parent, and
        ``decompose`` the switching_isomorphic and tournament_det calls
        made directly by decompose_transitive_blowup.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        root_s = 0.0
        decompose = {"core.switching_isomorphic": 0, "detkit.tournament_det": 0}
        for i, (name, start, end, parent, _job) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent < 0:
                root_s += end - start
            elif name in decompose and spans[parent][0] == "blowup.decompose_transitive_blowup":
                decompose[name] += 1
        if self._stack:
            raise RuntimeError("spans still open at the end of a round")
        out = {
            "calls": calls,
            "self_s": self_s,
            "root_s": root_s,
            "decompose": decompose,
            "counts": {k: self.counts.get(k, 0) for k in COUNT_NAMES},
        }
        spans.clear()
        self.counts.clear()
        return out
