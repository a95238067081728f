"""Registry of claim-verification suites.

Each suite exhaustively or statistically checks one structural law at
desk scale and reports counterexamples; an empty failure list means the
suite passed.  Reports are deterministic for a fixed seed, and every
failure payload carries the offending tournament in .trn form so it
round-trips.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import config, kernels
from .core import (
    Tournament,
    _anchored_switch_sets,
    enumerate_tournaments,
    format_trn,
    switch,
    switching_isomorphic,
    transitive_tournament,
)
from .cr import (
    _relations,
    all_sigmas,
    cr_associated,
    cr_witness_table,
    extend,
    is_basic,
    is_cr_tournament,
    is_strong_cr,
    sigma_to_string,
)
from .blowup import (
    blowup,
    classify_d5,
    decompose_brute_force,
    decompose_transitive_blowup,
    one_transitive_blowups,
    switching_to_transitive,
    transitive_blowup,
    xi_blowup_check,
)
from .detkit import in_dk, in_dk_exactly, max_subtournament_det, tournament_det
from .errors import (
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)
from .lfamily import (
    gen_ln,
    gen_ln_minus,
    ln_extension_is_cr,
    sigma_to_signature,
)
from .zmatrix import (
    _b_diffs,
    _gamma,
    _steps,
    assemble_bordered,
    bordered_det,
    delta_total,
    ln_deletion_det_check,
    row_sums,
    z_matrix,
)
from .detkit import _mask_vertices, det_exact

_D7_SIX_ROWS = (
    (0, 1, 1, 1, -1, -1),
    (-1, 0, 1, 1, -1, 1),
    (-1, -1, 0, 1, 1, 1),
    (-1, -1, -1, 0, -1, -1),
    (1, 1, -1, 1, 0, 1),
    (1, -1, -1, 1, -1, 0),
)


def d7_six_tournament() -> Tournament:
    """A 6-tournament with maximal subtournament determinant 49.

    It occupies the same exact determinant class as L_8 while being too
    small to contain any subtournament switching-isomorphic to L_8, so
    it is the canonical negative instance for the xi-membership
    equivalence.
    """
    return Tournament(np.array(_D7_SIX_ROWS, np.int8))


_class_cache: dict[int, tuple[Tournament, ...]] = {}


def _classes(n: int) -> tuple[Tournament, ...]:
    if n not in _class_cache:
        _class_cache[n] = tuple(
            enumerate_tournaments(n, classes=True, cap=max(n, config.enum_cap()))
        )
    return _class_cache[n]


def _fail(t: Tournament, **extra) -> dict:
    d = {"tournament": format_trn(t)}
    d.update(extra)
    return d


def _random_tournament(rng: random.Random, n: int) -> Tournament:
    m = n * (n - 1) // 2
    return Tournament.from_bits(n, rng.getrandbits(m) if m else 0)


def _flip_random_arc(rng: random.Random, t: Tournament) -> Tournament:
    # perturb one arc; usually leaves the class or breaks it
    arr = t.skew.copy()
    i = rng.randrange(t.n)
    j = rng.randrange(t.n)
    while j == i:
        j = rng.randrange(t.n)
    arr[i, j] = -arr[i, j]
    arr[j, i] = -arr[j, i]
    return Tournament(arr)


def _random_sigma(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(n))


def _random_switch_set(rng: random.Random, n: int) -> frozenset[int]:
    """Each of the vertices 0..n-1 independently with probability 1/2."""
    return frozenset(v for v in range(n) if rng.random() < 0.5)


def _random_blowup(
    rng: random.Random, base: Tournament, lo: int, hi: int
) -> Tournament:
    """A transitive blowup of base whose order is drawn from lo..hi,
    each vertex beyond base.n joining a uniformly drawn part."""
    sizes = [1] * base.n
    for _ in range(rng.randint(lo - base.n, hi - base.n)):
        sizes[rng.randrange(base.n)] += 1
    return transitive_blowup(base, sizes)


# ---------------------------------------------------------------------------
# registry

SuiteFn = Callable[[int, int], tuple[int, list, dict]]

_SUITES: dict[str, tuple[SuiteFn, int, int]] = {}


def _suite(name: str, default_max_n: int, hard_cap: int):
    def register(fn: SuiteFn) -> SuiteFn:
        _SUITES[name] = (fn, default_max_n, hard_cap)
        return fn

    return register


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    params: dict
    checked: int
    failures: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "schema": "crtour/1",
            "suite": self.suite,
            "params": self.params,
            "checked": self.checked,
            "failures": list(self.failures),
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
        }


def available_suites() -> list[str]:
    return sorted(_SUITES)


def run_suite(name: str, max_n: Optional[int] = None, seed: int = 0) -> SuiteReport:
    if name not in _SUITES:
        raise InvalidArgumentError(
            f"unknown suite {name!r}; available: {', '.join(available_suites())}"
        )
    fn, default_max_n, hard_cap = _SUITES[name]
    n = default_max_n if max_n is None else int(max_n)
    if n < 1:
        raise InvalidArgumentError(
            f"suite {name} checks nothing at max_n={n}; it needs max_n >= 1"
        )
    if n > hard_cap:
        raise ResourceLimitError(
            f"suite {name} is capped at max_n={hard_cap} (asked {n})"
        )
    start = time.perf_counter()
    checked, failures, params = fn(n, int(seed))
    seconds = time.perf_counter() - start
    if checked == 0:
        raise InvalidArgumentError(
            f"suite {name} checks nothing at max_n={n}"
        )
    params = {"max_n": n, "seed": int(seed), **params}
    return SuiteReport(name, params, checked, tuple(failures), seconds)


# ---------------------------------------------------------------------------
# suites


@_suite("d1-diamond", default_max_n=6, hard_cap=7)
def _d1_diamond(max_n: int, seed: int):
    """D_1 <=> diamond-free <=> switching equivalent to transitive."""
    checked, failures = 0, []
    for n in range(1, max_n + 1):
        for t in _classes(n):
            checked += 1
            a = in_dk(t, 1)
            dets, size = kernels._subset_dets(t.skew)
            b = not ((dets == 9) & (size == 4)).any()
            c = switching_to_transitive(t) is not None
            if not (a == b == c):
                failures.append(_fail(t, in_d1=a, diamond_free=b, sw_transitive=c))
                continue
            if a and n >= 2:
                cls = classify_d5(t)
                if cls.label != "D1" or not cls.agree:
                    failures.append(_fail(t, classify=cls.label))
    return checked, failures, {}


@_suite("d3-six-subs", default_max_n=10, hard_cap=kernels.SCAN_LIMIT)
def _d3_six_subs(max_n: int, seed: int):
    """Membership in D_3 is decided by the 6-vertex subtournaments.

    Below order 8 every even subset lies inside some 6-subset, so both
    sides are one predicate; the suite samples orders 8..max_n:
    switched transitive blowups of L_4, which lie in D_3, every second
    one with an arc flipped, which often takes it out."""
    if max_n < 8:
        return 0, [], {}  # no order where the law has content
    rng = random.Random(seed)
    base = gen_ln(4)
    checked, failures, in_d3 = 0, [], 0
    for trial in range(1000):
        t = _random_blowup(rng, base, 8, max_n)
        t = switch(t, _random_switch_set(rng, t.n))
        if trial % 2 == 1:
            t = _flip_random_arc(rng, t)
        checked += 1
        lhs = in_dk(t, 3)
        in_d3 += lhs
        dets, size = kernels._subset_dets(t.skew)
        rhs = not ((dets > 9) & (size <= 6)).any()
        if lhs != rhs:
            failures.append(_fail(t, in_d3=lhs, six_subs=rhs))
    return checked, failures, {"samples": 1000, "in_d3": in_d3}


@_suite("d5-blowup", default_max_n=9, hard_cap=10)
def _d5_blowup(max_n: int, seed: int):
    """D_5 \\ D_3 membership coincides with decomposability over L_6."""
    if max_n < 6:
        return 0, [], {}  # every blowup of L_6 has order >= 6
    rng = random.Random(seed)
    base = gen_ln(6)
    checked, failures = 0, []
    for trial in range(1000):
        t = _random_blowup(rng, base, 6, max_n)
        t = switch(t, _random_switch_set(rng, t.n))
        if trial % 2 == 1:
            t = _flip_random_arc(rng, t)
        checked += 1
        member = in_dk_exactly(t, 5)
        dec = decompose_transitive_blowup(t, base)
        if member != (dec is not None):
            failures.append(_fail(t, in_d5_minus_d3=member, decomposed=dec is not None))
    return checked, failures, {"samples": 1000}


@_suite("det-sw-invariance", default_max_n=6, hard_cap=8)
def _det_sw_invariance(max_n: int, seed: int):
    """Switching changes no subtournament determinant, subset by subset:
    every switch of every class to order 5, then 1000 random switches
    of random tournaments of order max_n."""
    rng = random.Random(seed)
    every = (
        (t, w)
        for n in range(2, min(max_n, 5) + 1)
        for t in _classes(n)
        for w in _anchored_switch_sets(n)
    )
    sampled = (
        (_random_tournament(rng, max_n), _random_switch_set(rng, max_n))
        for _ in range(1000)
    )
    checked, failures = 0, []
    for t, w in itertools.chain(every, sampled):
        dets = kernels._subset_dets(t.skew)[0]
        differ = dets != kernels._subset_dets(switch(t, w).skew)[0]
        checked += 1
        subs = map(_mask_vertices, np.flatnonzero(differ).tolist())
        for sub in sorted(subs, key=lambda u: (len(u), u)):
            failures.append(_fail(t, w=sorted(w), u=sub))
    return checked, failures, {"samples": 1000}


@_suite("cr-assoc-sw", default_max_n=6, hard_cap=7)
def _cr_assoc_sw(max_n: int, seed: int):
    """CR-association between two vertices survives any switch."""
    checked, failures = 0, []
    for n in range(2, max_n + 1):
        for t in _classes(n):
            pairs = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if cr_associated(t, u, v) is not None
            ]
            for w in _anchored_switch_sets(n):
                t2 = switch(t, w)
                checked += 1
                for u, v in pairs:
                    if cr_associated(t2, u, v) is None:
                        failures.append(_fail(t, w=sorted(w), pair=(u + 1, v + 1)))
    return checked, failures, {}


@_suite("cr-pred-sw", default_max_n=5, hard_cap=6)
def _cr_pred_sw(max_n: int, seed: int):
    """is_basic / is_cr_tournament / is_strong_cr are switching invariants."""
    rng = random.Random(seed)
    checked, failures = 0, []
    basic_to = min(max_n + 1, 6)
    cr_to = min(max_n, 6)
    strong_exhaustive_to = min(max_n, 4)
    for n in range(2, basic_to + 1):
        for t in _classes(n):
            ref = is_basic(t)
            for w in _anchored_switch_sets(n):
                checked += 1
                if is_basic(switch(t, w)) != ref:
                    failures.append(_fail(t, w=sorted(w), predicate="basic"))
    for n in range(1, cr_to + 1):
        for t in _classes(n):
            ref = is_cr_tournament(t).ok
            for w in _anchored_switch_sets(n):
                checked += 1
                if is_cr_tournament(switch(t, w)).ok != ref:
                    failures.append(_fail(t, w=sorted(w), predicate="cr"))
    for n in range(1, cr_to + 1):
        for t in _classes(n):
            ref = is_strong_cr(t).ok
            if n <= strong_exhaustive_to:
                sets = list(_anchored_switch_sets(n))
            else:
                sets = [
                    frozenset(v for v in range(1, n) if rng.random() < 0.5)
                    for _ in range(4)
                ]
            for w in sets:
                checked += 1
                if is_strong_cr(switch(t, w)).ok != ref:
                    failures.append(_fail(t, w=sorted(w), predicate="strong-cr"))
    return checked, failures, {
        "basic_to": basic_to,
        "cr_to": cr_to,
        "strong_exhaustive_to": strong_exhaustive_to,
    }


@_suite("strongcr-equiv", default_max_n=5, hard_cap=6)
def _strongcr_equiv(max_n: int, seed: int):
    """All 1-transitive blowups CR forces the base tournament CR."""
    checked, failures = 0, []
    for n in range(1, max_n + 1):
        for t in _classes(n):
            checked += 1
            blowups_cr = all(
                is_cr_tournament(b).ok for b in one_transitive_blowups(t)
            )
            base_cr = is_cr_tournament(t).ok
            if blowups_cr and not base_cr:
                failures.append(_fail(t, blowups_cr=True, base_cr=False))
            try:
                strong = is_strong_cr(t).ok
            except TheoremViolationError as exc:
                # is_strong_cr met the counterexample on its own route
                failures.append(_fail(t, strong_cr_error=str(exc)))
                continue
            if strong != (blowups_cr and base_cr):
                failures.append(_fail(t, strong=strong, blowups_cr=blowups_cr))
    return checked, failures, {}


@_suite("basic-not-d1", default_max_n=6, hard_cap=7)
def _basic_not_d1(max_n: int, seed: int):
    """A basic tournament never lies in D_1."""
    checked, failures = 0, []
    for n in range(4, max_n + 1):
        for t in _classes(n):
            checked += 1
            if is_basic(t) and in_dk(t, 1):
                failures.append(_fail(t))
    return checked, failures, {}


@_suite("noncr-nondecomp", default_max_n=8, hard_cap=9)
def _noncr_nondecomp(max_n: int, seed: int):
    """Attaching a non-CR vertex to a transitive blowup of a basic base
    leaves nothing switching equivalent to a transitive blowup of it."""
    rng = random.Random(seed)
    checked, failures = 0, []
    brute_checked = 0
    for trial in range(1000):
        base = gen_ln(4) if trial % 2 == 0 else gen_ln(6)
        if max_n - 1 < base.n:
            continue
        hat = _random_blowup(rng, base, base.n, max_n - 1)
        noncr = np.flatnonzero(cr_witness_table(hat)[0] < 0)
        if not noncr.size:
            continue
        sig = tuple(_relations(hat.n)[0][noncr[rng.randrange(noncr.size)]].tolist())
        ext = extend(hat, sig)
        checked += 1
        if decompose_transitive_blowup(ext, base) is not None:
            failures.append(_fail(ext, base=base.n, sigma=sigma_to_string(sig)))
            continue
        # independent route: the extension leaves D_k, so no switch of it
        # can be a transitive blowup of the base
        k = max_subtournament_det(base).k
        if in_dk(ext, k):
            failures.append(
                _fail(ext, base=base.n, sigma=sigma_to_string(sig), still_in_dk=True)
            )
        if ext.n <= 7 and brute_checked < 50:
            brute_checked += 1
            if decompose_brute_force(ext, base) is not None:
                failures.append(
                    _fail(ext, base=base.n, sigma=sigma_to_string(sig), brute=True)
                )
    return checked, failures, {"samples": 1000, "brute_checked": brute_checked}


@_suite("cr-order3", default_max_n=3, hard_cap=3)
def _cr_order3(max_n: int, seed: int):
    """Both 3-tournaments are CR, each with exactly two non-CR
    relations whose extensions have determinant 9."""
    if max_n < 3:
        return 0, [], {}  # both 3-tournaments exceed max_n
    checked, failures = 0, []
    for t in _classes(3):
        checked += 1
        rep = is_cr_tournament(t)
        vertex = cr_witness_table(t)[0]
        noncr = [s for s, v in zip(all_sigmas(3), vertex) if v < 0]
        dets = [tournament_det(extend(t, s)) for s in noncr]
        if not rep.ok or len(noncr) != 2 or dets != [9, 9]:
            failures.append(
                _fail(t, cr=rep.ok, noncr=[sigma_to_string(s) for s in noncr], dets=dets)
            )
    return checked, failures, {}


def _ln_basic_strong_cr(orders: list[int]) -> tuple[int, list]:
    """Each L_n of the given orders is basic and strong CR."""
    failures = []
    for n in orders:
        t = gen_ln(n)
        if not is_basic(t):
            failures.append(_fail(t, basic=False))
        rep = is_strong_cr(t)
        if not rep.ok:
            bad = [v + 1 for v, r in rep.blowups if not r.ok]
            failures.append(_fail(t, strong=False, failing_blowups=bad))
    return len(orders), failures


@_suite("l4l6-strongcr", default_max_n=6, hard_cap=6)
def _l4l6_strongcr(max_n: int, seed: int):
    """L_4 and L_6 are basic strong CR tournaments."""
    return *_ln_basic_strong_cr([n for n in (4, 6) if n <= max_n]), {}


@_suite("ln-cr-formula", default_max_n=8, hard_cap=10)
def _ln_cr_formula(max_n: int, seed: int):
    """Run-count prediction equals direct CR detection for extensions
    of L_n and L_n^-, all relations, even n."""
    checked, failures = 0, []
    for n in (4, 6, 8, 10):
        if n > max_n:
            continue
        for minus in (False, True):
            t = gen_ln_minus(n) if minus else gen_ln(n)
            for sig, v in zip(all_sigmas(n), cr_witness_table(t)[0].tolist()):
                checked += 1
                predicted = ln_extension_is_cr(n, sig, minus=minus)
                actual = v >= 0
                if predicted != actual:
                    failures.append(
                        _fail(
                            t,
                            sigma=sigma_to_string(sig),
                            predicted=predicted,
                            actual=actual,
                        )
                    )
    return checked, failures, {}


@_suite("l8-strongcr", default_max_n=8, hard_cap=14)
def _l8_strongcr(max_n: int, seed: int):
    """L_8 (and L_10, L_12, L_14 as max_n allows) is basic strong CR."""
    orders = [n for n in (8, 10, 12, 14) if n <= max_n]
    return *_ln_basic_strong_cr(orders), {"orders": orders}


@_suite("t6-det25", default_max_n=6, hard_cap=6)
def _t6_det25(max_n: int, seed: int):
    """A 6-tournament is switching isomorphic to L_6 iff det = 25."""
    if max_n < 6:
        return 0, [], {}  # every 6-tournament exceeds max_n
    l6 = gen_ln(6)
    checked, failures = 0, []
    for t in _classes(6):
        checked += 1
        swiso = switching_isomorphic(t, l6) is not None
        det25 = tournament_det(t) == 25
        if swiso != det25:
            failures.append(_fail(t, swiso=swiso, det=tournament_det(t)))
    return checked, failures, {}


@_suite("ninedet", default_max_n=6, hard_cap=7)
def _ninedet(max_n: int, seed: int):
    """Blowing one vertex into a 3-cycle multiplies det by exactly 9."""
    if max_n < 2:
        return 0, [], {}  # no order >= 2 to sample from
    rng = random.Random(seed)
    cycle = Tournament(
        np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], np.int8)
    )
    checked, failures = 0, []
    for _ in range(1000):
        n = rng.randint(2, max_n)
        t = _random_tournament(rng, n)
        i = rng.randrange(n)
        parts = [
            cycle if j == i else transitive_tournament(1) for j in range(n)
        ]
        big = blowup(t, parts)
        checked += 1
        if tournament_det(big) != 9 * tournament_det(t):
            failures.append(_fail(t, vertex=i + 1))
    return checked, failures, {"samples": 1000}


@_suite("xi-decomp", default_max_n=11, hard_cap=12)
def _xi_decomp(max_n: int, seed: int):
    """Inside the exact determinant class of L_8, xi-membership and
    switched-transitive-blowup structure coincide; the order-6
    determinant-49 tournament is negative on both sides."""
    rng = random.Random(seed)
    base = gen_ln(8)
    checked, failures = 0, []
    samples = 25 if max_n >= 8 else 0  # every blowup of L_8 has order >= 8
    for _ in range(samples):
        t = _random_blowup(rng, base, 8, max_n)
        t = switch(t, _random_switch_set(rng, t.n))
        checked += 1
        if xi_blowup_check(t, 7) != (True, True):
            failures.append(_fail(t, expected=(True, True)))
    if max_n >= 6:
        t6 = d7_six_tournament()
        checked += 1
        if xi_blowup_check(t6, 7) != (False, False):
            failures.append(_fail(t6, expected=(False, False)))
    return checked, failures, {"samples": samples}


def _delta_by_runs(r: tuple[int, ...]) -> int:
    """Delta by the odd-run formula: 2 r_1 sum_i (-1)^(d_i + i), with
    d_0 < d_1 < ... the positions of the odd-length runs of r."""
    runs = sigma_to_signature(r)
    odd = [d for d, a in enumerate(runs, start=1) if abs(a) % 2 == 1]
    return 2 * r[0] * sum((-1) ** (d + i) for i, d in enumerate(odd))


@_suite("zmatrix-props", default_max_n=15, hard_cap=21)
def _zmatrix_props(max_n: int, seed: int):
    """Row sums against the diagonal vectors, diagonal steps, total step
    against the odd-run formula, boundary differences, bordered
    determinants, and the deletion-determinant identity."""
    rng = random.Random(seed)
    checked, failures = 0, []

    def check_r(m: int, r: tuple[int, ...]) -> None:
        nonlocal checked
        checked += 1
        z = z_matrix(m, r)
        b = row_sums(z)
        ell = np.arange(1, m + 1)[:, None]
        gamma = _gamma(z, ell)  # row ell - 1 is Gamma_ell
        for j in np.flatnonzero(gamma.sum(axis=0) != b).tolist():
            failures.append({"m": m, "r": r, "row_sum_at": j + 1})
        # Gamma_ell's difference at i, exempt at i = ell - 1 and ell
        i = np.arange(1, m)
        off = np.diff(gamma, axis=1) != _steps(r)[:, None]
        off &= (i != ell - 1) & (i != ell)
        for e, j in np.argwhere(off).tolist():
            failures.append({"m": m, "r": r, "ell": e + 1, "i": j + 1})
        delta, by_runs = delta_total(r), _delta_by_runs(r)
        if delta != by_runs:
            failures.append({"m": m, "r": r, "delta": delta, "by_runs": by_runs})
        for j in np.flatnonzero(np.diff(b) != _b_diffs(r)).tolist():
            failures.append({"m": m, "r": r, "b_diff_at": j + 1})

    for m in range(3, min(max_n, 7) + 1, 2):
        for bits in itertools.product((1, -1), repeat=m):
            check_r(m, bits)
    for m in range(9, max_n + 1, 2):
        for _ in range(1000):
            check_r(m, _random_sigma(rng, m))

    for p in (2, 4, 6):
        for a in (1, -1):
            for x in itertools.product((1, -1), repeat=p):
                for y in itertools.product((1, -1), repeat=p):
                    checked += 1
                    if bordered_det(a, x, y) != det_exact(
                        assemble_bordered(a, x, y)
                    ):
                        failures.append({"p": p, "a": a, "x": x, "y": y})
    for p in (8, 10):
        for _ in range(1000):
            a = rng.choice((1, -1))
            x, y = _random_sigma(rng, p), _random_sigma(rng, p)
            checked += 1
            if bordered_det(a, x, y) != det_exact(assemble_bordered(a, x, y)):
                failures.append({"p": p, "a": a, "x": x, "y": y})

    for n in (8, 10):
        for _ in range(1000):
            sig = _random_sigma(rng, n)
            checked += 1
            if not ln_deletion_det_check(n, sig):
                failures.append({"n": n, "sigma": sigma_to_string(sig)})
    return checked, failures, {"samples": 1000}
