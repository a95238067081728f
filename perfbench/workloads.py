"""The three workloads: seeded inputs, the jobs asked of crtour, and the
independent check each job's answer must pass.

A job is one public-API question.  ``Job.api`` names the function as
``module.function`` and is looked up when the job runs, so a traced
run sees the wrapped binding.  ``Job.args`` is a tuple, or a function
of the answers given so far in the same round (used where a question
is asked about an earlier answer, such as automorphisms of each class
the enumeration returned).  ``Job.check(answer, answers)`` returns True
when the answer is right; it runs after the round, outside timing, and
computes its reference once per run.

Inputs are built from ``random.Random(seed)`` with nothing but
Tournament.from_bits, gen_ln, transitive_blowup, switch and extend, so
no workload's setup runs another workload's hot layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

import numpy as np

import reference as ref

# job counts per round; each is sized so the round's median and tail
# jobs sit inside one group of similar jobs (see predictions.json)
CR_RANDOM = ((6, 30), (7, 12), (8, 1))  # (order, tournaments) for is_cr_tournament
CR_LN = (8, 9)  # L_n checked with is_cr_tournament
STRONG_RANDOM = ((5, 2),)  # (order, tournaments) for is_strong_cr
STRONG_LN = (6,)
CENSUS_ORDER = 7
CENSUS_CLASSES = 456  # OEIS A000568
CANON_ORDER = 8
CANON_TOURNAMENTS = 6
CANON_RELABELINGS = 3
# (base L_m, blowup order, positive instances, negative instances)
DECOMPOSE = ((4, 8, 3, 3), (6, 10, 3, 3), (8, 12, 3, 12))
WITNESS_SIGMAS = 8  # cr_vertex_witness questions per positive instance
COUNT_BASE = 4  # count_cr_sigmas on the positive instances of this base
BORDERED = ((4, 12), (6, 12), (8, 12))  # (core order p, matrices)
ZMATRIX = ((5, 4), (7, 4), (9, 4))  # (m, sequences)


@dataclass(frozen=True)
class Job:
    kind: str
    api: str
    args: Any
    check: Callable[[Any, list], bool]


def build(name: str, ct, seed: int) -> list[Job]:
    return WORKLOADS[name](ct, random.Random(seed))


def _skew(t) -> np.ndarray:
    return np.asarray(t.skew, np.int64)


def _random_tournament(ct, rng, n):
    return ct.Tournament.from_bits(n, rng.getrandbits(n * (n - 1) // 2))


def _pm1(rng, n) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) for _ in range(n))


# -- cr-definition ----------------------------------------------------


def _cr_summary(rep) -> dict:
    return {
        "ok": rep.ok,
        "k": rep.k,
        "trivial": rep.trivial,
        "failures": set(rep.failures),
        "witness_map": dict(rep.witness_map),
    }


def _check_cr(t, must_hold: bool):
    want = cache(lambda: ref.cr_report(_skew(t)))

    def check(rep, _answers) -> bool:
        return _cr_summary(rep) == want() and (rep.ok or not must_hold)

    return check


def _check_strong(t, must_hold: bool):
    want = cache(lambda: ref.strong_cr_report(_skew(t)))

    def check(rep, _answers) -> bool:
        w = want()
        return (
            rep.ok == w["ok"]
            and [r.ok for _, r in rep.blowups] == w["blowups"]
            and _cr_summary(rep.base) == w["base"]
            and (rep.ok or not must_hold)
        )

    return check


def cr_definition(ct, rng) -> list[Job]:
    jobs = []
    for n, count in CR_RANDOM:
        for _ in range(count):
            t = _random_tournament(ct, rng, n)
            jobs.append(Job(f"is_cr_tournament/order{n}", "cr.is_cr_tournament", (t,), _check_cr(t, False)))
    for n in CR_LN:
        t = ct.gen_ln(n)
        jobs.append(Job(f"is_cr_tournament/L{n}", "cr.is_cr_tournament", (t,), _check_cr(t, True)))
    for n, count in STRONG_RANDOM:
        for _ in range(count):
            t = _random_tournament(ct, rng, n)
            jobs.append(Job(f"is_strong_cr/order{n}", "cr.is_strong_cr", (t,), _check_strong(t, False)))
    for n in STRONG_LN:
        t = ct.gen_ln(n)
        jobs.append(Job(f"is_strong_cr/L{n}", "cr.is_strong_cr", (t,), _check_strong(t, True)))
    return jobs


# -- class-census -----------------------------------------------------


def _check_classes(reps, _answers) -> bool:
    codes = [ref.packed(_skew(r)) for r in reps]
    return (
        len(reps) == CENSUS_CLASSES
        and all(r.n == CENSUS_ORDER for r in reps)
        and all(a < b for a, b in zip(codes, codes[1:]))
    )


def _check_automorphisms(group, answers) -> bool:
    # orbit-stabiliser: the class orbits partition all labelled tournaments
    n_fact = 1
    for k in range(2, CENSUS_ORDER + 1):
        n_fact *= k
    auts = answers[1 : 1 + CENSUS_CLASSES]
    total = sum(n_fact // a for a in auts)
    return group % 2 == 1 and n_fact % group == 0 and total == 2 ** (CENSUS_ORDER * (CENSUS_ORDER - 1) // 2)


def class_census(ct, rng) -> list[Job]:
    jobs = [Job(f"enumerate_tournaments/order{CENSUS_ORDER}", "core.enumerate_tournaments", (CENSUS_ORDER, True), _check_classes)]
    for i in range(CENSUS_CLASSES):
        jobs.append(
            Job(
                f"automorphism_count/order{CENSUS_ORDER}",
                "core.automorphism_count",
                lambda answers, i=i: (answers[0][i],),
                _check_automorphisms,
            )
        )
    for _ in range(CANON_TOURNAMENTS):
        t = _random_tournament(ct, rng, CANON_ORDER)
        want = cache(lambda t=t: ref.canonical_code(_skew(t)))
        check = lambda code, _answers, want=want: code == want()  # noqa: E731
        jobs.append(Job(f"canonical_encoding/order{CANON_ORDER}", "core.canonical_encoding", (t,), check))
        for _ in range(CANON_RELABELINGS):
            phi = rng.sample(range(CANON_ORDER), CANON_ORDER)
            moved = ct.Tournament.from_bits(CANON_ORDER, ref.packed(ref.relabel(_skew(t), phi)))
            jobs.append(Job(f"canonical_encoding/order{CANON_ORDER}-relabeled", "core.canonical_encoding", (moved,), check))
    return jobs


# -- decompose-witness ------------------------------------------------


def _switched_blowup(ct, rng, h, order):
    """switch(transitive_blowup(h, sizes), W) for seeded sizes summing to
    ``order`` and a seeded W."""
    sizes = [1] * h.n
    for _ in range(order - h.n):
        sizes[rng.randrange(h.n)] += 1
    w = [v for v in range(order) if rng.random() < 0.5]
    return ct.switch(ct.transitive_blowup(h, sizes), w)


def _check_no_decomposition(t, h):
    """A switched transitive blowup of h has no principal minor above
    h's largest: in any vertex subset, two vertices of one block that
    are consecutive in its chain agree on every other vertex of the
    subset, so deleting both leaves the subset's determinant unchanged,
    and switching is a congruence.  A tournament whose minors all stay
    below h's largest is therefore certified not to decompose over h."""
    certified = cache(lambda: ref.max_minor(_skew(t)) < ref.max_minor(_skew(h)))
    return lambda dec, _answers: dec is None and certified()


def _check_decomposition(t, h):
    def check(dec, _answers) -> bool:
        return dec is not None and ref.is_decomposition(
            _skew(t), _skew(h), sorted(dec.switch_set), [list(b) for b in dec.blocks], list(dec.base_vertex_of_block)
        )

    return check


def _check_witness(t, sigma):
    want = cache(lambda: ref.witnesses(_skew(t), np.array([sigma])))

    def check(wit, _answers) -> bool:
        vertex, kind = want()
        if vertex[0] < 0:
            return wit is None
        return wit is not None and (wit.vertex, wit.kind) == (vertex[0], kind[0])

    return check


def _check_count(t):
    want = cache(lambda: int((ref.witnesses(_skew(t), ref.sigma_table(t.n))[0] >= 0).sum()))
    return lambda count, _answers: count == want()


def _check_det(matrix):
    want = cache(lambda: ref.det(matrix))
    return lambda value, _answers: value == want()


def decompose_witness(ct, rng) -> list[Job]:
    jobs = []
    for m, order, positives, negatives in DECOMPOSE:
        h = ct.gen_ln(m)
        for _ in range(positives):
            t = _switched_blowup(ct, rng, h, order)
            jobs.append(Job(f"decompose/L{m}-order{order}", "blowup.decompose_transitive_blowup", (t, h), _check_decomposition(t, h)))
            for _ in range(WITNESS_SIGMAS):
                sigma = _pm1(rng, order)
                jobs.append(Job(f"cr_vertex_witness/order{order}", "cr.cr_vertex_witness", (t, sigma), _check_witness(t, sigma)))
            if m == COUNT_BASE:
                jobs.append(Job(f"count_cr_sigmas/order{order}", "cr.count_cr_sigmas", (t,), _check_count(t)))
        # negatives: switched blowups of L_(m-2), one determinant class
        # lower, so every subset is scanned and none matches
        for _ in range(negatives):
            t = _switched_blowup(ct, rng, ct.gen_ln(m - 2), order)
            jobs.append(Job(f"decompose-negative/L{m}-order{order}", "blowup.decompose_transitive_blowup", (t, h), _check_no_decomposition(t, h)))
    for p, count in BORDERED:
        for _ in range(count):
            a, x, y = rng.choice((1, -1)), _pm1(rng, p), _pm1(rng, p)
            matrix = ref.bordered(a, x, y)
            check = _check_det(matrix)
            jobs.append(Job(f"bordered_det/p{p}", "zmatrix.bordered_det", (a, x, y), check))
            jobs.append(Job(f"det_exact/bordered-p{p}", "detkit.det_exact", (matrix,), check))
    for m, count in ZMATRIX:
        for _ in range(count):
            r = _pm1(rng, m + 1)  # r_1..r_m for Z, r_n for the deletion identity
            ell = rng.randrange(1, m + 1)
            want = cache(lambda m=m, r=r: ref.z_entries(m, r[:m]))
            at = len(jobs)
            jobs.append(
                Job(
                    f"z_matrix/m{m}",
                    "zmatrix.z_matrix",
                    (m, r[:m]),
                    lambda z, _a, want=want: np.array_equal(z.entries, want()),
                )
            )
            jobs.append(
                Job(
                    f"row_sums/m{m}",
                    "zmatrix.row_sums",
                    lambda answers, at=at: (answers[at],),
                    lambda b, _a, want=want, r=r: np.array_equal(b, want().sum(axis=1)) and ref.deletion_identity(b, r),
                )
            )
            jobs.append(
                Job(
                    f"diagonal_vector/m{m}",
                    "zmatrix.diagonal_vector",
                    lambda answers, at=at, ell=ell: (answers[at], ell),
                    lambda g, _a, want=want, r=r, ell=ell: (g.entries, g.step) == ref.gamma(want(), r, ell),
                )
            )
    return jobs


WORKLOADS = {
    "cr-definition": cr_definition,
    "class-census": class_census,
    "decompose-witness": decompose_witness,
}
