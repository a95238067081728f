"""Covertex/revertex relations, single-vertex extensions and the CR,
basic and strong-CR tournament predicates.

Two vertices are covertices when they agree on every third vertex and
revertices when they disagree on every third vertex; either way they
are CR-associated.  Entry (u, v) of S S^t sums the n - 2 products
s[u, x] s[v, x], so u and v are CR-associated exactly when it is
+-(n-2); likewise a vertex attached by sigma is CR-associated with v
exactly when entry v of sigma S^t is +-(n-1).  A dominating relation
sigma attaches a new vertex u to a tournament T, giving the extension
T(u, sigma); u is a CR vertex when it lands CR-associated with some
existing vertex.  T (lying in D_k minus D_{k-2}) is a CR tournament
when every non-CR attachment breaks the D_k bound, and a strong CR
tournament when all of its 1-transitive blowups are CR tournaments as
well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import kernels
from .core import Tournament, _append_vertex, _pm1_sequence, is_diamond
from .detkit import _k_of
from .errors import InvalidArgumentError

COVERTICES = "covertices"
REVERTICES = "revertices"
BOTH = "covertices-and-revertices"

Sigma = tuple[int, ...]


def sigma_from_string(text: str) -> Sigma:
    """'+-+' -> (1, -1, 1)."""
    if not text or set(text) - {"+", "-"}:
        raise InvalidArgumentError("sigma text must be nonempty over +/-")
    return tuple(1 if c == "+" else -1 for c in text)


def sigma_to_string(sigma: Sequence[int]) -> str:
    return "".join("+" if r > 0 else "-" for r in sigma)


def all_sigmas(n: int) -> Iterator[Sigma]:
    """All 2^n dominating relations, by binary counting on (r_1..r_n)
    with +1 as bit 1 and r_1 the most significant digit."""
    return itertools.product((-1, 1), repeat=n)


def _kind(sign: int) -> str:
    return COVERTICES if sign > 0 else REVERTICES


def cr_associated(t: Tournament, u1: int, u2: int) -> Optional[str]:
    """Kind of CR association between two vertices, if any.

    For order 2 the pair is both at once and the combined label is
    returned.
    """
    n = t.n
    u1, u2 = int(u1), int(u2)
    if u1 == u2:
        raise InvalidArgumentError("cr_associated needs distinct vertices")
    if not (0 <= u1 < n and 0 <= u2 < n):
        raise InvalidArgumentError("vertex out of range")
    if n == 2:
        return BOTH
    agree = int(t.skew[u1].astype(np.int64) @ t.skew[u2])
    if abs(agree) != n - 2:
        return None
    return _kind(agree)


def extend(t: Tournament, sigma: Sequence[int]) -> Tournament:
    """The (n+1)-tournament T(u, sigma); the new vertex u gets index n
    and theta(u, v_i) = sigma[i]."""
    sig = _pm1_sequence(sigma, "sigma", t.n)
    return _append_vertex(t, sig)


@dataclass(frozen=True)
class CrWitness:
    vertex: int
    kind: str


def _witnesses(t: Tournament, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Witness vertex for every relation row of ``sig`` (-1 when u is
    non-CR) and its entry of sig @ S^t, n-1 (covertex) or 1-n (revertex).

    Entry v of sig @ S^t is sum_x sigma_x s[v, x]; it is +(n-1) exactly
    when u agrees with v on every other vertex (covertices) and -(n-1)
    exactly when it disagrees everywhere (revertices).  The lowest such
    v is reported.
    """
    agree = sig @ t.skew.T.astype(np.int64)
    hit = np.abs(agree) == t.n - 1
    vertex = hit.argmax(axis=1)
    sign = agree[np.arange(vertex.size), vertex]
    return np.where(hit.any(axis=1), vertex, -1), sign


def cr_vertex_witness(
    t: Tournament, sigma: Sequence[int]
) -> Optional[CrWitness]:
    """Vertex of t that is CR-associated with the attached u in
    T(u, sigma), or None when u is a non-CR vertex.

    The lowest-index witness is reported; on a basic tournament the
    witness is unique anyway.
    """
    sig = _pm1_sequence(sigma, "sigma", t.n)
    if t.n == 1:
        return CrWitness(0, BOTH)
    vertex, sign = _witnesses(t, np.array([sig], np.int64))
    if vertex[0] < 0:
        return None
    return CrWitness(int(vertex[0]), _kind(sign[0]))


# int64 entries per product of the relation scan (256 KB); small
# chunks let the active set shrink before most rows are reached
_SCAN_ENTRIES = 1 << 15


def _build_relations(n: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(1 << n)[:, None]
    sig = 2 * ((idx >> np.arange(n - 1, -1, -1)) & 1) - 1
    text = np.where(sig > 0, ord("+"), ord("-")).astype(np.uint8)
    sig.flags.writeable = text.flags.writeable = False
    return sig, text


# relation rows and their +- text for the largest order asked for so
# far; order n reads the last n columns of the first 2^n rows
_RELATIONS = _build_relations(0)


def _relations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n dominating relations in all_sigmas order, as read-only
    +-1 int64 rows and as their +- text (uint8 rows)."""
    global _RELATIONS
    top = _RELATIONS[0].shape[1]
    if n > top:
        _RELATIONS = _build_relations(n)
        top = n
    sig, text = _RELATIONS
    return sig[: 1 << n, top - n :], text[: 1 << n, top - n :]


def _cr_relations(s: np.ndarray) -> dict[int, tuple[int, int]]:
    """The CR relations of the tournament with skew matrix s, by number
    in all_sigmas order, each with its lowest witness vertex v and eps.

    u is CR-associated with v exactly when sigma_x = eps s[v, x] for
    every x != v, eps = +1 for covertices and -1 for revertices, and
    sigma_v is free.  So the CR relations are +-(row v of S) with either
    sign at v: at most 4n of them, numbered straight from the rows.
    """
    n = s.shape[0]
    every = (1 << n) - 1
    weight = 1 << np.arange(n - 1, -1, -1)  # r_i is bit n-1-i of the number
    first: dict[int, tuple[int, int]] = {}
    for v, row in enumerate(((s > 0) @ weight).tolist()):
        free = 1 << (n - 1 - v)
        other = every ^ free ^ row
        for num, eps in ((row, 1), (other, -1)):
            first.setdefault(num, (v, eps))
            first.setdefault(num | free, (v, eps))
    return first


def cr_witness_table(t: Tournament) -> tuple[np.ndarray, np.ndarray]:
    """cr_vertex_witness of every dominating relation, in all_sigmas
    order, as a vertex array (-1 when non-CR) and a sign array (+1
    covertices, -1 revertices, 0 when non-CR or, at order 1, both)."""
    kernels._check_scan_order(t.n, "sigma scan")
    first = _cr_relations(t.skew)
    vertex = np.full(1 << t.n, -1, np.int64)
    sign = np.zeros(1 << t.n, np.int64)
    num = np.fromiter(first, np.int64, len(first))
    vertex[num], sign[num] = np.array(list(first.values())).T
    if t.n == 1:
        sign[:] = 0  # the single vertex is both kinds at once
    return vertex, sign


def count_cr_sigmas(t: Tournament) -> int:
    """Number of dominating relations whose attached vertex is CR."""
    return int((cr_witness_table(t)[0] >= 0).sum())


def cr_normalize(
    t: Tournament, sigma: Sequence[int]
) -> Optional[frozenset[int]]:
    """Switch set turning T(u, sigma) into a 1-transitive blowup of t:
    empty for a covertex witness, {u} for a revertex witness, None when
    u is non-CR."""
    wit = cr_vertex_witness(t, sigma)
    if wit is None:
        return None
    if wit.kind == REVERTICES:
        return frozenset({t.n})
    return frozenset()


def is_trivial_cr(t: Tournament) -> bool:
    """Order 1, order 2, or a diamond."""
    return t.n <= 2 or is_diamond(t)


@dataclass(frozen=True)
class CrReport:
    """Result of the CR-tournament check.

    ``failures`` lists sigma strings violating the defining condition:
    non-CR extensions that stay inside D_k (a CR extension always stays
    in D_k \\ D_{k-2}); empty means t is a CR tournament.
    ``witness_map`` records the witness vertex (1-based) and kind for
    every CR sigma.
    """

    ok: bool
    k: int
    trivial: bool
    failures: tuple[str, ...] = ()
    witness_map: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "k": self.k,
            "trivial": self.trivial,
            "failures": list(self.failures),
            "witness_map": dict(self.witness_map),
        }


def _cr_report(s: np.ndarray, pf: np.ndarray, coef: np.ndarray) -> CrReport:
    """The CR report of the tournament with skew matrix s, from its
    ``kernels.attach_table`` (pf, coef); see ``is_cr_tournament``."""
    n = s.shape[0]
    k = _k_of(int((pf * pf).max()))
    if n <= 2 or (n == 4 and pf[-1] ** 2 == 9):  # order <= 2 or a diamond
        return CrReport(True, k, True)
    first = _cr_relations(s)
    inside = np.zeros(1 << n, bool)  # relations whose extension stays in D_k
    inside[np.fromiter(first, np.int64, len(first))] = True
    norm = np.abs(coef).sum(axis=1)
    keep = np.flatnonzero(norm > k)  # |C[X] sigma| <= norm[X] for all sigma
    coef = coef[keep[np.argsort(-norm[keep])]]
    half = 1 << (n - 1)
    active = np.flatnonzero(~inside[half:]) + half  # non-CR, r_1 = +1
    sig, chars = _relations(n)
    rel = sig[active].T
    start = 0
    while active.size and start < coef.shape[0]:
        stop = start + max(1, _SCAN_ENTRIES // active.size)
        pfs = coef[start:stop] @ rel
        keep = (np.abs(pfs, out=pfs) <= k).all(axis=0)
        active, rel = active[keep], rel[:, keep]
        start = stop
    # Pf(X + u) is odd in sigma, so -sigma (number 2^n - 1 - i) stays
    # inside D_k with sigma; CR relations always do
    inside[active] = True
    inside[(2 * half - 1) - active] = True
    listed = np.flatnonzero(inside)
    text = chars[listed].tobytes().decode("ascii")
    failures = []
    witness_map = {}
    for i, num in enumerate(listed.tolist()):
        key = text[i * n : (i + 1) * n]
        wit = first.get(num)
        if wit is None:
            failures.append(key)
        else:
            witness_map[key] = {"vertex": wit[0] + 1, "kind": _kind(wit[1])}
    return CrReport(not failures, k, False, tuple(failures), witness_map)


def is_cr_tournament(t: Tournament) -> CrReport:
    """Decide whether t is a CR tournament, with a full report.

    k is fixed by the Pfaffian table of t (t lies in D_k \\ D_{k-2}).
    Trivial CR tournaments short-circuit.  Otherwise non-CR extensions
    must leave D_k.  CR extensions never need a scan: each is a
    1-transitive blowup of t, after switching {u} for a revertex, and a
    blowup's Pfaffian table is a relabelling of t's
    (``kernels._doubled_attach_table``), so it stays in D_k \\ D_{k-2}.
    Because t itself is in D_k, any subset of the extension violating
    the bound is X + u for an odd subset X of t, and
    Pf(X + u) = -C[X] @ sigma with C from ``kernels.attach_table``; so
    sigma violates exactly when |C[X] sigma| > k for some X.  That is
    odd in sigma, so only the non-CR relations with r_1 = +1 are
    scanned and each answer holds for -sigma too.

    Only rows that can violate are scanned: |C[X] sigma| <= ||C[X]||_1,
    so rows of L1 norm at most k are dropped.  The rest go largest norm
    first, in chunks of at most _SCAN_ENTRIES int64 products, against
    the *active* relations: those no earlier row has shown to violate.
    A relation leaves the active set only on a violation, so the
    relations still active after the last row are exactly the
    non-violating ones.  On a CR tournament almost every relation
    leaves on the first chunk.  Witnesses are read off the rows of S
    (``cr_witness_table``).
    """
    kernels._check_scan_order(t.n + 1, "extension scan")
    return _cr_report(t.skew, *kernels.attach_table(t.skew))


def is_basic(t: Tournament) -> bool:
    """Order >= 4 with no CR-associated pair (false below order 4): no
    entry of S S^t off the diagonal is +-(n-2).  The diagonal holds
    n - 1, so it never matches."""
    if t.n < 4:
        return False
    s = t.skew.astype(np.int64)
    return not (np.abs(s @ s.T) == t.n - 2).any()


@dataclass(frozen=True)
class StrongCrReport:
    ok: bool
    base: CrReport
    blowups: tuple[tuple[int, CrReport], ...]

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "base": self.base.to_json(),
            "blowups": [
                {"duplicated": v + 1, "report": rep.to_json()}
                for v, rep in self.blowups
            ],
        }


def is_strong_cr(t: Tournament) -> StrongCrReport:
    """CR tournament all of whose 1-transitive blowups are CR.

    Checks one blowup per duplicated vertex (the two internal
    orientations of the doubled pair give isomorphic results), and t
    itself as the base result.  All blowups CR forces t CR; the
    ``strongcr-equiv`` suite checks that law.  One Pfaffian table,
    t's, is filled; each blowup's table and attach coefficients are
    gathers of it (``kernels._doubled_attach_table``).
    """
    n = t.n
    kernels._check_scan_order(n + 2, "extension scan")
    s = t.skew
    pf, coef = kernels.attach_table(s)
    reports = []
    for v in range(n):
        owner = np.insert(np.arange(n), v, v)
        doubled = s[np.ix_(owner, owner)]
        doubled[v, v + 1], doubled[v + 1, v] = 1, -1
        reports.append(
            (v, _cr_report(doubled, *kernels._doubled_attach_table(pf, v)))
        )
    base = _cr_report(s, pf, coef)
    ok = base.ok and all(rep.ok for _, rep in reports)
    return StrongCrReport(ok, base, tuple(reports))
