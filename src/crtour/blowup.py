"""Blowups, transitive-blowup decomposition, xi-membership and the
D_1/D_3/D_5 classifiers.

A blowup replaces each base vertex by a tournament, with all arcs
between parts following the base orientation.  The central inverse
problem: given T and a basic tournament H, find a switch of T that is a
transitive blowup of H.  The constructive decomposition finds the first
induced copy of H up to switching (``_first_switching_copy``), switches
it exact, and classifies every outside vertex by one product sigma S^t
against the copy (``cr._witnesses``): entry +-(n-1) names the copy
vertex it is a covertex or revertex of, unique because H is basic.  It
then switches the revertices away, and ``_verify_decomposition``
certifies the result by relabelling it block by block into
``transitive_blowup(H, sizes)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .core import (
    Tournament,
    _anchored_switch_sets,
    _chain,
    _dominant_switch_set,
    format_trn,
    induced,
    is_isomorphic,
    is_transitive,
    switch,
    switching_isomorphic,
)
from .cr import _witnesses, is_basic
from .detkit import max_subtournament_det, tournament_det
from .errors import InvalidArgumentError, ResourceLimitError
from .lfamily import gen_ln


def blowup(base: Tournament, parts: Sequence[Tournament]) -> Tournament:
    """Blowup of ``base`` with ``parts[i]`` substituted for vertex i.

    Result vertices are grouped part by part in base-vertex order.
    """
    if len(parts) != base.n:
        raise InvalidArgumentError("need one part per base vertex")
    if any(p.n < 1 for p in parts):
        raise InvalidArgumentError("parts must be nonempty tournaments")
    # base vertex of every result vertex; diagonal blocks come out 0
    owner = np.repeat(np.arange(base.n), [p.n for p in parts])
    arr = base.skew[np.ix_(owner, owner)]
    start = 0
    for p in parts:
        arr[start : start + p.n, start : start + p.n] = p.skew
        start += p.n
    return Tournament._derived(arr)


def transitive_blowup(base: Tournament, sizes: Sequence[int]) -> Tournament:
    """Blowup with transitive chains of the given sizes as parts: inside
    a part, the earlier result vertex beats the later one."""
    if len(sizes) != base.n:
        raise InvalidArgumentError("need one size per base vertex")
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise InvalidArgumentError("part sizes must be positive")
    owner = np.repeat(np.arange(base.n), sizes)
    same = owner[:, None] == owner[None, :]
    return Tournament._derived(
        np.where(same, _chain(owner.size), base.skew[np.ix_(owner, owner)])
    )


def one_transitive_blowups(t: Tournament) -> list[Tournament]:
    """The n blowups duplicating one vertex each (that part a 2-chain)."""
    out = []
    for i in range(t.n):
        sizes = [1] * t.n
        sizes[i] = 2
        out.append(transitive_blowup(t, sizes))
    return out


def _first_switching_copy(
    t: Tournament, h: Tournament
) -> Optional[tuple[tuple[int, ...], tuple[frozenset[int], tuple[int, ...]]]]:
    """First h.n-subset of t in lexicographic order inducing a
    subtournament switching-isomorphic to h, with the witness (w, phi)
    of ``switching_isomorphic`` for it; None when there is none."""
    if t.n > kernels.SCAN_LIMIT:
        raise ResourceLimitError(
            f"subset scan of order {t.n} exceeds {kernels.SCAN_LIMIT}"
        )
    # switching preserves determinants, so a cheap det filter first
    target = tournament_det(h)
    for sub in itertools.combinations(range(t.n), h.n):
        cand = induced(t, sub)
        if tournament_det(cand) != target:
            continue
        wit = switching_isomorphic(cand, h)
        if wit is not None:
            return sub, wit
    return None


def contains_switching_isomorphic(
    t: Tournament, h: Tournament
) -> Optional[tuple[int, ...]]:
    """Vertex subset inducing a subtournament switching-isomorphic to h
    (xi(h) membership witness), scanning subsets in lexicographic
    order; None when there is none (in particular when h is larger
    than t)."""
    found = _first_switching_copy(t, h)
    return None if found is None else found[0]


@dataclass(frozen=True)
class Decomposition:
    """Certificate that switch(T, W) is a transitive blowup of base.

    ``blocks[i]`` lists the vertices substituted for base vertex
    ``base_vertex_of_block[i]``; each block induces a transitive
    tournament in switch(T, W) and arcs between blocks follow the base.
    """

    switch_set: frozenset[int]
    blocks: tuple[tuple[int, ...], ...]
    base_vertex_of_block: tuple[int, ...]
    base: Tournament

    def to_json(self) -> dict:
        if self.base.n >= 2 and self.base == gen_ln(self.base.n):
            base_label: object = f"L{self.base.n}"
        else:
            base_label = format_trn(self.base)
        return {
            "W": sorted(v + 1 for v in self.switch_set),
            "blocks": [[v + 1 for v in blk] for blk in self.blocks],
            "base_vertex_of_block": [
                v + 1 for v in self.base_vertex_of_block
            ],
            "base": base_label,
        }


def _verify_decomposition(t: Tournament, dec: Decomposition) -> bool:
    """Whether switch(t, W), relabelled base vertex by base vertex and
    each block by its wins inside the block, is exactly
    transitive_blowup(base, block sizes); every base vertex must name
    one nonempty block and every vertex of t lie in exactly one block.
    A block that is not transitive has no relabelling onto a chain, so
    it fails the comparison."""
    h = dec.base
    named = sorted(dec.base_vertex_of_block)
    members = sorted(v for blk in dec.blocks for v in blk)
    if (
        len(dec.blocks) != h.n
        or named != list(range(h.n))
        or members != list(range(t.n))
        or not all(dec.blocks)
    ):
        return False
    owner = np.empty(t.n, np.intp)
    for blk, b in zip(dec.blocks, dec.base_vertex_of_block):
        owner[list(blk)] = b
    s = switch(t, dec.switch_set).skew
    wins = ((s > 0) & (owner[:, None] == owner[None, :])).sum(axis=1)
    labels = np.lexsort((-wins, owner))
    want = transitive_blowup(h, np.bincount(owner))
    return np.array_equal(s[np.ix_(labels, labels)], want.skew)


def as_transitive_blowup_of(
    t: Tournament, h: Tournament
) -> Optional[Decomposition]:
    """Recognise t itself (no switching) as a transitive blowup of h.

    Valid for basic h: there the covertex pairs of a transitive blowup
    are exactly the chain-adjacent pairs inside blocks, so blocks are
    the components of the covertex graph.
    """
    if not is_basic(h):
        raise InvalidArgumentError("recognition needs a basic base")
    n, m = t.n, h.n
    if n < m:
        return None
    # union-find over covertex pairs, (S S^t)[u, v] = n - 2 for u < v
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    s = t.skew.astype(np.int64)
    for u, v in zip(*np.nonzero(np.triu(s @ s.T == n - 2, 1))):
        parent[find(int(u))] = find(int(v))
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    blocks = [tuple(sorted(g)) for g in groups.values()]
    if len(blocks) != m:
        return None
    # induced() relabels by sorted vertex, so key blocks by their minimum
    reps_sorted = sorted(blk[0] for blk in blocks)
    block_by_min = {blk[0]: blk for blk in blocks}
    phi = is_isomorphic(induced(t, reps_sorted), h)
    if phi is None:
        return None
    order = sorted(range(m), key=lambda a: phi[a])
    dec = Decomposition(
        frozenset(),
        tuple(block_by_min[reps_sorted[a]] for a in order),
        tuple(phi[a] for a in order),
        h,
    )
    return dec if _verify_decomposition(t, dec) else None


def decompose_brute_force(
    t: Tournament, h: Tournament
) -> Optional[Decomposition]:
    """Oracle: try every anchored switch set and recognise directly.

    Exponential; capped at order 7.
    """
    if not is_basic(h):
        raise InvalidArgumentError("decomposition needs a basic base")
    if t.n > 7:
        raise ResourceLimitError("brute-force decomposition is capped at order 7")
    for w in _anchored_switch_sets(t.n):
        rec = as_transitive_blowup_of(switch(t, w), h)
        if rec is not None:
            # rec certifies switch(t, w) itself, which is what W = w
            # asks of t, so it needs no second verification
            return Decomposition(w, rec.blocks, rec.base_vertex_of_block, h)
    return None


def decompose_transitive_blowup(
    t: Tournament, h: Tournament
) -> Optional[Decomposition]:
    """Constructive decomposition of t as a switched transitive blowup
    of the basic tournament h.

    Finds the first subset X (lexicographic order) inducing a copy of h
    up to switching, switches t so that copy is exact, attaches every
    outside vertex to the unique copy vertex it is CR-associated with
    (one product against the copy), switches the revertex side away,
    and verifies blocks.  Returns None the moment any step fails; when
    t genuinely is a switched transitive blowup of a basic strong CR
    tournament in its exact determinant class, the construction always
    succeeds.
    """
    if not is_basic(h):
        raise InvalidArgumentError("decomposition needs a basic base")
    found = _first_switching_copy(t, h)
    return None if found is None else _decompose_from_copy(t, h, found)


def _decompose_from_copy(
    t: Tournament, h: Tournament, found
) -> Optional[Decomposition]:
    """The decomposition of ``decompose_transitive_blowup`` built from
    a copy of h found by ``_first_switching_copy``."""
    sub, (w_loc, phi) = found
    x = list(sub)
    w_x = frozenset(x[i] for i in w_loc)
    t1 = switch(t, w_x)
    outside = [v for v in range(t.n) if v not in x]
    # copy vertex i (vertex x[i] of t) stands for base vertex phi[i]
    vertex, sign = _witnesses(
        induced(t1, x), t1.skew[outside][:, x].astype(np.int64)
    )
    if (vertex < 0).any():
        return None
    blocks: list[list[int]] = [[] for _ in range(h.n)]
    for i, v in enumerate(x):
        blocks[phi[i]].append(v)
    for v, i in zip(outside, vertex.tolist()):
        blocks[phi[i]].append(v)
    w_re = {v for v, sg in zip(outside, sign.tolist()) if sg < 0}
    dec = Decomposition(
        w_x ^ w_re,
        tuple(tuple(sorted(blk)) for blk in blocks),
        tuple(range(h.n)),
        h,
    )
    return dec if _verify_decomposition(t, dec) else None


def switching_to_transitive(t: Tournament) -> Optional[frozenset[int]]:
    """Switch set making t transitive, or None when t is not switching
    equivalent to a transitive tournament.

    Switching t so that vertex 0 dominates everything gives its
    switching normal form at vertex 0; switching a transitive
    tournament by the in-neighbours of one of its vertices rotates the
    chain and keeps it transitive, so the normal form is transitive
    exactly when some switch of t is.  The set returned is therefore
    the in-neighbourhood of vertex 0 (never containing 0), not the
    lowest such set.
    """
    w = _dominant_switch_set(t, 0)
    return w if is_transitive(switch(t, w)) is not None else None


@dataclass(frozen=True)
class D5Classification:
    label: str
    report: object
    decomposition: Optional[Decomposition]
    agree: bool

    def to_json(self) -> dict:
        return {
            "class": self.label,
            "report": self.report.to_json(),
            "decomposition": (
                None
                if self.decomposition is None
                else self.decomposition.to_json()
            ),
            "agree": self.agree,
        }


def classify_d5(t: Tournament) -> D5Classification:
    """Place t in D_1, D_3 \\ D_1, D_5 \\ D_3 or beyond, and certify the
    in-D_5 cases by an explicit decomposition over L_2, L_4 or L_6.

    The minor-scan class and the decomposition must agree; ``agree``
    records that cross-check.
    """
    if t.n < 2:
        raise InvalidArgumentError("classification needs order >= 2")
    report = max_subtournament_det(t)
    if report.k == 1:
        w = switching_to_transitive(t)
        dec = None
        if w is not None:
            order = is_transitive(switch(t, w))
            # in gen_ln(2) vertex 1 beats vertex 0, so the chain head
            # substitutes base vertex 1 and the tail base vertex 0
            dec = Decomposition(
                w,
                (tuple(sorted(order[1:])), (order[0],)),
                (0, 1),
                gen_ln(2),
            )
        agree = dec is not None and _verify_decomposition(t, dec)
        return D5Classification("D1", report, dec, agree)
    if report.k in (3, 5):
        base = gen_ln(report.k + 1)
        dec = decompose_transitive_blowup(t, base)
        label = "D3\\D1" if report.k == 3 else "D5\\D3"
        return D5Classification(label, report, dec, dec is not None)
    return D5Classification("beyond-D5", report, None, True)


def xi_blowup_check(t: Tournament, k: int) -> tuple[bool, bool]:
    """For t in D_k \\ D_{k-2} (odd k >= 7): whether t decomposes as a
    switched transitive blowup of L_{k+1}, and whether t contains a
    subtournament switching-isomorphic to L_{k+1}.

    The two answers are provably equal; both are returned so verifiers
    can check the equivalence rather than assume it.
    """
    k = int(k)
    if k < 7 or k % 2 == 0:
        raise InvalidArgumentError("k must be an odd integer >= 7")
    from .detkit import in_dk_exactly

    if not in_dk_exactly(t, k):
        raise InvalidArgumentError(
            f"tournament is not in D_{k} \\ D_{k - 2}"
        )
    h = gen_ln(k + 1)
    # one copy search serves both sides: rhs is "a copy exists", lhs a
    # certified decomposition built from that copy
    found = _first_switching_copy(t, h)
    if found is None:
        return False, False
    return _decompose_from_copy(t, h, found) is not None, True
