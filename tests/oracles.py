"""Independent reference implementations used as test oracles.

Nothing here shares code paths with the package, except that
``scan_cr_report`` decides each relation with the package's minor scan
on the extended tournament and ``ln_deletion_dets`` eliminates each
deleted subtournament with the package's Bareiss determinant:
determinants come from the permutation expansion, scans from
itertools, canonical forms and witnesses from plain brute force.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from crtour import (
    Tournament,
    extend,
    gen_ln,
    induced,
    switch,
    theta,
    tournament_det,
)


@lru_cache(maxsize=None)
def _perms_and_signs(n: int):
    perms = list(itertools.permutations(range(n)))
    signs = []
    for p in perms:
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
        )
        signs.append(-1 if inv % 2 else 1)
    return perms, signs


def det_leibniz(matrix) -> int:
    """Exact determinant by signed permutation expansion."""
    m = [[int(x) for x in row] for row in np.asarray(matrix)]
    n = len(m)
    if n == 0:
        return 1
    perms, signs = _perms_and_signs(n)
    total = 0
    for p, s in zip(perms, signs):
        prod = 1
        for i in range(n):
            prod *= m[i][p[i]]
            if prod == 0:
                break
        total += s * prod
    return total


def det_leibniz_batch(mats: np.ndarray) -> np.ndarray:
    """Vectorised permutation expansion over a (k, n, n) int stack."""
    k, n, _ = mats.shape
    perms, signs = _perms_and_signs(n)
    out = np.zeros(k, dtype=object)
    rows = np.arange(n)
    for p, s in zip(perms, signs):
        out += s * np.prod(mats[:, rows, list(p)].astype(object), axis=1)
    return out


def brute_max_even_minor(t: Tournament):
    """(max determinant, lexicographically smallest witness tuple)."""
    n = t.n
    best = 0
    best_sub: tuple[int, ...] = ()
    for c in range(2, n + 1, 2):
        for sub in itertools.combinations(range(n), c):
            d = det_leibniz(t.skew[np.ix_(sub, sub)])
            if d > best or (d == best and d > 0 and not best_sub):
                best, best_sub = d, sub
            elif d == best and d > 0 and sub < best_sub:
                best_sub = sub
    return best, best_sub


def extend_skew(t: Tournament, sigma) -> np.ndarray:
    """Skew matrix of T(u, sigma): u is appended as vertex n with
    theta(u, v_i) = sigma[i]."""
    n = t.n
    s = np.zeros((n + 1, n + 1), np.int64)
    s[:n, :n] = t.skew
    s[n, :n] = sigma
    s[:n, n] = [-x for x in sigma]
    return s


def brute_cr_witness(t: Tournament, sigma):
    """Lowest vertex that agrees (covertices) or disagrees (revertices)
    with the attached u on every other vertex, as a CrReport
    witness_map entry; None when u is non-CR."""
    n = t.n
    s = extend_skew(t, sigma)
    for v in range(n):
        agree = [s[n, x] * s[v, x] for x in range(n) if x != v]
        if all(a == 1 for a in agree):
            return {"vertex": v + 1, "kind": "covertices"}
        if all(a == -1 for a in agree):
            return {"vertex": v + 1, "kind": "revertices"}
    return None


def product_witness_table(t: Tournament):
    """cr_witness_table by one product of every relation with S^t:
    entry v of sigma S^t sums sigma_x s[v, x], and it is +(n-1) or
    -(n-1) exactly when u agrees or disagrees with v on every other
    vertex.  The lowest such v is taken; the sign is that entry's
    (0 at order 1, where the entry is 0)."""
    n = t.n
    idx = np.arange(1 << n)[:, None]
    sig = 2 * ((idx >> np.arange(n - 1, -1, -1)) & 1) - 1
    agree = sig @ t.skew.T.astype(np.int64)
    hit = np.abs(agree) == n - 1
    lowest = hit.argmax(axis=1)
    vertex = np.where(hit.any(axis=1), lowest, -1)
    sign = np.sign(agree[np.arange(1 << n), lowest]) * (vertex >= 0)
    return vertex, sign


def _cr_report(t: Tournament, k: int, violates):
    """(ok, k, trivial, failures, witness_map) of the CR check, given k
    and a test of whether T(u, sigma) leaves D_k, relation by relation
    in all_sigmas order, every witness from ``brute_cr_witness``."""
    n = t.n
    if n <= 2 or (n == 4 and det_leibniz(t.skew) == 9):
        return True, k, True, (), {}
    failures, witness_map = [], {}
    for sigma in itertools.product((-1, 1), repeat=n):
        witness = brute_cr_witness(t, sigma)
        text = "".join("+" if r > 0 else "-" for r in sigma)
        if witness is not None:
            witness_map[text] = witness
        if (witness is not None) == violates(sigma):
            failures.append(text)
    return not failures, k, False, tuple(failures), witness_map


def brute_cr_report(t: Tournament):
    """The CR check straight from the definitions: k from the Leibniz
    minor scan, every relation attached and its subsets through u
    expanded, and every vertex tested for agreeing or disagreeing with
    u on all other vertices."""
    n = t.n
    best, _ = brute_max_even_minor(t)
    k = max(1, round(best**0.5))

    def violates(sigma):
        s = extend_skew(t, sigma)
        for c in range(1, n + 1, 2):
            subs = [sub + (n,) for sub in itertools.combinations(range(n), c)]
            idx = np.array(subs)
            dets = det_leibniz_batch(s[idx[:, :, None], idx[:, None, :]])
            if any(d > k * k for d in dets):
                return True
        return False

    return _cr_report(t, k, violates)


def scan_cr_report(t: Tournament):
    """The CR check one relation at a time, for orders beyond Leibniz:
    T(u, sigma) leaves D_k exactly when the package's minor scan finds
    a subset of it with determinant above k^2.  It builds one Pfaffian
    table per relation and shares nothing with the relation scan under
    test (norm filter, active set, relation matrix, report assembly)."""
    from crtour import kernels

    k = max(1, round(kernels.max_even_minor(t.skew)[0] ** 0.5))
    return _cr_report(
        t,
        k,
        lambda sigma: kernels.first_minor_above(extend_skew(t, sigma), k * k)
        != 0,
    )


def anchored_switch_sets(n: int):
    for mask in range(1 << max(n - 1, 0)):
        yield frozenset(v + 1 for v in range(n - 1) if (mask >> v) & 1)


def brute_switching_equivalent(t1: Tournament, t2: Tournament):
    for w in anchored_switch_sets(t1.n):
        if switch(t1, w) == t2:
            return w
    return None


def relabel(t: Tournament, phi) -> Tournament:
    """Old vertex u becomes phi[u]: position a holds old vertex inv[a]."""
    inv = np.argsort(phi)
    return Tournament(t.skew[np.ix_(inv, inv)])


def brute_isomorphic(t1: Tournament, t2: Tournament):
    if t1.n != t2.n:
        return None
    for phi in itertools.permutations(range(t1.n)):
        if relabel(t1, phi) == t2:
            return phi
    return None


def brute_switching_isomorphic(t1: Tournament, t2: Tournament):
    if t1.n != t2.n:
        return None
    for w in anchored_switch_sets(t1.n):
        phi = brute_isomorphic(switch(t1, w), t2)
        if phi is not None:
            return w, phi
    return None


def brute_canonical(t: Tournament) -> tuple[str, int]:
    """(least row-major upper-triangle bit string over all n!
    relabelings, number of relabelings whose bits are t's own), in one
    pass over the relabelings.  Each is read as ``relabel``'s gather by
    its inverse, and inversion permutes the permutations, so every
    relabeling is visited exactly once."""
    iu, ju = np.triu_indices(t.n, 1)
    own = (t.skew[iu, ju] > 0).tobytes()
    best, aut = own, 0
    for inv in itertools.permutations(range(t.n)):
        bits = (t.skew[np.ix_(inv, inv)][iu, ju] > 0).tobytes()
        best = min(best, bits)
        aut += bits == own
    return "".join("01"[b] for b in best), aut


def brute_is_transitive(t: Tournament) -> bool:
    """No directed 3-cycle, by scanning every 3-subset."""
    for a, b, c in itertools.combinations(range(t.n), 3):
        for x, y, z in ((a, b, c), (a, c, b)):
            if (
                theta(t, x, y) == 1
                and theta(t, y, z) == 1
                and theta(t, z, x) == 1
            ):
                return False
    return True


def has_diamond(t: Tournament) -> bool:
    return any(
        det_leibniz(t.skew[np.ix_(sub, sub)]) == 9
        for sub in itertools.combinations(range(t.n), 4)
    )


def random_tournament(rng, n: int) -> Tournament:
    m = n * (n - 1) // 2
    return Tournament.from_bits(n, rng.getrandbits(m) if m else 0)


def z_entries(m: int, r) -> np.ndarray:
    """Z(m, r) entry by entry, 1-based: z_ij = (-1)^(i+j) (m - 2j) r_(i+j)
    while i + j <= m, and (-1)^(i+j) (m - 2j) (-r_(i+j-m)) beyond."""
    z = np.zeros((m, m - 1), np.int64)
    for i in range(1, m + 1):
        for j in range(1, m):
            sgn = -1 if (i + j) % 2 else 1
            if i + j <= m:
                z[i - 1, j - 1] = sgn * (m - 2 * j) * r[i + j - 1]
            else:
                z[i - 1, j - 1] = sgn * (m - 2 * j) * -r[i + j - m - 1]
    return z


def gamma_entries(z: np.ndarray, ell: int) -> tuple[int, ...]:
    """Gamma_ell of the entries z (shape m x (m-1)), 1-based: z_(i, ell-i)
    before the zero at i = ell and z_(i, m+ell-i) after it."""
    m = z.shape[0]
    vals = []
    for i in range(1, m + 1):
        if i < ell:
            vals.append(int(z[i - 1, ell - i - 1]))
        elif i == ell:
            vals.append(0)
        else:
            vals.append(int(z[i - 1, m + ell - i - 1]))
    return tuple(vals)


def b_diffs_by_runs(r) -> list[int]:
    """b_(i+1) - b_i for i = 1..m-1 from the run signature: Delta off the
    run boundaries (the partial sums of the run lengths), and at a
    boundary Delta + 2m when (-1)^i r_i = -1, Delta - 2m when it is +1."""
    m = len(r)
    delta = 2 * sum((-1) ** i * r[i - 1] for i in range(1, m + 1))
    lengths = [len(list(run)) for _, run in itertools.groupby(r)]
    boundaries = set(itertools.accumulate(lengths[:-1]))
    out = []
    for i in range(1, m):
        if i not in boundaries:
            out.append(delta)
        elif (-1) ** i * r[i - 1] == -1:
            out.append(delta + 2 * m)
        else:
            out.append(delta - 2 * m)
    return out


def ln_deletion_dets(n: int, sigma) -> list[int]:
    """det of the extension L_n(u, sigma) with chain vertex v_i deleted,
    for i = 1..n-1: one induced subtournament and one elimination each."""
    ext = extend(gen_ln(n), sigma)
    return [
        tournament_det(induced(ext, [v for v in range(n + 1) if v != i]))
        for i in range(n - 1)
    ]
