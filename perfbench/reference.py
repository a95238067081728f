"""Independent answers the benchmark checks crtour's results against.

Nothing here calls crtour.  Determinants are float LU determinants
rounded to integers: every matrix checked has entries in {-1, 0, 1}
and order <= 13, so |det| <= 13**6.5 < 2**25 and the rounding is exact.
Stacks are processed in chunks so that checking never raises the
process's peak memory above what the measured calls use.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

COVERTICES = "covertices"
REVERTICES = "revertices"
BOTH = "covertices-and-revertices"

_CHUNK_ENTRIES = 1 << 18


def dets(mats: np.ndarray) -> np.ndarray:
    """Exact integer determinants of a (k, c, c) stack of small matrices."""
    k, c, _ = mats.shape
    if c == 0:
        return np.ones(k, np.int64)
    step = max(1, _CHUNK_ENTRIES // (c * c))
    out = np.empty(k, np.int64)
    for a in range(0, k, step):
        out[a : a + step] = np.rint(np.linalg.det(mats[a : a + step].astype(float)))
    return out


def det(mat) -> int:
    mat = np.asarray(mat)
    return int(dets(mat.reshape(1, *mat.shape))[0])


# -- tournaments as skew matrices -------------------------------------


def packed(s: np.ndarray) -> int:
    n = len(s)
    val = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            val = (val << 1) | int(s[i, j] > 0)
    return val


def relabel(s: np.ndarray, phi) -> np.ndarray:
    """Old vertex u becomes phi[u]."""
    out = np.zeros_like(s)
    p = np.asarray(phi)
    out[np.ix_(p, p)] = s
    return out


def ln_skew(n: int) -> np.ndarray:
    """L_n: chain v_1..v_{n-1}, and v_n beats the odd-indexed v_i."""
    s = np.zeros((n, n), np.int64)
    s[: n - 1, : n - 1] = np.triu(np.ones((n - 1, n - 1), np.int64), 1)
    s[n - 1, : n - 1] = [1 if i % 2 == 0 else -1 for i in range(n - 1)]
    return s - s.T


def attach(s: np.ndarray, sigma) -> np.ndarray:
    """Add vertex u = n with theta(u, v_i) = sigma[i]."""
    n = len(s)
    out = np.zeros((n + 1, n + 1), np.int64)
    out[:n, :n] = s
    out[n, :n] = sigma
    out[:n, n] = -np.asarray(sigma)
    return out


def switched(s: np.ndarray, w) -> np.ndarray:
    eps = np.ones(len(s), np.int64)
    eps[list(w)] = -1
    return s * np.outer(eps, eps)


def doubled(s: np.ndarray, v: int) -> np.ndarray:
    """The 1-transitive blowup putting the 2-chain v -> v+1 in place of v."""
    base = [u for u in range(len(s)) for _ in range(2 if u == v else 1)]
    out = s[np.ix_(base, base)].copy()
    out[v, v + 1], out[v + 1, v] = 1, -1
    return out


# -- determinant classes and CR relations -----------------------------


def max_minor(s: np.ndarray) -> int:
    n = len(s)
    best = 0
    for c in range(2, n + 1, 2):
        idx = np.array(list(itertools.combinations(range(n), c)))
        best = max(best, int(dets(s[idx[:, :, None], idx[:, None, :]]).max()))
    return best


@lru_cache(maxsize=None)
def sigma_table(n: int) -> np.ndarray:
    """All 2^n relations in crtour's order: binary counting, r_1 the
    most significant digit, +1 as bit 1."""
    s = np.arange(1 << n)[:, None]
    bits = (s >> (n - 1 - np.arange(n))[None, :]) & 1
    return np.where(bits == 1, 1, -1).astype(np.int64)


def sigma_text(sigma) -> str:
    return "".join("+" if r > 0 else "-" for r in sigma)


def witnesses(s: np.ndarray, sigmas: np.ndarray):
    """Lowest-index vertex CR-associated with the attached vertex, and
    its kind, for each row of ``sigmas``; (-1, None) when there is none."""
    n = len(s)
    vertex = np.full(len(sigmas), -1)
    kind = np.full(len(sigmas), None, dtype=object)
    if n == 1:
        return np.zeros(len(sigmas), int), np.full(len(sigmas), BOTH, dtype=object)
    for v in range(n - 1, -1, -1):
        others = [x for x in range(n) if x != v]
        prods = sigmas[:, others] * s[v, others]
        cov = (prods == 1).all(axis=1)
        rev = (prods == -1).all(axis=1)
        vertex[cov | rev] = v
        kind[cov] = COVERTICES
        kind[rev] = REVERTICES
    return vertex, kind


def cr_report(s: np.ndarray) -> dict:
    """Everything is_cr_tournament reports, computed by definition."""
    n = len(s)
    mx = max_minor(s)
    k = 1 if mx <= 1 else math.isqrt(mx)
    trivial = n <= 2 or (n == 4 and det(s) == 9)
    if trivial:
        return {"ok": True, "k": k, "trivial": True, "failures": set(), "witness_map": {}}
    sigmas = sigma_table(n)
    ext = np.zeros((len(sigmas), n + 1, n + 1), np.int64)
    ext[:, :n, :n] = s
    ext[:, n, :n] = sigmas
    ext[:, :n, n] = -sigmas
    violates = np.zeros(len(sigmas), bool)
    for c in range(2, n + 2, 2):
        for sub in itertools.combinations(range(n), c - 1):
            idx = list(sub) + [n]
            violates |= dets(ext[:, idx][:, :, idx]) > k * k
    vertex, kind = witnesses(s, sigmas)
    failures, witness_map = set(), {}
    for i, sig in enumerate(sigmas):
        text = sigma_text(sig)
        if kind[i] is not None:
            witness_map[text] = {"vertex": int(vertex[i]) + 1, "kind": kind[i]}
        # a non-CR attachment must break the D_k bound, a CR one must not
        if violates[i] != (kind[i] is None):
            failures.add(text)
    return {"ok": not failures, "k": k, "trivial": False, "failures": failures, "witness_map": witness_map}


def strong_cr_report(s: np.ndarray) -> dict:
    blowups = [cr_report(doubled(s, v))["ok"] for v in range(len(s))]
    base = cr_report(s)
    return {"ok": all(blowups) and base["ok"], "blowups": blowups, "base": base}


def is_transitive(s: np.ndarray) -> bool:
    wins = sorted(int(x) for x in (s > 0).sum(axis=1))
    return wins == list(range(len(s)))


def is_decomposition(s: np.ndarray, h: np.ndarray, w, blocks, base_of_block) -> bool:
    """switch(s, w) has transitive blocks whose cross arcs follow h."""
    t = switched(s, w)
    flat = sorted(v for blk in blocks for v in blk)
    if flat != list(range(len(s))) or sorted(base_of_block) != list(range(len(h))):
        return False
    for a, blk in enumerate(blocks):
        if not is_transitive(t[np.ix_(blk, blk)]):
            return False
        for b, other in enumerate(blocks):
            if a != b and np.any(t[np.ix_(blk, other)] != h[base_of_block[a], base_of_block[b]]):
                return False
    return True


def canonical_code(s: np.ndarray) -> int:
    """Minimum packed upper triangle over all relabelings."""
    n = len(s)
    perms = np.array(list(itertools.permutations(range(n))))
    codes = np.zeros(len(perms), np.int64)
    for i, j in itertools.combinations(range(n), 2):
        codes = (codes << 1) | (s[perms[:, i], perms[:, j]] > 0)
    return int(codes.min())


# -- bordered matrices and the Z-matrix calculus ----------------------


def bordered(a: int, x, y) -> np.ndarray:
    p = len(x)
    s = np.zeros((p + 2, p + 2), np.int64)
    s[0, 1] = a
    s[0, 2:] = x
    s[1, 2:] = y
    s[2:, 2:] = np.triu(np.ones((p, p), np.int64), 1)
    return s - s.T


def z_entries(m: int, r) -> np.ndarray:
    """z_ij = (-1)^(i+j) (m - 2j) r_(i+j), the subscript wrapped by m
    with r negated once i + j > m (1-based)."""
    z = np.zeros((m, m - 1), np.int64)
    for i in range(1, m + 1):
        for j in range(1, m):
            q = i + j
            rr = r[q - 1] if q <= m else -r[q - m - 1]
            z[i - 1, j - 1] = (-1) ** q * (m - 2 * j) * rr
    return z


def gamma(z: np.ndarray, r, ell: int) -> tuple[tuple[int, ...], int]:
    """Entries and step of the ell-th wrapped anti-diagonal vector."""
    m = len(z)
    vals = []
    for i in range(1, m + 1):
        if i == ell:
            vals.append(0)
        else:
            j = ell - i if i < ell else m + ell - i
            vals.append(int(z[i - 1, j - 1]))
    return tuple(vals), 2 * (1 if ell % 2 == 0 else -1) * r[ell - 1]


def deletion_identity(b, sigma) -> bool:
    """det(L_n(u, sigma) - v_i) == (b_i - r_n)^2 for every chain vertex."""
    n = len(sigma)
    ext = attach(ln_skew(n), sigma)
    for i in range(n - 1):
        keep = [v for v in range(n + 1) if v != i]
        if det(ext[np.ix_(keep, keep)]) != (int(b[i]) - sigma[-1]) ** 2:
            return False
    return True
