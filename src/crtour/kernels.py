"""Hot numeric kernels: exact integer determinants and permutation scans.

Each kernel has exactly one implementation.  Single determinants run
fraction-free (Bareiss) elimination on python integers, so they are
exact at any magnitude.  The even-subset minor scans batch the same
elimination over int64 stacks of skew submatrices.  For an order-k
submatrix with entries in {-1, 0, 1}, each numerator
m[r,c]*piv - m[r,j]*m[j,c] of that elimination is a difference of two
products of minors of order <= k-1, each minor Hadamard-bounded by
(k-1)^((k-1)/2); so it is at most 2(k-1)^(k-1).  That fits int64 up
to k = 16 (2 * 15^15 < 15^16 < 2^63), and larger scans raise
ResourceLimitError instead of wrapping around.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

# the only backend; benchmark records carry it so runs stay comparable
BACKEND = "numpy"

# largest scan order whose squared Hadamard bound 15^16 fits in int64
SCAN_LIMIT = 16


def _as_i64(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("kernel input must be a square 2-d array")
    return arr


def _as_scan_input(s) -> np.ndarray:
    arr = _as_i64(s)
    if arr.shape[0] > SCAN_LIMIT:
        raise ResourceLimitError(
            f"int64 minor scan of order {arr.shape[0]} exceeds {SCAN_LIMIT}"
        )
    if arr.size and np.abs(arr).max() > 1:
        raise InvalidArgumentError("minor scans need entries in {-1, 0, 1}")
    return arr


def bareiss_det(a) -> int:
    """Exact determinant of a square integer matrix of any integer dtype
    (object arrays of python ints included)."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("kernel input must be a square 2-d array")
    m = arr.tolist()
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for j in range(n - 1):
        if m[j][j] == 0:
            for r in range(j + 1, n):
                if m[r][j] != 0:
                    m[j], m[r] = m[r], m[j]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[j][j]
        for r in range(j + 1, n):
            for c in range(j + 1, n):
                m[r][c] = (m[r][c] * piv - m[r][j] * m[j][c]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]


def _batch_bareiss(mats: np.ndarray) -> np.ndarray:
    """Determinants of a (k, c, c) int64 stack, all at once.

    Items that hit a fully-zero pivot column are finished (det 0) and
    neutralised in place so the vectorised updates stay exact.
    """
    k, c, _ = mats.shape
    if c == 0:
        return np.ones(k, np.int64)
    m = mats.copy()
    sign = np.ones(k, np.int64)
    prev = np.ones(k, np.int64)
    dead = np.zeros(k, bool)
    for j in range(c - 1):
        piv = m[:, j, j]
        for i in np.nonzero((piv == 0) & ~dead)[0]:
            rows = np.nonzero(m[i, j + 1 :, j])[0]
            if rows.size == 0:
                dead[i] = True
                m[i, j:, j:] = 0
                np.fill_diagonal(m[i, j:, j:], prev[i])
            else:
                r = j + 1 + int(rows[0])
                m[i, [j, r]] = m[i, [r, j]]
                sign[i] = -sign[i]
        piv = m[:, j, j].copy()
        m[:, j + 1 :, j + 1 :] = (
            m[:, j + 1 :, j + 1 :] * piv[:, None, None]
            - m[:, j + 1 :, j, None] * m[:, j, None, j + 1 :]
        ) // prev[:, None, None]
        prev = piv
    out = sign * m[:, c - 1, c - 1]
    out[dead] = 0
    return out


def _mask_of(indices) -> int:
    m = 0
    for v in indices:
        m |= 1 << int(v)
    return m


def _mask_lex_less(a: int, b: int) -> bool:
    # subsets compared as sorted index tuples; a proper initial segment
    # is smaller than anything extending it
    x = a ^ b
    if x == 0:
        return False
    low = x & (-x)
    above = ~((low << 1) - 1)
    if a & low:
        return (b & above) != 0
    return (a & above) == 0


def max_even_minor(s) -> tuple[int, int]:
    """Scan every even-cardinality vertex subset (size >= 2) of a skew
    matrix and return ``(max determinant, witness bitmask)``.

    Ties go to the subset that is smallest as a sorted index tuple.
    Returns ``(0, 0)`` when the matrix has fewer than two rows.
    """
    arr = _as_scan_input(s)
    n = arr.shape[0]
    best = 0
    best_mask = 0
    for c in range(2, n + 1, 2):
        combos = np.array(
            list(itertools.combinations(range(n), c)), np.int64
        )
        dets = _batch_bareiss(arr[combos[:, :, None], combos[:, None, :]])
        mx = int(dets.max())
        if mx < best or mx == 0:
            continue
        first = int(np.argmax(dets == mx))
        mask = _mask_of(combos[first])
        if mx > best or _mask_lex_less(mask, best_mask):
            best, best_mask = mx, mask
    return best, best_mask


def first_minor_above(s, bound: int, forced: int = -1) -> int:
    """First even-cardinality subset whose determinant exceeds ``bound``.

    Returns the subset as a bitmask, or 0 when none exists.  ``forced``
    restricts the scan to subsets containing that vertex.
    """
    arr = _as_scan_input(s)
    n = arr.shape[0]
    for c in range(2, n + 1, 2):
        combos = np.array(
            list(itertools.combinations(range(n), c)), np.int64
        )
        if forced >= 0:
            combos = combos[(combos == forced).any(axis=1)]
            if combos.shape[0] == 0:
                continue
        dets = _batch_bareiss(arr[combos[:, :, None], combos[:, None, :]])
        hits = np.nonzero(dets > bound)[0]
        if hits.size:
            return _mask_of(combos[int(hits[0])])
    return 0


_PERM_CHUNK = 40320


def _perm_codes(s: np.ndarray, perms: np.ndarray) -> np.ndarray:
    n = s.shape[0]
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    m = len(pairs)
    codes = np.zeros(perms.shape[0], np.int64)
    for p, (i, j) in enumerate(pairs):
        bit = (s[perms[:, i], perms[:, j]] > 0).astype(np.int64)
        codes |= bit << np.int64(m - 1 - p)
    return codes


def _perm_chunks(n: int):
    it = itertools.permutations(range(n))
    while chunk := list(itertools.islice(it, _PERM_CHUNK)):
        yield np.array(chunk, np.int64)


def perm_min_encoding(s) -> int:
    """Minimum row-major upper-triangle bit encoding over all relabelings."""
    arr = _as_i64(s)
    n = arr.shape[0]
    if n * (n - 1) // 2 > 62:
        raise ValueError("bit packing needs n(n-1)/2 <= 62")
    if n <= 1:
        return 0
    return min(int(_perm_codes(arr, p).min()) for p in _perm_chunks(n))


def perm_aut_count(s) -> int:
    """Number of vertex permutations fixing the tournament (automorphisms)."""
    arr = _as_i64(s)
    n = arr.shape[0]
    if n <= 1:
        return 1
    ident = _perm_codes(arr, np.arange(n, dtype=np.int64).reshape(1, n))[0]
    return sum(int((_perm_codes(arr, p) == ident).sum()) for p in _perm_chunks(n))
