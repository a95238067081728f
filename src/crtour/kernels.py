"""Hot numeric kernels: exact integer determinants, the Pfaffian subset
table and permutation scans.

Each kernel has exactly one implementation.  Single determinants run
fraction-free (Bareiss) elimination on python integers, so they are
exact at any magnitude.

Every principal minor of a skew matrix S is the determinant of a skew
matrix, so by Cayley's theorem it is the square of a Pfaffian:
det S[X] = Pf(X)^2, which is 0 for odd |X|.  Expanding Pf(X) along its
highest vertex h gives

    Pf(X) = sum_{j in X - h} (-1)^pos(j) s[j, h] Pf(X - {j, h}),

pos(j) counting the members of X below j.  The subsets with highest
vertex h form the bitmask block [2^h, 2^(h+1)), so ``pfaffian_table``
fills the Pfaffian of every vertex subset block by block in O(2^n n).
The same expansion shows that Pf(X + u) for an attached vertex u is
linear in u's column, with coefficients +-Pf(X - j)
(``attach_coefficients``); that is the general form of the bordered
identity det = (a + x^t S^-1 y)^2.

Entries in {-1, 0, 1} bound every row norm by sqrt(n-1), so
|Pf(X)| <= (n-1)^(n/4) (Hadamard) and every table value, partial sum
and attached-vertex product fits int64 far beyond any order whose 2^n
table fits in memory.  The subset scans stop at order 16
(``SCAN_LIMIT``) because of table size and of the 2^n-relation
products built on it, not because of overflow.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

# the only backend; benchmark records carry it so runs stay comparable
BACKEND = "numpy"

# largest scan order: a 2^16-entry table, and extension scans of a
# 15-vertex tournament take 2^15 relations times 2^14 odd subsets
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
            f"subset scan of order {arr.shape[0]} exceeds {SCAN_LIMIT}"
        )
    if arr.size and np.abs(arr).max() > 1:
        raise InvalidArgumentError("minor scans need entries in {-1, 0, 1}")
    if not np.array_equal(arr, -arr.T):
        raise InvalidArgumentError("minor scans need a skew-symmetric matrix")
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


def _popcounts(size: int) -> np.ndarray:
    """Number of set bits of every mask below ``size`` (a power of 2)."""
    pc = np.zeros(1, np.int64)
    while pc.size < size:
        pc = np.concatenate([pc, pc + 1])
    return pc


def attach_coefficients(pf: np.ndarray) -> np.ndarray:
    """Matrix C with Pf(X + h) = sum_j C[X, j] s[j, h] for every subset
    X of {0..h-1}, given the table ``pf`` of those subsets (length 2^h).

    C[X, j] = (-1)^pos(j) Pf(X - j) for j in X and 0 otherwise; rows of
    even X are all zero.
    """
    h = pf.size.bit_length() - 1
    c = np.zeros((h, pf.size), np.int64)
    sign = np.ones(1, np.int64)  # (-1)^popcount of each mask below 2^j
    for j in range(h):
        low = 1 << j
        c[j].reshape(-1, 2, low)[:, 1, :] = (
            sign * pf.reshape(-1, 2, low)[:, 0, :]
        )
        sign = np.concatenate([sign, -sign])
    return c.T


def pfaffian_table(s) -> np.ndarray:
    """Pf of every vertex subset of a skew matrix, indexed by bitmask:
    Pf(empty) = 1, odd subsets 0, det S[X] = Pf(X)^2."""
    arr = _as_scan_input(s)
    pf = np.ones(1, np.int64)
    for h in range(arr.shape[0]):
        pf = np.concatenate([pf, attach_coefficients(pf) @ arr[:h, h]])
    return pf


def _lex_first(masks: np.ndarray) -> int:
    """The mask that is smallest as a sorted index tuple; a proper
    initial segment precedes everything extending it."""
    prefix = 0
    while True:
        rest = masks ^ prefix
        if (rest == 0).any():
            return prefix
        low = rest & -rest
        first = low.min()
        masks = masks[low == first]
        prefix |= int(first)


def max_even_minor(s) -> tuple[int, int]:
    """Maximum determinant over every even-cardinality vertex subset
    (size >= 2) of a skew matrix, as ``(max determinant, witness bitmask)``.

    Ties go to the subset that is smallest as a sorted index tuple.
    Returns ``(0, 0)`` when the matrix has fewer than two rows.
    """
    dets = pfaffian_table(s) ** 2
    dets[0] = 0
    best = int(dets.max())
    if best == 0:
        return 0, 0
    return best, _lex_first(np.flatnonzero(dets == best))


def first_minor_above(s, bound: int, forced: int = -1) -> int:
    """First even-cardinality subset whose determinant exceeds ``bound``:
    smallest cardinality first, then smallest as a sorted index tuple.

    Returns the subset as a bitmask, or 0 when none exists.  ``forced``
    restricts the scan to subsets containing that vertex.
    """
    pf = pfaffian_table(s)
    size = _popcounts(pf.size)
    hit = (pf * pf > bound) & (size > 0) & (size % 2 == 0)
    if forced >= 0:
        hit &= (np.arange(pf.size) >> forced) & 1 == 1
    masks = np.flatnonzero(hit)
    if masks.size == 0:
        return 0
    return _lex_first(masks[size[masks] == size[masks].min()])


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
