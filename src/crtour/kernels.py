"""Hot numeric kernels: exact integer determinants, the Pfaffian subset
table and the canonical labelling search.

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
Block h is one gather and one matrix-vector product:
Pf(Y + h) = sum_j sgn(Y, j) s[j, h] Pf(Y - j) over the odd Y below
2^h (even Y give 0), read through two index tables, Y ^ 2^j and
sgn(Y, j) = (-1)^|Y & [0, j)| (0 when j is not in Y).  Neither depends
on the top order, so one read-only copy for the largest order asked so
far serves every smaller order as a slice.  The same expansion shows
that Pf(X + u) for an attached vertex u is linear in u's column, with
coefficients C[X, j] = sgn(X, j) Pf(X - j): the same gather once more
(``attach_table``).  That is the general form of the bordered identity
det = (a + x^t S^-1 y)^2.  Doubling a vertex relabels the table
(``_doubled_attach_table``), so every 1-transitive blowup's table is one
gather of the base table.

Entries in {-1, 0, 1} bound every row norm by sqrt(n-1), so
|Pf(X)| <= (n-1)^(n/4) (Hadamard) and every table value, partial sum
and attached-vertex product fits int64 far beyond any order whose 2^n
table fits in memory.  The subset scans stop at order 16
(``SCAN_LIMIT``) because of table size and of the 2^n-relation
products built on it, not because of overflow.

The canonical code of a tournament is the least row-major upper-triangle
bit string (bit (i, j) set when relabelled vertex i beats j) over all n!
relabelings.  ``_canonical_search`` finds it without enumerating them:
it reads each vertex's out-neighbourhood as a python-int bitmask (exact
at any order) and hands the list to ``_search``.
Row i is the most significant part still open once positions 0..i-1
are fixed, so every minimal relabeling first minimises row 0, then row
1, and so on.  A prefix leaves the unplaced vertices in ordered cells:
the positions that the prefix rows cannot yet tell apart.  Position i
takes a member v of the first cell, and row i is least when every cell
puts the vertices beating v (bit 0) before those v beats (bit 1).  So
placing v splits each cell in two, and the row is the integer of the
bits 0..0 1..1 per cell, known from popcounts alone.  Each level first
scores every placement, over all surviving prefixes, and then splits
cells only for those whose row equals the level minimum.  Prefixes with
one code prefix share their cell widths, so their rows compare as
plain ints.  After n-1 levels the minimum rows concatenate to the code.
The surviving leaves are exactly the relabelings that reach it, and
those form one coset of Aut(T), so their number is |Aut(T)|.  The
search also returns one leaf: the vertex placed at each position.  Two
tournaments are isomorphic exactly when their codes agree, and then
mapping the vertex at each position of one leaf to the vertex at the
same position of the other is an isomorphism.  The work follows the
number of tied prefixes, not n!: rigid tournaments keep one, and Paley
23 keeps at most |Aut| = 253 per level.

The search of a canonical labelling, a tournament whose own bits are
its code, returns (its bits, |Aut|, the identity).  The identity
reaches the code, so it is a surviving leaf, and by induction the
identity prefix 0..i-1 is the first state at each level i.  Cells are
placed in order, so its first cell holds the vertices that leaf places
next, i, i+1, ...; their lowest, i, is the first candidate scored at
the level and attains the level minimum, so no later row displaces it
and prefix 0..i is the first state of level i+1.
``core.enumerate_tournaments`` relies on this: each class
representative it builds from a code carries this triple, so it is
never searched again.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

# the only backend; benchmark records carry it so runs stay comparable
BACKEND = "numpy"

# largest scan order: a 2^16-entry table, and extension scans of a
# 15-vertex tournament take up to 2^14 relations times 2^14 odd subsets
SCAN_LIMIT = 16


def _as_i64(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("kernel input must be a square 2-d array")
    return arr


def _check_scan_order(n: int, what: str = "subset scan") -> None:
    """The one scan-order policy: orders above SCAN_LIMIT are refused."""
    if n > SCAN_LIMIT:
        raise ResourceLimitError(f"{what} of order {n} exceeds {SCAN_LIMIT}")


def _as_scan_input(s) -> np.ndarray:
    arr = _as_i64(s)
    _check_scan_order(arr.shape[0])
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
        top = m[j]
        piv = top[j]
        for r in range(j + 1, n):
            row = m[r]
            f = row[j]
            for c in range(j + 1, n):
                row[c] = (row[c] * piv - f * top[c]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]


def _attach_index(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables for attaching a vertex to the odd subsets of
    {0..h-1}: ``odd``, the 2^(h-1) odd-size masks in increasing order,
    and (h, 2^(h-1)) arrays over them, ``flip[j, i] = odd[i] ^ 2^j`` and
    ``sign[j, i]`` = (-1)^|odd[i] & [0, j)| when j is in odd[i], else 0.
    Only odd columns are kept: Pf of an odd set is 0.  ``flip`` is
    already of numpy's index type, so no gather converts it again."""
    masks = np.arange(1 << h)
    odd = masks[np.bitwise_count(masks) % 2 == 1]
    bits = 1 << np.arange(h)[:, None]
    flip = odd ^ bits
    below = np.bitwise_count(odd & (bits - 1)) % 2
    sign = np.where(odd & bits, 1 - 2 * below, 0).astype(np.int8)
    for a in (odd, flip, sign):
        a.flags.writeable = False
    return odd, flip, sign


# the index tables of the largest order asked for so far; every smaller
# order reads a slice of them (the first 2^(h-1) odd masks are those
# below 2^h)
_INDEX = _attach_index(0)


def _index(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_attach_index(h)`` as read-only views of the shared tables."""
    global _INDEX
    if h > _INDEX[1].shape[0]:
        _INDEX = _attach_index(h)
    odd, flip, sign = _INDEX
    m = (1 << h) >> 1
    return odd[:m], flip[:h, :m], sign[:h, :m]


def _attach_rows(pf: np.ndarray, flip, sign) -> np.ndarray:
    """Rows j of the attach coefficients of the odd subsets X of
    {0..h-1}, read through the order-h slices of ``flip`` and ``sign``:
    (-1)^pos(j) Pf(X - j) at column X for j in X, else 0."""
    rows = pf[flip]
    rows *= sign
    return rows


def _fill(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    odd, flip, sign = _index(max(n - 1, 0))
    pf = np.zeros(1 << n, np.int64)
    pf[0] = 1
    for h in range(1, n):
        # Pf(Y + h) is 0 for even |Y|, so only the odd Y are filled
        m = 1 << (h - 1)
        rows = _attach_rows(pf, flip[:h, :m], sign[:h, :m])
        pf[1 << h : 2 << h][odd[:m]] = arr[:h, h] @ rows
    return pf


def pfaffian_table(s) -> np.ndarray:
    """Pf of every vertex subset of a skew matrix, indexed by bitmask:
    Pf(empty) = 1, odd subsets 0, det S[X] = Pf(X)^2."""
    return _fill(_as_scan_input(s))


def _subset_dets(s) -> tuple[np.ndarray, np.ndarray]:
    """det = Pf^2 and size of every vertex subset, indexed by bitmask."""
    pf = pfaffian_table(s)
    return pf * pf, np.bitwise_count(np.arange(pf.size))


def attach_table(s) -> tuple[np.ndarray, np.ndarray]:
    """The Pfaffian table ``pf`` of a skew matrix of order n and the
    (2^(n-1), n) matrix C with Pf(X + u) = sum_j C[X, j] s[j, u] for a
    vertex u attached to it, one row per odd subset X in increasing
    mask order: C[X, j] = (-1)^pos(j) Pf(X - j) for j in X and 0
    otherwise.  Even X are left out; their Pf(X + u) is 0."""
    arr = _as_scan_input(s)
    pf = _fill(arr)
    return pf, _attach_rows(pf, *_index(arr.shape[0])[1:]).T


def _doubled_attach_table(
    pf: np.ndarray, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """``attach_table`` of the 1-transitive blowup b of the order-n
    tournament with Pfaffian table ``pf`` that doubles vertex v: v' =
    v + 1 follows v, v beats v', and later vertices shift up by one.

    Subtracting the row and column of v from those of v' in S_b leaves
    only the entry linking v' to v, and v, v' are adjacent, so
    Pf_b(X + v + v') = Pf(X) and Pf_b(X + v') = Pf(X + v) with no sign
    change; a set through v alone is a set of t.  So b's table is the
    gather pf[idx], idx(Y) = rest(Y) | ((y_v XOR y_v') << v), where
    rest(Y) maps Y minus {v, v'} back to the vertices of t, and C_b is
    the attach gather of that table."""
    masks = np.arange(pf.size << 1)
    low = masks & ((1 << v) - 1)
    high = (masks >> (v + 2)) << (v + 1)
    pair = ((masks >> v) ^ (masks >> (v + 1))) & 1
    pf_b = pf[low | high | (pair << v)]
    return pf_b, _attach_rows(pf_b, *_index(pf.size.bit_length())[1:]).T


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


def first_minor_above(s, bound: int) -> int:
    """First even-cardinality subset whose determinant exceeds ``bound``:
    smallest cardinality first, then smallest as a sorted index tuple.

    Returns the subset as a bitmask, or 0 when none exists.
    """
    dets, size = _subset_dets(s)
    masks = np.flatnonzero((dets > bound) & (size > 0) & (size % 2 == 0))
    if masks.size == 0:
        return 0
    return _lex_first(masks[size[masks] == size[masks].min()])


def _out_masks(s) -> list[int]:
    """beats[v], the bitmask of the vertices v beats, in exact python ints."""
    packed = np.packbits(_as_i64(s) > 0, axis=1, bitorder="little")
    raw, width = packed.tobytes(), max(packed.shape[1], 1)  # 0 columns: no rows
    return [
        int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)
    ]


def _canonical_search(s) -> tuple[int, int, tuple[int, ...]]:
    """(lex-min upper-triangle code, number of relabelings reaching it,
    one such relabeling as the vertex at each position) of a
    tournament's skew matrix; see the module docstring."""
    return _search(_out_masks(s))


def _search(beats: list[int]) -> tuple[int, int, tuple[int, ...]]:
    """``_canonical_search`` of the tournament in which vertex v beats
    the vertices of bitmask ``beats[v]``.  A state is the prefix placed
    so far and the ordered cells (bitmasks of unplaced vertices) it
    leaves; every state's prefix is code-minimal.  Pass 1 scores every
    (state, candidate) row from popcounts, pass 2 splits the cells only
    of the pairs at the level minimum.

    Nothing is allocated per candidate.  Scoring reads the cells in
    place, with candidate v still in the first cell: v does not beat
    itself, so that cell's won count is unchanged, and its width only
    shifts the row's starting 0.  A row of level i has n-1-i bits, so
    2^(n-1-i) is above every row."""
    n = len(beats)
    states = [((), [(1 << n) - 1])]
    code = 0
    for i in range(n - 1):
        best, hits = 1 << (n - 1 - i), []
        for placed, cells in states:
            cand = cells[0]
            while cand:
                low = cand & -cand
                cand ^= low
                wins = beats[low.bit_length() - 1]
                row = 0
                for c in cells:
                    row = (row << c.bit_count()) | ((1 << (c & wins).bit_count()) - 1)
                if row < best:
                    best, hits = row, [(placed, cells, low)]
                elif row == best:
                    hits.append((placed, cells, low))
        states = []
        for placed, cells, low in hits:
            v = low.bit_length() - 1
            wins = beats[v]
            loses = ~(wins | low)  # the vertices beating v
            split = []
            for c in cells:
                lost = c & loses
                if lost:
                    split.append(lost)
                won = c & wins
                if won:
                    split.append(won)
            states.append((placed + (v,), split))
        code = (code << (n - 1 - i)) | best
    placed, cells = states[0]
    return code, len(states), placed + tuple(c.bit_length() - 1 for c in cells if c)


def perm_min_encoding(s) -> int:
    """Minimum row-major upper-triangle bit encoding over all relabelings."""
    return _canonical_search(s)[0]


def perm_aut_count(s) -> int:
    """Number of vertex permutations fixing the tournament (automorphisms)."""
    return _canonical_search(s)[1]
