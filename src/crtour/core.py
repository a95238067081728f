"""Tournament values, switching, isomorphism and enumeration.

A tournament of order n is stored as its n x n skew-adjacency matrix
(entries in {-1, 0, 1}, antisymmetric, zero diagonal).  Vertices are the
0-based indices 0..n-1; all user-facing output converts to 1-based
labels.  Tournaments are immutable values: every operation returns a
new object and is safe to evaluate concurrently.  The constructor
validates the matrix it is given; operations whose results follow from
tournaments already validated build them with ``Tournament._derived``,
which skips the check.  The class representatives that
``enumerate_tournaments`` yields also carry the (code, |Aut|, leaf)
their enumeration's canonical search found; nothing else does, and
nothing is cached after construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import kernels
from .errors import InvalidArgumentError, ResourceLimitError


class Tournament:
    """Immutable tournament on vertices 0..n-1."""

    __slots__ = ("_skew", "_canon")

    def __init__(self, skew) -> None:
        arr = np.asarray(skew)
        # range-check before the int8 cast, which would wrap 257 to 1
        if arr.dtype != np.int8 and not np.isin(arr, (-1, 0, 1)).all():
            raise InvalidArgumentError("entries must be -1, 0 or 1")
        arr = arr.astype(np.int8)  # a private copy
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidArgumentError("skew matrix must be square")
        n = arr.shape[0]
        if n < 1:
            raise InvalidArgumentError("a tournament has at least one vertex")
        if (arr + arr.T).any():
            raise InvalidArgumentError(
                "matrix must be skew-symmetric with a zero diagonal"
            )
        # n(n-1) nonzero entries, half of them +1: the +1s and their -1
        # mirrors then fill every off-diagonal slot and leave nothing
        # for the diagonal.  This also rejects int8 input outside
        # {-1, 0, 1}, which skipped the range check and whose skew test
        # holds only mod 256 (-128 is its own negative).
        pairs = n * (n - 1)
        ones = np.count_nonzero(arr == 1)
        if np.count_nonzero(arr) != pairs or 2 * ones != pairs:
            raise InvalidArgumentError(
                "every pair needs exactly one arc (off-diagonal +-1)"
            )
        arr.setflags(write=False)
        self._skew = arr
        self._canon = None

    @classmethod
    def _derived(cls, skew) -> "Tournament":
        """Wrap a private read-only int8 copy of ``skew`` without
        validation.  Only for results whose validity follows from
        tournaments and arguments already checked: switching, principal
        submatrices, one-vertex extensions by a checked relation,
        relabelings by a checked permutation, blowups and ``from_bits``.
        """
        arr = np.array(skew, dtype=np.int8)
        arr.setflags(write=False)
        t = cls.__new__(cls)
        t._skew = arr
        t._canon = None
        return t

    @property
    def n(self) -> int:
        return self._skew.shape[0]

    @property
    def skew(self) -> np.ndarray:
        """Read-only skew-adjacency matrix view."""
        return self._skew

    @classmethod
    def from_bits(cls, n: int, bits) -> "Tournament":
        """Build from the row-major upper-triangle orientation bits.

        ``bits`` is a 0/1 string of length n(n-1)/2 or the integer it
        encodes (most significant bit = pair (0,1)).  Bit 1 at pair
        (i, j) with i < j means i -> j.
        """
        if n < 1:
            raise InvalidArgumentError("a tournament has at least one vertex")
        m = n * (n - 1) // 2
        if isinstance(bits, str):
            if len(bits) != m or set(bits) - {"0", "1"}:
                raise InvalidArgumentError(
                    f"need {m} characters of 0/1 for order {n}"
                )
            val = int(bits, 2) if m else 0
        else:
            val = int(bits)
            if val < 0 or (val >> m) != 0:
                raise InvalidArgumentError("bit value out of range")
        arr = np.zeros((n, n), np.int8)
        pos = m - 1
        for i in range(n - 1):
            for j in range(i + 1, n):
                b = (val >> pos) & 1
                arr[i, j] = 1 if b else -1
                arr[j, i] = -arr[i, j]
                pos -= 1
        return cls._derived(arr)

    def bits(self) -> str:
        n = self.n
        out = []
        for i in range(n - 1):
            for j in range(i + 1, n):
                out.append("1" if self._skew[i, j] > 0 else "0")
        return "".join(out)

    def packed(self) -> int:
        b = self.bits()
        return int(b, 2) if b else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._skew, other._skew)

    def __hash__(self) -> int:
        return hash((self.n, self.packed()))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, bits={self.bits()!r})"


def _chain(n: int) -> np.ndarray:
    """Skew matrix (int8) of the chain 0 -> 1 -> ... -> n-1: the earlier
    vertex beats the later one."""
    up = np.triu(np.ones((n, n), np.int8), 1)
    return up - up.T


def transitive_tournament(n: int) -> Tournament:
    """Chain 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise InvalidArgumentError("order must be positive")
    return Tournament(_chain(n))


def _pm1_sequence(
    seq: Sequence[int], name: str, length: Optional[int] = None
) -> tuple[int, ...]:
    """``seq`` as ints, checked nonempty +-1 (and of ``length``).  The
    raw values are tested before the cast, so 1.7 is refused, not
    truncated to 1."""
    sig = tuple(seq)
    if not sig or not all(v == 1 or v == -1 for v in sig):
        raise InvalidArgumentError(f"{name} must be a nonempty +-1 sequence")
    sig = tuple(map(int, sig))
    if length is not None and len(sig) != length:
        raise InvalidArgumentError(f"{name} must have length {length}")
    return sig


def _check_vertex(t: Tournament, v: int) -> int:
    v = int(v)
    if not 0 <= v < t.n:
        raise InvalidArgumentError(f"vertex {v} out of range for order {t.n}")
    return v


def theta(t: Tournament, u: int, v: int) -> int:
    """+1 if u -> v, -1 if v -> u."""
    u = _check_vertex(t, u)
    v = _check_vertex(t, v)
    if u == v:
        raise InvalidArgumentError("theta needs two distinct vertices")
    return int(t.skew[u, v])


def switch(t: Tournament, w: Iterable[int]) -> Tournament:
    """Reverse every arc between w and its complement."""
    wset = {_check_vertex(t, v) for v in w}
    eps = np.ones(t.n, np.int8)
    if wset:
        eps[sorted(wset)] = -1
    return Tournament._derived(t.skew * np.outer(eps, eps))


def induced(t: Tournament, u: Iterable[int]) -> Tournament:
    """Subtournament on u; vertex k of the result is sorted(u)[k]."""
    verts = sorted({int(v) for v in u})
    if not verts:
        raise InvalidArgumentError("induced subtournament needs vertices")
    for v in (verts[0], verts[-1]):
        _check_vertex(t, v)
    return Tournament._derived(t.skew[verts][:, verts])


def _append_vertex(t: Tournament, theta_row: Sequence[int]) -> Tournament:
    """Extension by one vertex; theta_row[i] is theta(new, v_i), and
    the caller has checked it is t.n entries of +-1."""
    n = t.n
    row = np.asarray(theta_row, np.int8)
    arr = np.zeros((n + 1, n + 1), np.int8)
    arr[:n, :n] = t.skew
    arr[n, :n] = row
    arr[:n, n] = -row
    return Tournament._derived(arr)


def is_transitive(t: Tournament) -> Optional[tuple[int, ...]]:
    """Chain ordering (first vertex beats all) when t has no 3-cycle."""
    s = t.skew
    scores = (s > 0).sum(axis=1)
    order = np.argsort(-scores, kind="stable")
    for a in range(t.n):
        for b in range(a + 1, t.n):
            if s[order[a], order[b]] != 1:
                return None
    return tuple(int(v) for v in order)


def apply_permutation(t: Tournament, phi: Sequence[int]) -> Tournament:
    """Relabel so that old vertex u becomes phi[u]."""
    n = t.n
    if sorted(phi) != list(range(n)):
        raise InvalidArgumentError("phi must be a permutation of 0..n-1")
    p = np.asarray(phi, np.intp)
    arr = np.zeros((n, n), np.int8)
    arr[np.ix_(p, p)] = t.skew
    return Tournament._derived(arr)


def _canonical(t: Tournament) -> tuple[int, int, tuple[int, ...]]:
    """(canonical code, |Aut|, one leaf) of t: carried by the class
    representatives ``enumerate_tournaments`` yields, searched for
    every other tournament (see ``kernels._canonical_search``)."""
    return t._canon or kernels._canonical_search(t.skew)


def _leaf_map(o1: Sequence[int], o2: Sequence[int]) -> tuple[int, ...]:
    """The relabeling sending the vertex at each position of leaf o1 to
    the vertex at the same position of leaf o2."""
    return tuple(b for _, b in sorted(zip(o1, o2)))


def is_isomorphic(t1: Tournament, t2: Tournament) -> Optional[tuple[int, ...]]:
    """A permutation phi with theta_{t2}(phi u, phi v) = theta_{t1}(u, v).

    The canonical search gives each tournament its code and one leaf
    relabeling reaching it; equal codes mean isomorphic, and phi maps
    t1's leaf onto t2's position by position.  The search is
    deterministic, so identical inputs yield the identity.
    """
    if t1.n != t2.n:
        return None
    code1, _, o1 = _canonical(t1)
    code2, _, o2 = _canonical(t2)
    if code1 != code2:
        return None
    res = _leaf_map(o1, o2)
    assert apply_permutation(t1, res) == t2
    return res


def switching_equivalent(
    t1: Tournament, t2: Tournament
) -> Optional[frozenset[int]]:
    """Switch set w with switch(t1, w) == t2, anchored off vertex 0.

    Since w and its complement act identically, any witness can be
    normalised to exclude vertex 0; that normal form is computed in
    O(n^2) from the first rows and then verified.
    """
    if t1.n != t2.n:
        raise InvalidArgumentError("switching equivalence needs equal orders")
    n = t1.n
    w = frozenset(
        v for v in range(1, n) if t1.skew[0, v] != t2.skew[0, v]
    )
    return w if switch(t1, w) == t2 else None


def _anchored_switch_sets(n: int) -> Iterator[frozenset[int]]:
    """The switch sets of order n avoiding vertex 0, in bitmask order:
    one per switch, as w and its complement act alike."""
    for mask in range(1 << max(n - 1, 0)):
        yield frozenset(v + 1 for v in range(n - 1) if (mask >> v) & 1)


def _dominant_switch_set(t: Tournament, v: int) -> frozenset[int]:
    # switching by the set of in-neighbours makes v dominate everything
    return frozenset(x for x in range(t.n) if t.skew[x, v] > 0)


def switching_isomorphic(
    t1: Tournament, t2: Tournament
) -> Optional[tuple[frozenset[int], tuple[int, ...]]]:
    """Witness (w, phi) with switch(t1, w) isomorphic to t2 via phi.

    Takes the canonical code and leaf of t1's switching normal form at
    vertex 0 (switched so 0 dominates everything) once, then compares
    them with those of t2's normal form at each vertex u.  Complete:
    any witness maps vertex 0 to some u, and the normal forms at 0 and
    at u are then isomorphic.
    """
    if t1.n != t2.n:
        return None
    w1 = _dominant_switch_set(t1, 0)
    code1, _, o1 = _canonical(switch(t1, w1))
    for u in range(t2.n):
        w2 = _dominant_switch_set(t2, u)
        code2, _, o2 = _canonical(switch(t2, w2))
        if code2 != code1:
            continue
        phi = _leaf_map(o1, o2)
        w = frozenset(w1 ^ {v for v in range(t1.n) if phi[v] in w2})
        assert apply_permutation(switch(t1, w), phi) == t2
        return w, phi
    return None


def is_diamond(t: Tournament) -> bool:
    """4-tournament with a vertex dominating or dominated by a 3-cycle,
    equivalently a 4-tournament of determinant 9."""
    return t.n == 4 and kernels.bareiss_det(t.skew) == 9


def canonical_encoding(t: Tournament) -> int:
    """Lexicographically minimal orientation bit-string over all
    relabelings, as an integer (isomorphism invariant)."""
    return _canonical(t)[0]


def automorphism_count(t: Tournament) -> int:
    return _canonical(t)[1]


# largest order enumerate_tournaments streams: 6,880 classes, or 2^28
# labeled tournaments
ENUM_LIMIT = 8


def _representative(n: int, code: int, aut: int) -> Tournament:
    """The class representative of order n whose bits are the canonical
    ``code``, carrying (code, aut, identity leaf)."""
    t = Tournament.from_bits(n, code)
    t._canon = (code, aut, tuple(range(n)))
    return t


def enumerate_tournaments(n: int, classes: bool = False) -> Iterator[Tournament]:
    """All labeled tournaments of order n, or one representative per
    isomorphism class when ``classes`` is set.

    Class representatives carry the minimal bit encoding and stream in
    ascending encoding order.  Generation is by vertex extension:
    every class of order k restricts to a class of order k-1, so
    extending each representative by all 2^(k-1) new-vertex rows and
    deduplicating canonically covers everything.  Each representative
    also carries what that deduplicating search found: its own code,
    |Aut| and the identity leaf, which is exactly what a fresh search
    of it returns (see ``kernels``).  So ``canonical_encoding``,
    ``automorphism_count`` and ``is_isomorphic`` answer for it without
    searching again.
    """
    if n < 1:
        raise InvalidArgumentError("order must be positive")
    if n > ENUM_LIMIT:
        raise ResourceLimitError(
            f"enumeration of order {n} exceeds the cap {ENUM_LIMIT}"
        )
    if not classes:
        m = n * (n - 1) // 2
        for val in range(1 << m):
            yield Tournament.from_bits(n, val)
        return
    reps = [_representative(1, 0, 1)]
    for k in range(2, n + 1):
        seen: dict[int, int] = {}  # code -> |Aut|, the same for every hit
        new = 1 << (k - 1)
        for rep in reps:
            beats = kernels._out_masks(rep.skew)
            # b: the vertices the new one beats; the others beat it
            for b in range(new):
                ext = [w if b >> v & 1 else w | new for v, w in enumerate(beats)]
                ext.append(b)
                code, aut, _ = kernels._search(ext)
                seen[code] = aut
        reps = [_representative(k, code, aut) for code, aut in sorted(seen.items())]
    yield from reps


# ---------------------------------------------------------------------------
# text formats


def format_trn(t: Tournament) -> str:
    """Two-line .trn form: order, then upper-triangle orientation bits."""
    return f"{t.n}\n{t.bits()}\n"


def format_skew(t: Tournament) -> str:
    return "\n".join(
        " ".join(f"{int(x):2d}" for x in row) for row in t.skew
    ) + "\n"


def parse_tournament(text: str) -> Tournament:
    """Parse .trn text or a whitespace-separated skew matrix."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidArgumentError("empty tournament input")
    first = lines[0].split()
    if len(first) == 1 and not first[0].lstrip("-").isdigit():
        raise InvalidArgumentError(f"cannot parse header {lines[0]!r}")
    if len(first) == 1:
        n = int(first[0])
        if n in (0, 1) and len(lines) == 1:
            # "1" in .trn form, "0" in skew-matrix form: one vertex
            return Tournament(np.zeros((1, 1), np.int8))
        if n < 1:
            raise InvalidArgumentError("order must be positive")
        m = n * (n - 1) // 2
        if len(lines) < 2:
            raise InvalidArgumentError(".trn input is missing the bit line")
        bits = "".join(lines[1:])
        if len(bits) != m:
            raise InvalidArgumentError(
                f"expected {m} orientation bits, got {len(bits)}"
            )
        return Tournament.from_bits(n, bits)
    # skew-matrix form: n rows of n signed integers
    try:
        rows = [[int(x) for x in ln.split()] for ln in lines]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse matrix row: {exc}") from exc
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InvalidArgumentError("skew-matrix input must be square")
    return Tournament(np.array(rows))
