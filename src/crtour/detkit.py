"""Exact skew-adjacency determinants, principal-minor scans and the
D_k classes.

det(T) means det of the skew-adjacency matrix S_T = A_T - A_T^t.  It is
0 for odd order and the square of an odd integer for even order, and a
tournament lies in D_k when no subtournament determinant exceeds k^2.
All arithmetic is exact.  Single determinants use python-int Bareiss
elimination.  The scans over all subtournaments read det = Pf^2
(Cayley) from one Pfaffian table of S_T (``kernels.pfaffian_table``);
|Pf| <= (n-1)^(n/4), so its int64 entries cannot overflow, and the
table raises ResourceLimitError above order 16 (``kernels.SCAN_LIMIT``)
only because it and the relation scans built on it grow as 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import kernels
from .core import Tournament
from .errors import InvalidArgumentError, TheoremViolationError


def skew_adjacency(t: Tournament) -> np.ndarray:
    """S_T as a fresh writable int8 array."""
    return t.skew.copy()


def det_exact(matrix) -> int:
    """Exact determinant of a square integer-valued matrix (integer,
    float, bool or object dtype), by python-int Bareiss elimination."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidArgumentError("determinant needs a square matrix")
    if arr.dtype.kind not in "iu":
        try:
            ints = np.frompyfunc(int, 1, 1)(arr)
            integral = bool(np.all(ints == arr))
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise InvalidArgumentError("determinant needs integer entries")
        arr = ints
    return kernels.bareiss_det(arr)


def tournament_det(t: Tournament) -> int:
    """det of the skew-adjacency matrix; 0 for odd order, an odd square
    for even order."""
    return kernels.bareiss_det(t.skew)


@dataclass(frozen=True)
class DkReport:
    """Outcome of a full even-subset minor scan."""

    max_minor: int
    k: int
    witness: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "max_minor": self.max_minor,
            "k": self.k,
            "witness": [v + 1 for v in self.witness],
        }


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _k_of(max_minor: int) -> int:
    if max_minor <= 1:
        return 1
    k = math.isqrt(max_minor)
    if k * k != max_minor or k % 2 == 0:
        raise TheoremViolationError(
            f"maximal minor {max_minor} is not the square of an odd integer"
        )
    return k


def max_subtournament_det(t: Tournament) -> DkReport:
    """Maximum determinant over all even-cardinality subtournaments
    (odd ones are 0), with the lexicographically smallest witness."""
    best, mask = kernels.max_even_minor(t.skew)
    return DkReport(best, _k_of(best), _mask_vertices(mask))


def _check_k(k: int) -> int:
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise InvalidArgumentError("k must be a positive odd integer")
    return k


def in_dk(t: Tournament, k: int) -> bool:
    """True when every subtournament determinant is at most k^2."""
    k = _check_k(k)
    return kernels.first_minor_above(t.skew, k * k) == 0


def in_dk_exactly(t: Tournament, k: int) -> bool:
    """True when t lies in D_k but not D_{k-2} (D_1 itself for k = 1)."""
    k = _check_k(k)
    return max_subtournament_det(t).k == k
