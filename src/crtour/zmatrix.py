"""The Z-matrix calculus and bordered-determinant tools.

Z(m, r) is an m x (m-1) integer matrix built from an odd m and a +-1
sequence r; its row sums b_i are exactly the offsets appearing in the
deletion determinants of single-vertex extensions of L_{m+1}, squared.
The l-diagonal vectors Gamma_l walk the matrix along wrapped
anti-diagonals; their consecutive differences are constant off two
exempt positions, which pins down b_{i+1} - b_i in closed form.

Both are index arithmetic on the 1-based indices of the formulas
(arrays are stored 0-based): with k = i + j, z_ij = (-1)^k (m - 2j)
r_{1 + (k-1) mod m}, negated when k > m, and Gamma_l[i] =
z_{i, (l-i) mod m}, with 0 at i = l where that column would be 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .core import _chain, _pm1_sequence
from .cr import extend
from .errors import InvalidArgumentError
from .lfamily import gen_ln


def _odd_r(r: Sequence[int]) -> tuple[int, ...]:
    rr = _pm1_sequence(r, "r")
    if len(rr) % 2 == 0:
        raise InvalidArgumentError("r must have odd length")
    return rr


@dataclass(frozen=True, eq=False)
class ZMatrix:
    m: int
    r: tuple[int, ...]
    entries: np.ndarray  # shape (m, m-1), row i-1 / column j-1

    def entry(self, i: int, j: int) -> int:
        """z_{ij} with 1-based indices."""
        if not (1 <= i <= self.m and 1 <= j <= self.m - 1):
            raise InvalidArgumentError("z-matrix index out of range")
        return int(self.entries[i - 1, j - 1])

    def pretty(self) -> str:
        width = max(len(str(int(x))) for x in self.entries.flat)
        rows = [
            " ".join(f"{int(x):>{width}}" for x in row)
            for row in self.entries
        ]
        return "\n".join(f"[ {row} ]" for row in rows)

    def csv(self) -> str:
        return "\n".join(
            ",".join(str(int(x)) for x in row) for row in self.entries
        ) + "\n"


def z_matrix(m: int, r: Sequence[int]) -> ZMatrix:
    """Z(m, r): z_{ij} = (-1)^{i+j} (m-2j) r_{i+j}, with r negated and
    the subscript wrapped by m once i+j exceeds m."""
    m = int(m)
    if m < 3 or m % 2 == 0:
        raise InvalidArgumentError("m must be an odd integer >= 3")
    rr = _pm1_sequence(r, "r", m)
    # f[k] = (-1)^k r_k for k <= m and (-1)^k (-r_{k-m}) beyond
    f = np.array([0, *rr, *(-x for x in rr[:-1])], np.int64)
    f[1::2] *= -1
    j = np.arange(1, m)
    z = f[np.arange(1, m + 1)[:, None] + j] * (m - 2 * j)
    return ZMatrix(m, rr, z)


@dataclass(frozen=True)
class DiagonalVector:
    ell: int
    entries: tuple[int, ...]
    step: int  # the constant difference off the two exempt positions


def _gamma(z: ZMatrix, ell: int | np.ndarray) -> np.ndarray:
    """Gamma_ell by one gather (a column of ells gives one row each)."""
    i = np.arange(1, z.m + 1)
    col = (ell - i) % z.m  # 1-based column; 0 at i = ell
    g = z.entries[i - 1, col - 1]
    g[col == 0] = 0
    return g


def diagonal_vector(z: ZMatrix, ell: int) -> DiagonalVector:
    """Gamma_ell: entry i is z_{i, ell-i} before the zero at i = ell and
    z_{i, m+ell-i} after it (1-based)."""
    ell = int(ell)
    if not 1 <= ell <= z.m:
        raise InvalidArgumentError("ell out of range")
    step = int(_steps(z.r)[ell - 1])
    return DiagonalVector(ell, tuple(_gamma(z, ell).tolist()), step)


def row_sums(z: ZMatrix) -> np.ndarray:
    """b with b_i the i-th row sum."""
    return z.entries.sum(axis=1, dtype=np.int64)


def _steps(rr: Sequence[int]) -> np.ndarray:
    """The diagonal steps 2 (-1)^l r_l for l = 1..m."""
    steps = 2 * np.array(rr, np.int64)
    steps[::2] *= -1
    return steps


def delta_total(r: Sequence[int]) -> int:
    """Delta, the sum of the diagonal steps."""
    return int(_steps(_odd_r(r)).sum())


def _b_diffs(rr: Sequence[int]) -> np.ndarray:
    """b_{i+1} - b_i predicted for i = 1..m-1: Delta, minus m times the
    step 2 (-1)^i r_i where a run ends (r_i != r_{i+1})."""
    r = np.array(rr, np.int64)
    steps = _steps(r)
    return steps.sum() - r.size * steps[:-1] * (r[:-1] != r[1:])


def b_diff_predicted(i: int, r: Sequence[int]) -> int:
    """Predicted b_{i+1} - b_i: Delta off run boundaries, Delta +- 2m at
    a boundary depending on the sign of (-1)^i r_i."""
    rr = _odd_r(r)
    i = int(i)
    if not 1 <= i <= len(rr) - 1:
        raise InvalidArgumentError("index must satisfy 1 <= i <= m-1")
    return int(_b_diffs(rr)[i - 1])


def transitive_inverse(p: int) -> np.ndarray:
    """Inverse of the order-p transitive skew-adjacency matrix (p even):
    the alternating band with (i, j) entry (-1)^{j-i} above the
    diagonal, i.e. the chain times the checkerboard (-1)^{i+j}."""
    p = int(p)
    if p < 2 or p % 2 == 1:
        raise InvalidArgumentError(
            "the transitive skew matrix is invertible only for even order"
        )
    i = np.arange(p)
    return _chain(p) * (-1) ** (i[:, None] + i)


def assemble_bordered(a: int, x: Sequence[int], y: Sequence[int]) -> np.ndarray:
    """The (p+2)-order skew matrix with first rows (0, a, x^t) and
    (-a, 0, y^t) over a transitive core."""
    xa = np.array(_pm1_sequence(x, "x"), np.int64)
    ya = np.array(_pm1_sequence(y, "y", xa.size), np.int64)
    p = xa.size
    s = np.zeros((p + 2, p + 2), np.int64)
    s[0, 1], s[1, 0] = a, -a
    s[0, 2:], s[2:, 0] = xa, -xa
    s[1, 2:], s[2:, 1] = ya, -ya
    s[2:, 2:] = _chain(p)
    return s


def bordered_det(a: int, x: Sequence[int], y: Sequence[int]) -> int:
    """det of the bordered matrix, (a + x^t S^{-1} y)^2, the form over
    the transitive inverse read in O(p) as sum_j (w_j U_j - u_j W_j):
    u_i = (-1)^i x_i, w_i = (-1)^i y_i, U_j and W_j their sums below j."""
    a = int(a)
    if a not in (1, -1):
        raise InvalidArgumentError("a must be +-1")
    xs = _pm1_sequence(x, "x")
    ys = _pm1_sequence(y, "y", len(xs))
    if len(xs) % 2 == 1:
        raise InvalidArgumentError("vectors must have even length")
    val, big_u, big_w = a, 0, 0
    for j, (u, w) in enumerate(zip(xs, ys)):
        if j % 2:
            u, w = -u, -w
        val += w * big_u - u * big_w
        big_u, big_w = big_u + u, big_w + w
    return val * val


def ln_deletion_det_check(n: int, sigma: Sequence[int]) -> bool:
    """Check the deletion-determinant identity for an extension of L_n.

    With u attached to L_n by sigma, deleting chain vertex v_i from the
    extension must leave determinant (a + b_i)^2, where a = -r_n and b
    is the row-sum vector of Z(n-1, (r_1..r_{n-1})).  True when the
    identity holds for every i.  Each determinant is Pf^2 of the
    subset missing v_i, read from one Pfaffian table of the extension,
    so n + 1 may not exceed ``kernels.SCAN_LIMIT``.
    """
    n = int(n)
    if n < 4 or n % 2 == 1:
        raise InvalidArgumentError("the identity is stated for even n >= 4")
    sig = _pm1_sequence(sigma, "sigma", n)
    pf = kernels.pfaffian_table(extend(gen_ln(n), sig).skew)
    full = (1 << (n + 1)) - 1
    dets = pf[full ^ (1 << np.arange(n - 1))] ** 2
    b = row_sums(z_matrix(n - 1, sig[: n - 1]))
    a = -sig[n - 1]
    return bool(np.array_equal(dets, (a + b) ** 2))
