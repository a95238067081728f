"""The L_n family, run-length signatures, and the CR classification of
single-vertex extensions of L_n.

L_n is the chain v_1 -> ... -> v_{n-1} plus a last vertex beating
exactly the odd-indexed chain vertices; L_n^- is its switch at v_n.
A new vertex's dominating relation along a transitive set X compresses
into the alternating run-length signature (alpha_1, ..., alpha_t); the
run count t alone decides whether the attachment is a CR vertex.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    Tournament,
    _chain,
    _pm1_sequence,
    induced,
    is_transitive,
    switch,
    theta,
)
from .errors import InvalidArgumentError, ResourceLimitError

Signature = tuple[int, ...]

# largest order gen_ln builds (a 16 MB int8 matrix)
LN_LIMIT = 4096


def gen_ln(n: int) -> Tournament:
    """L_n: transitive chain on v_1..v_{n-1}, v_n -> v_i iff i odd."""
    if n < 2:
        raise InvalidArgumentError("L_n needs n >= 2")
    if n > LN_LIMIT:
        raise ResourceLimitError(f"L_{n} exceeds the order limit {LN_LIMIT}")
    last = np.ones(n - 1, np.int8)
    last[1::2] = -1  # 0-based even = 1-based odd
    arr = np.zeros((n, n), np.int8)
    arr[: n - 1, : n - 1] = _chain(n - 1)
    arr[n - 1, : n - 1] = last
    arr[: n - 1, n - 1] = -last
    return Tournament(arr)


def gen_ln_minus(n: int) -> Tournament:
    """The switch of L_n with respect to {v_n}."""
    return switch(gen_ln(n), {n - 1})


def sigma_to_signature(sigma: Sequence[int]) -> Signature:
    """Run-length encode a +-1 sequence with signed run lengths."""
    sig = _pm1_sequence(sigma, "sequence")
    runs = []
    cur = sig[0]
    length = 0
    for r in sig:
        if r == cur:
            length += 1
        else:
            runs.append(cur * length)
            cur = r
            length = 1
    runs.append(cur * length)
    return tuple(runs)


def _runs(signature: Sequence[int]) -> Signature:
    """``signature`` as ints, checked nonzero, integral and alternating
    in sign.  Nothing is expanded, so a run of 10^20 costs no memory."""
    raw = tuple(signature)
    try:
        runs = tuple(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        runs = None
    if runs != raw:  # 2.5 would truncate to 2
        raise InvalidArgumentError("signature runs must be integers")
    if not runs or any(a == 0 for a in runs):
        raise InvalidArgumentError("signature runs must be nonzero")
    if any(runs[i] * runs[i + 1] > 0 for i in range(len(runs) - 1)):
        raise InvalidArgumentError("signature runs must alternate in sign")
    return runs


def signature_to_sigma(signature: Sequence[int]) -> tuple[int, ...]:
    """Inverse of sigma_to_signature."""
    out = []
    for a in _runs(signature):
        out.extend([1 if a > 0 else -1] * abs(a))
    return tuple(out)


def signature_to_text(signature: Sequence[int]) -> str:
    """'3,-2,1' text form of a signature."""
    return ",".join(str(a) for a in _runs(signature))


def signature_from_text(text: str) -> Signature:
    try:
        runs = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidArgumentError(f"bad signature text {text!r}") from exc
    return _runs(runs)


def psi(t: Tournament, u: int, x: Sequence[int]) -> Signature:
    """Signature of u's relation along the transitive ordering of x."""
    xs = sorted({int(v) for v in x})
    if not xs:
        raise InvalidArgumentError("psi needs a nonempty set")
    if int(u) in xs:
        raise InvalidArgumentError("u must lie outside x")
    sub = induced(t, xs)
    order = is_transitive(sub)
    if order is None:
        raise InvalidArgumentError("x must induce a transitive tournament")
    chain = [xs[local] for local in order]
    return sigma_to_signature([theta(t, u, v) for v in chain])


def ln_extension_is_cr(
    n: int, sigma: Sequence[int], minus: bool = False
) -> bool:
    """Predicted CR status of the vertex attached to L_n (or L_n^-)
    with relation sigma, from the run count over the chain alone.

    Even n: CR iff the signature of (r_1..r_{n-1}) has t in
    {1, 2, n-1}.  Odd n is routed to ln_extension_is_cr_odd.  The rule
    is the same for both variants; ``minus`` is accepted so callers can
    be explicit about which tournament they extend.
    """
    if n < 3:
        raise InvalidArgumentError("classification needs n >= 3")
    if n % 2 == 1:
        return ln_extension_is_cr_odd(n, sigma, minus=minus)
    sig = _pm1_sequence(sigma, "sigma", n)
    t_runs = len(sigma_to_signature(sig[: n - 1]))
    return t_runs in (1, 2, n - 1)


def ln_extension_is_cr_odd(
    n: int, sigma: Sequence[int], minus: bool = False
) -> bool:
    """Odd-order rule: CR iff t in {2, n-1}, or t = 1 with
    alpha_1 * theta(u, v_n) < 0.

    For L_n^- the t = 1 inequality reverses: switching at v_n carries
    the extension to one of L_n with r_n negated, so the variant enters
    only through that sign.
    """
    if n < 3 or n % 2 == 0:
        raise InvalidArgumentError("odd-order rule needs odd n >= 3")
    sig = _pm1_sequence(sigma, "sigma", n)
    runs = sigma_to_signature(sig[: n - 1])
    t_runs = len(runs)
    if t_runs in (2, n - 1):
        return True
    if t_runs != 1:
        return False
    crit = runs[0] * sig[n - 1]
    return crit > 0 if minus else crit < 0
