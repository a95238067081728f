"""Size caps and environment knobs.

CRTOUR_MAX_N overrides the enumeration cap (tournament streams, dedupe
mode).  It alone bounds class enumeration: canonical codes are python
ints of any width.  Subset and extension scans stop at the fixed order
``kernels.SCAN_LIMIT``.
"""

import os

from .errors import InvalidArgumentError

DEFAULT_ENUM_CAP = 8


def enum_cap() -> int:
    raw = os.environ.get("CRTOUR_MAX_N", "")
    if not raw.strip():
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"CRTOUR_MAX_N must be an integer (got {raw!r})"
        ) from None
