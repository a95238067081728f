"""Size caps and environment knobs.

CRTOUR_MAX_N overrides the enumeration cap (tournament streams, dedupe
mode).  Subset/extension scans use the fixed desk-scale cap below and
accept explicit ``cap=`` overrides per call.
"""

import os

from .errors import InvalidArgumentError

DEFAULT_ENUM_CAP = 8
# subset and extension scans cost 2^n table entries and, for the CR
# check, 2^n relations times 2^(n-1) odd subsets; order 16 stays
# interactive (kernels.SCAN_LIMIT is the same bound)
DEFAULT_SCAN_CAP = 16

# int64 bit-packing of the upper triangle needs n(n-1)/2 <= 62
PACKING_LIMIT = 11


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


def scan_cap() -> int:
    return DEFAULT_SCAN_CAP
