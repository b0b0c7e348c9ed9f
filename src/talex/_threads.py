"""Parallelism cap for the monic-scan constraint sweep.

TALEX_THREADS caps the worker count for the sweep steps of
``talex monic-scan``, its only caller; the steps are independent.  Unset
or 1 means fully sequential execution; results are collected in
submission order either way, so output bytes do not depend on the
setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    raw = os.environ.get("TALEX_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def ordered_map(fn, items):
    """map() preserving order, parallel when TALEX_THREADS > 1."""
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
