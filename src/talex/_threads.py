"""In-order map over the sweep steps of ``talex monic-scan``.

A plain list comprehension.  It keeps a module of its own because the
benchmark's tracer times the sweep by binding ``talex._threads.ordered_map``
by name.
"""

from __future__ import annotations


def ordered_map(fn, items):
    """[fn(x) for x in items], in order."""
    return [fn(x) for x in items]
