"""The benchmark tracer still finds every talex name it wraps.

bench/tracing.py rebinds public talex functions and methods by name.  A
name that is renamed or deleted in talex makes the tracer fail when it is
built, so building it here turns that into a test failure.  bench/ is
only read.
"""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import talex.cli  # noqa: F401  (the tracer wraps cli.run)
    import tracing
    import workloads  # noqa: F401
    return tracing


def test_tracer_binds_and_restores(tracing):
    tracer = tracing.Tracer()
    assert len(tracer._bindings) >= len(tracing.SPANNED) + len(tracing.COUNTED)
    assert tracer.restored()
    with tracer.installed(0):
        assert not tracer.restored()
    assert tracer.restored()
