"""Packaged fixture corpus.

Small reference inputs shipped with the library: planar-diagram codes and
group presentations for the knots used throughout the test suite, Seifert
matrices, and frozen Alexander polynomials.  Every file is certified by a
cross-check computed by the library itself (for example, a diagram file is
accepted only because the Alexander polynomial of its Wirtinger
presentation matches the independently known value), so the corpus also
serves as an end-to-end regression net.

``fixture_path(name)`` resolves a corpus file name to an absolute path.
The command-line driver additionally resolves arguments of the form
``fixtures/<name>`` against this directory when no such file exists
relative to the working directory, so documented invocations work from
any directory once the package is installed.
"""

from __future__ import annotations

import os

from ..errors import ParseError

_DIR = os.path.dirname(os.path.abspath(__file__))


def fixture_path(name: str) -> str:
    """Absolute path of a packaged fixture file.

    Raises ParseError if the name is not in the corpus; use plain paths for
    files of your own.
    """
    base = os.path.basename(name)
    full = os.path.join(_DIR, base)
    if not os.path.isfile(full):
        raise ParseError("no packaged fixture named %r" % name)
    return full
