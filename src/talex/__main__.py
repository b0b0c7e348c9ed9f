"""python -m talex: the talex command line."""

import sys

from .cli import main

sys.exit(main())
