"""``python -m frauduq``: the same command-line interface as ``frauduq``."""

import sys

from .cli import main

sys.exit(main())
