"""Run the command line as ``python -m megsolve``."""

import sys

from .cli import main

sys.exit(main())
