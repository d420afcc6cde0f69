"""`python -m schedcheck ...`: the command line (cli.main) without an
installed console script."""

import sys

from .cli import main

sys.exit(main())
