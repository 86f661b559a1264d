"""``python -m circulant_coloring``: the ``circulant-coloring`` command."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
