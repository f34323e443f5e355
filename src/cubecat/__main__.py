"""``python -m cubecat ...``: the ``cubecat`` command line of ``cubecat.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
