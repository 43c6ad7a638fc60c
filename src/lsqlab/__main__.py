"""python -m lsqlab: the command-line harness of lsqlab.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
