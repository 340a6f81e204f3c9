"""``python -m hoeg``: the command-line front end, as the installed ``hoeg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
