"""``python -m rifa``: the command-line front end."""

import sys

from rifa.cli import main

if __name__ == "__main__":
    sys.exit(main())
