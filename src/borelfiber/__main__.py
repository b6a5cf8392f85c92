"""``python -m borelfiber``: the command line front end, without installing."""

import sys

from borelfiber.cli import main

if __name__ == "__main__":
    sys.exit(main())
