"""`python -m elastika`: the same command line as the `elastika` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
