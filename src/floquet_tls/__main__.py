"""``python -m floquet_tls``: the floquet-tls command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
