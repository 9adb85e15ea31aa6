"""``python -m softact <command>``: the ``softact`` command-line tool."""

import sys

from .cli import main

sys.exit(main())
