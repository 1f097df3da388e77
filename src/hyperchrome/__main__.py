"""``python3 -m hyperchrome``: the ``hyperchrome`` executable."""

import sys

from .cli import main

sys.exit(main())
