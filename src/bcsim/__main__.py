"""``python -m bcsim``: the ``bcsim`` command, also from a source checkout."""
import sys

from .cli import main

sys.exit(main())
