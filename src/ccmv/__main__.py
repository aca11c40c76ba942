"""`python -m ccmv ...`: the `ccmv` command without an install."""
import sys

from .cli import main

sys.exit(main())
