"""``python -m berkpot``: the ``berkpot`` command line."""
from .cli import main

raise SystemExit(main())
