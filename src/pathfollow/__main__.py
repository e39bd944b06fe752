"""``python -m pathfollow``: the command-line front end (see :mod:`pathfollow.cli`)."""
from .cli import main

raise SystemExit(main())
