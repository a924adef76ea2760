"""``python -m rsbounds``: the command-line front end (see cli)."""

from .cli import main

raise SystemExit(main())
