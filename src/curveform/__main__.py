"""``python -m curveform``: the same entry point as the ``curveform`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
