"""``python -m localarc``: the command line of localarc.cli."""

from .cli import main

if __name__ == "__main__":
    main()
