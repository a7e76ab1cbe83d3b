"""``python -m somgmm``: the ``somgmm`` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
