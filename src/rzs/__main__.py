"""Allow `python -m rzs` as an alias for the `rzs` console script."""

from .cli import run

if __name__ == "__main__":
    run()
