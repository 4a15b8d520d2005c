"""``python -m hctrial``: the same command line as the ``hctrial`` script."""

from hctrial.cli import entrypoint

if __name__ == "__main__":
    entrypoint()
