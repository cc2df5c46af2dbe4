"""`python -m mwmatch ...` runs the `mwm` command line."""

from .cli import entrypoint

entrypoint()
