"""Benchmark harness: experiment specs, runners, and exporters."""

# Each public name is declared once, in the ``__all__`` of the module that defines it.
from . import export, runner
from .export import *
from .runner import *

__all__ = [*runner.__all__, *export.__all__]
