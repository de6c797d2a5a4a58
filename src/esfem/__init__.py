"""Finite elements on closed surfaces whose motion is driven by the surface field."""

__version__ = "0.1.0"
