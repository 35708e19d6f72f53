"""State-dependent quantum copying and its stimulated-emission realization."""

__version__ = "0.1.0"
