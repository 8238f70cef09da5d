"""Dual-branch prototype learning for open-set recognition of windowed
multichannel signals."""

__version__ = "0.1.0"
