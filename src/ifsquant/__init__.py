"""Exact optimal quantization of an infinite nonhomogeneous self-similar
measure on [0, 1], with independent numerical verification oracles."""

__version__ = "0.1.0"
