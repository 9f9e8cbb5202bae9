"""Compact-encoding primitives shared by the succinct index substrates.

This package provides the low-level building blocks the paper's compact
encodings rest on:

* :class:`~repro.succinct.bitvector.BitVector` — an appendable bitvector
  with constant-time ``rank``/``select`` support (block-structured
  directories, as used by LOUDS tries).
* :mod:`~repro.succinct.for_codec` — frame-of-reference (FOR) encoding:
  :func:`~repro.succinct.for_codec.for_encode` builds one
  :class:`~repro.succinct.for_codec.ForBlock` (a base and fixed-width
  bit-packed fields in one ``int``), and
  :class:`~repro.succinct.for_codec.ForRun` is the one FOR-blocked sorted
  run of pairs — the Succinct B+-tree leaf (32-entry blocks) and the
  Dual-Stage static stage (256-entry blocks) — with its read path and
  in-buffer write kernels.
* :mod:`~repro.succinct.lz` — a from-scratch LZ77-style byte compressor
  standing in for LZ4 in the Figure 3 storage experiment.
"""

from repro.succinct.bitvector import BitVector
from repro.succinct.for_codec import ForBlock, ForRun, for_encode
from repro.succinct.lz import lz_compress, lz_decompress

__all__ = [
    "BitVector",
    "ForBlock",
    "ForRun",
    "for_encode",
    "lz_compress",
    "lz_decompress",
]
