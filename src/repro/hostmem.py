"""Where host arrays live: the one module that decides it.

Two kinds of array, two places:

* **Store-sized arrays** — the feature store, a serving window's layer-0
  input, the serving row memo — live in private anonymous mappings of
  their own (:func:`mapped_rows`).  Their pages return to the OS when the
  array dies, and pages never written are never resident.  In the malloc
  heap, a freed store-sized block would leave a hole that decides where
  later arrays land, and so the process's peak resident memory.
* **Everything else** goes through glibc's malloc, whose two thresholds
  :func:`keep_freed_pages` fixes once, at ``import repro``.  An unfused
  layer (PyG's per-edge ``E x F`` buffers, paper Observation 3) or a
  full-batch epoch frees and reallocates tens of MB of temporaries per
  call.  glibc's default serves those from fresh mappings or trims them
  off the heap top, so every call faults the same pages in again, as
  zeroed 4 KB first touches: 33–36 thousand minor faults per
  ``conv_fullgraph`` perf block.  With both thresholds fixed it takes none.

Freed pages that stay in the heap stay resident, so the heap gives them
back at one point: just before a prefaulted mapping (a dataset build's
feature store, mapped right after the edge list's temporaries die), and
only when they are fewer than the mapping's bytes.  Measured on the perf
workloads (2-core x86-64, glibc 2.36):

* Kept, reddit x2's ~9 MB of dead edge-list temporaries sat resident
  under the new 14.7 MB store, and ``serve_ladder`` peaked 2.3 % higher
  (median 105.7 MB against 103.3).  A trim at the end of the build came
  after the store and still left +1.6 %; this one gives -1.7 % (101.4
  against 103.2 MB, 15 runs a side).
* ``conv_fullgraph`` rebuilds a 0.9 MB store 20 times per set-up sample
  while its last block's 65 MB of temporaries lie free in the heap, kept
  for the next block.  Trimming those made every block fault 5 200 pages
  in again.  Free pages beyond the mapping's size are such a working set,
  so they are left alone.
"""

from __future__ import annotations

import ctypes
import mmap
import os

import numpy as np

#: ``mallopt`` parameter numbers, from glibc's ``malloc.h``.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

#: Requests below this come from the heap, not a mapping of their own.
#: glibc's dynamic default starts at 128 KB and rises only to the size of
#: the last freed mapped chunk, so every first call of a larger size maps,
#: faults and unmaps.  32 MiB is glibc's ceiling on 64-bit (larger values
#: are refused); store-sized arrays stay out of the heap through
#: :func:`mapped_rows`, not through this threshold.
MMAP_THRESHOLD = 32 << 20

#: Free memory at the heap top is returned to the OS only above this.
#: Setting either threshold turns glibc's dynamic heuristic off, and its
#: 128 KB trim default would then hand freed temporaries back at once; a
#: 32 MiB value still returns the pages between one layer's temporaries
#: and the next (20–22 thousand faults per ``conv_fullgraph`` block).
TRIM_THRESHOLD = 128 << 20

#: glibc's own settings for the same decision; any of them wins.
_GLIBC_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

#: The C library this process runs on (the main program's symbols).
_LIBC = ctypes.CDLL(None)


class _MallInfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2`` (2.33 and later)."""

    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _libc(name: str, restype, *argtypes):
    """The typed C function ``name``, or None where the C library lacks
    it (musl has no ``malloc_trim``, macOS no ``mallopt``)."""
    fn = getattr(_LIBC, name, None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


def keep_freed_pages() -> bool:
    """Fix glibc's mmap and trim thresholds, so freed temporaries stay in
    the heap for the next operation.  True when both were applied.

    Does nothing when the environment already sets either threshold or
    any ``glibc.malloc.`` tunable: glibc's own settings take precedence.
    """
    if any(var in os.environ for var in _GLIBC_SETTINGS) or (
            "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    mallopt = _libc("mallopt", ctypes.c_int, ctypes.c_int, ctypes.c_int)
    if mallopt is None:
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def _release_free_pages(below: int) -> None:
    """``malloc_trim(0)`` when the heap's free bytes are fewer than
    ``below`` (and nothing where they cannot be read)."""
    info = _libc("mallinfo2", _MallInfo2)
    trim = _libc("malloc_trim", ctypes.c_int, ctypes.c_size_t)
    if info is not None and trim is not None and info().fordblks < below:
        trim(0)


def mapped_rows(shape: tuple, *, prefault: bool = False) -> np.ndarray:
    """An uninitialised float32 array in a private anonymous mapping.

    Its pages return to the OS when it dies, and unwritten pages are never
    resident.  ``prefault`` maps all pages in one call, for an array
    written whole; the heap first gives back its free pages if they are
    fewer than the array's bytes (see the module docstring).
    """
    nbytes = max(4, 4 * shape[0] * shape[1])
    if prefault:
        _release_free_pages(below=nbytes)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | (
        mmap.MAP_POPULATE if prefault else 0)
    pages = mmap.mmap(-1, nbytes, flags=flags)
    return np.ndarray(shape, np.float32, buffer=pages)
