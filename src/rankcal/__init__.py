"""Confidence-ranking calibration toolkit for small multimodal classifiers.

Import the submodules (rankcal.data, rankcal.model, rankcal.trainer, ...) for
the library; importing the package sets glibc's heap thresholds.
"""

import ctypes

# glibc adapts its heap-trim threshold to the blocks freed so far, so whether a
# call handed its temporaries back to the OS and faulted them in again depended on
# the heap layout a process had reached: a third of an exhaustive evaluate's time.
# Fixed thresholds make every call reuse the same pages (README, "Library use").
try:
    _mallopt = ctypes.CDLL(None).mallopt  # glibc; other C libraries keep their own
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD

__version__ = "0.1.0"
