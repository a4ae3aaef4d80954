from __future__ import annotations

import platform

import numpy as np
import pytest

import rankcal  # noqa: F401  (importing the package sets the heap thresholds)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings need glibc")
def test_freed_heap_is_reused_without_page_faults():
    resource = pytest.importorskip("resource")

    def churn():
        blocks = [np.ones(3 << 17) for _ in range(3)]  # 3 MB each: below the 4 MB mmap threshold
        del blocks

    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        churn()
    # glibc's adaptive default hands the freed 9 MB back: ~1,600 faults a round.
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
