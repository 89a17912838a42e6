"""Kernel selection: compiled extension when built, pure Python otherwise.

The hot inner loops (membership scans, colon-prime scans, boundary-matrix
ranks) live behind a tiny interface implemented twice: ``_speedups``
(Cython) and ``_pure`` (plain Python).  The compiled module is preferred at
import time; set ``BITYPE_PURE_KERNELS=1`` to force the fallback, e.g. for
benchmarking or debugging.

Both implementations are kept output-identical, including enumeration
order; ``tests/test_kernels.py`` holds them to that.  The sortability
search always runs on the pure lane: its memoized search over pair-sums
outruns the compiled box scan, which remains only as the reference the
search is tested against on compiled builds.
"""

import os

from . import _pure

if os.environ.get("BITYPE_PURE_KERNELS"):
    _impl = _pure
    COMPILED = False
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]

        COMPILED = True
    except ImportError:
        _impl = _pure
        COMPILED = False


def implementation_name() -> str:
    return "compiled" if COMPILED else "pure"


def make_table(flat, count, width):
    """Generator table with contains / deficit_masks / colon_prime_mask / ass_scan."""
    return _impl.make_table(flat, count, width)


def rank_int_rows(rows) -> int:
    """Exact integer matrix rank; falls back to big ints on overflow."""
    try:
        return _impl.rank_int_rows(rows)
    except OverflowError:
        return _pure.rank_int_rows(rows)


def sortable_box_scan(block_sizes, t, s):
    """First sorting-closure violation among the pair-sums, or None."""
    return _pure.sortable_box_scan(block_sizes, t, s)
