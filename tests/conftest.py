"""Helpers shared by the test modules."""

import tracemalloc


def line_offsets(count):
    """The multiples k of a line's step in result order: 0, 1, -1, ..., count, -count."""
    return [0] + [sign * k for k in range(1, count + 1) for sign in (1, -1)]


def traced_peak(fn) -> int:
    """The peak of the memory tracemalloc traces while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
