"""Helpers shared by the test modules."""


def line_offsets(count):
    """The multiples k of a line's step in result order: 0, 1, -1, ..., count, -count."""
    return [0] + [sign * k for k in range(1, count + 1) for sign in (1, -1)]
