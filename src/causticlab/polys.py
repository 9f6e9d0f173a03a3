"""Sparse polynomials in one or two variables.

The phase functions in this project are short sums of monomials
c * t1^a1 * t2^a2, so a tuple-of-terms representation is enough.  What the
quadrature engine needs from a phase, beyond pointwise evaluation, is a cheap
per-axis upper bound on |d(phase)/d(axis)| over a box, which a monomial sum
gives for free: bound each term by |c| * |t|^a_axis * max|other|^a_other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Term = tuple[float, tuple[int, ...]]


def _merge(terms: list[Term]) -> tuple[Term, ...]:
    acc: dict[tuple[int, ...], float] = {}
    for c, e in terms:
        acc[e] = acc.get(e, 0.0) + float(c)
    kept = tuple(sorted((c, e) for e, c in acc.items() if c != 0.0))
    return tuple((c, e) for c, e in kept)


@dataclass(frozen=True)
class ThetaPoly:
    """Polynomial sum(c * theta^e) in ``nvars`` variables, exponents >= 0."""

    nvars: int
    terms: tuple[Term, ...]

    @classmethod
    def from_terms(cls, nvars: int, terms) -> "ThetaPoly":
        clean = []
        for c, e in terms:
            e = tuple(int(x) for x in e)
            if len(e) != nvars:
                raise ValueError(f"term exponent {e} does not have {nvars} entries")
            clean.append((float(c), e))
        return cls(nvars, _merge(clean))

    def __add__(self, other: "ThetaPoly") -> "ThetaPoly":
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return ThetaPoly(self.nvars, _merge(list(self.terms) + list(other.terms)))

    def scale(self, factor: float) -> "ThetaPoly":
        return ThetaPoly(self.nvars, _merge([(factor * c, e) for c, e in self.terms]))

    def partial(self, axis: int) -> "ThetaPoly":
        out = []
        for c, e in self.terms:
            a = e[axis]
            if a == 0:
                continue
            de = list(e)
            de[axis] = a - 1
            out.append((c * a, tuple(de)))
        return ThetaPoly(self.nvars, _merge(out))

    def split_axes(self) -> tuple[tuple["ThetaPoly", ...], tuple[int, "ThetaPoly"]]:
        """Univariate part of each axis and the terms that mix variables as (p, G).

        self(t) = sum_i parts[i](t_i) + t_1^p * G(t_2); the constant term stays on
        axis 0.  With no mixed term G is zero and p is 0.  Raises ValueError
        when the mixed terms do not share one t_1 exponent p.
        """
        parts: list[list[Term]] = [[] for _ in range(self.nvars)]
        mixed: list[Term] = []
        for c, e in self.terms:
            active = [j for j, a in enumerate(e) if a > 0]
            if len(active) > 1:
                mixed.append((c, e))
            else:
                axis = active[0] if active else 0
                parts[axis].append((c, (e[axis],)))
        if mixed and (self.nvars != 2 or len({e[0] for _, e in mixed}) > 1):
            raise ValueError("mixed terms must be t1^p * G(t2) with one exponent p")
        p = mixed[0][1][0] if mixed else 0
        g = ThetaPoly(1, _merge([(c, (e[1],)) for c, e in mixed]))
        return tuple(ThetaPoly(1, _merge(part)) for part in parts), (p, g)

    def __call__(self, *coords):
        coords = [np.asarray(c, dtype=float) for c in coords]
        if len(coords) != self.nvars:
            raise ValueError("wrong number of coordinate arrays")
        total = np.zeros(np.broadcast_shapes(*(x.shape for x in coords)))
        if self.nvars == 1:  # Horner, skipping the zero coefficients
            coef = {a: c for c, (a,) in self.terms}
            for a in range(max(coef, default=0), -1, -1):
                total *= coords[0]
                if a in coef:
                    total += coef[a]
            return total
        for c, e in self.terms:
            total += c * math.prod(x**a for x, a in zip(coords, e))
        return total

    def eval_outer(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """Evaluate on the tensor grid t1 x t2 (2-variable polynomials only).

        The engine no longer calls it; perfbench/tracer.py wraps it by name."""
        if self.nvars != 2:
            raise ValueError("eval_outer needs a 2-variable polynomial")
        out = np.zeros((t1.size, t2.size))
        for c, (a1, a2) in self.terms:
            out += np.outer(c * t1**a1, t2**a2)
        return out

    def abs_bound_profile(self, axis: int, box, t: np.ndarray) -> np.ndarray:
        """Pointwise-in-t upper bound for |p| maximized over the other axes of ``box``.

        ``box`` is a sequence of (lo, hi) per variable; entry ``axis`` is ignored.
        """
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        for c, e in self.terms:
            term = abs(c) * t ** e[axis]
            for j, a in enumerate(e):
                if j == axis or a == 0:
                    continue
                lo, hi = box[j]
                term = term * max(abs(lo), abs(hi)) ** a
            out += term
        return out
