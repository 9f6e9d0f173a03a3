"""Catalog of stable simple caustic normal forms (A/D/E series).

Each type carries a polynomial normal-form phase

    phi(x, theta) = sum_{j<=k0} x_j * f_j(theta) + f(theta)

on R^{k0} x R^k with the minimal number k of phase variables (1 for the
A series, 2 for D and E; the padding quadratic block in the extra phase
variables is omitted because it only contributes a modulus-one Fresnel
constant after the h^{-k/2} normalization).  A type is its family (A, D or
E), its index m and a sign; the index convention and the types that carry
a sign are on ``SingularityType``.  Alongside the phase we store the
quasi-homogeneity weights r (phase variables) and s (base variables), so that

    phi(lam^{1-s} x, lam^r theta) = lam * phi(x, theta)   for all lam > 0.

The caustic order is kappa = k/2 - sum(r_j), and each type has a regularity
threshold delta0.  All of r, s, kappa, delta0 are exact ``fractions.Fraction``
values; floats appear only in evaluators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .polys import ThetaPoly

FAMILIES = ("A", "D", "E")
E_INDICES = (6, 7, 8)


@dataclass(frozen=True)
class SingularityType:
    """Tag for one normal form: family, index m (or 6/7/8 for E), sign variant.

    Index convention: ``index`` is m, so A_{m+1} has index m (A2 <-> m=1) and
    D_{m+1} has index m (D4 <-> m=3).  For the E family the index is 6, 7, 8.
    The sign multiplies the pure power of the last phase variable in f(theta)
    (theta^{m+2} for A, theta_2^m for D, theta_2^4 for E6) and is the label's
    suffix.  A and E6 take either sign (A3-, E6-; + goes unwritten); D with
    odd m (D4, D6, D8) takes either and always writes it (D4+, D4-); D with
    even m, E7 and E8 have the one variant +1.  The sign defaults to +1 for
    every type, so ``SingularityType("D", 3)`` is D4+; only ``parse`` asks a
    D label to write its sign when m is odd.
    """

    family: str
    index: int
    sign: int = +1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.family == "A":
            if self.index < 0:
                raise ValueError("A series needs index m >= 0")
        elif self.family == "D":
            if self.index < 3:
                raise ValueError("D series needs index m >= 3")
            if self.index % 2 == 0 and self.sign != +1:
                raise ValueError(f"D{self.index + 1} (even m) has no sign variant")
        else:
            if self.index not in E_INDICES:
                raise ValueError("E family index must be 6, 7 or 8")
            if self.index in (7, 8) and self.sign != +1:
                raise ValueError(f"E{self.index} has no sign variant")

    @property
    def label(self) -> str:
        num = self.index if self.family == "E" else self.index + 1
        if self.sign < 0:
            return f"{self.family}{num}-"
        # D with odd m writes both signs (D4+, D4-); every other + goes unwritten
        return f"{self.family}{num}" + ("+" if self.family == "D" and self.index % 2 else "")

    @classmethod
    def parse(cls, text: str) -> "SingularityType":
        """Parse labels like 'A2', 'A3-', 'D4+', 'D5', 'E6', 'E6-'."""
        m = re.fullmatch(r"([ADE])(\d+)([+-]?)", text.strip())
        if not m:
            raise ValueError(f"cannot parse singularity label {text!r}")
        fam, num, suffix = m.group(1), int(m.group(2)), m.group(3)
        sign = -1 if suffix == "-" else +1
        if fam == "A":
            return cls("A", num - 1, sign)
        if fam == "D":
            signed = num % 2 == 0  # D4, D6, D8 carry + or -; D5, D7 none
            if signed != bool(suffix):
                raise ValueError(f"D{num} takes {'+ or -' if signed else 'no sign'}, "
                                 f"got {text!r}")
            return cls("D", num - 1, sign)
        return cls("E", num, sign)


@dataclass(frozen=True)
class PhaseFunction:
    """Normal-form phase with evaluators and exact homogeneity data.

    ``r`` holds the quasi-homogeneity weight of each phase variable and ``s``
    that of each active base variable, so k = len(r) and k0 = len(s).
    ``f_terms`` is the x-independent part f(theta); ``fj_monomials[j]`` is the
    single monomial f_{j+1}(theta) multiplying x_{j+1}.
    """

    singularity: SingularityType
    r: tuple[Fraction, ...]
    s: tuple[Fraction, ...]
    f_terms: ThetaPoly
    fj_monomials: tuple[ThetaPoly, ...] = field(default=())

    def __post_init__(self):
        if not all(Fraction(0) < rj <= Fraction(1, 2) for rj in self.r):
            raise ValueError("phase weights r_j must lie in (0, 1/2]")
        if not all(Fraction(0) <= sj < Fraction(1) for sj in self.s):
            raise ValueError("base weights s_j must lie in [0, 1)")

    @property
    def k(self) -> int:
        return len(self.r)

    @property
    def k0(self) -> int:
        return len(self.s)

    def theta_poly(self, x) -> ThetaPoly:
        """Collapse to a polynomial in theta at a fixed base point x."""
        x = tuple(float(v) for v in x)
        if len(x) != self.k0:
            raise ValueError(f"x must have {self.k0} entries, got {len(x)}")
        poly = self.f_terms
        for xj, mono in zip(x, self.fj_monomials):
            if xj != 0.0:
                poly = poly + mono.scale(xj)
        return poly

    def phi(self, x, *theta):
        return self.theta_poly(x)(*theta)


def _monomial(k: int, coeff, *exps) -> ThetaPoly:
    return ThetaPoly.from_terms(k, [(coeff, tuple(exps))])


def build_phase(t: SingularityType) -> PhaseFunction:
    """Construct the normal form for ``t`` with minimal phase dimension."""
    if t.family == "A":
        m = t.index
        k = 1
        f = _monomial(k, t.sign, m + 2)
        fjs = tuple(_monomial(k, 1, j) for j in range(1, m + 1))
        r = (Fraction(1, m + 2),)
    elif t.family == "D":
        m = t.index
        k = 2
        f = ThetaPoly.from_terms(k, [(1.0, (2, 1)), (float(t.sign), (0, m))])
        fjs = (_monomial(k, 1, 1, 0),) + tuple(
            _monomial(k, 1, 0, j) for j in range(1, m))
        r = (Fraction(1, 2) - Fraction(1, 2 * m), Fraction(1, m))
    elif t.index == 6:
        k = 2
        f = ThetaPoly.from_terms(k, [(1.0, (3, 0)), (float(t.sign), (0, 4))])
        fjs = (
            _monomial(k, 1, 1, 0),
            _monomial(k, 1, 0, 1),
            _monomial(k, 1, 0, 2),
            _monomial(k, 1, 1, 1),
            _monomial(k, 1, 1, 2),
        )
        r = (Fraction(1, 3), Fraction(1, 4))
    elif t.index == 7:
        k = 2
        f = ThetaPoly.from_terms(k, [(1.0, (3, 0)), (1.0, (1, 3))])
        fjs = (
            _monomial(k, 1, 1, 0),
            _monomial(k, 1, 0, 1),
            _monomial(k, 1, 0, 2),
            _monomial(k, 1, 0, 3),
            _monomial(k, 1, 0, 4),
            _monomial(k, 1, 1, 1),
        )
        r = (Fraction(1, 3), Fraction(2, 9))
    else:
        k = 2
        f = ThetaPoly.from_terms(k, [(1.0, (3, 0)), (1.0, (0, 5))])
        fjs = (
            _monomial(k, 1, 1, 0),
            _monomial(k, 1, 0, 1),
            _monomial(k, 1, 0, 2),
            _monomial(k, 1, 0, 3),
            _monomial(k, 1, 1, 1),
            _monomial(k, 1, 1, 2),
            _monomial(k, 1, 1, 3),
        )
        r = (Fraction(1, 3), Fraction(1, 5))

    # s_j is the joint weight of the monomial f_j: sum over axes of exponent*r.
    s = tuple(
        sum((Fraction(a) * rj for a, rj in zip(mono.terms[0][1], r)), Fraction(0))
        for mono in fjs
    )
    return PhaseFunction(t, r, s, f, fjs)


def caustic_order(t: SingularityType) -> Fraction:
    """Exact caustic order kappa = k/2 - sum(r_j) with minimal k."""
    ph = build_phase(t)
    return Fraction(ph.k, 2) - sum(ph.r, Fraction(0))


def threshold(t: SingularityType) -> Fraction:
    """Tabulated regularity threshold delta0 for the h^{-kappa} sup-norm law."""
    m = t.index
    if t.family == "A":
        return Fraction(1) if m == 0 else Fraction(1, m + 2)
    if t.family == "D":
        return Fraction(1, m) if m % 2 == 1 and t.sign == +1 else Fraction(1, m + 1)
    return Fraction(1, t.index)


CANONICAL_LABELS = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "D4-", "D4+", "D5", "D6-", "D6+", "D7", "D8-", "D8+",
    "E6", "E7", "E8",
)


def quasi_homogeneity_defect(phase: PhaseFunction, lam, x, theta) -> tuple[float, float]:
    """Return (|phi(lam^{1-s} x, lam^r theta) - lam*phi(x, theta)|, lam*phi(x, theta))."""
    lam = float(lam)
    xs = tuple(lam ** (1.0 - float(sj)) * xj for sj, xj in zip(phase.s, x))
    ts = tuple(lam ** float(rj) * tj for rj, tj in zip(phase.r, theta))
    lhs = float(phase.phi(xs, *ts))
    rhs = lam * float(phase.phi(tuple(x), *theta))
    return abs(lhs - rhs), rhs


def catalog_rows() -> list[dict]:
    """One row per canonical type, for the CLI dump and golden tests."""
    rows = []
    for label in CANONICAL_LABELS:
        t = SingularityType.parse(label)
        ph = build_phase(t)
        rows.append({
            "family": t.family,
            "index": t.index,
            "sign": "+" if t.sign > 0 else "-",
            "label": t.label,
            "k": ph.k,
            "k0": ph.k0,
            "r": ph.r,
            "s": ph.s,
            "kappa": caustic_order(t),
            "delta0": threshold(t),
        })
    return rows
