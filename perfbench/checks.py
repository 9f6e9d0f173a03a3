"""Correctness checks and failure counts for one pass of CLI outputs.

Every check compares the commands' own files (scan.csv, fold.csv, torus.csv,
summary.json) with oracles that share no code with causticlab:

* A2 rows at x <= 0 against the Airy closed form
  integral chi(t) e^{i(xt + t^3)/h} dt = 2 pi a Ai(x a / h), a = (h/3)^{1/3}
  (DLMF 9.5; exact up to O(h^inf) while the stationary points sit on the
  bump's plateau |t| <= 1), times the scan's h^{-1/2};
* sphere-cap counts, on a seeded sample of j in every dyadic block and at each
  block's best j, and every ball count, against an enumeration whose
  membership decisions are exact: floats decide only points farther than a
  guard band from the boundary, mpmath at 50 digits decides the rest, and
  omega is the exact direction (3/5, 4/5), (sqrt2 - 1, ...), not the float;
* fit references against the literal table of caustic orders and the fold's
  sharp exponent, and verdicts that must pass.

The known shadow-side defect of the A2 shell scan (evaluations that exhaust
their budget, and the inconclusive fit that follows) is not a check failure:
``tally`` counts it as failed operations, which ``ok_ratio`` reports.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import airy

mpmath.mp.dps = 50

# Caustic orders kappa by label (the paper's table, written out here).
CAUSTIC_ORDER = {"A2": Fraction(1, 6), "D4-": Fraction(1, 3), "D4+": Fraction(1, 3),
                 "E6": Fraction(5, 12), "E7": Fraction(4, 9), "E8": Fraction(7, 15)}

# Exact sphere directions of the CLI's "rational" preset (dyadic mode).
SPHERE_OMEGA = {2: (Fraction(3, 5), Fraction(4, 5)),
                3: (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))}


def ball_omega(n: int):
    """The CLI's "diophantine" ball direction, exactly, in mpmath."""
    exact = (mpmath.sqrt(2) - 1, mpmath.sqrt(3) - 1, mpmath.sqrt(5) - 2,
             mpmath.sqrt(7) - 2)
    return exact[:n]


def sharp_exponent(delta: Fraction) -> Fraction:
    """(1 + 3 delta)/6 up to delta = 1/3, (1 + delta)/4 above."""
    return (1 + 3 * delta) / 6 if delta <= Fraction(1, 3) else (1 + delta) / 4


def airy_integral(x: float, h: float) -> float:
    """|integral e^{i(xt + t^3)/h} dt| = 2 pi a |Ai(x a / h)|, a = (h/3)^{1/3}."""
    a = (h / 3.0) ** (1.0 / 3.0)
    return 2.0 * math.pi * a * abs(float(airy(x * a / h)[0]))


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _verdict_problem(where: str, verdict: str, unconverged: int) -> str | None:
    """A fit must pass, unless unconverged evaluations left it inconclusive."""
    if verdict == "pass" or (verdict == "inconclusive" and unconverged > 0):
        return None
    return f"{where}: verdict {verdict} where a pass is expected"


# ---------------------------------------------------------------- lattice oracles

def _inside_cap(j: int, s: Fraction, delta: Fraction) -> bool:
    """|alpha - sqrt(j) omega|^2 <= j^delta for |alpha|^2 = j, s = alpha . omega.

    With |alpha|^2 = j and |omega| = 1 the left side is 2j - 2 sqrt(j) s.
    """
    lhs = 2.0 * j - 2.0 * math.sqrt(j) * float(s)
    rhs = float(j) ** float(delta)
    if abs(lhs - rhs) > 1e-6 * max(1.0, rhs):
        return lhs <= rhs
    lhs_mp = 2 * j - 2 * mpmath.sqrt(j) * mpmath.mpf(s.numerator) / s.denominator
    rhs_mp = mpmath.power(j, mpmath.mpf(delta.numerator) / delta.denominator)
    return lhs_mp - rhs_mp <= mpmath.mpf(10) ** -40


def exact_cap_count(n: int, j: int, delta: Fraction) -> int:
    """#{alpha in Z^n : |alpha|^2 = j, |alpha - sqrt(j) omega| <= j^(delta/2)}."""
    omega = SPHERE_OMEGA[n]
    r = math.isqrt(j)
    count = 0
    if n == 2:
        for a1 in range(-r, r + 1):
            rem = j - a1 * a1
            a2 = math.isqrt(rem)
            if a2 * a2 != rem:
                continue
            for b in {a2, -a2}:
                count += _inside_cap(j, a1 * omega[0] + b * omega[1], delta)
        return count
    for a1 in range(-r, r + 1):
        rem1 = j - a1 * a1
        r2 = math.isqrt(rem1)
        for a2 in range(-r2, r2 + 1):
            rem = rem1 - a2 * a2
            a3 = math.isqrt(rem)
            if a3 * a3 != rem:
                continue
            for b in {a3, -a3}:
                count += _inside_cap(
                    j, a1 * omega[0] + a2 * omega[1] + b * omega[2], delta)
    return count


def _open_interval_count(lo, hi) -> int:
    """Integers strictly between lo and hi (mpmath numbers)."""
    first = mpmath.floor(lo) + 1
    last = mpmath.ceil(hi) - 1
    return max(0, int(last - first) + 1)


def exact_ball_count(center, radius) -> int:
    """#{alpha in Z^n : |alpha - center| < radius}; center and radius in mpmath.

    The last coordinate is counted per column as the integers strictly inside
    (c - w, c + w), w = sqrt(radius^2 - rest).  Columns whose float endpoints
    lie within 1e-9 of an integer, or whose w^2 lies within 1e-9 of 0, are
    recounted in mpmath.
    """
    n = len(center)
    cf = np.array([float(c) for c in center])
    r2 = float(radius) ** 2
    reach = float(radius) + 1.0
    axes = [np.arange(math.floor(c - reach), math.ceil(c + reach) + 1) for c in cf[:-1]]
    total = 0
    for a1 in axes[0]:
        rest = np.array([[float(a1)]]) if n == 2 else np.stack(
            [g.ravel() for g in np.meshgrid(*axes[1:], indexing="ij")], axis=1)
        if n > 2:
            rest = np.concatenate([np.full((rest.shape[0], 1), float(a1)), rest], axis=1)
        w2 = r2 - np.sum((rest - cf[None, :-1]) ** 2, axis=1)
        w = np.sqrt(np.maximum(w2, 0.0))
        lo, hi = cf[-1] - w, cf[-1] + w
        counts = np.where(w2 > 0, np.ceil(hi) - np.floor(lo) - 1, 0.0)
        near = (np.abs(w2) < 1e-9 * max(1.0, r2)) | (
            (w2 > -1e-9) & ((np.abs(lo - np.rint(lo)) < 1e-9)
                            | (np.abs(hi - np.rint(hi)) < 1e-9)))
        total += int(np.sum(np.maximum(counts[~near], 0.0)))
        for row in rest[near]:
            w2_mp = radius**2 - sum((int(a) - c) ** 2 for a, c in zip(row, center[:-1]))
            if w2_mp > 0:
                w_mp = mpmath.sqrt(w2_mp)
                total += _open_interval_count(center[-1] - w_mp, center[-1] + w_mp)
    return total


# ---------------------------------------------------------------- per command

def _supnorm(argv, out: Path, problems: list[str]) -> tuple[int, int]:
    label = _flag(argv, "--type")
    rows = _read_csv(out / "scan.csv")
    summary = json.loads((out / "summary.json").read_text())
    unconverged = sum(r["converged"] != "true" for r in rows)
    verdict = summary["verdict"]
    if Fraction(summary["reference"]) != CAUSTIC_ORDER[label]:
        problems.append(f"{label}: reference {summary['reference']} is not "
                        f"kappa = {CAUSTIC_ORDER[label]}")
    bad = _verdict_problem(f"supnorm {label}", verdict, unconverged)
    if bad:
        problems.append(bad)
    if label == "A2":
        rel_tol = float(_flag(argv, "--rel-tol") or 1e-6)
        for r in rows:
            # A2 has one base variable with weight s = 1/3, so a shell point is
            # x = lambda^(2/3) y with y = +-1, listed as y_index 0 (y = -1)
            # and 1 (y = +1); the origin row has y_index -1.  Rows with y = +1
            # lie on the shadow side, where the closed form is below the
            # cut-off error and is not checked.
            y_index = int(r["y_index"])
            if y_index == 1:
                continue
            h = float(r["h"])
            x = 0.0 if y_index == -1 else -float(r["lambda"]) ** (2.0 / 3.0)
            ref = airy_integral(x, h) / math.sqrt(h)
            if abs(float(r["abs_I"]) - ref) > rel_tol * ref:
                problems.append(f"A2 h={h} x={x}: |I| = {r['abs_I']}, "
                                f"Airy closed form {ref!r}")
    return len(rows) + 1, unconverged + (verdict != "pass")


def _fold(argv, out: Path, problems: list[str]) -> tuple[int, int]:
    rows = _read_csv(out / "fold.csv")
    summary = json.loads((out / "summary.json").read_text())
    rel_tol = float(_flag(argv, "--rel-tol") or 1e-6)
    n_h = int(_flag(argv, "--h-points"))
    failed = 0
    for key, fit in summary["slopes"].items():
        delta = Fraction(float(key)).limit_denominator(1000)
        unconverged_h = n_h - fit["n_rows"]
        failed += unconverged_h + (fit["verdict"] != "pass")
        if Fraction(fit["reference"]) != sharp_exponent(delta):
            problems.append(f"fold delta={key}: reference {fit['reference']} is not "
                            f"{sharp_exponent(delta)}")
        bad = _verdict_problem(f"fold delta={key}", fit["verdict"], unconverged_h)
        if bad:
            problems.append(bad)
    if not 0.28 <= summary["breakpoint"] <= 0.38:
        failed += 1
        problems.append(f"fold breakpoint {summary['breakpoint']} outside [0.28, 0.38]")
    # delta = 0 is the plain fold: the sup over x in {0, +-f 2 h^(2/3)},
    # f = 1/4..1, of the Airy closed form (no h^(-1/2) factor here).
    for r in rows:
        if float(r["delta"]) != 0.0:
            continue
        h = float(r["h"])
        xs = [0.0] + [sgn * f / 4 * 2.0 * h ** (2.0 / 3.0)
                      for f in range(1, 5) for sgn in (1.0, -1.0)]
        ref = max(airy_integral(x, h) for x in xs)
        if abs(float(r["sup_abs"]) - ref) > rel_tol * ref:
            problems.append(f"fold delta=0 h={h}: sup {r['sup_abs']}, Airy {ref!r}")
    return len(rows) + len(summary["slopes"]) + 1, failed


def _torus(argv, out: Path, problems: list[str], rng: random.Random,
           samples: int) -> tuple[int, int]:
    summary = json.loads((out / "summary.json").read_text())
    rows = _read_csv(out / "torus.csv")
    n = int(_flag(argv, "--n"))
    if not summary["ok"]:
        problems.append(f"torus {summary['mode']} n={n}: verdict not ok")
    if summary["mode"] == "ball":
        mu = mpmath.mpf(_flag(argv, "--delta-prime"))
        omega = ball_omega(n)
        for r in rows:
            j = int(r["j"])
            center = [w * mpmath.sqrt(j) for w in omega]
            want = exact_ball_count(center, mpmath.power(j, mu / 2))
            if int(r["count"]) != want:
                problems.append(f"ball n={n} j={j}: count {r['count']}, exact {want}")
    else:
        delta = Fraction(_flag(argv, "--torus-delta"))
        for b in summary["blocks"]:
            want = exact_cap_count(n, b["best_j"], delta)
            if b["best_count"] != want:
                problems.append(f"cap n={n} j={b['best_j']}: best_count "
                                f"{b['best_count']}, exact {want}")
            for j in rng.sample(range(b["J"], 2 * b["J"] + 1), samples):
                got = exact_cap_count(n, j, delta)
                if got > b["best_count"]:
                    problems.append(f"cap n={n} j={j}: exact count {got} exceeds "
                                    f"block {b['J']} best_count {b['best_count']}")
    return len(rows) + 1, int(not summary["ok"])


def check_pass(commands, outdirs, seed: int, samples: int = 6):
    """Check one pass's outputs; returns (problems, attempted, failed) operations."""
    problems: list[str] = []
    attempted = failed = 0
    rng = random.Random(f"oracle:{seed}")
    for argv, out in zip(commands, outdirs):
        try:
            if argv[0] == "supnorm":
                a, f = _supnorm(argv, out, problems)
            elif argv[0] == "fold":
                a, f = _fold(argv, out, problems)
            else:
                a, f = _torus(argv, out, problems, rng, samples)
        except (OSError, KeyError, ValueError) as e:
            problems.append(f"{' '.join(argv[:4])}: unreadable output ({e!r})")
            continue
        attempted += a
        failed += f
    return problems, attempted, failed
