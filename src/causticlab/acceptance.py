"""The acceptance gate: thirteen criteria with pinned tolerances.

A criterion with a CLI subcommand is a ``CommandRow``: the documented
``causticlab`` commands themselves, so each experiment and its verdict are
defined once, by the CLI runner and the library module it calls.  A row
passes when every command exits 0; its ``details`` are each command's
``summary.json`` without the ``config`` echo, keyed by the command string.
C13 runs its one command twice into the same directory and compares the bytes.

The criteria with no subcommand (C01-C03, C10) are functions that return
a ``CriterionResult`` with the measured quantities in ``details`` and never
raise on a numerical miss (only on programming errors).  ``run_criterion``
dispatches by identifier; the CLI's verify command and the pytest acceptance
module both call it.

Expected catalog constants are written out literally here (independent of the
formulas in ``catalog``), so criterion 1 is a genuine table-vs-formula check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .amplitudes import make_amplitude
from .catalog import (CANONICAL_LABELS, SingularityType, build_phase, caustic_order,
                      quasi_homogeneity_defect, threshold)
from .fold import LEMMA62_REL_TOL, lemma_62_suite
from .oscint import IntegralSpec, evaluate
from .torus import CapQuery, OMEGA_PRESETS, count_in_ball, sphere_cap_count


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


# The bounds of the criteria that are functions (the command rows judge at
# their library's tolerances).
QUASI_HOMOGENEITY_TOL = 1e-12  # C02: the defect is at most this times 1 + |lam phi(x, theta)|
FRESNEL_REL_TOL = 1e-6  # C03: the A1 Fresnel integral against its closed form

# Orders kappa and thresholds delta0, by label: the tabulated constants.
EXPECTED_TABLE = {
    "A1": ("0", "1"),
    "A2": ("1/6", "1/3"),
    "A3": ("1/4", "1/4"),
    "A4": ("3/10", "1/5"),
    "A5": ("1/3", "1/6"),
    "A6": ("5/14", "1/7"),
    "A7": ("3/8", "1/8"),
    "A8": ("7/18", "1/9"),
    "D4-": ("1/3", "1/4"),
    "D4+": ("1/3", "1/3"),
    "D5": ("3/8", "1/5"),
    "D6-": ("2/5", "1/6"),
    "D6+": ("2/5", "1/5"),
    "D7": ("5/12", "1/7"),
    "D8-": ("3/7", "1/8"),
    "D8+": ("3/7", "1/7"),
    "E6": ("5/12", "1/6"),
    "E7": ("4/9", "1/7"),
    "E8": ("7/15", "1/8"),
}


def _box_slabs(reach: int, n: int):
    """Every point of the integer box [-reach, reach]^n, in slabs along the first axis.

    A slab holds whole slices alpha_1 = const, at most 2^16 points or one slice.
    """
    m = 2 * reach + 1
    rest = np.indices((m,) * (n - 1)).reshape(n - 1, m ** (n - 1)).T - reach
    step = max(1, 2**16 // rest.shape[0])
    for a in range(-reach, reach + 1, step):
        lead = np.arange(a, min(a + step, reach + 1))
        yield np.column_stack([np.repeat(lead, rest.shape[0]), np.tile(rest, (lead.size, 1))])


def naive_ball_count(center, radius: float) -> int:
    """Full-box oracle for ball counts (independent of the production path).

    Counts sum (alpha_i - c_i)^2 < radius^2 exactly on the float values: a
    point whose float squared distance lies within 1e-9 (relative) of
    radius^2 is re-decided in Fractions.
    """
    center = np.asarray(center, dtype=float)
    reach = int(math.floor(radius + float(np.max(np.abs(center))) + 1))
    r2, band = radius**2, 1e-9 * (reach + 1) ** 2
    exact_center, exact_r2 = [Fraction(c) for c in center.tolist()], Fraction(radius) ** 2
    count = 0
    for grid in _box_slabs(reach, center.size):
        d2 = np.sum((grid - center[None, :]) ** 2, axis=1)
        near = np.abs(d2 - r2) <= band
        count += int(np.count_nonzero((d2 < r2) & ~near))
        count += sum(sum((a - c) ** 2 for a, c in zip(p, exact_center)) < exact_r2
                     for p in grid[near].tolist())
    return count


def naive_sphere_cap_count(n: int, j: int, omega, width: float) -> int:
    """Full-box oracle for sphere-cap counts."""
    center = math.sqrt(j) * np.asarray(omega, dtype=float)
    count = 0
    for grid in _box_slabs(math.isqrt(j), n):
        pts = grid[np.sum(grid * grid, axis=1) == j].astype(float)
        d = np.sqrt(np.sum((pts - center[None, :]) ** 2, axis=1))
        count += int(np.count_nonzero(d <= width))
    return count


def crit01_catalog_exactness() -> CriterionResult:
    mism = []
    for label, (kap_s, del_s) in EXPECTED_TABLE.items():
        t = SingularityType.parse(label)
        kap, thr = caustic_order(t), threshold(t)
        if kap != Fraction(kap_s) or thr != Fraction(del_s):
            mism.append((label, str(kap), kap_s, str(thr), del_s))
    return CriterionResult("C01", "catalog exactness", not mism,
                           details={"mismatches": mism, "types": len(EXPECTED_TABLE)})


def crit02_quasi_homogeneity() -> CriterionResult:
    rng = np.random.default_rng(12345)
    worst = 0.0
    ok = True
    for label in CANONICAL_LABELS:
        ph = build_phase(SingularityType.parse(label))
        for _ in range(100):
            lam = float(rng.uniform(0.1, 10.0))
            x = tuple(rng.uniform(-1.5, 1.5, ph.k0))
            theta = tuple(rng.uniform(-1.5, 1.5, ph.k))
            defect, ref = quasi_homogeneity_defect(ph, lam, x, theta)
            bound = QUASI_HOMOGENEITY_TOL * (1.0 + abs(ref))
            worst = max(worst, defect / bound)
            ok = ok and defect <= bound
    return CriterionResult("C02", "quasi-homogeneity identity", ok,
                           details={"worst_defect_over_bound": worst})


def crit03_quadrature_oracles() -> CriterionResult:
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-2.5, 2.5, 20)
    eps = np.exp(rng.uniform(math.log(1e-3), 0.0, 20))
    rep = lemma_62_suite(sorted(set(eps), reverse=True), sorted(set(xs)))
    lemma_ok = rep.max_rel_error <= LEMMA62_REL_TOL
    h = 1e-3
    ph = build_phase(SingularityType.parse("A1"))
    res = evaluate(IntegralSpec(ph, make_amplitude("narrow_bump"), (), h, rel_tol=1e-8))
    # h^{-1/2} sqrt(pi h) e^{i pi/4}
    exact = math.sqrt(math.pi) * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    fresnel_err = abs(res.value - exact) / abs(exact)
    ok = lemma_ok and fresnel_err <= FRESNEL_REL_TOL
    return CriterionResult("C03", "quadrature oracles", ok,
                           details={"lemma62_max_rel": rep.max_rel_error,
                                    "fresnel_rel": fresnel_err})


def crit10_torus_exact() -> CriterionResult:
    rng = np.random.default_rng(99)
    ok = True
    checked = 0
    mism = []
    # ball counts vs the naive oracle: (n, draws, center span, largest radius)
    balls = [(tuple(rng.uniform(-span, span, n)), float(rng.uniform(0.5, rmax)))
             for n, draws, span, rmax in ((1, 6, 3, 50.0), (2, 6, 3, 50.0), (3, 6, 3, 25.0),
                                          (4, 4, 2, 10.0))
             for _ in range(draws)]
    # 4D centres in Z^4 or (Z + 1/2)^4 and odd k <= 99 put lattice points on the
    # sphere of radius sqrt(k) (four squares; 4k = 8m + 4 as four odd squares), where
    # the tail table's near entries are re-decided exactly
    balls += [(tuple((rng.integers(-3, 4, 4) + shift).tolist()),
               math.sqrt(2 * int(rng.integers(0, 50)) + 1)) for shift in (0.0, 0.5, 0.0, 0.5)]
    for center, radius in balls:
        a = count_in_ball(center, radius)
        b = naive_ball_count(center, radius)
        checked += 1
        if a != b:
            ok = False
            mism.append(("ball", len(center), center, radius, a, b))
    # sphere caps vs the naive oracle
    sphere_cases = [
        (2, 25, OMEGA_PRESETS["rational"][2], 2.0),
        (2, 325, OMEGA_PRESETS["rational"][2], 6.0),
        (3, 594, OMEGA_PRESETS["rational"][3], 8.0),
        (3, 900, OMEGA_PRESETS["rational"][3], 30.0),
        (4, 729, OMEGA_PRESETS["rational"][4], 12.0),
    ]
    for n, j, om, width in sphere_cases:
        q = CapQuery(omega=om, mu=1.0, j=j, cap_constant=width * j**-0.5)
        a = sphere_cap_count(q)
        b = naive_sphere_cap_count(n, j, om, q.cap_radius)
        checked += 1
        if a != b:
            ok = False
            mism.append(("sphere", n, j, width, a, b))
    return CriterionResult("C10", "torus exact identities", ok,
                           details={"checked": checked, "mismatches": mism})


def _run_command(command: str, out: Path) -> tuple[int, dict]:
    """Run one CLI command into ``out``: its exit status and summary sans config."""
    from .cli import main  # cli imports this module

    # the run's console line names ``out``, which may be a temporary directory
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([*command.split(), "--out", str(out)])
    path = out / "summary.json"
    summary = json.loads(path.read_text()) if path.exists() else {}
    summary.pop("config", None)  # echoes the out directory
    return status, summary


@dataclass(frozen=True)
class CommandRow:
    """A criterion made of CLI commands; it passes when every command exits 0."""

    name: str
    commands: tuple[str, ...]  # each a ``causticlab`` argv, space-separated

    def run(self, cid: str) -> CriterionResult:
        details = {}
        passed = True
        with tempfile.TemporaryDirectory(prefix="causticlab_gate_") as tmp:
            for i, command in enumerate(self.commands):
                status, summary = _run_command(command, Path(tmp) / str(i))
                # a failing command's exit status is kept beside its summary
                details[command] = summary if status == 0 else {"status": status, **summary}
                passed = passed and status == 0
        return CriterionResult(cid, self.name, passed, details=details)


# C13's command: the README-style A2 shell scan, h = 2^-6..2^-10.
DETERMINISM_COMMAND = ("supnorm --type A2 --h-start 0.015625 --h-stop 0.0009765625 "
                       "--h-points 5 --x-strategy omega_shells --points-per-shell 2")


def crit13_determinism(workdir=None) -> CriterionResult:
    """Run C13's command twice into one directory; the reports must not change."""
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="causticlab_det_") as tmp:
            return crit13_determinism(tmp)
    out = Path(workdir) / "repeat"
    digests = []
    statuses = []
    for _ in range(2):
        statuses.append(_run_command(DETERMINISM_COMMAND, out)[0])
        files = sorted(p for p in out.rglob("*") if p.is_file() and p.suffix != ".log")
        digests.append({p.name: p.read_bytes() for p in files})
    same = statuses == [0, 0] and digests[0] == digests[1]
    return CriterionResult("C13", "determinism", same,
                           details={"files": sorted(digests[0]), "statuses": statuses})


ALL_CRITERIA = {
    "C01": crit01_catalog_exactness,
    "C02": crit02_quasi_homogeneity,
    "C03": crit03_quadrature_oracles,
    "C04": CommandRow("A2 order 1/6", ("supnorm --type A2",)),
    "C05": CommandRow("A2 below-threshold stability",
                      ("sweep --type A2 --deltas 0.1,0.2,0.3,0.3333333333333333",)),
    "C06": CommandRow("A3 order 1/4", ("supnorm --type A3",)),
    "C07": CommandRow("D4+- order 1/3 (2D)", ("supnorm --type D4-", "supnorm --type D4+")),
    "C08": CommandRow("E6, E7, E8 orders 5/12, 4/9, 7/15 (2D)",
                      ("supnorm --type E6", "supnorm --type E7", "supnorm --type E8")),
    "C09": CommandRow("fold regime change", ("fold --rel-tol 1e-07",)),
    "C10": crit10_torus_exact,
    "C11": CommandRow("torus scaling laws", (
        "torus --mode ball --n 2 --delta-prime 0.5 --j-min 1024 --j-max 4194304",
        "torus --mode dyadic --n 2 --torus-delta 0.5 --j-min 256 --j-max 65536",
        "torus --mode dyadic --n 2 --torus-delta 0.75 --j-min 256 --j-max 65536",
        "torus --mode dyadic --n 3 --torus-delta 0.5 --j-min 256 --j-max 32768",
        "torus --mode dyadic --n 3 --torus-delta 0.75 --j-min 256 --j-max 32768")),
    "C12": CommandRow("symbol checker calibration",
                      ("symbols", "symbols --amplitude gaussian --delta 0.4")),
    "C13": crit13_determinism,
}


def run_criterion(cid: str) -> CriterionResult:
    check = ALL_CRITERIA[cid]
    return check.run(cid) if isinstance(check, CommandRow) else check()
