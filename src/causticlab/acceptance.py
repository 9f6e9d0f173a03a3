"""The acceptance gate: thirteen checks with pinned tolerances.

Each criterion function is self-contained, returns a ``CriterionResult`` with
the measured quantities in ``details``, and never raises on a numerical miss
(only on programming errors).  ``run_criterion`` dispatches by identifier;
the CLI's verify command and the pytest acceptance module both call these.

Expected catalog constants are written out literally here (independent of the
formulas in ``catalog``), so criterion 1 is a genuine table-vs-formula check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .amplitudes import SYMBOL_ORDER_TOLERANCE, check_symbol_order, make_amplitude
from .catalog import (CANONICAL_LABELS, SingularityType, build_phase, caustic_order,
                      quasi_homogeneity_defect, threshold)
from .fold import LEMMA62_REL_TOL, fold_curve, lemma_62_suite
from .oscint import IntegralSpec, evaluate
from .scaling import (DEFAULT_H_RANGE, ScanPlan, fit_exponent, geometric_grid,
                      order_tolerance, supnorm_scan, threshold_sweep)
from .torus import (BALL_EXPONENT_TOLERANCE, CapQuery, OMEGA_PRESETS, ball_count,
                    count_in_ball, dyadic_exponent, dyadic_lower_bound_search,
                    eval_sum, extremizer, ratio_exponent, sphere_cap_count,
                    sphere_window)

GRID_1D = geometric_grid(*DEFAULT_H_RANGE[1], 10)
GRID_2D = geometric_grid(*DEFAULT_H_RANGE[2], 10)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    skipped: bool = False
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")


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


def naive_ball_count(center, radius: float, strict: bool = True) -> int:
    """Full-box oracle for ball counts (independent of the production path)."""
    center = np.asarray(center, dtype=float)
    n = center.size
    reach = int(math.floor(radius + float(np.max(np.abs(center))) + 1))
    axes = [np.arange(-reach, reach + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    d2 = np.sum((grid - center[None, :]) ** 2, axis=1)
    return int(np.count_nonzero(d2 < radius**2 if strict else d2 <= radius**2))


def naive_sphere_cap_count(n: int, j: int, omega, width: float) -> int:
    """Full-box oracle for sphere-cap counts."""
    rad = math.isqrt(j)
    axes = [np.arange(-rad, rad + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    on_sphere = np.sum(grid * grid, axis=1) == j
    pts = grid[on_sphere].astype(float)
    center = math.sqrt(j) * np.asarray(omega, dtype=float)
    d = np.sqrt(np.sum((pts - center[None, :]) ** 2, axis=1))
    return int(np.count_nonzero(d <= width))


def crit01_catalog_exactness() -> CriterionResult:
    mism = []
    for label, (kap_s, del_s) in EXPECTED_TABLE.items():
        t = SingularityType.parse(label)
        kap, thr = caustic_order(t), threshold(t)
        want_k = Fraction(*(map(int, kap_s.split("/")) if "/" in kap_s else (int(kap_s),)))
        want_d = Fraction(*(map(int, del_s.split("/")) if "/" in del_s else (int(del_s),)))
        if kap != want_k or thr != want_d:
            mism.append((label, str(kap), kap_s, str(thr), del_s))
    return CriterionResult("C01", "catalog exactness", not mism,
                           details={"mismatches": mism, "types": len(EXPECTED_TABLE)})


def crit02_quasi_homogeneity(samples: int = 100, seed: int = 12345) -> CriterionResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for label in CANONICAL_LABELS:
        ph = build_phase(SingularityType.parse(label))
        for _ in range(samples):
            lam = float(rng.uniform(0.1, 10.0))
            x = tuple(rng.uniform(-1.5, 1.5, ph.k0))
            theta = tuple(rng.uniform(-1.5, 1.5, ph.k))
            defect, ref = quasi_homogeneity_defect(ph, lam, x, theta)
            bound = 1e-12 * (1.0 + abs(ref))
            worst = max(worst, defect / bound)
            ok = ok and defect <= bound
    return CriterionResult("C02", "quasi-homogeneity identity", ok,
                           details={"worst_defect_over_bound": worst})


def crit03_quadrature_oracles(seed: int = 2024) -> CriterionResult:
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.5, 2.5, 20)
    eps = np.exp(rng.uniform(math.log(1e-3), 0.0, 20))
    rep = lemma_62_suite(sorted(set(eps), reverse=True), sorted(set(xs)))
    lemma_ok = rep.max_rel_error <= LEMMA62_REL_TOL
    h = 1e-3
    ph = build_phase(SingularityType.parse("A1"))
    res = evaluate(IntegralSpec(ph, make_amplitude("fixed_bump"), (), h,
                                rel_tol=1e-8, includes_prefactor=False))
    exact = math.sqrt(math.pi * h) * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    fresnel_err = abs(res.value - exact) / abs(exact)
    ok = lemma_ok and fresnel_err <= 1e-6
    return CriterionResult("C03", "quadrature oracles", ok,
                           details={"lemma62_max_rel": rep.max_rel_error,
                                    "fresnel_rel": fresnel_err})


def _origin_scan(label: str, grid):
    ph = build_phase(SingularityType.parse(label))
    amp = make_amplitude("fixed_bump", dim=ph.k)
    return ph, supnorm_scan(ScanPlan(ph, amp, tuple(grid), rel_tol=1e-6)).sup_rows


def _order_fit(label: str, grid, tolerance: float | None = None) -> dict:
    ph, sup_rows = _origin_scan(label, grid)
    if tolerance is None:
        tolerance = order_tolerance("supnorm", ph)
    fit = fit_exponent(sup_rows, caustic_order(ph.singularity), tolerance)
    return {"label": label, "slope": fit.slope, "reference": float(fit.reference),
            "r_squared": fit.r_squared, "verdict": fit.verdict}


def crit04_a2_order() -> CriterionResult:
    d = _order_fit("A2", GRID_1D)
    return CriterionResult("C04", "A2 order 1/6", d["verdict"] == "pass", details=d)


def crit05_a2_below_threshold() -> CriterionResult:
    entries = threshold_sweep(SingularityType.parse("A2"),
                              [0.1, 0.2, 0.3, 1.0 / 3.0], GRID_1D)
    details = {f"delta_{e.delta:.4f}": {"slope": e.fit.slope, "verdict": e.fit.verdict}
               for e in entries}
    ok = all(e.fit.verdict == "pass" for e in entries)
    return CriterionResult("C05", "A2 below-threshold stability", ok, details=details)


def crit06_a3_order() -> CriterionResult:
    d = _order_fit("A3", GRID_1D, 0.04)  # pinned, looser than ORDER_TOLERANCE's 0.03
    return CriterionResult("C06", "A3 order 1/4", d["verdict"] == "pass", details=d)


def crit07_d4_orders(quick: bool = False) -> CriterionResult:
    if quick:
        return CriterionResult("C07", "D4+- order 1/3 (2D)", False, skipped=True)
    det = {}
    ok = True
    for label in ("D4-", "D4+"):
        d = _order_fit(label, GRID_2D)
        det[label] = d
        ok = ok and d["verdict"] == "pass"
    return CriterionResult("C07", "D4+- order 1/3 (2D)", ok, details=det)


def crit08_e_series_boundedness(quick: bool = False) -> CriterionResult:
    if quick:
        return CriterionResult("C08", "E-series boundedness", False, skipped=True)
    det = {}
    ok = True
    for label in ("E6", "E7", "E8"):
        ph, sup_rows = _origin_scan(label, GRID_2D)
        kap = float(caustic_order(ph.singularity))
        vals = [r.sup_abs * r.h**kap for r in sup_rows]
        spread = max(vals) / min(vals)
        det[label] = {"normalized_values": vals, "spread": spread}
        ok = ok and spread <= 3.0
    return CriterionResult("C08", "E-series boundedness", ok, details=det)


def crit09_fold_regime() -> CriterionResult:
    curve = fold_curve()
    det = {
        "slopes": {f"{r.experiment.delta:.4f}": r.fit.slope for r in curve.runs},
        "max_slope_error": curve.max_slope_error,
        "breakpoint": curve.breakpoint,
    }
    return CriterionResult("C09", "fold regime change", curve.passed, details=det)


def crit10_torus_exact(seed: int = 99) -> CriterionResult:
    rng = np.random.default_rng(seed)
    ok = True
    checked = 0
    mism = []
    # ball counts vs the naive oracle: (n, draws, center span, largest radius)
    for n, draws, span, rmax in ((1, 6, 3, 50.0), (2, 6, 3, 50.0), (3, 6, 3, 25.0),
                                 (4, 4, 2, 10.0)):
        for _ in range(draws):
            center = tuple(rng.uniform(-span, span, n))
            radius = float(rng.uniform(0.5, rmax))
            a = count_in_ball(center, radius)
            b = naive_ball_count(center, radius)
            checked += 1
            if a != b:
                ok = False
                mism.append(("ball", n, center, radius, a, b))
    # sphere caps vs the naive oracle
    sphere_cases = [
        (2, 25, OMEGA_PRESETS["rational"][2], 2.0),
        (2, 325, OMEGA_PRESETS["rational"][2], 6.0),
        (3, 594, OMEGA_PRESETS["rational"][3], 8.0),
        (3, 900, OMEGA_PRESETS["rational"][3], 30.0),
        (4, 729, OMEGA_PRESETS["rational"][4], 12.0),
    ]
    for n, j, om, width in sphere_cases:
        q = CapQuery(n=n, omega=om, mu=1.0, j=j, cap_constant=width * j**-0.5)
        a = sphere_cap_count(q)
        b = naive_sphere_cap_count(n, j, om, q.cap_radius)
        checked += 1
        if a != b:
            ok = False
            mism.append(("sphere", n, j, width, a, b))
    # extremizer ratio = sqrt(count) at x = 0
    q = CapQuery(n=2, omega=OMEGA_PRESETS["rational"][2], mu=1.0, j=325,
                 cap_constant=10.0 * 325**-0.5)
    count = sphere_cap_count(q)
    ext = extremizer(q)
    ratio = abs(eval_sum(ext, (0.0, 0.0))) / ext.l2_norm
    ratio_err = abs(ratio - math.sqrt(count))
    ok = ok and ratio_err <= 1e-9
    return CriterionResult("C10", "torus exact identities", ok,
                           details={"checked": checked, "mismatches": mism,
                                    "ratio_error": ratio_err})


def crit11_torus_scaling() -> CriterionResult:
    det = {}
    # (a) n=2 ball-mode ratio exponent = n*delta'/2 = 0.5
    om2 = OMEGA_PRESETS["diophantine"][2]
    js = [2**k for k in range(10, 23, 2)]
    slope_ball = ratio_exponent(
        js, [ball_count(CapQuery(n=2, omega=om2, mu=0.5, j=j)) for j in js])
    det["ball_mode_slope"] = slope_ball
    ok = abs(slope_ball - 0.5) <= BALL_EXPONENT_TOLERANCE
    # (b) sphere-mode eigenfunction ratio exponent below sphere_window's upper end
    for n in (2, 3):
        for delta in (0.5, 0.75):
            slope = dyadic_exponent(dyadic_lower_bound_search(
                n, delta, (2**8, 2**15 if n == 3 else 2**16)))
            if slope is None:
                det[f"sphere_n{n}_d{delta}"] = "insufficient blocks"
                ok = False
                continue
            lower, upper = sphere_window(n, delta)
            det[f"sphere_n{n}_d{delta}"] = {"slope": slope, "bound": upper}
            ok = ok and slope <= upper
            # (c) for n=3, delta=0.5 the dyadic search also reaches the lower end
            if (n, delta) == (3, 0.5):
                det["dyadic_lower_bound"] = {"slope": slope, "must_exceed": lower}
                ok = ok and slope >= lower
    return CriterionResult("C11", "torus scaling laws", ok, details=det)


def crit12_symbol_calibration() -> CriterionResult:
    hs = geometric_grid(2.0**-4, 2.0**-11, 8)
    det = {}
    fixed = make_amplitude("fixed_bump")
    rows = check_symbol_order(fixed, hs, alpha_max=3)
    det["fixed_bump"] = {f"alpha_{r.alpha}": r.fitted_order for r in rows}
    ok = all(abs(r.fitted_order - 0.0) <= SYMBOL_ORDER_TOLERANCE for r in rows)
    gauss = make_amplitude("gaussian", 0.4)
    g0 = check_symbol_order(gauss, hs, alpha_max=0)[0]
    det["gaussian_alpha0"] = {"fitted": g0.fitted_order, "expected": 0.2}
    ok = ok and abs(g0.fitted_order - 0.2) <= SYMBOL_ORDER_TOLERANCE
    return CriterionResult("C12", "symbol checker calibration", ok, details=det)


def crit13_determinism(workdir=None) -> CriterionResult:
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from .cli import RunConfig, run

    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="causticlab_det_") as tmp:
            return crit13_determinism(tmp)
    out = Path(workdir) / "repeat"
    cfg = RunConfig(experiment="supnorm", singularity="A2", amplitude="fixed_bump",
                    h_start=2.0**-6, h_stop=2.0**-10, h_points=5,
                    x_strategy="omega_shells", points_per_shell=2,
                    out_dir=str(out))
    digests = []
    statuses = []
    for tag in ("first", "second"):
        # the runs' console lines would name a directory that may be deleted
        with contextlib.redirect_stdout(io.StringIO()):
            status = run(cfg)
        statuses.append(status)
        if status == 2:
            return CriterionResult("C13", "determinism", False,
                                   details={"run_status": status, "tag": tag})
        files = sorted(p for p in out.rglob("*") if p.is_file() and p.suffix != ".log")
        digests.append({p.name: p.read_bytes() for p in files})
    same = (statuses == [0, 0]
            and digests[0].keys() == digests[1].keys()
            and all(digests[0][k] == digests[1][k] for k in digests[0]))
    return CriterionResult("C13", "determinism", same,
                           details={"files": sorted(digests[0].keys()),
                                    "statuses": statuses})


ALL_CRITERIA = {
    "C01": crit01_catalog_exactness,
    "C02": crit02_quasi_homogeneity,
    "C03": crit03_quadrature_oracles,
    "C04": crit04_a2_order,
    "C05": crit05_a2_below_threshold,
    "C06": crit06_a3_order,
    "C07": crit07_d4_orders,
    "C08": crit08_e_series_boundedness,
    "C09": crit09_fold_regime,
    "C10": crit10_torus_exact,
    "C11": crit11_torus_scaling,
    "C12": crit12_symbol_calibration,
    "C13": crit13_determinism,
}


def run_criterion(cid: str, quick: bool = False) -> CriterionResult:
    fn = ALL_CRITERIA[cid]
    if cid in ("C07", "C08"):
        return fn(quick=quick)
    return fn()
