"""Experiment runner: validated configs in, CSV data + JSON summaries out.

Subcommands: catalog, symbols, supnorm, sweep, torus, fold, lemma62, verify.
A config file (--config, JSON) provides defaults; command-line flags win.
Exit status: 0 all expected-pass fits pass, 1 computational failure or
inconclusive fits, 2 invalid configuration.

Reports are byte-stable: identical config and seed give identical CSV/JSON
bytes regardless of worker count.  Wall time is printed to stdout and written
to a sidecar .log file, never into the summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import acceptance
from .amplitudes import check_symbol_order, make_amplitude
from .catalog import SingularityType, build_phase, catalog_rows, caustic_order, threshold
from .fold import DEFAULT_FOLD_H_GRID, fold_curve, lemma_62_suite
from .reports import fmt_fraction, write_csv, write_json
from .scaling import (ScanPlan, fit_exponent, geometric_grid, supnorm_scan,
                      threshold_sweep)
from .torus import CapQuery, OMEGA_PRESETS, ball_count, dyadic_lower_bound_search

EXPERIMENTS = ("catalog_dump", "symbol_check", "supnorm", "threshold_sweep",
               "torus", "fold", "lemma62", "verify")

_SUBCOMMANDS = {
    "catalog": "catalog_dump",
    "symbols": "symbol_check",
    "supnorm": "supnorm",
    "sweep": "threshold_sweep",
    "torus": "torus",
    "fold": "fold",
    "lemma62": "lemma62",
    "verify": "verify",
}


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")
        self.fieldname = fieldname


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "supnorm"
    singularity: str = "A2"
    amplitude: str = "fixed_bump"
    delta: float = 0.0
    deltas: tuple[float, ...] = ()
    width_exponent: float | None = None
    center: float = 0.0
    h_start: float | None = None
    h_stop: float | None = None
    h_points: int = 10
    x_strategy: str = "origin_only"
    shell_lambda_count: int = 8
    points_per_shell: int = 1
    rel_tol: float = 1e-6
    tolerance: float | None = None
    eval_budget: int | None = None
    torus_n: int = 2
    torus_mode: str = "dyadic"  # ball | sphere | dyadic
    torus_delta: float = 0.5
    torus_delta_prime: float | None = None
    omega: str = "auto"
    j_min: int = 256
    j_max: int = 65536
    cap_constant: float = 1.0
    out_dir: str = "out"
    workers: int = 1
    seed: int = 0
    quick: bool = False

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["deltas"] = list(self.deltas)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        if "deltas" in data and data["deltas"] is not None:
            data = dict(data)
            data["deltas"] = tuple(float(v) for v in data["deltas"])
        return cls(**data)


def validate(cfg: RunConfig) -> None:
    """Raise ConfigError pointing at the first offending field."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}")
    try:
        SingularityType.parse(cfg.singularity)
    except ValueError as e:
        raise ConfigError("singularity", str(e)) from None
    if not 0.0 <= cfg.delta <= 1.0:
        raise ConfigError("delta", f"must lie in [0, 1], got {cfg.delta}")
    for d in cfg.deltas:
        if not 0.0 <= d <= 1.0:
            raise ConfigError("deltas", f"entry {d} outside [0, 1]")
    if cfg.h_start is not None and not 0.0 < cfg.h_start < 1.0:
        raise ConfigError("h_start", "must lie in (0, 1)")
    if cfg.h_stop is not None and not 0.0 < cfg.h_stop < 1.0:
        raise ConfigError("h_stop", "must lie in (0, 1)")
    if cfg.h_start is not None and cfg.h_stop is not None and cfg.h_stop >= cfg.h_start:
        raise ConfigError("h_stop", "must be smaller than h_start")
    if cfg.h_points < 5:
        raise ConfigError("h_points", "need at least 5 grid points")
    if cfg.x_strategy not in ("origin_only", "omega_shells", "full_grid"):
        raise ConfigError("x_strategy", f"unknown strategy {cfg.x_strategy!r}")
    if cfg.points_per_shell < 1:
        raise ConfigError("points_per_shell", "must be >= 1")
    if not 1e-10 <= cfg.rel_tol <= 1e-3:
        raise ConfigError("rel_tol", "must lie in [1e-10, 1e-3]")
    if not 1 <= cfg.torus_n <= 4:
        raise ConfigError("torus_n", "must be between 1 and 4")
    if cfg.torus_mode not in ("ball", "sphere", "dyadic"):
        raise ConfigError("torus_mode", "must be ball, sphere or dyadic")
    if not 0.0 < cfg.torus_delta <= 1.0:
        raise ConfigError("torus_delta", "must lie in (0, 1]")
    if cfg.j_min < 1 or cfg.j_max < cfg.j_min:
        raise ConfigError("j_max", "need 1 <= j_min <= j_max")
    if cfg.workers < 1:
        raise ConfigError("workers", "must be >= 1")


def _h_grid(cfg: RunConfig, k: int) -> tuple[float, ...]:
    start = cfg.h_start if cfg.h_start is not None else (2.0**-6 if k == 1 else 2.0**-4)
    stop = cfg.h_stop if cfg.h_stop is not None else (2.0**-14 if k == 1 else 2.0**-10)
    return geometric_grid(start, stop, cfg.h_points)


def _omega(cfg: RunConfig, mode: str) -> tuple[float, ...]:
    if cfg.omega == "auto":
        preset = "diophantine" if mode == "ball" else "rational"
        return OMEGA_PRESETS[preset][cfg.torus_n]
    if cfg.omega in OMEGA_PRESETS:
        return OMEGA_PRESETS[cfg.omega][cfg.torus_n]
    try:
        parts = [Fraction(tok) for tok in cfg.omega.split(",")]
    except ValueError:
        raise ConfigError("omega", f"cannot parse {cfg.omega!r}") from None
    if len(parts) != cfg.torus_n:
        raise ConfigError("omega", f"needs {cfg.torus_n} components")
    return tuple(float(p) for p in parts)


def _run_catalog(cfg: RunConfig, out: Path) -> int:
    rows = []
    for row in catalog_rows():
        rows.append([
            row["family"], row["index"], row["sign"], row["k"], row["k0"],
            ";".join(fmt_fraction(v) for v in row["r"]),
            ";".join(fmt_fraction(v) for v in row["s"]),
            fmt_fraction(row["kappa"]), fmt_fraction(row["delta0"]),
        ])
    write_csv(out / "catalog.csv",
              ["family", "index", "sign", "k", "k0", "r", "s", "kappa", "delta0"],
              rows)
    write_json(out / "summary.json", {
        "experiment": "catalog_dump", "config": cfg.as_dict(),
        "types": [row["label"] for row in catalog_rows()],
    })
    return 0


def _amplitude(cfg: RunConfig, dim: int = 1):
    kwargs = {"center": (cfg.center,) * dim, "dim": dim}
    if cfg.width_exponent is not None:
        kwargs["width_exponent"] = cfg.width_exponent
    return make_amplitude(cfg.amplitude, cfg.delta, **kwargs)


def _run_symbols(cfg: RunConfig, out: Path) -> int:
    hs = geometric_grid(2.0**-4, 2.0**-11, max(6, cfg.h_points - 2))
    profile = _amplitude(cfg)
    rows = check_symbol_order(profile, hs, alpha_max=3)
    write_csv(out / "symbols.csv",
              ["alpha", "fitted_order", "expected_order", "residual", "n_points"],
              [[r.alpha, r.fitted_order, r.expected_order, r.residual, r.n_points]
               for r in rows])
    worst = max(abs(r.fitted_order - r.expected_order) for r in rows)
    write_json(out / "summary.json", {
        "experiment": "symbol_check", "config": cfg.as_dict(),
        "kind": cfg.amplitude, "delta": cfg.delta,
        "worst_order_error": worst, "ok": worst <= 0.05,
    })
    return 0 if worst <= 0.05 else 1


def _scan_csv_rows(result):
    return [[r.h, r.lam, r.y_index, r.abs_value, r.est_error, r.converged]
            for r in result.rows]


def _fit_payload(fit) -> dict:
    return {
        "slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared,
        "reference": fmt_fraction(fit.reference),
        "reference_float": float(fit.reference),
        "tolerance": fit.tolerance, "verdict": fit.verdict, "n_rows": fit.n_rows,
    }


def _run_supnorm(cfg: RunConfig, out: Path) -> int:
    t = SingularityType.parse(cfg.singularity)
    ph = build_phase(t)
    amp = _amplitude(cfg, dim=ph.k)
    plan = ScanPlan(ph, amp, _h_grid(cfg, ph.k), x_strategy=cfg.x_strategy,
                    shell_lambda_count=cfg.shell_lambda_count,
                    points_per_shell=cfg.points_per_shell, rel_tol=cfg.rel_tol,
                    eval_budget=cfg.eval_budget, workers=cfg.workers)
    result = supnorm_scan(plan)
    if cfg.tolerance is not None:
        tol = cfg.tolerance
    elif t.family == "E":
        tol = 0.10
    else:
        tol = 0.03 if ph.k == 1 else 0.06
    fit = fit_exponent(result.sup_rows, caustic_order(t), tol)
    write_csv(out / "scan.csv",
              ["h", "lambda", "y_index", "abs_I", "est_error", "converged"],
              _scan_csv_rows(result))
    write_json(out / "summary.json", {
        "experiment": "supnorm", "config": cfg.as_dict(),
        "type": t.label, "delta": cfg.delta, "fit": _fit_payload(fit),
        "slope": fit.slope, "r_squared": fit.r_squared,
        "reference": fmt_fraction(fit.reference), "verdict": fit.verdict,
        "cost": result.cost,
    })
    return 0 if fit.verdict == "pass" else 1


def _run_sweep(cfg: RunConfig, out: Path) -> int:
    t = SingularityType.parse(cfg.singularity)
    ph = build_phase(t)
    deltas = cfg.deltas or (0.0, 0.1, 0.2, float(threshold(t)))
    tol = cfg.tolerance if cfg.tolerance is not None else (0.05 if ph.k == 1 else 0.06)
    entries = threshold_sweep(t, deltas, _h_grid(cfg, ph.k), tolerance=tol,
                              rel_tol=cfg.rel_tol, x_strategy=cfg.x_strategy,
                              eval_budget=cfg.eval_budget, workers=cfg.workers)
    write_csv(out / "sweep.csv",
              ["delta", "slope", "r_squared", "reference", "verdict", "exploratory"],
              [[e.delta, e.fit.slope, e.fit.r_squared, fmt_fraction(e.fit.reference),
                e.fit.verdict, e.exploratory] for e in entries])
    write_json(out / "summary.json", {
        "experiment": "threshold_sweep", "config": cfg.as_dict(), "type": t.label,
        "entries": [{"delta": e.delta, "exploratory": e.exploratory,
                     "fit": _fit_payload(e.fit)} for e in entries],
    })
    expected = [e for e in entries if not e.exploratory]
    return 0 if all(e.fit.verdict == "pass" for e in expected) else 1


def _run_torus(cfg: RunConfig, out: Path) -> int:
    n = cfg.torus_n
    rows = []
    summary: dict = {"experiment": "torus", "config": cfg.as_dict(), "n": n,
                     "mode": cfg.torus_mode}
    if cfg.torus_mode == "ball":
        om = _omega(cfg, "ball")
        dprime = cfg.torus_delta_prime if cfg.torus_delta_prime is not None \
            else cfg.torus_delta + 0.05
        js = [j for j in (2**k for k in range(1, 40))
              if cfg.j_min <= j <= cfg.j_max]
        if len(js) < 3:
            raise ConfigError("j_max", "range too narrow for a fit")
        counts = [ball_count(CapQuery(n=n, omega=om, mu=dprime, j=j,
                                      cap_constant=cfg.cap_constant)) for j in js]
        for j, c in zip(js, counts):
            rows.append([j, j**-0.5, c, math.sqrt(c) if c else 0.0, -1])
        good = [(j, c) for j, c in zip(js, counts) if c > 0]
        slope = float(np.polyfit(np.log([j**0.5 for j, _ in good]),
                                 np.log([math.sqrt(c) for _, c in good]), 1)[0])
        summary["delta_prime"] = dprime
        summary["ratio_exponent"] = slope
        summary["reference"] = n * dprime / 2
        ok = abs(slope - n * dprime / 2) <= 0.05
    else:
        om = _omega(cfg, "sphere")
        blocks = dyadic_lower_bound_search(n, cfg.torus_delta, (cfg.j_min, cfg.j_max),
                                           omega=om, cap_constant=cfg.cap_constant)
        for b in blocks:
            rows.append([b.best_j, b.best_j**-0.5, b.best_count,
                         math.sqrt(b.best_count) if b.best_count else 0.0, b.J])
        summary["blocks"] = [{
            "J": b.J, "best_j": b.best_j, "best_count": b.best_count,
            "block_sum": b.block_sum, "volume": b.volume,
            "represented": b.represented} for b in blocks]
        sel = [(b.best_j, b.best_count) for b in blocks if b.best_count > 0]
        ok = len(sel) >= 4
        if ok:
            slope = float(np.polyfit(np.log([j**0.5 for j, _ in sel]),
                                     np.log([math.sqrt(m) for _, m in sel]), 1)[0])
            summary["ratio_exponent"] = slope
            upper = (n - 1) * cfg.torus_delta / 2 + 0.1
            lower = (n - 1) * cfg.torus_delta / 2 - 0.5 - 0.15
            summary["upper_bound"] = upper
            summary["lower_bound"] = lower
            ok = lower <= slope <= upper
    write_csv(out / "torus.csv", ["j", "h", "count", "ratio", "block_id"], rows)
    summary["ok"] = ok
    write_json(out / "summary.json", summary)
    return 0 if ok else 1


def _run_fold(cfg: RunConfig, out: Path) -> int:
    deltas = cfg.deltas or (0.0, 0.1, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0)
    h_grid = DEFAULT_FOLD_H_GRID if cfg.h_start is None \
        else geometric_grid(cfg.h_start, cfg.h_stop or 2.0**-18, cfg.h_points)
    tol = cfg.tolerance if cfg.tolerance is not None else 0.04
    curve = fold_curve(deltas, h_grid, rel_tol=max(cfg.rel_tol, 1e-9),
                       tolerance=tol, eval_budget=cfg.eval_budget)
    rows = [[r.delta, r.h, r.sup_abs, r.l2, r.ratio]
            for run in curve.runs for r in run.rows]
    write_csv(out / "fold.csv", ["delta", "h", "sup_abs", "l2", "ratio"], rows)
    write_json(out / "summary.json", {
        "experiment": "fold", "config": cfg.as_dict(),
        "slopes": {f"{r.experiment.delta:.6g}": _fit_payload(r.fit) for r in curve.runs},
        "breakpoint": curve.breakpoint,
        "max_slope_error": curve.max_slope_error,
    })
    ok = curve.max_slope_error <= tol and 0.28 <= curve.breakpoint <= 0.38
    return 0 if ok else 1


def _run_lemma62(cfg: RunConfig, out: Path) -> int:
    eps_grid = tuple(float(v) for v in np.geomspace(0.1, 1e-3, 7))
    x_grid = (0.0, 0.5, -0.7, 1.3, 2.0, -1.9)
    rep = lemma_62_suite(eps_grid, x_grid)
    write_csv(out / "lemma62.csv",
              ["name", "x", "eps", "numeric", "closed_form", "rel_error"],
              [[r.name, r.x, r.eps, r.numeric, r.closed_form, r.rel_error]
               for r in rep.rows])
    ok = (rep.max_rel_error <= 1e-6 and abs(rep.exponent_first - 1.5) <= 0.02
          and abs(rep.exponent_second - 1.0) <= 0.02)
    write_json(out / "summary.json", {
        "experiment": "lemma62", "config": cfg.as_dict(),
        "max_rel_error": rep.max_rel_error,
        "eps_exponents": [rep.exponent_first, rep.exponent_second],
        "ok": ok,
    })
    return 0 if ok else 1


def verify_all(out_dir=None, quick: bool = False, seed: int = 0) -> list:
    """Run the acceptance matrix; print one line per criterion."""
    results = []
    for cid in sorted(acceptance.ALL_CRITERIA):
        t0 = time.time()
        res = acceptance.run_criterion(cid, quick=quick)
        dt = time.time() - t0
        results.append(res)
        print(f"{res.cid} {res.name}: {res.status}  ({dt:.1f}s)")
    if out_dir is not None:
        out = Path(out_dir)
        write_json(out / "verify_matrix.json", {
            "experiment": "verify", "quick": quick, "seed": seed,
            "criteria": [{"id": r.cid, "name": r.name, "status": r.status}
                         for r in results],
        })
    return results


def run(cfg: RunConfig) -> int:
    """Validate and execute; returns the process exit status."""
    try:
        validate(cfg)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        if cfg.experiment == "catalog_dump":
            status = _run_catalog(cfg, out)
        elif cfg.experiment == "symbol_check":
            status = _run_symbols(cfg, out)
        elif cfg.experiment == "supnorm":
            status = _run_supnorm(cfg, out)
        elif cfg.experiment == "threshold_sweep":
            status = _run_sweep(cfg, out)
        elif cfg.experiment == "torus":
            status = _run_torus(cfg, out)
        elif cfg.experiment == "fold":
            status = _run_fold(cfg, out)
        elif cfg.experiment == "lemma62":
            status = _run_lemma62(cfg, out)
        else:
            results = verify_all(out, quick=cfg.quick, seed=cfg.seed)
            status = 0 if all(r.passed or r.skipped for r in results) else 1
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    wall = time.time() - t0
    (out / "run.log").write_text(f"experiment={cfg.experiment} wall_seconds={wall:.3f}\n")
    print(f"{cfg.experiment}: status {status}, wall {wall:.1f}s, reports in {out}")
    return status


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quick", action="store_true", default=None)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="causticlab",
        description="caustic catalog, oscillatory-integral scaling and torus experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("--type", dest="singularity", type=str, default=None)
        p.add_argument("--amplitude", type=str, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--width-exponent", dest="width_exponent", type=float,
                       default=None)
        p.add_argument("--center", type=float, default=None)
        p.add_argument("--deltas", type=str, default=None,
                       help="comma-separated delta list")
        p.add_argument("--h-start", dest="h_start", type=float, default=None)
        p.add_argument("--h-stop", dest="h_stop", type=float, default=None)
        p.add_argument("--h-points", dest="h_points", type=int, default=None)
        p.add_argument("--x-strategy", dest="x_strategy", type=str, default=None)
        p.add_argument("--points-per-shell", dest="points_per_shell", type=int,
                       default=None)
        p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--budget", dest="eval_budget", type=int, default=None)
        p.add_argument("--n", dest="torus_n", type=int, default=None)
        p.add_argument("--mode", dest="torus_mode", type=str, default=None)
        p.add_argument("--torus-delta", dest="torus_delta", type=float, default=None)
        p.add_argument("--delta-prime", dest="torus_delta_prime", type=float,
                       default=None)
        p.add_argument("--omega", type=str, default=None)
        p.add_argument("--j-min", dest="j_min", type=int, default=None)
        p.add_argument("--j-max", dest="j_max", type=int, default=None)
    return ap


def config_from_args(argv) -> RunConfig:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    data: dict = {"experiment": _SUBCOMMANDS[ns.command]}
    if ns.config:
        with open(ns.config) as fh:
            file_cfg = json.load(fh)
        file_cfg.pop("experiment", None)
        data.update(file_cfg)
    overrides = {
        "singularity": ns.singularity, "amplitude": ns.amplitude, "delta": ns.delta,
        "width_exponent": ns.width_exponent, "center": ns.center,
        "h_start": ns.h_start, "h_stop": ns.h_stop, "h_points": ns.h_points,
        "x_strategy": ns.x_strategy, "points_per_shell": ns.points_per_shell,
        "rel_tol": ns.rel_tol, "tolerance": ns.tolerance,
        "eval_budget": ns.eval_budget, "torus_n": ns.torus_n,
        "torus_mode": ns.torus_mode, "torus_delta": ns.torus_delta,
        "torus_delta_prime": ns.torus_delta_prime, "omega": ns.omega,
        "j_min": ns.j_min, "j_max": ns.j_max, "out_dir": ns.out,
        "workers": ns.workers, "seed": ns.seed, "quick": ns.quick,
    }
    if ns.deltas is not None:
        overrides["deltas"] = tuple(float(v) for v in ns.deltas.split(","))
    data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv if argv is not None else sys.argv[1:])
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"invalid config: cannot parse JSON ({e})", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
