"""Experiment runner: validated configs in, CSV data + JSON summaries out.

Subcommands: catalog, symbols, supnorm, sweep, torus, fold, lemma62, verify.
Each takes --out, --config and a flag for each RunConfig field its runner
reads (SUBCOMMANDS).  A config file (--config, JSON) provides defaults;
command-line flags win.  A flag, config-file key or RunConfig field that the
subcommand does not read is an invalid configuration.
Exit status: 0 all expected-pass fits pass, 1 computational failure or
inconclusive fits, 2 invalid configuration (which writes nothing, not even
the out directory).

Reports are byte-stable: an identical config gives identical CSV/JSON bytes.
Every summary.json echoes the experiment and, under ``config``, the out
directory and the fields its subcommand reads.  Wall time is printed to
stdout and written to a sidecar (run.log; verify's per-criterion
timings.json), never into the summary or the verify matrix.
Each tolerance is defined once, in the library module that owns the
experiment, and no flag overrides one.  The runners here wire a config to the
library and return the summary; the symbols and torus runners compare their
fits with the library's tolerance themselves.  An amplitude is named by its
kind, delta and centre; the kind fixes the rest, and the default kind is the
narrow bump, so --delta alone sets its concentration rate.  supnorm and sweep
build one scan plan (``_scan_plan``): a sweep entry is the supnorm scan with
the narrow bump at that delta.  fold runs the same loop over delta
(``scaling.threshold_sweep``) on ``fold.fold_plan``'s caustic window with
``fold.fold_family``, whose entries fit sup|u_h| / ||u_h||_2.  A torus ball
run takes the diophantine direction and reads its exponent from --delta-prime
alone (0.55 when unset); a dyadic run reads --torus-delta, on the rational
direction.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import acceptance
from .amplitudes import KINDS, SYMBOL_ORDER_TOLERANCE, check_symbol_order, make_amplitude
from .catalog import SingularityType, build_phase, catalog_rows, caustic_order, threshold
from .fold import (DEFAULT_FOLD_DELTAS, DEFAULT_FOLD_H_GRID, fold_family, fold_passed, fold_plan,
                   lemma_62_suite, max_slope_error, two_segment_breakpoint)
from .reports import fmt_fraction, write_csv, write_json
from .scaling import (DEFAULT_H_GRID, ORDER_TOLERANCE, ScanPlan, fit_exponent,
                      geometric_grid, supnorm_scan, threshold_sweep)
from .torus import (BALL_EXPONENT_TOLERANCE, CapQuery, ENUM_LIMITS, OMEGA_PRESETS,
                    ball_count, dyadic_exponent, dyadic_lower_bound_search,
                    ratio_exponent, sphere_window)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")
        self.fieldname = fieldname


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "supnorm"
    singularity: str = "A2"
    amplitude: str = "narrow_bump"
    delta: float = 0.0
    deltas: tuple[float, ...] = ()
    center: float = 0.0
    h_start: float | None = None
    h_stop: float | None = None
    h_points: int | None = None
    x_strategy: str = "origin_only"
    points_per_shell: int = 1
    rel_tol: float = 1e-6
    eval_budget: int | None = None
    torus_n: int = 2
    torus_mode: str = "dyadic"  # ball | dyadic
    torus_delta: float = 0.5
    torus_delta_prime: float | None = None
    j_min: int = 256
    j_max: int = 65536
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build from parsed JSON; every value must have its field's type."""
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        for f in dataclasses.fields(cls):
            if f.name in data and not _has_type(data[f.name], f.type):
                raise ConfigError(f.name, f"must be {f.type}, got {data[f.name]!r}")
        if "deltas" in data:
            data = dict(data)
            data["deltas"] = tuple(float(v) for v in data["deltas"])
        return cls(**data)


# Python types a config value may have, by its RunConfig annotation
# (annotations are strings here); JSON integers are accepted as floats.
_VALUE_TYPES = {"str": str, "int": int, "float": (int, float)}


def _has_type(value, annotation: str) -> bool:
    base, _, rest = annotation.partition(" | ")
    if value is None:
        return rest == "None"
    if base == "tuple[float, ...]":
        return isinstance(value, (list, tuple)) and all(_has_type(v, "float") for v in value)
    if isinstance(value, bool):  # a JSON true/false is no number
        return False
    return isinstance(value, _VALUE_TYPES[base])


def validate(cfg: RunConfig) -> None:
    """Raise ConfigError pointing at the first offending field."""
    if cfg.experiment not in _SUBCOMMAND_OF:
        raise ConfigError("experiment", f"must be one of {tuple(_SUBCOMMAND_OF)}")
    name = _SUBCOMMAND_OF[cfg.experiment]
    for f in dataclasses.fields(cfg):
        if f.name not in ("experiment", "out_dir", *SUBCOMMANDS[name].fields) \
                and getattr(cfg, f.name) != f.default:
            raise ConfigError(f.name, f"causticlab {name} does not read it")
    try:
        SingularityType.parse(cfg.singularity)
    except ValueError as e:
        raise ConfigError("singularity", str(e)) from None
    amplitudes = tuple(kind for kind in KINDS if kind != "custom")  # needs an evaluator
    if cfg.amplitude not in amplitudes:
        raise ConfigError("amplitude", f"must be one of {amplitudes}")
    if cfg.amplitude == "fold_saturator_above" and \
            SingularityType.parse(cfg.singularity).label != "A2":
        raise ConfigError("amplitude", "fold_saturator_above is A2's amplitude: needs --type A2")
    if not 0.0 <= cfg.delta <= 1.0:
        raise ConfigError("delta", f"must lie in [0, 1], got {cfg.delta}")
    if not math.isfinite(cfg.center):
        raise ConfigError("center", f"must be finite, got {cfg.center}")
    for d in cfg.deltas:
        if not 0.0 <= d <= 1.0:
            raise ConfigError("deltas", f"entry {d} outside [0, 1]")
    if len({f"{d:.6g}" for d in cfg.deltas}) < len(cfg.deltas):  # the fold's summary keys
        raise ConfigError("deltas", "two entries agree to 6 significant digits")
    if cfg.h_start is not None and not 0.0 < cfg.h_start < 1.0:
        raise ConfigError("h_start", "must lie in (0, 1)")
    if cfg.h_stop is not None and not 0.0 < cfg.h_stop < 1.0:
        raise ConfigError("h_stop", "must lie in (0, 1)")
    if cfg.h_points is not None and cfg.h_points < 5:
        raise ConfigError("h_points", "need at least 5 grid points")
    if cfg.x_strategy not in ("origin_only", "omega_shells"):
        raise ConfigError("x_strategy", f"unknown strategy {cfg.x_strategy!r}")
    if cfg.points_per_shell < 1:
        raise ConfigError("points_per_shell", "must be >= 1")
    if cfg.x_strategy == "origin_only" and cfg.points_per_shell != 1:
        raise ConfigError("points_per_shell", "only --x-strategy omega_shells reads it")
    if not 1e-10 <= cfg.rel_tol <= 1e-3:
        raise ConfigError("rel_tol", "must lie in [1e-10, 1e-3]")
    if cfg.eval_budget is not None and cfg.eval_budget < 1:
        raise ConfigError("eval_budget", "must be >= 1")
    if not 1 <= cfg.torus_n <= 4:
        raise ConfigError("torus_n", "must be between 1 and 4")
    if cfg.torus_mode not in ("ball", "dyadic"):
        raise ConfigError("torus_mode", "must be ball or dyadic")
    if cfg.torus_mode == "dyadic" and cfg.torus_delta_prime is not None:
        raise ConfigError("torus_delta_prime", "only --mode ball reads it")
    if cfg.torus_mode == "ball" and cfg.torus_delta != RunConfig.torus_delta:
        raise ConfigError("torus_delta", "only --mode dyadic reads it")
    if not 0.0 < cfg.torus_delta <= 1.0:
        raise ConfigError("torus_delta", "must lie in (0, 1]")
    if cfg.torus_delta_prime is not None and not 0.0 < cfg.torus_delta_prime <= 1.0:
        raise ConfigError("torus_delta_prime",
                          f"must lie in (0, 1], got {cfg.torus_delta_prime}")
    if cfg.j_min < 1 or cfg.j_max < cfg.j_min:
        raise ConfigError("j_max", "need 1 <= j_min <= j_max")
    if cfg.torus_mode == "dyadic" and cfg.j_max > ENUM_LIMITS["j"][cfg.torus_n]:
        raise ConfigError("j_max", f"exceeds the n = {cfg.torus_n} sphere enumeration "
                          f"bound {ENUM_LIMITS['j'][cfg.torus_n]}")


def _h_grid(cfg: RunConfig, default: tuple[float, ...]) -> tuple[float, ...]:
    """The experiment's default h-grid with the ends and count the config sets."""
    start = cfg.h_start if cfg.h_start is not None else default[0]
    stop = cfg.h_stop if cfg.h_stop is not None else default[-1]
    if stop >= start:
        raise ConfigError("h_stop", f"must be smaller than h_start ({start!r})")
    return geometric_grid(start, stop,
                          cfg.h_points if cfg.h_points is not None else len(default))


def _scan_plan(cfg: RunConfig) -> ScanPlan:
    """The scan supnorm runs and sweep runs at each delta: the config's type,
    amplitude, x-strategy, h-grid (DEFAULT_H_GRID's by default) and budget."""
    ph = build_phase(SingularityType.parse(cfg.singularity))
    amp = make_amplitude(cfg.amplitude, cfg.delta, center=cfg.center, dim=ph.k)
    return ScanPlan(ph, amp, _h_grid(cfg, DEFAULT_H_GRID[ph.k]), x_strategy=cfg.x_strategy,
                    points_per_shell=cfg.points_per_shell, rel_tol=cfg.rel_tol,
                    eval_budget=cfg.eval_budget)


# Each runner writes its CSV data and returns its exit status and its summary;
# run() adds the experiment and the config echo and writes summary.json.
def _run_catalog(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    table = catalog_rows()
    rows = [[row["family"], row["index"], row["sign"], row["k"], row["k0"],
             ";".join(fmt_fraction(v) for v in row["r"]),
             ";".join(fmt_fraction(v) for v in row["s"]),
             fmt_fraction(row["kappa"]), fmt_fraction(row["delta0"])]
            for row in table]
    write_csv(out / "catalog.csv",
              ["family", "index", "sign", "k", "k0", "r", "s", "kappa", "delta0"],
              rows)
    return 0, {"types": [row["label"] for row in table]}


def _run_symbols(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    hs = _h_grid(cfg, geometric_grid(2.0**-4, 2.0**-11, 8))  # 2^-4..2^-11 by default
    if len(hs) < 6:
        raise ConfigError("h_points", "the symbol fit needs at least 6 grid points")
    rows = check_symbol_order(make_amplitude(cfg.amplitude, cfg.delta, center=cfg.center), hs)
    write_csv(out / "symbols.csv",
              ["alpha", "fitted_order", "expected_order", "residual", "n_points"],
              [[r.alpha, r.fitted_order, r.expected_order, r.residual, r.n_points]
               for r in rows])
    worst = max(abs(r.fitted_order - r.expected_order) for r in rows)
    ok = worst <= SYMBOL_ORDER_TOLERANCE
    return 0 if ok else 1, {
        "kind": cfg.amplitude, "delta": cfg.delta,
        "orders": [{"alpha": r.alpha, "fitted": r.fitted_order,
                    "expected": r.expected_order} for r in rows],
        "worst_order_error": worst, "ok": ok,
    }


def _fit_payload(fit) -> dict:
    return {
        "slope": fit.slope, "intercept": fit.intercept, "r_squared": fit.r_squared,
        "reference": fmt_fraction(fit.reference),
        "reference_float": float(fit.reference),
        "tolerance": fit.tolerance, "verdict": fit.verdict, "n_rows": fit.n_rows,
    }


def _run_supnorm(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    plan = _scan_plan(cfg)
    t = plan.phase.singularity
    result = supnorm_scan(plan)
    fit = fit_exponent(result.sup_rows, caustic_order(t), ORDER_TOLERANCE[plan.phase.k])
    write_csv(out / "scan.csv",
              ["h", "lambda", "y_index", "abs_I", "est_error", "converged"],
              [[r.h, r.lam, r.y_index, r.abs_value, r.est_error, r.converged]
               for r in result.rows])
    return 0 if fit.verdict == "pass" else 1, {
        "type": t.label, "delta": cfg.delta, "fit": _fit_payload(fit),
        "slope": fit.slope, "r_squared": fit.r_squared,
        "reference": fmt_fraction(fit.reference), "verdict": fit.verdict,
        "cost": result.cost, "sup_at": result.sup_at,
    }


def _run_sweep(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    plan = _scan_plan(cfg)
    t = plan.phase.singularity
    default = tuple(dict.fromkeys((0.0, 0.1, 0.2, float(threshold(t)))))  # 1/5 is 0.2
    entries = threshold_sweep(plan, cfg.deltas or default)
    write_csv(out / "sweep.csv",
              ["delta", "slope", "r_squared", "reference", "verdict", "exploratory"],
              [[e.delta, e.fit.slope, e.fit.r_squared, fmt_fraction(e.fit.reference),
                e.fit.verdict, e.exploratory] for e in entries])
    expected = [e for e in entries if not e.exploratory]
    return 0 if all(e.fit.verdict == "pass" for e in expected) else 1, {
        "type": t.label,
        "entries": [{"delta": e.delta, "exploratory": e.exploratory,
                     "fit": _fit_payload(e.fit), "cost": e.scan.cost, "sup_at": e.scan.sup_at}
                    for e in entries],
    }


def _run_torus(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    n = cfg.torus_n
    summary: dict = {"n": n, "mode": cfg.torus_mode}
    if cfg.torus_mode == "ball":
        om = OMEGA_PRESETS["diophantine"][n]
        dprime = cfg.torus_delta_prime if cfg.torus_delta_prime is not None else 0.55
        js = [j for j in (2**k for k in range(1, 40))
              if cfg.j_min <= j <= cfg.j_max]
        if len(js) < 3:
            raise ConfigError("j_max", "range too narrow for a fit")
        queries = [CapQuery(omega=om, mu=dprime, j=j) for j in js]
        if queries[-1].cap_radius > ENUM_LIMITS["radius"][n]:
            raise ConfigError("j_max", f"ball radius {queries[-1].cap_radius:g} exceeds "
                              f"the n = {n} enumeration bound {ENUM_LIMITS['radius'][n]:g}")
        counts = [ball_count(q) for q in queries]
        rows = [[j, j**-0.5, c, math.sqrt(c), -1] for j, c in zip(js, counts)]
        slope = ratio_exponent(js, counts)
        summary.update(delta_prime=dprime, ratio_exponent=slope, reference=n * dprime / 2)
        ok = abs(slope - n * dprime / 2) <= BALL_EXPONENT_TOLERANCE
    else:
        if 16 * cfg.j_min > cfg.j_max:  # blocks [J, 2J] from J = j_min: dyadic_exponent needs 4
            raise ConfigError("j_max", "range too narrow for a fit")
        blocks = dyadic_lower_bound_search(n, cfg.torus_delta, (cfg.j_min, cfg.j_max))
        rows = [[b.best_j, b.best_j**-0.5, b.best_count,
                 math.sqrt(b.best_count), b.J] for b in blocks]
        summary["blocks"] = [{
            "J": b.J, "best_j": b.best_j, "best_count": b.best_count,
            "block_sum": b.block_sum, "volume": b.volume,
            "represented": b.represented, "candidates": b.candidates} for b in blocks]
        slope = dyadic_exponent(blocks)
        ok = slope is not None
        if ok:
            lower, upper = sphere_window(n, cfg.torus_delta)
            summary.update(ratio_exponent=slope, upper_bound=upper, lower_bound=lower)
            ok = lower <= slope <= upper
    write_csv(out / "torus.csv", ["j", "h", "count", "ratio", "block_id"], rows)
    summary["ok"] = ok
    return 0 if ok else 1, summary


def _run_fold(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    plan = fold_plan(0.0, _h_grid(cfg, DEFAULT_FOLD_H_GRID), rel_tol=cfg.rel_tol,
                     eval_budget=cfg.eval_budget)
    entries = threshold_sweep(plan, cfg.deltas or DEFAULT_FOLD_DELTAS, fold_family)
    bp, _ = two_segment_breakpoint([e.delta for e in entries], [e.fit.slope for e in entries])
    rows = [[e.delta, sup.h, sup.sup_abs * math.sqrt(sup.h), l2, ratio.sup_abs]
            for e in entries for sup, l2, ratio in zip(e.scan.sup_rows, e.l2, e.fitted)]
    write_csv(out / "fold.csv", ["delta", "h", "sup_abs", "l2", "ratio"], rows)
    return 0 if fold_passed(entries, bp) else 1, {
        "slopes": {f"{e.delta:.6g}": _fit_payload(e.fit) for e in entries},
        "cost": {f"{e.delta:.6g}": e.scan.cost for e in entries},
        "sup_at": {f"{e.delta:.6g}": e.scan.sup_at for e in entries},
        "breakpoint": bp,
        "max_slope_error": max_slope_error(entries),
    }


def _run_lemma62(cfg: RunConfig, out: Path) -> tuple[int, dict]:
    eps_grid = tuple(float(v) for v in np.geomspace(0.1, 1e-3, 7))
    x_grid = (0.0, 0.5, -0.7, 1.3, 2.0, -1.9)
    rep = lemma_62_suite(eps_grid, x_grid)
    write_csv(out / "lemma62.csv",
              ["name", "x", "eps", "numeric", "closed_form", "rel_error"],
              [[r.name, r.x, r.eps, r.numeric, r.closed_form, r.rel_error]
               for r in rep.rows])
    ok = rep.passed
    return 0 if ok else 1, {
        "max_rel_error": rep.max_rel_error,
        "eps_exponents": [rep.exponent_first, rep.exponent_second],
        "ok": ok,
    }


def _run_verify(cfg: RunConfig, out: Path) -> tuple[int, None]:
    """Run the acceptance matrix; print one line per criterion.

    The matrix is byte-stable and takes the place of a summary; each
    criterion's wall seconds go to the timings.json sidecar beside it.
    """
    results = []
    seconds = {}
    for cid in sorted(acceptance.ALL_CRITERIA):
        t0 = time.time()
        res = acceptance.run_criterion(cid)
        results.append(res)
        seconds[res.cid] = round(time.time() - t0, 3)
        print(f"{res.cid} {res.name}: {res.status}  ({seconds[res.cid]:.1f}s)")
    write_json(out / "verify_matrix.json", {
        "experiment": "verify",
        "criteria": [{"id": r.cid, "name": r.name, "status": r.status,
                      "details": r.details} for r in results],
    })
    write_json(out / "timings.json", seconds)
    return 0 if all(r.passed for r in results) else 1, None


class Subcommand(NamedTuple):
    experiment: str
    runner: Callable[[RunConfig, Path], tuple[int, dict | None]]
    fields: tuple[str, ...]  # the RunConfig fields the runner reads


AMPLITUDE = ("amplitude", "delta", "center")
H_GRID = ("h_start", "h_stop", "h_points")
SCAN = ("singularity", *H_GRID, "x_strategy", "points_per_shell", "rel_tol", "eval_budget")
SUBCOMMANDS = {
    "catalog": Subcommand("catalog_dump", _run_catalog, ()),
    "symbols": Subcommand("symbol_check", _run_symbols, (*AMPLITUDE, *H_GRID)),
    "supnorm": Subcommand("supnorm", _run_supnorm, (*SCAN, *AMPLITUDE)),
    "sweep": Subcommand("threshold_sweep", _run_sweep, (*SCAN, "deltas")),
    "torus": Subcommand("torus", _run_torus, ("torus_n", "torus_mode", "torus_delta",
                                              "torus_delta_prime", "j_min", "j_max")),
    "fold": Subcommand("fold", _run_fold,
                       ("deltas", *H_GRID, "rel_tol", "eval_budget")),
    "lemma62": Subcommand("lemma62", _run_lemma62, ()),
    "verify": Subcommand("verify", _run_verify, ()),
}
_SUBCOMMAND_OF = {s.experiment: name for name, s in SUBCOMMANDS.items()}


# Command-line flag -> RunConfig field; the field's annotation gives the value
# type.  --deltas takes a comma-separated list.
FLAGS = {
    "--out": "out_dir",
    "--type": "singularity", "--amplitude": "amplitude", "--delta": "delta",
    "--center": "center", "--deltas": "deltas",
    "--h-start": "h_start", "--h-stop": "h_stop", "--h-points": "h_points",
    "--x-strategy": "x_strategy", "--points-per-shell": "points_per_shell",
    "--rel-tol": "rel_tol", "--budget": "eval_budget",
    "--n": "torus_n", "--mode": "torus_mode", "--torus-delta": "torus_delta",
    "--delta-prime": "torus_delta_prime",
    "--j-min": "j_min", "--j-max": "j_max",
}


def run(cfg: RunConfig) -> int:
    """Validate and execute; returns the process exit status."""
    t0 = time.time()
    try:
        validate(cfg)
        out = Path(cfg.out_dir)
        name = _SUBCOMMAND_OF[cfg.experiment]
        status, summary = SUBCOMMANDS[name].runner(cfg, out)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    if summary is not None:
        echo = {f: getattr(cfg, f) for f in ("out_dir", *SUBCOMMANDS[name].fields)}
        write_json(out / "summary.json",
                   {"experiment": cfg.experiment, "config": echo, **summary})
    wall = time.time() - t0
    (out / "run.log").write_text(f"experiment={cfg.experiment} wall_seconds={wall:.3f}\n")
    print(f"{cfg.experiment}: status {status}, wall {wall:.1f}s, reports in {out}")
    return status


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


@functools.cache  # built once per process: parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="causticlab",
        description="caustic catalog, oscillatory-integral scaling and torus experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    types = {f.name: f.type.partition(" | ")[0] for f in dataclasses.fields(RunConfig)}
    parse = {"str": str, "int": int, "float": float, "tuple[float, ...]": _float_list}
    for name, subcommand in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for flag, dest in FLAGS.items():
            if dest not in ("out_dir", *subcommand.fields):
                continue
            p.add_argument(flag, dest=dest, type=parse[types[dest]], default=None)
    return ap


def config_from_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    settable = ("out_dir", *SUBCOMMANDS[ns.command].fields)
    data: dict = {}
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"cannot parse JSON ({e})") from None
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError("config", f"cannot read {ns.config!r} ({e})") from None
        if not isinstance(data, dict):
            raise ConfigError("config", "the file must hold a JSON object")
        stray = sorted(set(data) - set(settable))
        if stray:
            raise ConfigError(stray[0], f"causticlab {ns.command} does not read it")
    data["experiment"] = SUBCOMMANDS[ns.command].experiment
    data.update({dest: getattr(ns, dest) for dest in settable
                 if getattr(ns, dest) is not None})
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv if argv is not None else sys.argv[1:])
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
