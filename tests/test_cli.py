"""CLI: config validation, report files, golden catalog, determinism."""

import dataclasses
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from causticlab import acceptance, amplitudes, cli, fold, oscint, scaling, torus
from causticlab.cli import (SUBCOMMANDS, ConfigError, RunConfig, _build_parser,
                            config_from_args, main, run, validate)

README = Path(__file__).resolve().parents[1] / "README.md"

GOLDEN_TABLE = {
    "A1": ("0", "1"), "A2": ("1/6", "1/3"), "A3": ("1/4", "1/4"),
    "A4": ("3/10", "1/5"), "A5": ("1/3", "1/6"), "A6": ("5/14", "1/7"),
    "A7": ("3/8", "1/8"), "A8": ("7/18", "1/9"),
    "D4-": ("1/3", "1/4"), "D4+": ("1/3", "1/3"), "D5": ("3/8", "1/5"),
    "D6-": ("2/5", "1/6"), "D6+": ("2/5", "1/5"), "D7": ("5/12", "1/7"),
    "D8-": ("3/7", "1/8"), "D8+": ("3/7", "1/7"),
    "E6": ("5/12", "1/6"), "E7": ("4/9", "1/7"), "E8": ("7/15", "1/8"),
}


def _row_label(family, index, sign):
    m = int(index)
    if family == "A":
        return f"A{m + 1}"
    if family == "D":
        return f"D{m + 1}" + (sign if m % 2 else "")  # D4+, D4-; D5
    return f"E{m}"


def test_catalog_dump_golden(tmp_path):
    cfg = RunConfig(experiment="catalog_dump", out_dir=str(tmp_path))
    assert run(cfg) == 0
    lines = (tmp_path / "catalog.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["family", "index", "sign", "k", "k0", "r", "s", "kappa", "delta0"]
    seen = {}
    for line in lines[1:]:
        parts = line.split(",")
        row = dict(zip(header, parts))
        label = _row_label(row["family"], row["index"], row["sign"])
        seen[label] = (row["kappa"], row["delta0"])
        # kappa must equal k/2 - sum(r) recomputed from the row itself
        r = [Fraction(tok) for tok in row["r"].split(";")]
        assert Fraction(row["kappa"]) == Fraction(int(row["k"]), 2) - sum(r)
    assert seen == GOLDEN_TABLE


def test_invalid_delta_exits_2(tmp_path):
    cfg = RunConfig(experiment="supnorm", delta=1.5, out_dir=str(tmp_path))
    assert run(cfg) == 2
    assert not (tmp_path / "scan.csv").exists()  # no computation happened


def test_invalid_type_exits_2(tmp_path):
    cfg = RunConfig(experiment="supnorm", singularity="Z9", out_dir=str(tmp_path))
    assert run(cfg) == 2


def test_validate_reports_field():
    with pytest.raises(ConfigError) as e:
        validate(RunConfig(experiment="supnorm", h_points=2))
    assert e.value.fieldname == "h_points"


def test_config_round_trip():
    cfg = RunConfig(experiment="threshold_sweep", singularity="A3",
                    deltas=(0.1, 0.2), h_points=6)
    assert RunConfig.from_dict(dataclasses.asdict(cfg)) == cfg
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"experiment": "supnorm", "bogus_field": 1})


def test_summary_config_echo_round_trips(tmp_path):
    cfg = RunConfig(experiment="supnorm", singularity="A2",
                    h_start=2.0**-4, h_stop=2.0**-8, h_points=5,
                    out_dir=str(tmp_path))
    run(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert RunConfig.from_dict({"experiment": summary["experiment"], **summary["config"]}) == cfg


@pytest.mark.parametrize("argv", [
    ["catalog"], ["lemma62"], ["symbols", "--amplitude", "gaussian", "--delta", "0.4"],
    ["torus", "--mode", "ball", "--n", "2", "--delta-prime", "0.5", "--j-min", "4",
     "--j-max", "64"],
    ["fold", "--deltas", "0,0.5", "--h-start", "0.015625", "--h-stop", "0.0009765625",
     "--h-points", "5"],
])
def test_config_echo_holds_only_the_subcommand_fields(tmp_path, argv):
    cfg = config_from_args([*argv, "--out", str(tmp_path)])
    run(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert sorted(summary["config"]) == sorted(["out_dir", *SUBCOMMANDS[argv[0]].fields])
    assert RunConfig.from_dict({"experiment": summary["experiment"], **summary["config"]}) == cfg


def test_flag_parsing_overrides():
    cfg = config_from_args(["supnorm", "--type", "A3", "--delta", "0.2",
                            "--h-points", "7", "--out", "/tmp/x"])
    assert cfg.experiment == "supnorm"
    assert cfg.singularity == "A3"
    assert cfg.delta == 0.2
    assert cfg.h_points == 7


def test_config_file_then_flags_win(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"singularity": "A4", "h_points": 6,
                                    "points_per_shell": 3}))
    cfg = config_from_args(["supnorm", "--config", str(cfg_file),
                            "--type", "A2", "--out", str(tmp_path)])
    assert cfg.singularity == "A2"  # flag wins
    assert cfg.h_points == 6        # file value survives
    assert cfg.points_per_shell == 3


def test_supnorm_run_writes_reports_and_passes(tmp_path):
    cfg = RunConfig(experiment="supnorm", singularity="A2",
                    h_start=2.0**-6, h_stop=2.0**-12, h_points=6,
                    out_dir=str(tmp_path))
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fit"]["verdict"] == "pass"
    assert summary["fit"]["reference"] == "1/6"
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "h,lambda,y_index,abs_I,est_error,converged"
    assert len(lines) == 7
    cost = summary["cost"]
    assert sorted(cost) == ["evaluations", "nodes", "unconverged"]
    assert cost["evaluations"] == 6 and cost["unconverged"] == 0
    assert cost["nodes"] > 0


def test_repeat_run_byte_identical(tmp_path):
    cfg = RunConfig(experiment="supnorm", singularity="A2",
                    h_start=2.0**-4, h_stop=2.0**-8, h_points=5,
                    x_strategy="omega_shells", points_per_shell=2,
                    out_dir=str(tmp_path / "rep"))
    run(cfg)
    first = {p.name: p.read_bytes()
             for p in sorted((tmp_path / "rep").iterdir()) if p.suffix != ".log"}
    run(cfg)
    second = {p.name: p.read_bytes()
              for p in sorted((tmp_path / "rep").iterdir()) if p.suffix != ".log"}
    assert first == second


def test_lemma62_run(tmp_path):
    cfg = RunConfig(experiment="lemma62", out_dir=str(tmp_path))
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_rel_error"] < 1e-6


def test_sweep_run_marks_exploratory(tmp_path):
    cfg = RunConfig(experiment="threshold_sweep", singularity="A2",
                    deltas=(0.2, 0.8), h_start=2.0**-5, h_stop=2.0**-10,
                    h_points=5, out_dir=str(tmp_path))
    status = run(cfg)
    assert status == 0  # only the non-exploratory entry must pass
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert rows[0]["exploratory"] == "false"
    assert rows[1]["exploratory"] == "true"


def test_sweep_honours_points_per_shell(tmp_path):
    # each sweep entry must scan what supnorm scans for its narrow bump
    common = ["--type", "A3", "--x-strategy", "omega_shells", "--points-per-shell", "3",
              "--h-start", "0.0625", "--h-stop", "0.0078125", "--h-points", "5"]
    assert main(["sweep", "--deltas", "0.1", *common, "--out", str(tmp_path / "s")]) in (0, 1)
    assert main(["supnorm", "--amplitude", "narrow_bump", "--delta", "0.1", *common,
                 "--out", str(tmp_path / "n")]) in (0, 1)
    (entry,) = json.loads((tmp_path / "s" / "summary.json").read_text())["entries"]
    scan = json.loads((tmp_path / "n" / "summary.json").read_text())
    assert entry["cost"] == scan["cost"]
    assert entry["sup_at"] == scan["sup_at"]
    assert entry["fit"]["slope"] == scan["slope"]


def test_sweep_entry_is_the_supnorm_scan_at_its_delta(tmp_path):
    # the default amplitude is the narrow bump, so --delta alone names the same scan
    assert main(["sweep", "--type", "A2", "--deltas", "0.2", "--out", str(tmp_path / "s")]) == 0
    assert main(["supnorm", "--type", "A2", "--delta", "0.2", "--out", str(tmp_path / "n")]) == 0
    (entry,) = json.loads((tmp_path / "s" / "summary.json").read_text())["entries"]
    scan = json.loads((tmp_path / "n" / "summary.json").read_text())
    assert entry["fit"] == scan["fit"]
    assert entry["cost"] == scan["cost"]


def test_sweep_default_deltas_scan_each_delta_once(tmp_path):
    # A4's threshold 1/5 is the default list's 0.2: scanned and reported once, in order
    assert main(["sweep", "--type", "A4", "--h-start", "0.05", "--h-stop", "0.01",
                 "--h-points", "5", "--out", str(tmp_path)]) in (0, 1)
    entries = json.loads((tmp_path / "summary.json").read_text())["entries"]
    assert [e["delta"] for e in entries] == [0.0, 0.1, 0.2]


def test_supnorm_summary_says_where_each_sup_lies(tmp_path):
    # per h: the lambda level (-1 at the origin) and y_index of the largest |I| in
    # scan.csv, and edge on the outermost level, lambda = 1
    assert main(["supnorm", "--type", "A3", "--x-strategy", "omega_shells", "--h-start",
                 "0.0625", "--h-stop", "0.00390625", "--h-points", "5",
                 "--out", str(tmp_path)]) in (0, 1)
    sup_at = json.loads((tmp_path / "summary.json").read_text())["sup_at"]
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [s["h"] for s in sup_at] == list(dict.fromkeys(float(r["h"]) for r in rows))
    for s in sup_at:
        at = [r for r in rows if float(r["h"]) == s["h"]]
        best = max(at, key=lambda r: float(r["abs_I"]))
        lams = sorted({float(r["lambda"]) for r in at if r["y_index"] != "-1"})
        level = lams.index(float(best["lambda"])) if best["y_index"] != "-1" else -1
        assert (s["level"], s["y_index"]) == (level, int(best["y_index"]))
        assert s["edge"] == (level == scaling.SHELL_LAMBDA_COUNT - 1)
    assert any(s["level"] >= 0 for s in sup_at)  # A3's sup leaves the origin


def test_supnorm_scans_the_delta_it_is_given(tmp_path):
    scans = {}
    for delta in ("0", "0.5"):
        assert main(["supnorm", "--type", "A2", "--delta", delta,
                     "--out", str(tmp_path / delta)]) in (0, 1)
        scans[delta] = (tmp_path / delta / "scan.csv").read_bytes()
    assert scans["0"] != scans["0.5"]


@pytest.mark.parametrize("delta", ["0.4", "0.5", "0.6"])
def test_fold_saturator_symbols_pass_on_a_fine_grid(tmp_path, delta):
    # e^{-i theta^3/h}'s derivatives carry lower-order terms that the default
    # grid still sees for delta from about 0.37 to 0.48 (exit 1 there);
    # 2^-10..2^-20 fits each order
    argv = ["symbols", "--amplitude", "fold_saturator_above", "--delta", delta,
            "--h-start", "0.0009765625", "--h-stop", "9.5367431640625e-07",
            "--out", str(tmp_path)]
    assert main(argv) == 0


@pytest.mark.parametrize("delta", ["0.6", "0.7"])
def test_fold_saturator_symbols_pass_on_the_default_grid(tmp_path, delta):
    argv = ["symbols", "--amplitude", "fold_saturator_above", "--delta", delta,
            "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["worst_order_error"] <= amplitudes.SYMBOL_ORDER_TOLERANCE


def test_symbols_fits_the_delta_it_is_given(tmp_path):
    assert main(["symbols", "--delta", "0.5", "--out", str(tmp_path)]) == 0
    orders = json.loads((tmp_path / "summary.json").read_text())["orders"]
    assert [o["expected"] for o in orders] == [0.0, 0.5, 1.0, 1.5]
    for o in orders:
        assert abs(o["fitted"] - o["expected"]) <= amplitudes.SYMBOL_ORDER_TOLERANCE


class _Stop(Exception):
    pass


def _fold_sweep_args(tmp_path, monkeypatch, argv) -> tuple:
    """The arguments `causticlab fold` passes to threshold_sweep."""
    seen = []

    def spy(*args):
        seen.append(args)
        raise _Stop

    monkeypatch.setattr(cli, "threshold_sweep", spy)
    with pytest.raises(_Stop):
        main(["fold", *argv, "--out", str(tmp_path)])
    return seen[0]


@pytest.mark.parametrize("argv, grid, rel_tol", [
    ([], fold.DEFAULT_FOLD_H_GRID, 1e-6),
    (["--h-stop", "0.0009765625", "--h-points", "5", "--rel-tol", "1e-10"],
     scaling.geometric_grid(2.0**-8, 2.0**-10, 5), 1e-10),
    (["--h-start", "0.0025", "--h-stop", "6.103515625e-05", "--h-points", "7",
      "--rel-tol", "1e-07"], scaling.geometric_grid(0.0025, 2.0**-14, 7), 1e-7),
])
def test_fold_runs_the_config_it_echoes(tmp_path, monkeypatch, argv, grid, rel_tol):
    plan, _, family = _fold_sweep_args(tmp_path, monkeypatch, argv)
    assert family is fold.fold_family
    assert plan.h_grid == grid
    assert plan.rel_tol == rel_tol


def test_fold_library_defaults_to_the_cli_precision(tmp_path, monkeypatch):
    # threshold_sweep(fold_plan(0), DEFAULT_FOLD_DELTAS, fold_family) is what `causticlab fold` runs
    assert fold.fold_plan(0.0).rel_tol == RunConfig().rel_tol
    assert _fold_sweep_args(tmp_path, monkeypatch, []) == \
        (fold.fold_plan(0.0), fold.DEFAULT_FOLD_DELTAS, fold.fold_family)


def test_fold_csv_ratio_is_the_fitted_sweep_row(tmp_path):
    # the ratio column is, bit for bit, the fold sweep's fitted sup|u_h| / ||u_h||_2
    argv = ["fold", "--deltas", "0,0.5", "--h-start", "0.015625", "--h-stop",
            "0.0009765625", "--h-points", "5", "--out", str(tmp_path)]
    assert main(argv) in (0, 1)
    lines = (tmp_path / "fold.csv").read_text().splitlines()
    assert lines[0] == "delta,h,sup_abs,l2,ratio"
    ratios = [float(line.split(",")[4]) for line in lines[1:]]
    plan = fold.fold_plan(0.0, scaling.geometric_grid(2.0**-6, 2.0**-10, 5))
    assert ratios == [r.sup_abs for d in (0.0, 0.5)
                      for r in scaling.threshold_sweep(plan, [d], fold.fold_family)[0].fitted]


def test_summary_is_strict_json_when_a_fit_has_no_slope(tmp_path):
    # budget 1 leaves every point unconverged: the fit has no slope, which is null, not NaN
    assert main(["supnorm", "--type", "A2", "--budget", "1", "--out", str(tmp_path)]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["verdict"] == "inconclusive"
    assert summary["slope"] is summary["r_squared"] is None
    assert [summary["fit"][key] for key in ("slope", "intercept", "r_squared")] == [None] * 3


def test_fold_summary_reports_cost(tmp_path):
    argv = ["fold", "--deltas", "0,0.5", "--h-start", "0.015625", "--h-stop",
            "0.0009765625", "--h-points", "5", "--out", str(tmp_path)]
    assert main(argv) in (0, 1)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["cost"]) == list(summary["slopes"]) == ["0", "0.5"]
    for cost in summary["cost"].values():
        assert cost["evaluations"] == 5 * (1 + 2 * scaling.X_POINTS)
        assert cost["nodes"] > 0 and cost["unconverged"] == 0


def test_fold_summary_says_where_each_sup_lies(tmp_path):
    # Ai peaks at x a / h = -1.019, i.e. x = -2.94 dx below the regime change: level 2
    # (x = -3 dx, y_index 0 on the negative side); the above family peaks at the origin;
    # neither sits on the window's edge, its last level
    argv = ["fold", "--deltas", "0,0.5", "--h-start", "0.015625", "--h-stop",
            "0.0009765625", "--h-points", "5", "--out", str(tmp_path)]
    assert main(argv) in (0, 1)
    sup_at = json.loads((tmp_path / "summary.json").read_text())["sup_at"]
    assert [[(s["level"], s["y_index"], s["edge"]) for s in sup_at[d]] for d in ("0", "0.5")] == \
        [[(2, 0, False)] * 5, [(-1, -1, False)] * 5]


def test_torus_ball_default_exponent_is_delta_prime_055(tmp_path):
    # without --delta-prime a ball run takes delta' = 0.55; the echo keeps the unset null
    argv = ["torus", "--mode", "ball", "--n", "2", "--j-min", "1024", "--j-max", "65536"]
    assert main(argv + ["--out", str(tmp_path / "default")]) == \
        main(argv + ["--delta-prime", "0.55", "--out", str(tmp_path / "set")])
    assert (tmp_path / "default" / "torus.csv").read_bytes() == \
        (tmp_path / "set" / "torus.csv").read_bytes()
    default, set_ = (json.loads((tmp_path / d / "summary.json").read_text())
                     for d in ("default", "set"))
    assert default["config"].pop("torus_delta_prime") is None
    assert set_["config"].pop("torus_delta_prime") == 0.55
    for s in (default, set_):
        s["config"].pop("out_dir")
    assert default == set_ and default["delta_prime"] == 0.55


def test_torus_ball_run(tmp_path):
    cfg = RunConfig(experiment="torus", torus_mode="ball", torus_n=2, torus_delta_prime=0.5,
                    j_min=2**10, j_max=2**22, out_dir=str(tmp_path))
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert abs(summary["ratio_exponent"] - 0.5) <= 0.05


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "causticlab.cli", "catalog", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "catalog.csv").exists()
    bad = subprocess.run(
        [sys.executable, "-m", "causticlab.cli", "supnorm", "--delta", "1.5"],
        capture_output=True, text=True)
    assert bad.returncode == 2
    assert "delta" in bad.stderr


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is most of the import time and only the Lemma 6.2 oracle needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, causticlab.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


@pytest.mark.parametrize("content, fieldname", [
    ({"h_points": "6"}, "h_points"),
    ({"deltas": 0.5}, "deltas"),
    ([{"h_points": 6}], "config"),
    ({"cap_constant": 0}, "cap_constant"),  # deleted fields are unknown
    ({"shell_lambda_count": 0}, "shell_lambda_count"),
])
def test_malformed_config_file_exits_2(tmp_path, capsys, content, fieldname):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(content))
    status = main(["supnorm", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert status == 2
    assert f"config field '{fieldname}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"h_points": "\xff"}'),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, make):
    cfg_file = tmp_path / "cfg.json"
    make(cfg_file)
    status = main(["supnorm", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert status == 2
    err = capsys.readouterr().err
    assert "config field 'config'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_torus_sphere_mode_exits_2(tmp_path, capsys):
    # ball and dyadic are the only modes; "sphere" used to run the dyadic search
    assert main(["torus", "--mode", "sphere", "--out", str(tmp_path / "o")]) == 2
    assert "config field 'torus_mode'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, fieldname", [
    (["supnorm", "--amplitude", "bogus"], "amplitude"),
    (["supnorm", "--amplitude", "custom"], "amplitude"),
    (["torus", "--mode", "ball", "--torus-delta", "1"], "torus_delta"),  # read by dyadic mode only
    (["torus", "--mode", "ball", "--delta-prime", "0"], "torus_delta_prime"),
    (["torus", "--mode", "ball", "--delta-prime", "1.5"], "torus_delta_prime"),
    (["sweep", "--deltas", "0.1,1.5"], "deltas"),
    (["torus", "--n", "5"], "torus_n"),
    (["torus", "--mode", "dyadic", "--n", "4", "--j-min", "200000", "--j-max", "1000000"],
     "j_max"),
    (["torus", "--mode", "ball", "--n", "1", "--delta-prime", "1", "--j-min", "2",
      "--j-max", "1073741824"], "j_max"),
    (["supnorm", "--x-strategy", "full_grid"], "x_strategy"),
    (["supnorm", "--h-start", "0.00001"], "h_stop"),  # below the default stop
    (["fold", "--h-stop", "0.01"], "h_stop"),  # above the default start
    (["symbols", "--h-points", "5"], "h_points"),
    (["supnorm", "--budget", "0"], "eval_budget"),
    (["supnorm", "--budget", "-5"], "eval_budget"),
    (["fold", "--h-start", "0.01", "--h-stop", "0.01"], "h_stop"),  # both ends set
    (["supnorm", "--h-start", "0.001", "--h-stop", "0.01"], "h_stop"),
    (["supnorm", "--center", "nan"], "center"),
    (["supnorm", "--center", "inf"], "center"),
    (["torus", "--mode", "dyadic", "--delta-prime", "0.9"], "torus_delta_prime"),
    # radius 2^9.5 is within the n <= 3 bound, not the n = 4 one
    (["torus", "--mode", "ball", "--n", "4", "--delta-prime", "1", "--j-min", "2",
      "--j-max", "524288"], "j_max"),
    # the fold's caustic window is a ScanPlan strategy, not a CLI one
    (["supnorm", "--x-strategy", "caustic_window"], "x_strategy"),
    (["sweep", "--x-strategy", "caustic_window"], "x_strategy"),
    # two deltas with one 6-digit summary key
    (["fold", "--deltas", "0,0.1,0.1000001,0.5,1", "--h-start", "0.015625", "--h-stop",
      "0.0009765625", "--h-points", "5"], "deltas"),
    # the above saturator cancels A2's cubic and nothing else
    (["supnorm", "--type", "A3", "--amplitude", "fold_saturator_above"], "amplitude"),
    (["supnorm", "--type", "D4+", "--amplitude", "fold_saturator_above"], "amplitude"),
    # no block [J, 2J] fits, then three: the slope verdict needs four
    (["torus", "--mode", "dyadic", "--n", "2", "--torus-delta", "0.5", "--j-min", "300",
      "--j-max", "500"], "j_max"),
    (["torus", "--mode", "dyadic", "--j-min", "256", "--j-max", "4095"], "j_max"),
])
def test_out_of_range_configs_exit_2(tmp_path, capsys, argv, fieldname):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config field '{fieldname}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_value_types():
    assert RunConfig.from_dict({"delta": 0, "h_start": None}).delta == 0  # JSON int as float
    for bad in ({"h_points": True}, {"quick": 1}, {"delta": None}, {"deltas": [0.1, "x"]}):
        with pytest.raises(ConfigError) as e:
            RunConfig.from_dict(bad)
        assert e.value.fieldname == next(iter(bad))


# Each subcommand's flags besides --config and --out: one per RunConfig field its
# runner reads.  Adding a flag means editing this table.
_H = ["--h-start", "--h-stop", "--h-points"]
_AMPLITUDE = ["--amplitude", "--delta", "--center"]
GOLDEN_FLAGS = {
    "catalog": [],
    "symbols": [*_AMPLITUDE, *_H],
    "supnorm": ["--type", *_AMPLITUDE, *_H, "--x-strategy",
                "--points-per-shell", "--rel-tol", "--budget"],
    "sweep": ["--type", "--deltas", *_H, "--x-strategy", "--points-per-shell",
              "--rel-tol", "--budget"],
    "torus": ["--n", "--mode", "--torus-delta", "--delta-prime", "--j-min", "--j-max"],
    "fold": ["--deltas", *_H, "--rel-tol", "--budget"],
    "lemma62": [],
    "verify": [],
}


def _parser_flags() -> dict[str, list[str]]:
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {name: [s for a in parser._actions for s in a.option_strings
                   if s not in ("-h", "--help")]
            for name, parser in sub.choices.items()}


def test_subcommand_flags_golden():
    flags = _parser_flags()
    assert list(flags) == list(SUBCOMMANDS)
    assert flags == {name: ["--config", "--out", *golden]
                     for name, golden in GOLDEN_FLAGS.items()}
    assert sum(len(f) - 1 for f in flags.values()) == 46  # not counting --config


def test_readme_flag_table_matches_parser():
    lines = README.read_text().split("| subcommand | flags |")[1].splitlines()[2:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        name, cell = line.strip("|").split("|")
        rows[name.strip().strip("`")] = re.findall(r"`(--[a-z-]+)", cell)
    assert rows == {name: flags[2:] for name, flags in _parser_flags().items()}


def _exit_status(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse rejects a flag the subcommand does not take
        return e.code


@pytest.mark.parametrize("argv, name", [
    (["lemma62", "--rel-tol", "1e-3"], "--rel-tol"),
    (["torus", "--mode", "dyadic", "--type", "E8"], "--type"),
    (["sweep", "--amplitude", "gaussian"], "--amplitude"),
    (["fold", "--workers", "2"], "--workers"),
    (["verify", "--workers", "2"], "--workers"),
    (["catalog", "--quick"], "--quick"),
    (["lemma62", {"rel_tol": 1e-3}], "config field 'rel_tol'"),
    (["lemma62", {"experiment": "fold"}], "config field 'experiment'"),
    (["supnorm", "--points-per-shell", "3"], "points_per_shell"),
    (["sweep", "--x-strategy", "origin_only", "--points-per-shell", "2"], "points_per_shell"),
    (["torus", "--mode", "ball", "--delta-prime", "0.5", "--torus-delta", "0.9"],
     "torus_delta"),
    (["supnorm", "--workers", "2"], "--workers"),
    (["sweep", "--workers", "2"], "--workers"),
    (["torus", "--mode", "ball", "--torus-delta", "0.3"], "torus_delta"),
])
def test_unread_settings_exit_2(tmp_path, capsys, argv, name):
    if isinstance(argv[-1], dict):
        (tmp_path / "cfg.json").write_text(json.dumps(argv[-1]))
        argv = [argv[0], "--config", str(tmp_path / "cfg.json")]
    assert _exit_status(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_run_rejects_an_unread_field(tmp_path, capsys):
    assert run(RunConfig(experiment="lemma62", rel_tol=1e-3, out_dir=str(tmp_path / "o"))) == 2
    assert "config field 'rel_tol'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _readme_commands():
    lines = [ln.split("#")[0].strip() for ln in README.read_text().splitlines()]
    return [ln for ln in lines if ln.startswith("causticlab ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_parse_and_validate(line):
    cfg = config_from_args(shlex.split(line)[1:])
    validate(cfg)
    assert cfg.experiment == SUBCOMMANDS[shlex.split(line)[1]][0]


def test_benchmark_commands_parse_and_validate():
    spec = importlib.util.spec_from_file_location(
        "workloads", README.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [list(workloads.WARMUP_ARGV)]
    for w in workloads.WORKLOADS:
        argvs += workloads.commands(w, 1) + workloads.commands(w, 1, tiny=True)
    for argv in argvs:
        validate(config_from_args(argv))


def test_readme_dyadic_example_runs(tmp_path):
    line = next(ln for ln in _readme_commands() if "--mode dyadic" in ln)
    argv = shlex.split(line)[1:]
    argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["ok"] and len(summary["blocks"]) == 8


def test_torus_dyadic_four_blocks_fit(tmp_path):
    # j_max = 16 j_min is the narrowest range with the four blocks a slope needs;
    # one less exits 2 before any walk (test_out_of_range_configs_exit_2)
    argv = ["torus", "--mode", "dyadic", "--n", "2", "--torus-delta", "0.5",
            "--j-min", "256", "--j-max", "4096", "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [b["J"] for b in summary["blocks"]] == [256, 512, 1024, 2048]


def test_verify_matrix_carries_details(tmp_path, monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        {"C01": acceptance.crit01_catalog_exactness})
    assert run(RunConfig(experiment="verify", out_dir=str(tmp_path))) == 0
    matrix = json.loads((tmp_path / "verify_matrix.json").read_text())
    assert matrix == {"experiment": "verify", "criteria": [
        {"id": "C01", "name": "catalog exactness", "status": "PASS",
         "details": {"mismatches": [], "types": 19}}]}
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert list(timings) == ["C01"] and timings["C01"] >= 0.0


# The settable fields and parameters of the library's experiment types, the
# amplitude kinds and the keys of the order-tolerance table.  Adding an option
# means editing this table.
GOLDEN_OPTIONS = {
    "IntegralSpec": ["phase", "amplitude", "x", "h", "rel_tol", "budget"],
    "ScanPlan": ["phase", "amplitude", "h_grid", "x_strategy", "points_per_shell",
                 "rel_tol", "eval_budget"],
    "fold_plan": ["delta", "h_grid", "rel_tol", "eval_budget"],
    "CapQuery": ["omega", "mu", "j", "cap_constant"],
    "AmplitudeProfile": ["kind", "delta", "center", "evaluator"],
    "KindRow": ["width_exponent", "prefactor_exponent", "cubic_modulation", "support_const"],
    "FamilyMember": ["amplitude", "reference", "tolerance", "exploratory", "l2"],
    "make_amplitude": ["kind", "delta", "center", "dim", "evaluator"],
    "KINDS": ["narrow_bump", "gaussian", "fold_saturator_above", "custom"],
    "ORDER_TOLERANCE": [1, 2],
    "check_symbol_order": ["profile", "h_grid"],
    "estimate_sup_derivative": ["profile", "alpha", "h"],
    "threshold_sweep": ["plan", "deltas", "family"],
    "two_segment_breakpoint": ["deltas", "slopes"],
    "cap_solid_volume": ["n", "J", "delta"],
    "dyadic_lower_bound_search": ["n", "delta", "J_range"],
    "crit02_quasi_homogeneity": [],
    "crit03_quadrature_oracles": [],
    "crit10_torus_exact": [],
}


def test_option_surface_golden():
    classes = {"IntegralSpec": oscint.IntegralSpec, "ScanPlan": scaling.ScanPlan,
               "CapQuery": torus.CapQuery,
               "AmplitudeProfile": amplitudes.AmplitudeProfile}
    seen = {name: [f.name for f in dataclasses.fields(cls)] for name, cls in classes.items()}
    seen["KindRow"] = list(amplitudes.KindRow._fields)
    seen["FamilyMember"] = list(scaling.FamilyMember._fields)
    seen["KINDS"] = list(amplitudes.KINDS)
    seen["ORDER_TOLERANCE"] = list(scaling.ORDER_TOLERANCE)
    for fn in (amplitudes.make_amplitude, amplitudes.check_symbol_order,
               amplitudes.estimate_sup_derivative, scaling.threshold_sweep, fold.fold_plan,
               fold.two_segment_breakpoint, torus.cap_solid_volume,
               torus.dyadic_lower_bound_search,
               acceptance.crit02_quasi_homogeneity,
               acceptance.crit03_quadrature_oracles, acceptance.crit10_torus_exact):
        seen[fn.__name__] = list(inspect.signature(fn).parameters)
    assert seen == GOLDEN_OPTIONS
