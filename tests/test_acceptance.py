"""Acceptance gate: every criterion at its pinned tolerance.

One test per criterion; each prints a single status line (visible with -s or
in the captured output on failure).  A criterion that is a row of CLI
commands reports each command's summary under its command string.
"""

import re
import tempfile
from pathlib import Path

from causticlab import acceptance
from causticlab.cli import config_from_args, validate

README = Path(__file__).resolve().parents[1] / "README.md"
ROWS = {cid: check for cid, check in acceptance.ALL_CRITERIA.items()
        if isinstance(check, acceptance.CommandRow)}


def _check(cid: str):
    res = acceptance.run_criterion(cid)
    print(f"{res.cid} {res.name}: {res.status}")
    assert res.passed, f"{res.cid} {res.name} failed: {res.details}"
    return res


def test_c01_catalog_exactness():
    res = _check("C01")
    assert res.details["types"] == 19


def test_c02_quasi_homogeneity():
    _check("C02")


def test_c03_quadrature_oracles():
    res = _check("C03")
    assert res.details["lemma62_max_rel"] <= 1e-6
    assert res.details["fresnel_rel"] <= 1e-6


def test_c04_a2_order():
    summary = _check("C04").details["supnorm --type A2"]
    assert abs(summary["slope"] - 1.0 / 6.0) <= 0.03
    assert summary["r_squared"] >= 0.98


def test_c05_a2_below_threshold_stability():
    (summary,) = _check("C05").details.values()
    assert [e["delta"] for e in summary["entries"]] == [0.1, 0.2, 0.3, 1.0 / 3.0]
    for entry in summary["entries"]:
        assert abs(entry["fit"]["slope"] - 1.0 / 6.0) <= 0.05
        assert entry["cost"]["unconverged"] == 0


def test_c06_a3_order():
    summary = _check("C06").details["supnorm --type A3"]
    assert abs(summary["slope"] - 0.25) <= 0.03


def test_c07_d4_orders_2d():
    res = _check("C07")
    for label in ("D4-", "D4+"):
        assert abs(res.details[f"supnorm --type {label}"]["slope"] - 1.0 / 3.0) <= 0.06


def test_c08_e_series_boundedness():
    # h^kappa sup|I| is bounded: each E type's order fits kappa on every h, all converged
    res = _check("C08")
    for label, kappa in (("E6", 5 / 12), ("E7", 4 / 9), ("E8", 7 / 15)):
        summary = res.details[f"supnorm --type {label}"]
        assert abs(summary["slope"] - kappa) <= 0.06
        assert summary["fit"]["n_rows"] == 10 and summary["cost"]["unconverged"] == 0


def test_c09_fold_regime_change():
    (summary,) = _check("C09").details.values()
    assert summary["max_slope_error"] <= 0.04
    assert 0.28 <= summary["breakpoint"] <= 0.38
    assert summary["cost"].keys() == summary["slopes"].keys()


def test_c10_torus_exact_identities():
    res = _check("C10")
    assert res.details["mismatches"] == []


def test_c11_torus_scaling():
    res = _check("C11")
    ball, *dyadic = res.details.values()
    assert abs(ball["ratio_exponent"] - 0.5) <= 0.05
    # both ends of sphere_window, for every (n, delta)
    assert len(dyadic) == 4
    for summary in dyadic:
        assert summary["lower_bound"] <= summary["ratio_exponent"] <= summary["upper_bound"]
    n3 = res.details["torus --mode dyadic --n 3 --torus-delta 0.5 --j-min 256 --j-max 32768"]
    assert n3["ratio_exponent"] >= -0.15


def test_c12_symbol_checker_calibration():
    res = _check("C12")
    gauss = res.details["symbols --amplitude gaussian --delta 0.4"]
    assert abs(gauss["orders"][0]["fitted"] - 0.2) <= 0.05
    for summary in res.details.values():
        assert [o["alpha"] for o in summary["orders"]] == [0, 1, 2, 3]
        for order in summary["orders"]:
            assert abs(order["fitted"] - order["expected"]) <= 0.05


def test_c13_determinism(tmp_path):
    res = acceptance.crit13_determinism(workdir=tmp_path)
    print(f"{res.cid} {res.name}: {res.status}")
    assert res.passed, res.details


def test_c13_leaves_no_temp_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    res = acceptance.crit13_determinism()
    assert res.passed, res.details
    assert list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert str(tmp_path) not in out + err  # no line names the deleted directory


def test_row_details_name_no_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    res = acceptance.run_criterion("C04")
    assert res.passed and "config" not in res.details["supnorm --type A2"]
    assert str(tmp_path) not in repr(res.details)
    assert list(tmp_path.iterdir()) == []


def test_failing_command_fails_its_row():
    row = acceptance.CommandRow("bad", ("supnorm --type A2", "supnorm --delta 1.5"))
    res = row.run("C99")
    assert not res.passed
    assert "status" not in res.details["supnorm --type A2"]
    assert res.details["supnorm --delta 1.5"] == {"status": 2}


def _gate_commands():
    commands = {cid: row.commands for cid, row in ROWS.items()}
    commands["C13"] = (acceptance.DETERMINISM_COMMAND,)
    return commands


def test_gate_commands_parse_and_validate():
    for cid, commands in _gate_commands().items():
        for command in commands:
            validate(config_from_args(command.split()))


def test_readme_lists_the_gate_commands():
    # README's "Install and test" table: | Cnn name | `causticlab ...` ... |
    listed = {}
    for line in README.read_text().splitlines():
        m = re.match(r"\| (C\d\d) ", line)
        if m:
            listed[m.group(1)] = tuple(c.removeprefix("causticlab ")
                                       for c in re.findall(r"`(causticlab [^`]*)`", line))
    assert sorted(listed) == sorted(acceptance.ALL_CRITERIA)
    assert {cid: cmds for cid, cmds in listed.items() if cmds} == _gate_commands()
