"""Acceptance gate: every criterion at its pinned tolerance.

One test per criterion; each prints a single status line (visible with -s or
in the captured output on failure).  Set CAUSTICLAB_QUICK=1 to skip the slow
2D criteria (C07, C08), mirroring the CLI's --quick flag; the default run
includes everything.
"""

import os
import tempfile

import pytest

from causticlab import acceptance

QUICK = os.environ.get("CAUSTICLAB_QUICK", "") not in ("", "0")


def _check(cid: str, quick: bool = False):
    res = acceptance.run_criterion(cid, quick=quick)
    print(f"{res.cid} {res.name}: {res.status}")
    if res.skipped:
        pytest.skip(f"{cid} skipped under quick mode")
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
    res = _check("C04")
    assert abs(res.details["slope"] - 1.0 / 6.0) <= 0.03
    assert res.details["r_squared"] >= 0.98


def test_c05_a2_below_threshold_stability():
    res = _check("C05")
    for entry in res.details.values():
        assert abs(entry["slope"] - 1.0 / 6.0) <= 0.05


def test_c06_a3_order():
    res = _check("C06")
    assert abs(res.details["slope"] - 0.25) <= 0.04


def test_c07_d4_orders_2d():
    res = _check("C07", quick=QUICK)
    for label in ("D4-", "D4+"):
        assert abs(res.details[label]["slope"] - 1.0 / 3.0) <= 0.06


def test_c08_e_series_boundedness():
    res = _check("C08", quick=QUICK)
    for label in ("E6", "E7", "E8"):
        assert res.details[label]["spread"] <= 3.0


def test_c09_fold_regime_change():
    res = _check("C09")
    assert res.details["max_slope_error"] <= 0.04
    assert 0.28 <= res.details["breakpoint"] <= 0.38


def test_c10_torus_exact_identities():
    res = _check("C10")
    assert res.details["mismatches"] == []
    assert res.details["ratio_error"] <= 1e-9


def test_c11_torus_scaling():
    res = _check("C11")
    assert abs(res.details["ball_mode_slope"] - 0.5) <= 0.05
    assert res.details["dyadic_lower_bound"]["slope"] >= -0.15


def test_c12_symbol_checker_calibration():
    res = _check("C12")
    assert abs(res.details["gaussian_alpha0"]["fitted"] - 0.2) <= 0.05


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
