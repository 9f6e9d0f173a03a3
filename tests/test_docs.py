"""The README against the code: the names it lists exist, its tolerances are the constants."""

import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import causticlab
from causticlab import acceptance, amplitudes, fold, oscint, scaling, torus
from causticlab.amplitudes import make_amplitude
from causticlab.catalog import CANONICAL_LABELS, SingularityType, build_phase

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_and_documented_names_resolve():
    # a deleted or moved function otherwise lingers in __all__ or the README unnoticed
    for name in causticlab.__all__:
        assert hasattr(causticlab, name), name
    layout = README.read_text(encoding="utf-8").split("## Library layout\n", 1)[1]
    layout = layout.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(causticlab\.\w+)` \| (.*) \|$", layout, flags=re.MULTILINE)
    assert len(rows) == 7
    for modname, contents in rows:
        module = importlib.import_module(modname)
        for name in re.findall(r"`(\w+)`", contents):
            assert hasattr(module, name), (modname, name)



_DECIMAL = re.compile(r"\d*\.\d+|\d+e-\d+")  # 0.05, 1e-6; not the 2 of nδ′/2


def test_readme_tolerance_table_matches_the_constants():
    # no flag overrides a tolerance, so this table is the one statement of every bound
    lines = README.read_text(encoding="utf-8").split("| fit or check | tolerance |")[1]
    rows = {}
    for line in lines.splitlines()[2:]:
        if not line.startswith("|"):
            break
        label, cell = line.strip("|").split("|")
        rows[label.strip()] = (_DECIMAL.sub("#", cell.strip()),
                               pytest.approx([float(v) for v in _DECIMAL.findall(cell)]))
    order = scaling.ORDER_TOLERANCE
    # sphere_window is (n-1)delta/2 plus two fixed offsets
    (low, high), = {tuple(round(b - (n - 1) * d / 2, 12) for b in torus.sphere_window(n, d))
                    for n in (1, 2, 3, 4) for d in (0.25, 0.5, 0.75, 1.0)}
    first, second = (Fraction(e) for e in fold.LEMMA62_EXPONENTS)
    assert rows == {
        "`supnorm` and `sweep`, 1D types (A)": ("#", [order[1]]),
        "`supnorm` and `sweep`, 2D types (D, E)": ("#", [order[2]]),
        "`fold`, every δ": ("#, and the breakpoint in [#, #]",
                            [fold.FOLD_TOLERANCE, *fold.BREAKPOINT_WINDOW]),
        "`torus --mode ball`": ("# around nδ′/2", [torus.BALL_EXPONENT_TOLERANCE]),
        "`torus --mode dyadic`": ("between (n−1)δ/2 − 1/2 − # and (n−1)δ/2 + #",
                                  [-0.5 - low, high]),
        "`symbols`": ("# on every fitted order", [amplitudes.SYMBOL_ORDER_TOLERANCE]),
        "`lemma62`": (f"relative error # against the closed forms; ε-exponents within # "
                      f"of {first} and {second}",
                      [fold.LEMMA62_REL_TOL, fold.LEMMA62_EXPONENT_TOL]),
        "C02 quasi-homogeneity identity": ("defect at most # · (1 + abs(λφ(x, θ)))",
                                           [acceptance.QUASI_HOMOGENEITY_TOL]),
        "C03 A₁ Fresnel integral": ("relative error # against √π e^{iπ/4}",
                                    [acceptance.FRESNEL_REL_TOL]),
    }


def test_readme_budget_sentence_matches_default_budget():
    # the conventions paragraph states each k's default budget as a power of 2
    text = " ".join(README.read_text(encoding="utf-8").split())
    (one, two), = re.findall(r"2\^(\d+) axis evaluations for k = 1, 2\^(\d+) for k = 2", text)
    assert oscint.DEFAULT_BUDGET == {1: 2 ** int(one), 2: 2 ** int(two)}


def test_readme_sup_at_sentence_names_the_keys_of_every_scan():
    # one sup_at format: a window's and a shell scan's entries carry the keys the README names
    text = " ".join(README.read_text(encoding="utf-8").split())
    (sentence,) = re.findall(r"Its `sup_at` list says[^.]*\.", text)
    named = set(re.findall(r"`(\w+)`", sentence)) - {"sup_at"}
    grid = scaling.geometric_grid(2.0**-8, 2.0**-12, 5)
    sups = tuple(scaling.SupRow(h, 1.0, argmax, True) for argmax, h in enumerate(grid))
    a2 = build_phase(SingularityType.parse("A2"))
    for strategy in ("caustic_window", "omega_shells"):
        plan = scaling.ScanPlan(a2, make_amplitude("narrow_bump"), grid, x_strategy=strategy)
        assert [set(s) for s in scaling.ScanResult(plan, (), sups).sup_at] == [named] * 5


def test_readme_half_rule_names_the_halved_axes():
    # the table of halved axes at x = 0 against the engine's per-axis parities, for
    # every 2D catalog type; "D4±" names D4+ and D4-, an axis it omits keeps [-R, R]
    lines = README.read_text(encoding="utf-8").split("| types at x = 0 | halved axes |")[1]
    table = {}
    for line in lines.splitlines()[2:]:
        if not line.startswith("|"):
            break
        types, axes = (cell.strip() for cell in line.strip("|").split("|"))
        halved = [None, None]
        for axis, parity in re.findall(r"θ([12]) (even|odd)", axes):
            halved[int(axis) - 1] = ("even", "odd").index(parity)
        for label in types.split(", "):
            for variant in ([label[:-1] + "+", label[:-1] + "-"] if label.endswith("±")
                            else [label]):
                assert variant not in table, variant
                table[variant] = halved
    amp = make_amplitude("narrow_bump", dim=2)
    engine = {}
    for label in CANONICAL_LABELS:
        ph = build_phase(SingularityType.parse(label))
        if ph.k == 2:
            parts, mixed = ph.theta_poly((0.0,) * ph.k0).split_axes()
            engine[label] = oscint._axis_parities(amp, parts, mixed, ())
    assert len(engine) == 11
    assert table == engine
