#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
* every workload runs correctly at the tiny scale and emits exactly the
  end-to-end metrics of BENCHMARK.json (untraced) and the per-layer metrics
  (traced), each with its declared unit;
* the hardware-independent counters repeat exactly between two traced runs;
* the oracles agree with brute force, and a perturbed report fails its check;
* the benchmark refuses to run, without printing a result, where the
  causticlab sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (run sets the BLAS thread limit before numpy loads)

run.limit_blas_threads()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def check_workloads() -> None:
    for w in workloads.WORKLOADS:
        plain = run.measure(w, 7, 0.01, trace=False, tiny=True, setup_samples=1)
        res = plain["result"]
        assert res["correct"], (w, plain["record"]["problems"])
        assert _emitted(res) == _units("end_to_end"), (w, _emitted(res))
        assert all(v["value"] > 0 for v in res["metrics"].values()), (w, res)
        traced = [run.measure(w, 7, 0.01, trace=True, tiny=True)["result"]
                  for _ in range(2)]
        for t in traced:
            assert t["correct"], w
            assert _emitted(t) == _units("per_layer"), (w, _emitted(t))
        for name in COUNTERS:
            a, b = (t["metrics"][name]["value"] for t in traced)
            assert a == b, f"{w}: counter {name} differs between runs: {a} != {b}"
        print(f"ok  {w}: metrics, units, correctness, counters repeat")


def check_oracles() -> None:
    # sphere caps: brute force over the whole cube in rational arithmetic.
    # With |a|^2 = j the cap test 2j - 2 sqrt(j) s <= j^delta divided by
    # sqrt(j) is 2 sqrt(j) - 1 <= 2s for delta = 1/2, and, for j = u^4 and
    # delta = 3/4, 2u^2 - u <= 2s.
    for n, j, delta in ((2, 325, Fraction(1, 2)), (2, 625, Fraction(3, 4)),
                        (3, 594, Fraction(1, 2)), (3, 1296, Fraction(3, 4))):
        omega = checks.SPHERE_OMEGA[n]
        u = math.isqrt(math.isqrt(j))
        if delta == Fraction(1, 2):
            inside = lambda s: 2 * s + 1 >= 0 and 4 * j <= (2 * s + 1) ** 2
        else:
            assert u**4 == j
            inside = lambda s: 2 * u * u - u <= 2 * s
        r = math.isqrt(j)
        brute = sum(1 for a in product(range(-r, r + 1), repeat=n)
                    if sum(v * v for v in a) == j
                    and inside(sum(v * w for v, w in zip(a, omega))))
        assert checks.exact_cap_count(n, j, delta) == brute, (n, j, delta)
    # balls: every point of the bounding box, distances in mpmath
    mp = checks.mpmath
    for center, radius in (((mp.mpf("0.3"), mp.mpf("-1.7")), mp.mpf(5)),
                           ((mp.mpf(0), mp.mpf(0), mp.mpf("0.5")), mp.sqrt(10)),
                           ((mp.sqrt(2), mp.mpf("0.25"), mp.mpf(1), mp.mpf(0)),
                            mp.mpf("3.5"))):
        boxes = [range(int(mp.floor(c - radius)) - 1, int(mp.ceil(c + radius)) + 2)
                 for c in center]
        brute = sum(1 for a in product(*boxes)
                    if sum((v - c) ** 2 for v, c in zip(a, center)) < radius**2)
        assert checks.exact_ball_count(center, radius) == brute, (center, radius)
    print("ok  oracles match brute force")


def check_perturbation() -> None:
    out = run.WORK / "selftest" / "cmd0"
    shutil.rmtree(out.parent, ignore_errors=True)
    cli = run._import_cli()
    argv = workloads.commands("shells_1d", 7, tiny=True)[0]
    run._call(cli, argv, out)
    try:
        problems, _, failed = checks.check_pass([argv], [out], 7)
        assert not problems and failed > 0, problems
        lines = (out / "scan.csv").read_text().splitlines()
        cols = lines[1].split(",")
        cols[3] = repr(float(cols[3]) * (1 + 1e-5))  # origin row, |I| off by 1e-5
        lines[1] = ",".join(cols)
        (out / "scan.csv").write_text("\n".join(lines) + "\n")
        problems, _, _ = checks.check_pass([argv], [out], 7)
        assert any("Airy" in p for p in problems), problems
    finally:
        shutil.rmtree(out.parent, ignore_errors=True)
    print("ok  a perturbed A2 row fails the Airy check")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "fold_1d",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok  refuses to run without the sources")


if __name__ == "__main__":
    check_oracles()
    check_perturbation()
    check_refuses_without_sources()
    check_workloads()
    print("selftest passed")
