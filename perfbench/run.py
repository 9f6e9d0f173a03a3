#!/usr/bin/env python3
"""causticlab benchmark: four CLI workloads, end to end and layer by layer.

Usage, from the root of a checkout (no install needed; ``src/`` is put on the
path):

    python3 perfbench/run.py --workload fold_1d --seed 1 --seconds 25 --trace 0

Each run is one fresh process.  It measures ``setup_s`` in fresh child
processes, imports ``causticlab.cli`` and warms up, then calls
``causticlab.cli.main(argv)`` in-process for the workload's commands, one
after another, in a closed loop with one client, repeating the whole list
("a pass") for about ``--seconds``.  The first pass is an untimed warm-up.
Every pass writes its reports; they are checked against independent oracles
(``checks.py``), and every pass must reproduce the first one's bytes.

``--trace 0`` prints the end-to-end metrics.  ``wall_s`` and ``cpu_s`` are
per-pass means over the timed passes, not medians: on a shared host the CPU
speed can flip between levels many times a second, and the mean integrates
those flips over the whole run.  ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics (``tracer.py``) plus the
tracing overhead, the difference of the two kinds' mean pass times.  The last stdout line is the result object; the
full record (environment, every pass) goes to ``.perfbench/results/`` and
the spans to ``.perfbench/traces/``.  Exit status: 0 on a correct run, 1 when
a check fails, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    n = _nproc()
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)


def _import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from causticlab import cli

    return cli


def _call(cli, argv, out: Path) -> int:
    """One CLI command in-process; the CLI's progress line is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*argv, "--out", str(out)])


def _setup_probe(out: str) -> None:
    """Child-process body for setup_s: import, warm up, report readiness."""
    from workloads import WARMUP_ARGV

    cli = _import_cli()
    _call(cli, WARMUP_ARGV, Path(out))
    print(json.dumps({"ready": time.monotonic()}))


def measure_setup(samples: int, scratch: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up."""
    times = []
    for i in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             str(scratch / f"setup{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0)
    return times


def _blas_threads():
    """OpenBLAS's own thread count when its library can be found, else None."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": _nproc(),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def _digest(outdir: Path) -> dict[str, str]:
    """Report bytes of one command; run.log holds wall time and is left out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*")) if p.is_file() and p.suffix != ".log"}


def run_passes(cli, commands, seconds: float, trace: bool, scratch: Path):
    """Closed loop over the command list for about ``seconds``.

    Pass 0 warms up: it is checked but not timed, because the first pass in a
    process runs measurably slower than the rest.  No pass starts once less
    than half the previous pass's time remains.  With ``trace`` odd passes
    are traced and even ones are not, and at least one of each is timed.
    Every pass writes to the same directories (the reports echo their output
    path), so each later pass's report bytes are compared with the first
    pass's.  Returns (passes, output dirs, crashes, mismatched passes).
    """
    from tracer import Tracer, layer_metrics

    passes = []
    dirs = [scratch / f"cmd{k}" for k in range(len(commands))]
    first_digest = None
    crashes: list[str] = []
    mismatched = 0
    deadline = time.perf_counter() + seconds
    i, wall = 0, 0.0
    while i < (3 if trace else 2) or time.perf_counter() + wall / 2 < deadline:
        traced = trace and i % 2 == 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            statuses = []
            for k, (argv, out) in enumerate(zip(commands, dirs)):
                if tracer:
                    tracer.command = k
                try:
                    statuses.append(_call(cli, argv, out))
                except Exception as e:  # a crashing command is a failed operation
                    crashes.append(f"pass {i} {' '.join(argv)}: {e!r}")
                    statuses.append(None)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer:
                tracer.uninstall()
        crashes += [f"pass {i} {' '.join(argv)}: exit status 2"
                    for argv, st in zip(commands, statuses) if st == 2]
        record = {"pass": i, "warmup": i == 0, "traced": traced, "wall_s": wall,
                  "cpu_s": cpu, "statuses": statuses}
        if tracer:
            record["layers"] = layer_metrics(tracer.spans)
            record["spans"] = tracer.export(t0)
        passes.append(record)
        digest = [_digest(d) for d in dirs]
        if first_digest is None:
            first_digest = digest
        mismatched += digest != first_digest
        i += 1
    return passes, dirs, crashes, mismatched


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the result object plus the full record."""
    import checks
    import workloads
    from tracer import median_metrics

    scratch = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        setup = measure_setup(setup_samples, scratch) if not trace else []
        cli = _import_cli()
        _call(cli, workloads.WARMUP_ARGV, scratch / "warmup")
        commands = workloads.commands(workload, seed, tiny)
        passes, dirs, crashes, mismatched = run_passes(
            cli, commands, seconds, trace, scratch)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, ops, ops_failed = checks.check_pass(commands, dirs, seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems += crashes
    if mismatched:
        problems.append(f"{mismatched} later passes did not reproduce the first "
                        "pass's report bytes")

    plain = [p for p in passes if not p["traced"] and not p["warmup"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = median_metrics([p["layers"] for p in traced])
        layers["trace.overhead_s"] = (
            statistics.fmean(p["wall_s"] for p in traced)
            - statistics.fmean(p["wall_s"] for p in plain), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.fmean(p["wall_s"] for p in plain), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(p["cpu_s"] for p in plain), "unit": "s"},
            "ok_ratio": {"value": (ops - ops_failed) / ops if ops else 0.0,
                         "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    attempted = len(commands) * len(passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commands": commands, "environment": environment(),
        "setup_s_samples": setup,
        "operations": {"attempted": ops, "failed": ops_failed,
                       "failed_ratio": ops_failed / ops if ops else 0.0},
        "problems": problems,
        "passes": [{k: v for k, v in p.items() if k not in ("layers", "spans")}
                   for p in passes],
        "result": result,
    }
    spans = [{"pass": p["pass"], "spans": p["spans"]} for p in passes if p["traced"]]
    return {"result": result, "record": record, "spans": spans}


def _write_outputs(out: dict, name: str) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(out["record"], indent=1) + "\n")
    if out["spans"]:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with gzip.open(traces / f"{name}.json.gz", "wt") as fh:
            json.dump({"columns": ["id", "parent", "name", "start_s", "end_s",
                                   "command"], "passes": out["spans"]}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    limit_blas_threads()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0

    import workloads

    if not (SRC / "causticlab" / "cli.py").is_file():
        print(f"perfbench: cannot run: no causticlab sources under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError) as e:
        print(f"perfbench: cannot run: {e}", file=sys.stderr)
        return 2
    rec = out["record"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_outputs(out, name)
    env = rec["environment"]
    print(f"# {name}: {len(rec['passes'])} passes; nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['cpu_model']}, load {env['loadavg']}")
    ops = rec["operations"]
    print(f"# operations {ops['attempted']}, failed {ops['failed']} "
          f"(failed_ratio {ops['failed_ratio']:.6g})")
    for p in rec["problems"]:
        print(f"# CHECK FAILED: {p}")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
