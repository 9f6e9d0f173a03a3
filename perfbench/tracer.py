"""Spans and counts for causticlab's layers, recorded from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: name, start, end,
parent span and the index of the CLI command that caused it.  Functions that
other modules import by name (``evaluate`` in ``scaling`` and ``fold``,
``build_phase``, ``fit_exponent``, the report writers) are replaced in every
``causticlab`` module that holds them.  ``uninstall`` puts the originals back.
No file under ``src/`` changes; in-program tracing is a later change.

Spans stay in memory; ``layer_metrics`` turns one pass's spans into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time


def _converged_and_k(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return (bool(result.converged), spec.phase.k)


def _phase_nodes(args, kwargs, result):
    # args[0] is the ThetaPoly; the rest are coordinate arrays.
    return int(getattr(result, "size", 1))


def _outer_nodes(args, kwargs, result):
    poly = args[0]
    return (int(result.size), len(poly.terms))


def _scan_rows(args, kwargs, result):
    return len(result.rows)


def _cap_query(args, kwargs, result):
    return (args[0] if args else kwargs["q"], int(result))


def _ball_count(args, kwargs, result):
    return int(result)


def _written_path(args, kwargs, result):
    return str(args[0] if args else kwargs["path"])


# (span name, module, attribute, extra recorded from the call's arguments/result)
TARGETS = (
    ("cli.run", "causticlab.cli", "run", None),
    ("reports.write", "causticlab.reports", "write_csv", _written_path),
    ("reports.write", "causticlab.reports", "write_json", _written_path),
    ("catalog.build_phase", "causticlab.catalog", "build_phase", None),
    ("catalog.theta_poly", "causticlab.catalog", "PhaseFunction.theta_poly", None),
    ("oscint.evaluate", "causticlab.oscint", "evaluate", _converged_and_k),
    ("polys.phase_eval", "causticlab.polys", "ThetaPoly.__call__", _phase_nodes),
    ("polys.eval_outer", "causticlab.polys", "ThetaPoly.eval_outer", _outer_nodes),
    ("polys.profile", "causticlab.polys", "ThetaPoly.abs_bound_profile", None),
    ("amplitudes.axis_slow", "causticlab.amplitudes", "AmplitudeProfile.axis_slow", None),
    ("amplitudes.l2_theta", "causticlab.amplitudes", "AmplitudeProfile.l2_theta", None),
    ("scaling.supnorm_scan", "causticlab.scaling", "supnorm_scan", _scan_rows),
    ("scaling.fit_exponent", "causticlab.scaling", "fit_exponent", None),
    ("fold.run_fold", "causticlab.fold", "run_fold", None),
    ("fold.breakpoint", "causticlab.fold", "two_segment_breakpoint", None),
    ("torus.sphere_cap_count", "causticlab.torus", "sphere_cap_count", _cap_query),
    ("torus.dyadic", "causticlab.torus", "dyadic_lower_bound_search", None),
    ("torus.count_in_ball", "causticlab.torus", "count_in_ball", _ball_count),
    ("torus.cap_solid_volume", "causticlab.torus", "cap_solid_volume", None),
)

# Span record layout: [id, parent id, name, start, end, command index, extra]
SID, PARENT, NAME, START, END, CMD, EXTRA = range(7)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0,
                    self.command, None]
            spans.append(span)
            stack.append(span[SID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items()
                   if n == "causticlab" or n.startswith("causticlab.")]
        for name, modname, attr, extra in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, extra))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, extra)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def export(self, t0: float) -> list[list]:
        """Spans as [id, parent, name, start, end, command] with times from t0."""
        return [[s[SID], s[PARENT], s[NAME], round(s[START] - t0, 9),
                 round(s[END] - t0, 9), s[CMD]] for s in self.spans]


def _percentile(sorted_vals: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest of 99.9/99/95/90/75/50 with at least ten samples beyond it.

    With fewer than 20 samples none qualifies and the median is used.
    """
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def cap_candidates(q) -> int:
    """Bounding-box points ``sphere_solutions`` examines for one query (computed).

    The first n-1 coordinates range over the cap's bounding box clipped to
    [-isqrt(j), isqrt(j)]; the last one is solved, not enumerated.
    """
    j = q.j if q.j is not None else round(q.h_value**-2)
    if q.n == 1:
        return 2
    rad = math.isqrt(j)
    w = q.cap_radius
    total = 1
    for i in range(q.n - 1):
        c = math.sqrt(j) * q.omega[i]
        lo = max(-rad, math.ceil(c - w))
        hi = min(rad, math.floor(c + w))
        if lo > hi:
            return 0
        total *= hi - lo + 1
    return total


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    child = [0.0] * len(spans)
    eval_of = [-1] * len(spans)  # nearest oscint.evaluate ancestor (or self)
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
        if s[NAME] == "oscint.evaluate":
            eval_of[s[SID]] = s[SID]
        elif p >= 0:
            eval_of[s[SID]] = eval_of[p]

    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        dur = s[END] - s[START]
        total[s[NAME]] = total.get(s[NAME], 0.0) + dur
        self_t[s[NAME]] = self_t.get(s[NAME], 0.0) + dur - child[s[SID]]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    evals = [s for s in spans if s[NAME] == "oscint.evaluate"]
    nodes = {s[SID]: 0 for s in evals}
    amp_calls = {s[SID]: 0 for s in evals}
    outer_bytes = 0
    cap_cands = cap_found = ball_found = 0
    report_bytes = 0
    candidates = 0
    for s in spans:
        name, ev = s[NAME], eval_of[s[SID]]
        if name == "polys.phase_eval" and ev >= 0:
            nodes[ev] += s[EXTRA]
        elif name == "polys.eval_outer":
            size, terms = s[EXTRA]
            # float64 bytes: one zero-filled accumulator, then per term one
            # outer-product write and one read-modify-write of the accumulator
            outer_bytes += 8 * size * (1 + 3 * terms)
            if ev >= 0:
                nodes[ev] += size
        elif name == "amplitudes.axis_slow" and ev >= 0:
            amp_calls[ev] += 1
        elif name == "torus.sphere_cap_count":
            q, found = s[EXTRA]
            cap_cands += cap_candidates(q)
            cap_found += found
        elif name == "torus.count_in_ball":
            ball_found += s[EXTRA]
        elif name == "reports.write" and os.path.exists(s[EXTRA]):
            report_bytes += os.path.getsize(s[EXTRA])
        elif name == "scaling.supnorm_scan":
            candidates += s[EXTRA]

    all_nodes = sum(nodes.values())
    wasted = sum(nodes[s[SID]] for s in evals if not s[EXTRA][0])
    passes = sum(amp_calls[s[SID]] / s[EXTRA][1] for s in evals)
    eval_time = total.get("oscint.evaluate", 0.0)
    durs_ms = sorted((s[END] - s[START]) * 1e3 for s in evals)
    tail_p = tail_percentile(len(durs_ms))

    def c(name):
        return float(calls.get(name, 0))

    return {
        "oscint.evaluate.calls": (c("oscint.evaluate"), "count"),
        "oscint.evaluate.self_s": (self_t.get("oscint.evaluate", 0.0), "s"),
        "oscint.evaluate.p50_ms": (_percentile(durs_ms, 50.0), "ms"),
        "oscint.evaluate.tail_ms": (_percentile(durs_ms, tail_p), "ms"),
        "oscint.evaluate.tail_pct": (tail_p, "%"),
        "oscint.nodes": (float(all_nodes), "count"),
        "oscint.passes": (float(passes), "count"),
        "oscint.nodes_per_s": (all_nodes / eval_time if eval_time > 0 else 0.0, "1/s"),
        "oscint.nonconverged": (float(sum(1 for s in evals if not s[EXTRA][0])), "count"),
        "oscint.wasted_node_share": (wasted / all_nodes if all_nodes else 0.0, "ratio"),
        "polys.phase_eval_s": (total.get("polys.phase_eval", 0.0), "s"),
        "polys.phase_eval.calls": (c("polys.phase_eval"), "count"),
        "polys.eval_outer_s": (total.get("polys.eval_outer", 0.0), "s"),
        "polys.eval_outer.calls": (c("polys.eval_outer"), "count"),
        "polys.eval_outer_bytes": (float(outer_bytes), "bytes_computed"),
        "polys.profile_s": (total.get("polys.profile", 0.0), "s"),
        "amplitudes.axis_slow_s": (total.get("amplitudes.axis_slow", 0.0), "s"),
        "amplitudes.axis_slow.calls": (c("amplitudes.axis_slow"), "count"),
        "amplitudes.l2_theta_s": (total.get("amplitudes.l2_theta", 0.0), "s"),
        "catalog.theta_poly_s": (total.get("catalog.theta_poly", 0.0), "s"),
        "catalog.build_phase_s": (total.get("catalog.build_phase", 0.0), "s"),
        "scaling.supnorm_scan.self_s": (self_t.get("scaling.supnorm_scan", 0.0), "s"),
        "scaling.candidates": (float(candidates), "count"),
        "scaling.fit_exponent_s": (total.get("scaling.fit_exponent", 0.0), "s"),
        "fold.run_fold.self_s": (self_t.get("fold.run_fold", 0.0), "s"),
        "fold.breakpoint_s": (total.get("fold.breakpoint", 0.0), "s"),
        "torus.sphere_cap_count.calls": (c("torus.sphere_cap_count"), "count"),
        "torus.sphere_cap_count_s": (total.get("torus.sphere_cap_count", 0.0), "s"),
        "torus.cap_candidates": (float(cap_cands), "count"),
        "torus.cap_hit_ratio": (cap_found / cap_cands if cap_cands else 0.0, "ratio"),
        "torus.points_found": (float(cap_found + ball_found), "count"),
        "torus.dyadic.self_s": (self_t.get("torus.dyadic", 0.0), "s"),
        "torus.count_in_ball.calls": (c("torus.count_in_ball"), "count"),
        "torus.count_in_ball_s": (total.get("torus.count_in_ball", 0.0), "s"),
        "torus.cap_solid_volume_s": (total.get("torus.cap_solid_volume", 0.0), "s"),
        "cli.run.self_s": (self_t.get("cli.run", 0.0), "s"),
        "reports.write_s": (total.get("reports.write", 0.0), "s"),
        "reports.bytes": (float(report_bytes), "bytes"),
    }


# Counters that do not depend on the hardware: equal on every run of one seed.
COUNTERS = (
    "oscint.evaluate.calls", "oscint.nodes", "oscint.passes", "oscint.nonconverged",
    "polys.phase_eval.calls", "polys.eval_outer.calls", "polys.eval_outer_bytes",
    "amplitudes.axis_slow.calls", "scaling.candidates",
    "torus.sphere_cap_count.calls", "torus.cap_candidates", "torus.points_found",
    "torus.count_in_ball.calls", "reports.bytes",
)


def median_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    """Median of each metric over the traced passes."""
    return {name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}
