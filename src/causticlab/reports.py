"""Deterministic CSV/JSON writers for experiment reports.

Floats are rendered with ``repr`` (shortest round-trip form), rationals as
"p/q" strings, so rerunning an experiment with the same configuration yields
byte-identical files.  A non-finite float (the slope of a fit with too few
rows) is written to JSON as null, so a strict parser reads every summary.
Nothing time- or environment-dependent belongs here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return fmt_fraction(v)
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def fmt_fraction(fr: Fraction) -> str:
    fr = Fraction(fr)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, Fraction):
        return fmt_fraction(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):  # NaN and inf have no JSON form
        return float(obj) if math.isfinite(obj) else None
    return obj


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")
