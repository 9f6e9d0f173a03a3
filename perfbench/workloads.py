"""The four benchmark workloads, each a fixed list of documented CLI commands.

A workload is built from a seed and a scale.  The seed moves the inputs only a
little, so the work stays comparable from seed to seed:

* an h-grid keeps its finest step (which dominates the cost) and moves its
  coarse end by up to a quarter octave;
* the dyadic lattice searches move their first block start J by up to 3
  (J = 256..259), which keeps the block count and changes the block sizes
  by at most 1.2 %.

The ``tiny`` scale is for the self-test only: it runs every code path of the
full workload on grids small enough to finish in seconds.

No argv carries ``--seed`` or ``--workers``: the CLI runs with its defaults
(one worker), and the benchmark's seed never reaches the program.
"""

from __future__ import annotations

import random

WORKLOADS = ("fold_1d", "shells_1d", "origin_2d", "lattice")

# C09's delta set; 1/3 is written with all the digits the CLI parses.
FOLD_DELTAS = (0.0, 0.1, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0)
ORIGIN_2D_TYPES = ("D4-", "D4+", "E6", "E7", "E8")

# The warm-up every process runs after importing causticlab.cli and before
# its first timed command: one small A2 origin scan, which loads the
# quadrature path and fills the Gauss-Legendre node cache.
WARMUP_ARGV = ("supnorm", "--type", "A2", "--h-start", "0.1", "--h-stop", "0.05",
               "--h-points", "5")


def _num(v: float) -> str:
    return repr(float(v))


def _shifted_start(rng: random.Random, octave: float) -> float:
    """2^-octave moved finer by a seeded fraction of a quarter octave."""
    return 2.0 ** -(octave + rng.random() / 4.0)


def _h_args(start: float, stop: float, points: int) -> list[str]:
    return ["--h-start", _num(start), "--h-stop", _num(stop), "--h-points", str(points)]


def fold_1d(rng: random.Random, tiny: bool) -> list[list[str]]:
    """C09's fold regime change on a grid cut from 2^-8..2^-18 to 2^-8..2^-14."""
    deltas = (0.0, 0.2, 1.0 / 3.0, 0.5, 1.0) if tiny else FOLD_DELTAS
    start, stop, points = (6, 2.0**-10, 5) if tiny else (8, 2.0**-14, 7)
    return [["fold", "--deltas", ",".join(_num(d) for d in deltas),
             *_h_args(_shifted_start(rng, start), stop, points), "--rel-tol", "1e-07"]]


def shells_1d(rng: random.Random, tiny: bool) -> list[list[str]]:
    """C13's README-style A2 shell scan (h = 2^-6..2^-10, 5 points)."""
    argv = ["supnorm", "--type", "A2", "--x-strategy", "omega_shells",
            "--points-per-shell", "2"]
    if tiny:
        return [argv + _h_args(_shifted_start(rng, 6), 2.0**-7, 5)
                + ["--budget", str(2**20)]]
    return [argv + _h_args(_shifted_start(rng, 6), 2.0**-10, 5)]


def origin_2d(rng: random.Random, tiny: bool) -> list[list[str]]:
    """x = 0 scans of the 2D types on the coarse end of C07/C08's grid.

    C07/C08 use 10 points from 2^-4 to 2^-10; the first five end at 2^(-4-8/3).
    """
    types = ("D4-", "E6") if tiny else ORIGIN_2D_TYPES
    stop = 2.0 ** -(4.0 + 8.0 / 3.0)
    if tiny:
        stop = 2.0**-5
    start = _shifted_start(rng, 3 if tiny else 4)
    return [["supnorm", "--type", t, *_h_args(start, stop, 5)] for t in types]


def lattice(rng: random.Random, tiny: bool) -> list[list[str]]:
    """C11's dyadic searches (n in {2, 3}, delta in {0.5, 0.75}) plus one ball scan.

    Four blocks (J, 2J] from J0 = 256..259, the fewest the CLI's slope
    verdict accepts (C11 runs J up to 2^15/2^16), and the 4D ball scan over
    the CLI's default j range.
    """
    j0 = (64 if tiny else 256) + rng.randrange(4)
    dims = (2,) if tiny else (2, 3)
    cmds = [["torus", "--mode", "dyadic", "--n", str(n), "--torus-delta", _num(d),
             "--j-min", str(j0), "--j-max", str(16 * j0)]
            for n in dims for d in (0.5, 0.75)]
    if tiny:
        cmds.append(["torus", "--mode", "ball", "--n", "2", "--delta-prime", "0.75",
                     "--j-min", "256", "--j-max", "4096"])
    else:
        cmds.append(["torus", "--mode", "ball", "--n", "4", "--delta-prime", "0.75"])
    return cmds


_ARGV_LISTS = {"fold_1d": fold_1d, "shells_1d": shells_1d, "origin_2d": origin_2d,
             "lattice": lattice}


def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The workload's argv list for this seed (without ``--out``)."""
    rng = random.Random(f"{workload}:{seed}")
    return _ARGV_LISTS[workload](rng, tiny)
