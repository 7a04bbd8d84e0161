"""The random data-driven repro, and its status under several BLAS kernels.

    python tests/kernel_repro.py
    python tests/kernel_repro.py --coretypes Haswell Sandybridge

Designs D1 and D4 in data mode on the random plants of seeds 0-5 at
(n, m) = (4, 2), (6, 3) and (8, 4), built by the benchmark's
`perfbench/workloads.random_data_plant` with `plants.default_perf`: 36 solves.
Then the endgame designs, D4 in data mode on the plants of `d4_plant` with A
at spectral radius 1.05: the 16-state plant, whose last iterations are the
most sensitive to rounding of the solver's designs (`Optimal`, about 1.2 s),
and the 12-state plant, whose endgame is a certificate of infeasibility
(`Infeasible`, about 0.4 s). Prints one row per design (its status and
iteration count) and the sha1 of all the rows on the last line, and exits 1
when that sha1 is not `DIGEST`, the rows' recorded sha1: a change that moves
any design's status or iteration count shows here, and must record the new
rows and say why they moved.

With --coretypes, runs the repro once more in a fresh interpreter per named
OpenBLAS kernel (`OPENBLAS_CORETYPE`, which needs an OpenBLAS built with
DYNAMIC_ARCH, as the numpy wheels are) and exits 1 when any sha1 differs from
this process's. Undecided designs of this repro have followed the kernel's
rounding, so one is likely to show here as a difference. Each run takes
about 4 s. `tests/test_synthesis.py` checks the
certificates of the (6, 3) and (8, 4) designs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SHAPES = ((4, 2), (6, 3), (8, 4))
SEEDS = range(6)
DESIGNS = ("D1", "D4")
# the endgame designs' state counts and row labels, in the repro's
# (n, m, seed, design) form
ENDGAMES = {16: (16, 8, 0, "D4 radius 1.05"), 12: (12, 6, 0, "D4 radius 1.05")}
# the sha1 of the rows, the same under the SkylakeX, Haswell and Sandybridge
# kernels and at 1 and 2 OpenBLAS threads
DIGEST = "3d9c1b7752210347d7ab62d780dd9bd2496d5587"


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)          # its dataclasses look themselves up there
    return module


def random_data_plant(seed, n, m):
    """(plant, batch, subspace) of the benchmark's random data-driven plant."""
    return _workloads().random_data_plant(seed, n=n, m=m)


def d4_plant(radius=0.7, n=16):
    """An n-state, n/2-input plant (rng seed 0, A scaled to spectral radius
    radius) and its pattern (density 0.4 plus the diagonal and
    superdiagonal)."""
    from structh2 import PlantPair, spectral_radius
    rng = np.random.default_rng(0)
    m = n // 2
    A = rng.standard_normal((n, n))
    A *= radius / spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = (rng.uniform(size=(m, n)) < 0.4).astype(int)
    pattern[np.arange(m), np.arange(m)] = 1
    pattern[np.arange(m), np.arange(1, m + 1)] = 1
    return PlantPair(A=A, B=B), pattern


def d4_data_design(radius=0.7, n=16):
    """design_data's (batch, perf, options) for the D4 design of
    `d4_plant`: eps = 0.02, T = 4 (n + m), noise seed 0."""
    from structh2 import DesignOptions, default_perf, simulate
    from structh2.subspace import from_pattern
    plant, pattern = d4_plant(radius, n)
    n, m = plant.n, plant.m
    batch, _ = simulate(plant, np.zeros(n), None, 0.02, seed=0, exponent=2, T=4 * (n + m))
    return batch, default_perf(n, m), DesignOptions(design="D4", subspace=from_pattern(pattern))


def cases(shapes=SHAPES):
    """(n, m, seed, design) of every design of the repro."""
    return [(n, m, seed, d) for n, m in shapes for seed in SEEDS for d in DESIGNS]


def design(n, m, seed, d):
    """design_data's (batch, perf, options) for one case of the repro."""
    from structh2 import DesignOptions, default_perf
    _, batch, spec = random_data_plant(seed, n, m)
    return batch, default_perf(n, m), DesignOptions(design=d,
                                                    subspace=None if d == "D1" else spec)


def run(shapes=SHAPES):
    """One (case, status, iterations) row per design, the endgames' last."""
    from structh2 import design_data
    jobs = [(case, design(*case)) for case in cases(shapes)]
    jobs += [(case, d4_data_design(1.05, n)) for n, case in ENDGAMES.items()]
    rows = []
    for case, args in jobs:
        res = design_data(*args)
        rows.append((case, res.status, res.report.iterations))
    return rows


def digest(rows):
    return hashlib.sha1("".join(f"{r}\n" for r in rows).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--coretypes", nargs="*", default=[],
                        help="OpenBLAS kernels to compare with this process's")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    rows = run()
    for (n, m, seed, d), status, iterations in rows:
        print(f"({n},{m}) seed {seed} {d}: {status} {iterations}")
    ours = digest(rows)
    if ours != DIGEST:
        print(f"the rows differ from the recorded ones, whose sha1 is {DIGEST}")
    print(ours)                          # the last line, which --coretypes reads
    differ = []
    for core in args.coretypes:
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        # exits 1 when its rows are not the recorded ones: its output says how
        out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                             text=True)
        theirs = (out.stdout.split() or ["no sha1"])[-1]
        print(f"{core}: {theirs}")
        if theirs != ours:
            differ.append(core)
            print(out.stdout + out.stderr, end="")
    if differ:
        print(f"status or iterations differ under {', '.join(differ)}")
    return 1 if differ or ours != DIGEST else 0


if __name__ == "__main__":
    sys.exit(main())
