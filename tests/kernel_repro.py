"""The random data-driven repro, and its status under several BLAS kernels.

    python tests/kernel_repro.py
    python tests/kernel_repro.py --coretypes Haswell Sandybridge

Designs D1 and D4 in data mode on the random plants of seeds 0-5 at
(n, m) = (4, 2), (6, 3) and (8, 4), built by the benchmark's
`perfbench/workloads.random_data_plant` with `plants.default_perf`: 36 solves.
Prints one row per design (its status and iteration count) and the sha1 of
those rows on the last line.

With --coretypes, runs the repro once more in a fresh interpreter per named
OpenBLAS kernel (`OPENBLAS_CORETYPE`, which needs an OpenBLAS built with
DYNAMIC_ARCH, as the numpy wheels are) and exits 1 when any sha1 differs from
this process's. Undecided designs of this repro have followed the kernel's
rounding, so one is likely to show here as a difference. Each run takes
about 2 s. `tests/test_synthesis.py` checks the
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

ROOT = Path(__file__).resolve().parents[1]
SHAPES = ((4, 2), (6, 3), (8, 4))
SEEDS = range(6)
DESIGNS = ("D1", "D4")


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
    """One (case, status, iterations) row per design."""
    from structh2 import design_data
    rows = []
    for case in cases(shapes):
        res = design_data(*design(*case))
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
    print(ours)
    differ = []
    for core in args.coretypes:
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        out = subprocess.run([sys.executable, __file__], env=env, check=True,
                             capture_output=True, text=True).stdout
        theirs = out.split()[-1]
        print(f"{core}: {theirs}")
        if theirs != ours:
            differ.append(core)
            print(out, end="")
    if differ:
        print(f"status or iterations differ under {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
