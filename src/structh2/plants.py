"""Builtin benchmark plant: the 3-state, 2-input sparse-control example.

Shipped so the CLI and tests can run without external files. The performance
channel weighs state and input equally (C stacks the identity over zeros, D
zeros over the identity, E injects noise in every state), so the H2 norm
measures the noise-to-[x; u] energy gain.
"""

from __future__ import annotations

import numpy as np

from .dataset import PlantPair
from .subspace import SubspaceSpec, from_pattern
from .synthesis import PerformanceSpec

EXAMPLE1_A = np.array([[-0.4095, 0.4036, -0.0874],
                       [0.5154, -0.0815, 0.1069],
                       [1.6715, 0.7718, -0.3376]])
EXAMPLE1_B = np.array([[0.0, 0.0],
                       [-0.6359, -0.1098],
                       [-0.0325, 2.2795]])
EXAMPLE1_PATTERN = np.array([[1, 1, 0],
                             [0, 1, 1]])
EXAMPLE1_X0 = np.array([1.0, 0.0, 0.0])


def example1_plant() -> PlantPair:
    return PlantPair(A=EXAMPLE1_A.copy(), B=EXAMPLE1_B.copy())


def example1_perf() -> PerformanceSpec:
    return default_perf(3, 2)


def example1_subspace() -> SubspaceSpec:
    return from_pattern(EXAMPLE1_PATTERN)


def default_perf(n: int, m: int) -> PerformanceSpec:
    """The same state-plus-input weighting for arbitrary dimensions."""
    C = np.vstack([np.eye(n), np.zeros((m, n))])
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    return PerformanceSpec(C=C, D=D, E=np.eye(n))
