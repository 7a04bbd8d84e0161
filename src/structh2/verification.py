"""Independent post-hoc validation of controllers against models or data.

Everything here goes through the linear-algebra oracles (spectral radius,
Lyapunov-based H2 norm) and the consistency-set sampler — code paths disjoint
from the LMI modeling and solving used for synthesis, which is the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataBatch, PlantPair, consistency, sample_consistent
from .errors import UnstableMatrix
from .linalg import as_matrix, h2_norm
from .subspace import SubspaceSpec, contains
from .synthesis import PerformanceSpec

H2_REL_TOL = 1e-4


@dataclass
class VerificationReport:
    """Outcome of a verification run; `violations` is empty iff all checks passed.

    `h2` / `worst_case_h2` are None when the quantity is undefined or
    unbounded; `unstable` distinguishes "closed loop diverges" from "not
    computed" without resorting to float infinities.
    """

    stable: bool
    h2: float | None
    structure_ok: bool
    sharing_ok: bool
    worst_case_h2: float | None = None
    samples_checked: int = 0
    unstable: bool = False
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        doc = {"stable": bool(self.stable), "h2": None if self.h2 is None else float(self.h2),
               "structure_ok": bool(self.structure_ok), "sharing_ok": bool(self.sharing_ok),
               "worst_case_h2": None if self.worst_case_h2 is None else float(self.worst_case_h2),
               "samples_checked": int(self.samples_checked),
               "unstable": bool(self.unstable),
               "violations": [str(v) for v in self.violations]}
        return json.dumps(doc, sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        doc = json.loads(text)
        return VerificationReport(**doc)


def _structure_checks(K, subspace: SubspaceSpec | None, sharing: bool, violations):
    structure_ok = True
    if subspace is not None:
        structure_ok = contains(subspace, K, 1e-6)
        if not structure_ok:
            violations.append("gain left the required subspace (tol 1e-6)")
    sharing_ok = True
    if sharing:
        worst = float(np.abs(K.sum(axis=0)).max())
        sharing_ok = worst <= 1e-6
        if not sharing_ok:
            violations.append(f"column sums of K reach {worst:.3e} > 1e-6")
    return structure_ok, sharing_ok


def _h2_or_none(Acl, E, Ccl):
    """H2 norm of a closed loop, or None when `h2_norm` rejects it as
    unstable: its Lyapunov solve is the one stability test."""
    try:
        return h2_norm(Acl, E, Ccl)
    except UnstableMatrix:
        return None


def verify_model(plant: PlantPair, perf: PerformanceSpec, K,
                 subspace: SubspaceSpec | None = None,
                 sharing: bool = False) -> VerificationReport:
    """Stability, true H2 norm, and structure membership for a known plant."""
    K = as_matrix(K, rows=plant.m, cols=plant.n, name="K")
    Acl = plant.A + plant.B @ K
    Ccl = perf.C + perf.D @ K
    violations = []
    h2 = _h2_or_none(Acl, perf.E, Ccl)
    if h2 is None:
        violations.append("closed loop is not Schur stable")
    structure_ok, sharing_ok = _structure_checks(K, subspace, sharing, violations)
    return VerificationReport(stable=h2 is not None, h2=h2, structure_ok=structure_ok,
                              sharing_ok=sharing_ok, unstable=h2 is None,
                              violations=violations)


def verify_data(batch: DataBatch, perf: PerformanceSpec, K, gamma: float,
                samples: int = 200, seed: int = 0,
                subspace: SubspaceSpec | None = None, sharing: bool = False,
                truth: PlantPair | None = None) -> VerificationReport:
    """Scan the consistency set: every sampled plant must be stabilized by K
    with H2 norm within the certified gamma.

    Half the samples sit on the boundary of the set (where certified bounds
    are near-tight), half in the interior. A violation is any sample with
    spectral radius >= 1 - 1e-9 (the margin of `solve_dlyap`) or h2 > gamma
    * (1 + 1e-4). With samples = 0 only the membership of `truth` (when
    given) is reported.
    """
    K = as_matrix(K, rows=batch.m, cols=batch.n, name="K")
    violations = []
    if truth is not None:
        margin = consistency(batch, truth)
        if margin < -1e-9:
            violations.append(f"true plant fails consistency (margin {margin:.3e})")
    plants = []
    if samples > 0:
        n_boundary = (samples + 1) // 2
        plants = sample_consistent(batch, n_boundary, mode="boundary", seed=seed)
        plants += sample_consistent(batch, samples - n_boundary, mode="interior",
                                    seed=seed + 1)
    worst = None
    unstable = False
    stable_all = True
    for idx, plant in enumerate(plants):
        val = _h2_or_none(plant.A + plant.B @ K, perf.E, perf.C + perf.D @ K)
        if val is None:
            stable_all = False
            unstable = True
            violations.append(f"sample {idx}: closed loop unstable")
            continue
        worst = val if worst is None else max(worst, val)
        if val > gamma * (1.0 + H2_REL_TOL):
            violations.append(f"sample {idx}: h2 {val:.6f} exceeds gamma {gamma:.6f}")
    structure_ok, sharing_ok = _structure_checks(K, subspace, sharing, violations)
    return VerificationReport(stable=stable_all, h2=worst if samples else None,
                              structure_ok=structure_ok, sharing_ok=sharing_ok,
                              worst_case_h2=worst, samples_checked=len(plants),
                              unstable=unstable, violations=violations)
