"""H2 synthesis problems: model-based designs, fixed-gain certification, and
the data-driven robust design over the consistency set.

Four design variants are exposed, ordered from least to most flexible
structure handling:

  D1  unstructured gain (no subspace constraint),
  D2  P = R diagonal with L in the subspace,
  D3  R diagonal with L in the subspace,
  D4  R in Upsilon(S) = {R : S_l R in S for every l} with L in the subspace.

Every design minimizes tr Q subject to the two coupled PSD blocks in
(P, Q, R, L) and reports gamma = sqrt(tr Q), since gamma^2 = tr Q at the
optimum; a fixed-gamma design instead requires tr Q <= gamma^2 and has no
objective. Strict definiteness is handled by an eta margin shift. In the
data-driven variant the plant-dependent block is replaced by the S-procedure
form with multipliers alpha >= 0, beta > 0 and the data matrix Psi,
certifying the bound for every plant consistent with the batch. The gain is
always recovered as K = L R^{-1}. Builders are stateless: each call assembles
an independent problem, so concurrent synthesis calls are safe.

With sharing (1^T K = 0), L is declared over {L in S : 1^T L = 0}
(`subspace.sharing_subspace`; D1 starts from all m x n gains) and R exactly as
without it, since 1^T K = (1^T L) R^{-1}. Every restriction is a subspace the
variables are declared over, so the compiled problems have no equality rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import DataBatch, PlantPair, psi22_definite
from .errors import (DimensionMismatch, RankDeficientDataWarning,
                     SingularInnerBlock, StructureViolation, UnstableClosedLoop)
from .linalg import as_matrix, min_eig, spectral_radius, symmetrize
from .lmi import LmiProblem, MatExpr, block
from .solver import SolveReport, SolverOptions, solve
from .subspace import (SubspaceSpec, contains, from_pattern, sharing_subspace,
                       upsilon_constraints)

DESIGNS = ("D1", "D2", "D3", "D4")
# lower bound on beta in data-driven designs: replaces the open condition beta > 0
_ETA_BETA = 1e-9


@dataclass(frozen=True)
class PerformanceSpec:
    """Designer-chosen output map y = C x + D u and noise injection E."""

    C: np.ndarray
    D: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        C = as_matrix(self.C, name="C")
        if C.shape[0] < 1:
            raise DimensionMismatch("C needs at least one row")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", as_matrix(self.D, rows=C.shape[0], name="D"))
        object.__setattr__(self, "E", as_matrix(self.E, rows=C.shape[1], name="E"))

    @property
    def n(self) -> int:
        return self.C.shape[1]

    @property
    def m(self) -> int:
        return self.D.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class DesignOptions:
    design: str = "D4"
    subspace: SubspaceSpec | None = None
    sharing: bool = False
    eta: float = 1e-3
    gamma: float | None = None            # None: minimize; value: feasibility test
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}, got {self.design!r}")
        if self.design != "D1" and self.subspace is None:
            raise ValueError(f"{self.design} needs a subspace")
        # each message below starts with the field it names
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta!r}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma!r}")


@dataclass
class SynthesisResult:
    status: str
    gamma: float | None = None
    K: np.ndarray | None = None
    P: np.ndarray | None = None
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    L: np.ndarray | None = None
    alpha: float | None = None
    beta: float | None = None
    report: SolveReport | None = None
    conic: object = None


def _subspace_var(prob: LmiProblem, name: str, spec: SubspaceSpec) -> MatExpr:
    """A variable ranging over spec: masked for a pattern, otherwise a
    coefficient vector times the basis; the zero matrix when spec is {0}."""
    if spec.pattern is not None:
        return MatExpr.of(prob.declare_var(name, spec.m, spec.n,
                                           mask=spec.pattern.astype(bool)))
    if spec.k == 0:
        return MatExpr(spec.m, spec.n)
    coef = prob.declare_var(name, spec.k, 1)
    return MatExpr.combination(coef, spec.basis)


def _declare_gain_vars(prob: LmiProblem, opts: DesignOptions, n: int, m: int):
    """Declare (P, R, L) per design; returns their expressions."""
    spec = opts.subspace
    if opts.design == "D2":
        PR = prob.declare_var("P", n, n, kind="symmetric", mask=np.eye(n, dtype=bool))
        Pe = Re = MatExpr.of(PR)
    else:
        Pe = MatExpr.of(prob.declare_var("P", n, n, kind="symmetric"))
        if opts.design == "D1":
            Re = MatExpr.of(prob.declare_var("R", n, n))
        elif opts.design == "D3":
            Re = MatExpr.of(prob.declare_var("R", n, n, mask=np.eye(n, dtype=bool)))
        else:  # D4
            Re = _subspace_var(prob, "R", upsilon_constraints(spec))
    if opts.sharing:
        base = from_pattern(np.ones((m, n))) if opts.design == "D1" else spec
        Le = _subspace_var(prob, "L", sharing_subspace(base))
    elif opts.design == "D1":
        Le = MatExpr.of(prob.declare_var("L", m, n))
    else:
        Le = _subspace_var(prob, "L", spec)
    return Pe, Re, Le


def _bound_trace(prob: LmiProblem, opts: DesignOptions, Q) -> None:
    """Minimize tr Q, or, for a fixed gamma, require tr Q <= gamma^2."""
    trace = MatExpr.of(Q).trace()
    if opts.gamma is None:
        prob.minimize(trace)
    else:
        prob.add_psd(MatExpr.constant([[float(opts.gamma) ** 2]]) - trace, name="trace_bound")


def _finish(opts: DesignOptions, report: SolveReport, conic, values: dict,
            alpha: float | None = None, beta: float | None = None) -> SynthesisResult:
    if report.status != "Optimal":
        return SynthesisResult(status=report.status, report=report, conic=conic)
    P = symmetrize(values["P"])
    R = values["R"]
    Q = symmetrize(values["Q"])
    L = values["L"]
    inner = min_eig(R + R.T - P)
    if inner <= 0:
        raise StructureViolation("R + R^T - P lost positive definiteness at the solution")
    K = np.linalg.solve(R.T, L.T).T
    if opts.design != "D1" and not contains(opts.subspace, K, 1e-6):
        raise StructureViolation("decoded gain left its subspace beyond 1e-6")
    if opts.sharing and np.abs(K.sum(axis=0)).max() > 1e-6:
        raise StructureViolation("decoded gain violates the sharing constraint")
    gamma = (float(np.sqrt(max(report.objective, 0.0))) if opts.gamma is None
             else float(opts.gamma))
    return SynthesisResult(status="Optimal", gamma=gamma, K=K, P=P, Q=Q, R=R, L=L,
                           alpha=alpha, beta=beta, report=report, conic=conic)


def _decode_values(conic, report: SolveReport, gain_exprs) -> dict:
    """Named variable values, with P, R and L evaluated from their expressions."""
    values = conic.decode(report.x)
    assign = conic.local_assign(report.x)
    values.update(zip("PRL", (e.value(assign) for e in gain_exprs)))
    return values


def design_model(plant: PlantPair, perf: PerformanceSpec, opts: DesignOptions) -> SynthesisResult:
    """Model-based gamma-suboptimal design for a known plant.

    D1 assembles the unstructured extended H2 LMI; D2-D4 add the structure
    restrictions on (P, R, L). Returns K = L R^{-1} with the certificate
    matrices; status is passed through verbatim when not Optimal.
    """
    A, B = plant.A, plant.B
    n, m = plant.n, plant.m
    if perf.n != n or perf.m != m:
        raise DimensionMismatch("performance spec does not match the plant dimensions")
    if opts.sharing and m < 2:
        raise ValueError("the sharing constraint needs at least two inputs")
    E = perf.E
    prob = LmiProblem()
    Pe, Re, Le = _declare_gain_vars(prob, opts, n, m)
    Q = prob.declare_var("Q", perf.q, perf.q, kind="symmetric")

    RRP = Re + Re.T - Pe
    ARBL = A @ Re + B @ Le
    CRDL = perf.C @ Re + perf.D @ Le
    prob.add_psd(block([[Pe - E @ E.T, ARBL], [ARBL.T, RRP]]),
                 margin=opts.eta, name="h2_noise")
    prob.add_psd(block([[MatExpr.of(Q), CRDL], [CRDL.T, RRP]]),
                 margin=opts.eta, name="h2_output")
    if opts.design != "D1":
        prob.add_psd(Pe, margin=opts.eta, name="P_pd")
    _bound_trace(prob, opts, Q)

    conic = prob.compile()
    report = solve(conic, opts.solver)
    values = _decode_values(conic, report, (Pe, Re, Le)) if report.status == "Optimal" else {}
    return _finish(opts, report, conic, values)


def certify_fixed_k(plant: PlantPair, perf: PerformanceSpec, K,
                    eta: float = 1e-9,
                    solver_opts: SolverOptions | None = None) -> float:
    """Smallest certified gamma for a fixed gain K (matches the true H2 norm).

    With K fixed the certification inequalities are linear in (P, Q, R); the
    margin is kept near zero so the reported bound tracks the H2 norm to
    solver accuracy rather than being inflated by the design margin.
    """
    K = as_matrix(K, rows=plant.m, cols=plant.n, name="K")
    Acl = plant.A + plant.B @ K
    if spectral_radius(Acl) >= 1.0:
        raise UnstableClosedLoop("A + B K must be Schur stable to certify")
    Ccl = perf.C + perf.D @ K
    n, nw, q = plant.n, perf.E.shape[1], perf.q
    prob = LmiProblem()
    P = prob.declare_var("P", n, n, kind="symmetric")
    R = prob.declare_var("R", n, n)
    Q = prob.declare_var("Q", q, q, kind="symmetric")
    Pe, Re = MatExpr.of(P), MatExpr.of(R)
    RRP = Re + Re.T - Pe
    AR = Acl @ Re
    CR = Ccl @ Re
    prob.add_psd(block([[Pe, AR, MatExpr.constant(perf.E)],
                        [AR.T, RRP, np.zeros((n, nw))],
                        [MatExpr.constant(perf.E.T), np.zeros((nw, n)), np.eye(nw)]]),
                 margin=eta, name="h2_noise_fixed")
    prob.add_psd(block([[MatExpr.of(Q), CR], [CR.T, RRP]]), margin=eta,
                 name="h2_output_fixed")
    prob.minimize(MatExpr.of(Q).trace())
    report = solve(prob.compile(), solver_opts or SolverOptions())
    if report.status != "Optimal":
        raise RuntimeError(f"fixed-gain certification failed: {report.status}")
    return float(np.sqrt(max(report.objective, 0.0)))


def design_data(batch: DataBatch, perf: PerformanceSpec, opts: DesignOptions) -> SynthesisResult:
    """Structured design certified for every plant consistent with the batch.

    Assembles the (3n+m)-dimensional S-procedure block coupling the
    certificate matrices with alpha * Psi, plus the output block, minimizing
    tr Q = gamma^2 (`_bound_trace`). The margin eta shifts both PSD blocks;
    beta is bounded below by _ETA_BETA. alpha and beta are reported
    alongside the certificate.
    """
    n, m = batch.n, batch.m
    if perf.n != n or perf.m != m:
        raise DimensionMismatch("performance spec does not match the batch dimensions")
    if opts.sharing and m < 2:
        raise ValueError("the sharing constraint needs at least two inputs")
    psi = batch.psi
    if not psi22_definite(psi[n:, n:]):
        warnings.warn("Psi22 is not negative definite: the consistency set is "
                      "unbounded and the S-lemma condition may lose necessity",
                      RankDeficientDataWarning)
    E = perf.E
    prob = LmiProblem()
    Pe, Re, Le = _declare_gain_vars(prob, opts, n, m)
    Q = prob.declare_var("Q", perf.q, perf.q, kind="symmetric")
    alpha = prob.declare_scalar("alpha")
    beta = prob.declare_scalar("beta")

    RRP = Re + Re.T - Pe
    # Psi in units of 2^k, the power of two nearest its largest entry: the
    # solver's multiplier is alpha' = 2^k alpha, so that alpha' Psi 2^-k =
    # alpha Psi. Both scalings are exact, and the consistency set does not
    # move. Psi's entries reach 1e4-1e5 on small random records, and the
    # equilibration then shrinks alpha's column until its dual residual,
    # judged in the original data, stays above tol_feas
    amax = np.abs(psi).max()
    k = int(np.round(np.log2(amax))) if 0 < amax < np.inf else 0
    psi_pad = np.zeros((3 * n + m, 3 * n + m))
    psi_pad[:2 * n + m, :2 * n + m] = np.ldexp(psi, -k)
    top_left = Pe - E @ E.T - MatExpr.scaled(beta, np.eye(n))
    big = block([
        [top_left, np.zeros((n, n)), np.zeros((n, m)), np.zeros((n, n))],
        [np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, m)), Re],
        [np.zeros((m, n)), np.zeros((m, n)), np.zeros((m, m)), Le],
        [np.zeros((n, n)), Re.T, Le.T, RRP],
    ]) - MatExpr.scaled(alpha, psi_pad)
    prob.add_psd(big, margin=opts.eta, name="s_procedure")
    CRDL = perf.C @ Re + perf.D @ Le
    prob.add_psd(block([[MatExpr.of(Q), CRDL], [CRDL.T, RRP]]),
                 margin=opts.eta, name="h2_output")
    prob.add_psd(MatExpr.of(alpha), name="alpha_nonneg")
    prob.add_psd(MatExpr.of(beta) - _ETA_BETA * np.eye(1), name="beta_pos")
    _bound_trace(prob, opts, Q)

    conic = prob.compile()
    report = solve(conic, opts.solver)
    if report.status != "Optimal":
        return _finish(opts, report, conic, {})
    values = _decode_values(conic, report, (Pe, Re, Le))
    return _finish(opts, report, conic, values, alpha=float(np.ldexp(values["alpha"][0, 0], -k)),
                   beta=float(values["beta"][0, 0]))


def slemma_holds(P, R, L, alpha: float, beta: float, Psi, E, tol: float = 1e-7) -> bool:
    """Check the S-procedure certificate inequality directly.

    Evaluates [[P - E E^T - beta I, 0], [0, -[R; L] (R+R^T-P)^{-1} [R; L]^T]]
    - alpha * Psi and reports whether its smallest eigenvalue clears -tol.
    """
    P = symmetrize(as_matrix(P, name="P"))
    n = P.shape[0]
    R = as_matrix(R, rows=n, cols=n, name="R")
    L = as_matrix(L, cols=n, name="L")
    E = as_matrix(E, rows=n, name="E")
    Psi = symmetrize(as_matrix(Psi, name="Psi"))
    inner = symmetrize(R + R.T - P)
    if min_eig(inner) <= 0.0:
        raise SingularInnerBlock("R + R^T - P must be positive definite")
    RL = np.vstack([R, L])
    quad = RL @ np.linalg.solve(inner, RL.T)
    dim = n + RL.shape[0]
    M = np.zeros((dim, dim))
    M[:n, :n] = P - E @ E.T - beta * np.eye(n)
    M[n:, n:] = -quad
    M -= alpha * Psi
    return min_eig(M) >= -tol
