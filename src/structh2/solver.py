"""Conic solver: dense primal-dual interior-point solver for PSD programs.

Solves the compiled standard form

    minimize c^T x   s.t.   A x = b,   G x + s = h,   s in K,

K a product of svec'd PSD cones, through the homogeneous self-dual embedding

    A^T y + G^T z + c tau = 0        z in K
    -A x          + b tau = 0
    -G x          + h tau = s        s in K
    -c^T x - b^T y - h^T z = kappa   tau, kappa >= 0

whose skew symmetry forces s.z + tau*kappa = 0 at solutions: tau > 0 recovers
a primal-dual optimum, kappa > 0 a certificate of primal infeasibility
(b^T y + h^T z < 0) or unboundedness (c^T x < 0). Search directions use
Nesterov-Todd scaling with a Mehrotra predictor-corrector; step fraction 0.98
to the cone boundary. Equality and cone rows are Ruiz-equilibrated (one scalar
per PSD block, so cones are preserved), but convergence is declared on
residuals of the original data. Everything is deterministic dense numpy.

Each iteration solves its KKT systems through one QR factorization of the
NT-scaled cone rows W^{-T} G, stacked over the equalities, and refines every
solution against the residual of the full (N+p+M)^2 system using products
with A, G and the per-block W^T W only. The factor's error grows with the
condition number of W^{-T} G rather than its square, which keeps the
data-driven endgame, where W degenerates, solvable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular
from scipy.linalg.lapack import dgeqrf, dormqr

from .lmi import ConicForm, svec_len, svec_tables

# fraction of the step to the cone boundary that each iteration takes
_STEP_FRAC = 0.98
# relative residual below which an infeasibility or unboundedness ray certifies
_TOL_INFEAS = 1e-9


@dataclass
class SolverOptions:
    tol_feas: float = 1e-8
    tol_gap: float = 1e-7
    max_iter: int = 200
    verbose: bool = False


@dataclass
class SolveReport:
    status: str                      # Optimal | Infeasible | Unbounded | NumericalTrouble
    x: np.ndarray | None
    objective: float | None
    dual_objective: float | None = None
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    certificate: dict | None = None


# --- cone utilities ---------------------------------------------------------

class _Cone:
    """Index bookkeeping and gather-based smat/svec for a product of PSD blocks,
    on the per-dimension tables of `lmi.svec_tables`."""

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += svec_len(d)
        self.total = off
        self.degree = sum(self.dims)
        self._tables = {d: svec_tables(d) for d in set(self.dims)}

    def blocks(self, v):
        for d, off in zip(self.dims, self.offsets):
            yield d, v[off:off + svec_len(d)]

    def smat(self, d, v):
        _, _, pos, _, div = self._tables[d]
        return v[pos] / div

    def svec(self, d, M):
        up, lo, _, scale, _ = self._tables[d]
        M = M.reshape(-1)
        return 0.5 * (M[up] + M[lo]) * scale

    def smat_batch(self, d, V):
        """(k, dsvec) rows -> (k, d, d) symmetric matrices."""
        _, _, pos, _, div = self._tables[d]
        return V[:, pos] / div

    def svec_batch(self, d, M):
        up, lo, _, scale, _ = self._tables[d]
        M = M.reshape(M.shape[0], d * d)
        return 0.5 * (M[:, up] + M[:, lo]) * scale

    def identity(self):
        e = np.zeros(self.total)
        for d, off in zip(self.dims, self.offsets):
            e[off:off + svec_len(d)] = self.svec(d, np.eye(d))
        return e


class _Scaling:
    """Nesterov-Todd scaling point per block: W z = W^{-T} s = lambda.

    W acts on block i as v -> svec(R_i^T mat(v) R_i), so W^T W is the
    congruence by Wm_i = R_i R_i^T, formed once per iterate.
    """

    def __init__(self, cone: _Cone, s, z):
        self.cone = cone
        self.R, self.Rinv, self.lam = [], [], []
        for (d, sb), (_, zb) in zip(cone.blocks(s), cone.blocks(z)):
            S = cone.smat(d, sb)
            Z = cone.smat(d, zb)
            Ls = np.linalg.cholesky(S)
            Lz = np.linalg.cholesky(Z)
            U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
            sq = np.sqrt(sig)
            R = Ls @ (Vt.T / sq)
            Rinv = (U / sq).T @ Lz.T
            self.R.append(R)
            self.Rinv.append(Rinv)
            self.lam.append(sig)
        self._wm_ext = [(R @ R.T).astype(np.longdouble) for R in self.R]

    def _map(self, v, left, right):
        out = np.empty_like(v)
        for i, (d, vb) in enumerate(self.cone.blocks(v)):
            M = self.cone.smat(d, vb)
            out[self.cone.offsets[i]:self.cone.offsets[i] + svec_len(d)] = \
                self.cone.svec(d, left[i] @ M @ right[i])
        return out

    def w_apply(self, dz):
        """W dz = svec(R^T mat(dz) R)."""
        return self._map(dz, [R.T for R in self.R], self.R)

    def wt_apply(self, v):
        """W^T v = svec(R mat(v) R^T)."""
        return self._map(v, self.R, [R.T for R in self.R])

    def winvt_apply(self, ds):
        """W^{-T} ds = svec(R^{-1} mat(ds) R^{-T})."""
        return self._map(ds, self.Rinv, [Ri.T for Ri in self.Rinv])

    def wtw_apply(self, v):
        """W^T W v = svec(Wm mat(v) Wm), formed in extended precision: it
        cancels against G dx in the KKT residual and against ds0 in the slack
        update, and Wm's spread near optimality swamps float64 products."""
        return self._map(v.astype(np.longdouble), self._wm_ext, self._wm_ext).astype(float)

    def winv_apply(self, v):
        """W^{-1} v = svec(R^{-T} mat(v) R^{-1})."""
        return self._map(v, [Ri.T for Ri in self.Rinv], self.Rinv)

    def lam_vec(self):
        """svec of the diagonal scaled point Lambda."""
        out = np.zeros(self.cone.total)
        for i, d in enumerate(self.cone.dims):
            out[self.cone.offsets[i]:self.cone.offsets[i] + svec_len(d)] = \
                self.cone.svec(d, np.diag(self.lam[i]))
        return out

    def lam_solve(self, v):
        """Solve lambda o u = v in svec coordinates (Lambda is diagonal)."""
        out = np.empty_like(v)
        for i, (d, vb) in enumerate(self.cone.blocks(v)):
            M = self.cone.smat(d, vb)
            denom = 0.5 * (self.lam[i][:, None] + self.lam[i][None, :])
            out[self.cone.offsets[i]:self.cone.offsets[i] + svec_len(d)] = \
                self.cone.svec(d, M / denom)
        return out

    def max_step(self, dtilde):
        """Largest alpha with Lambda + alpha*mat(dtilde) staying PSD."""
        alpha = np.inf
        for i, (d, db) in enumerate(self.cone.blocks(dtilde)):
            M = self.cone.smat(d, db)
            sq = np.sqrt(self.lam[i])
            lmin = float(np.linalg.eigvalsh(M / np.outer(sq, sq))[0])
            if lmin < 0:
                alpha = min(alpha, -1.0 / lmin)
        return alpha


def _sym_prod(cone: _Cone, u, v):
    """Jordan product (UV + VU)/2 in svec coordinates."""
    out = np.empty_like(u)
    for i, ((d, ub), (_, vb)) in enumerate(zip(cone.blocks(u), cone.blocks(v))):
        U = cone.smat(d, ub)
        V = cone.smat(d, vb)
        out[cone.offsets[i]:cone.offsets[i] + svec_len(d)] = \
            cone.svec(d, 0.5 * (U @ V + V @ U))
    return out


# --- equilibration ----------------------------------------------------------

def _equilibrate(A, b, G, h, c, dims, iters: int = 4):
    """Ruiz-style scaling; PSD blocks get one uniform row scale each."""
    p, N = A.shape
    M = G.shape[0]
    drA = np.ones(p)
    drG = np.ones(M)
    dcol = np.ones(N)
    starts = []
    off = 0
    for d in dims:
        starts.append((off, off + svec_len(d)))
        off += svec_len(d)
    As, Gs = A.copy(), G.copy()
    for _ in range(iters):
        cm = np.maximum(np.abs(As).max(axis=0, initial=0.0),
                        np.abs(Gs).max(axis=0, initial=0.0))
        sc = 1.0 / np.sqrt(np.maximum(cm, 1e-8))
        sc[cm == 0.0] = 1.0
        dcol *= sc
        As *= sc[None, :]
        Gs *= sc[None, :]
        if p:
            rm = np.abs(As).max(axis=1, initial=0.0)
            sr = 1.0 / np.sqrt(np.maximum(rm, 1e-8))
            sr[rm == 0.0] = 1.0
            drA *= sr
            As *= sr[:, None]
        for lo, hi in starts:
            rm = np.abs(Gs[lo:hi]).max(initial=0.0)
            sr = 1.0 if rm == 0.0 else 1.0 / np.sqrt(max(rm, 1e-8))
            drG[lo:hi] *= sr
            Gs[lo:hi] *= sr
    bs = drA * b
    hs = drG * h
    cs = dcol * c
    cscale = 1.0 / max(1.0, np.abs(cs).max(initial=0.0))
    return As, bs, Gs, hs, cs * cscale, drA, drG, dcol, cscale


# --- KKT systems ------------------------------------------------------------
#
# Every search direction solves, in the equilibrated data,
#
#     [ 0   A^T   G^T  ] [dx]   [r1]
#     [ A   0     0    ] [dy] = [r2]
#     [ G   0   -W^T W ] [dz]   [r3].

# Refinement passes per solve: corrections against the residual of the full
# system, each reusing the iterate's factorization.
_KKT_REFINE = 3


def _g_blocks(cone: _Cone, G):
    """Per PSD block: the columns of G that touch it and their smat stack."""
    out = []
    for d, off in zip(cone.dims, cone.offsets):
        Gb = G[off:off + svec_len(d)]
        cols = np.flatnonzero(np.any(Gb != 0.0, axis=0))
        out.append((cols, cone.smat_batch(d, Gb[:, cols].T)))
    return out


class _KKT:
    """The KKT system through a QR factorization of Gt = W^{-T} G.

    With v = W dz the system reads

        Gt^T v + A^T dy = r1,   A dx = r2,   Gt dx - v = W^{-T} r3,

    a least-squares problem in dx bordered by the equalities. Gt is formed
    block by block from the columns that touch each block, with A stacked
    under it: A dx = r2 makes those rows' residual vanish, and they keep the
    factor nonsingular when a column touches no cone. A column that no row
    touches (a variable the model leaves unused) gets a unit row, so that its
    equation reads dx_j = r1_j, which is 0 whenever c_j = 0. The stack
    [Gt; A; E] = Q T is factored once per iterate, Q kept as Householder
    reflectors, and the equalities are met through the p x p matrix F^T F
    with F = T^{-T} A^T. Unlike the Schur complement Gt^T Gt, the factor's
    error grows with cond(Gt), not with its square. Solutions are refined
    against the residual of the full system, which needs only products with
    A, G and the per-block W^T W.
    """

    def __init__(self, A, G, W: _Scaling, gblocks):
        cone = W.cone
        N, p, M = G.shape[1], A.shape[0], cone.total
        idle = np.flatnonzero(~(np.any(G, axis=0) | np.any(A, axis=0)))
        Gt = np.zeros((M + p + idle.size, N), order="F")
        for i, (cols, mats) in enumerate(gblocks):
            d, off, Ri = cone.dims[i], cone.offsets[i], W.Rinv[i]
            Gt[off:off + svec_len(d), cols] = cone.svec_batch(d, Ri @ mats @ Ri.T).T
        Gt[M:M + p] = A
        Gt[M + p + np.arange(idle.size), idle] = 1.0
        if Gt.shape[0] < N:
            raise np.linalg.LinAlgError("fewer cone and equality rows than variables")
        self.qr, self.tau, _, _ = dgeqrf(Gt, lwork=64 * N, overwrite_a=1)
        # a contiguous copy: the triangular solves are several times slower
        # on the strided view into the factor
        self.T = np.asfortranarray(self.qr[:N])
        if not np.all(np.diagonal(self.T)):
            raise np.linalg.LinAlgError("the cone and equality rows leave a variable free")
        self.F = self._tri(A.T, "T")
        self.ftf = lu_factor(self.F.T @ self.F, check_finite=False)
        self.A, self.G, self.W, self.N, self.p, self.M = A, G, W, N, p, M

    def _tri(self, b, trans):
        return solve_triangular(self.T, b, trans=trans, check_finite=False)

    def _q(self, trans, v):
        """Q v ("N") or Q^T v ("T"), v zero-padded to the factor's rows."""
        c = np.zeros((self.qr.shape[0], 1))
        c[:v.size, 0] = v
        return dormqr("L", trans, self.qr, self.tau, c, 64, overwrite_c=1)[0][:, 0]

    def _solve(self, rhs):
        N, p, M = self.N, self.p, self.M
        r1, r2, r3 = rhs[:N], rhs[N:N + p], rhs[N + p:]
        r3t = self.W.winvt_apply(r3)
        # w = T dx solves T^T w + A^T dy = r1 + [Gt; A; E]^T [r3t; r2; 0]
        w = self._tri(r1, "T") + self._q("T", np.concatenate([r3t, r2]))[:N]
        dy = lu_solve(self.ftf, self.F.T @ w - r2, check_finite=False)
        w -= self.F @ dy
        # Gt dx = (Q [w; 0])[:M]
        v = self._q("N", w)[:M] - r3t
        return np.concatenate([self._tri(w, "N"), dy, self.W.winv_apply(v)])

    def residual(self, rhs, sol):
        N, p = self.N, self.p
        dx, dy, dz = sol[:N], sol[N:N + p], sol[N + p:]
        return rhs - np.concatenate([self.A.T @ dy + self.G.T @ dz, self.A @ dx,
                                     self.G @ dx - self.W.wtw_apply(dz)])

    def solve(self, rhs):
        """Refined solution and the max-norm residual of the full system."""
        tol = 1e-13 * (1.0 + np.abs(rhs).max(initial=0.0))
        sol = self._solve(rhs)
        best_sol, best_err = sol, np.inf
        for k in range(_KKT_REFINE + 1):
            resid = self.residual(rhs, sol)
            err = np.abs(resid).max(initial=0.0)
            if not err < best_err:       # also stops on a non-finite residual
                break
            best_sol, best_err = sol, err
            if err <= tol or k == _KKT_REFINE:
                break
            sol = sol + self._solve(resid)
        return best_sol, best_err


# --- the solver -------------------------------------------------------------

def solve(conic: ConicForm, opts: SolverOptions | None = None) -> SolveReport:
    opts = opts or SolverOptions()
    if conic.bad_rows:
        # contradictory equalities detected at compile time
        return SolveReport(status="Infeasible", x=None, objective=None,
                           residuals={"feas": 0.0, "gap": 0.0},
                           certificate={"kind": "presolve_contradiction",
                                        "rows": len(conic.bad_rows), "residual": 0.0})
    A0, b0, G0, h0, c0 = conic.A, conic.b, conic.G, conic.h, conic.c
    dims = conic.dims
    if not dims:
        raise ValueError("the solver needs at least one PSD block")
    N = conic.n_reduced
    p = A0.shape[0]
    cone = _Cone(dims)

    A, b, G, h, c, drA, drG, dcol, cscale = _equilibrate(A0, b0, G0, h0, c0, dims)

    x = np.zeros(N)
    y = np.zeros(p)
    s = cone.identity()
    z = cone.identity()
    tau, kappa = 1.0, 1.0
    nu = cone.degree + 1

    def candidates():
        X = dcol * (x / tau)
        Y = (drA * y) / (tau * cscale) if p else np.zeros(0)
        Z = (drG * z) / (tau * cscale)
        return X, Y, Z

    def residual_metrics(X, Y, Z):
        # primal feasibility is the conic violation of the candidate itself:
        # downstream consumers evaluate eigenvalues of h - G x, not the
        # solver's internal slack iterate
        slack = h0 - G0 @ X
        viol = 0.0
        for d, vb in cone.blocks(slack):
            viol = max(viol, -float(np.linalg.eigvalsh(cone.smat(d, vb))[0]))
        pres = max(viol, 0.0)    # absolute: consumers check block eigenvalues
        if p:
            pres = max(pres, np.abs(A0 @ X - b0).max() / (1.0 + np.abs(b0).max(initial=0.0)))
        gtz = G0.T @ Z
        aty = A0.T @ Y if p else 0.0
        dres_vec = gtz + aty + c0
        # normalized by the size of the dual terms, as is standard: the raw
        # residual cannot cancel below roundoff of the terms that form it
        dscale = (1.0 + np.abs(c0).max(initial=0.0) + np.abs(gtz).max(initial=0.0)
                  + (np.abs(aty).max(initial=0.0) if p else 0.0))
        dres = np.abs(dres_vec).max(initial=0.0) / dscale
        pobj = float(c0 @ X)
        dobj = float(-h0 @ Z - (b0 @ Y if p else 0.0))
        gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        return pres, dres, gap, pobj, dobj

    gblocks = _g_blocks(cone, G)
    best = None      # (score, X, pobj, metrics, iteration)
    stall = 0
    it = 0
    for it in range(opts.max_iter + 1):
        # --- termination checks on the original data
        X, Y, Z = candidates()
        pres, dres, gap, pobj, dobj = residual_metrics(X, Y, Z)
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            best = (score, X.copy(), pobj, {"feas": max(pres, dres), "gap": gap}, it)
        if opts.verbose:
            print(f"  it={it:3d} pres={pres:.2e} dres={dres:.2e} gap={gap:.2e} "
                  f"tau={tau:.2e} kappa={kappa:.2e}")
        if pres <= opts.tol_feas and dres <= opts.tol_feas and gap <= opts.tol_gap:
            return SolveReport(status="Optimal", x=X,
                               objective=pobj + conic.obj_const,
                               dual_objective=dobj + conic.obj_const,
                               residuals={"feas": max(pres, dres), "gap": gap},
                               iterations=it)
        # primal infeasibility: (y, z) ray with A^T y + G^T z = 0, b^T y + h^T z < 0
        Yr = drA * y if p else np.zeros(0)
        Zr = drG * z
        denom = -(float(b0 @ Yr) if p else 0.0) - float(h0 @ Zr)
        if denom > 0:
            Yc, Zc = Yr / denom, Zr / denom
            res = np.abs(G0.T @ Zc + (A0.T @ Yc if p else 0.0)).max(initial=0.0)
            scale_c = 1.0 + max(np.abs(Zc).max(initial=0.0),
                                np.abs(Yc).max(initial=0.0))
            if res <= _TOL_INFEAS * scale_c:
                return SolveReport(status="Infeasible", x=None, objective=None,
                                   residuals={"feas": res, "gap": 0.0},
                                   iterations=it,
                                   certificate={"kind": "primal_infeasibility",
                                                "y": Yc, "z": Zc,
                                                "residual": float(res)})
        # unboundedness: x ray with A x = 0, G x + s = 0, c^T x < 0
        Xr = dcol * x
        Sr = s / drG
        cdx = float(c0 @ Xr)
        if cdx < 0:
            Xc, Sc = Xr / (-cdx), Sr / (-cdx)
            res = np.abs(G0 @ Xc + Sc).max(initial=0.0)
            if p:
                res = max(res, np.abs(A0 @ Xc).max())
            if res <= _TOL_INFEAS * (1.0 + np.abs(Xc).max(initial=0.0)):
                return SolveReport(status="Unbounded", x=None, objective=None,
                                   residuals={"feas": res, "gap": 0.0},
                                   iterations=it,
                                   certificate={"kind": "unboundedness", "x": Xc,
                                                "residual": float(res)})
        if it == opts.max_iter or stall >= 8:
            break
        if score > 1e3 * best[0] and best[0] < 1e-4:
            break  # diverging after near-convergence; keep the best iterate
        if it - best[4] >= 5 and best[0] < 1e-5:
            break  # no progress for several iterations; grinding on noise

        # --- residuals of the homogeneous model (scaled data)
        rx = (A.T @ y if p else 0.0) + G.T @ z + c * tau
        ry = -A @ x + b * tau if p else np.zeros(0)
        rz = -G @ x + h * tau - s
        rtau = -float(c @ x) - (float(b @ y) if p else 0.0) - float(h @ z) - kappa
        mu = (float(s @ z) + tau * kappa) / nu

        try:
            W = _Scaling(cone, s, z)
            kkt = _KKT(A, G, W, gblocks)
        except np.linalg.LinAlgError:
            break
        lam = W.lam_vec()

        def solve3(rxh, ryh, rzh):
            sol, err = kkt.solve(np.concatenate([rxh, -ryh, -rzh]))
            if not np.isfinite(err):
                return None
            return sol[:N], sol[N:N + p], sol[N + p:]

        u1 = solve3(c, b, h)
        if u1 is None or not np.all(np.isfinite(u1[0])):
            break
        dx1, dy1, dz1 = u1

        def hdot(u, v):
            return np.dot(u.astype(np.longdouble), v.astype(np.longdouble))

        g1 = hdot(c, dx1) + (hdot(b, dy1) if p else 0.0) + hdot(h, dz1)

        def direction(sigma, eta_s, eta_kappa):
            ds0 = W.wt_apply(W.lam_solve(eta_s))
            u2 = solve3(-(1 - sigma) * rx, -(1 - sigma) * ry,
                        -(1 - sigma) * rz + ds0)
            if u2 is None:
                return None
            dx2, dy2, dz2 = u2
            # the tau pivot and the slack update both suffer catastrophic
            # cancellation at small mu; extended precision keeps them honest
            g2 = hdot(c, dx2) + (hdot(b, dy2) if p else 0.0) + hdot(h, dz2)
            dtau = float((g2 + eta_kappa / tau - (1 - sigma) * rtau)
                         / (g1 + kappa / tau))
            dx = dx2 - dtau * dx1
            dy = dy2 - dtau * dy1
            dz = dz2 - dtau * dz1
            ds = ds0 - W.wtw_apply(dz)
            dkappa = (eta_kappa - kappa * dtau) / tau
            return dx, dy, dz, ds, dtau, dkappa

        def boundary_step(dz, ds, dtau, dkappa):
            alpha = min(W.max_step(W.w_apply(dz)), W.max_step(W.winvt_apply(ds)))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        # predictor
        lam_sq = _sym_prod(cone, lam, lam)
        da = direction(0.0, -lam_sq, -tau * kappa)
        if da is None:
            break
        a_aff = min(1.0, boundary_step(da[2], da[3], da[4], da[5]))
        mu_aff = (float((s + a_aff * da[3]) @ (z + a_aff * da[2]))
                  + (tau + a_aff * da[4]) * (kappa + a_aff * da[5])) / nu
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

        # corrector, dropped when its lambda-inverse amplification would
        # swamp the base right-hand side and inject roundoff into the
        # linear rows (only happens very near the central-path endgame)
        base = sigma * mu * cone.identity() - lam_sq
        corr = _sym_prod(cone, W.winvt_apply(da[3]), W.w_apply(da[2]))
        base_amp = np.abs(W.lam_solve(base)).max(initial=0.0)
        corr_amp = np.abs(W.lam_solve(corr)).max(initial=0.0)
        if corr_amp <= 100.0 * (1.0 + base_amp):
            eta_s = base - corr
            eta_kappa = sigma * mu - tau * kappa - da[4] * da[5]
        else:
            eta_s = base
            eta_kappa = sigma * mu - tau * kappa
        step = direction(sigma, eta_s, eta_kappa)
        if step is None:
            break
        dx, dy, dz, ds, dtau, dkappa = step

        alpha = min(1.0, _STEP_FRAC * boundary_step(dz, ds, dtau, dkappa))
        if not np.isfinite(alpha) or alpha <= 0:
            break
        stall = stall + 1 if alpha < 1e-4 else 0

        x += alpha * dx
        y += alpha * dy
        z += alpha * dz
        s += alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa
        if not (np.isfinite(tau) and np.isfinite(kappa) and tau > 0 and kappa > 0
                and np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
            break
        # the embedding is positively homogeneous: renormalizing the iterate
        # to tau = 1 keeps the recovered candidates free of 1/tau noise
        # amplification without changing the trajectory
        rescale = 1.0 / tau
        x *= rescale
        y *= rescale
        z *= rescale
        s *= rescale
        kappa *= rescale
        tau = 1.0

    if best is not None:
        return SolveReport(status="NumericalTrouble", x=best[1],
                           objective=best[2] + conic.obj_const,
                           residuals=best[3], iterations=it)
    X, Y, Z = candidates()
    pres, dres, gap, pobj, dobj = residual_metrics(X, Y, Z)
    return SolveReport(status="NumericalTrouble", x=X,
                       objective=pobj + conic.obj_const,
                       residuals={"feas": max(pres, dres), "gap": gap},
                       iterations=it)


def infeasibility_residual(conic: ConicForm, certificate: dict) -> float:
    """Recompute the improving-ray residual of an infeasibility certificate."""
    if certificate.get("kind") == "presolve_contradiction":
        return 0.0
    y = np.asarray(certificate["y"], dtype=float)
    z = np.asarray(certificate["z"], dtype=float)
    denom = -(float(conic.b @ y) if y.size else 0.0) - float(conic.h @ z)
    if denom <= 0:
        return np.inf
    y, z = y / denom, z / denom
    res = conic.G.T @ z
    if y.size:
        res = res + conic.A.T @ y
    cone = _Cone(conic.dims)
    eig_viol = 0.0
    for d, zb in cone.blocks(z):
        eig_viol = max(eig_viol, -float(np.linalg.eigvalsh(cone.smat(d, zb))[0]))
    return max(float(np.abs(res).max(initial=0.0)), eig_viol)

