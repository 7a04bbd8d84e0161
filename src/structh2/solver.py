"""Conic solver: dense primal-dual interior-point solver for PSD programs.

Solves the compiled standard form

    minimize c^T x   s.t.   G x + s = h,   s in K,

K a product of svec'd PSD cones, through the homogeneous self-dual embedding

    G^T z + c tau = 0         z in K
    -G x + h tau = s          s in K
    -c^T x - h^T z = kappa    tau, kappa >= 0

whose skew symmetry forces s.z + tau*kappa = 0 at solutions: tau > 0 recovers
a primal-dual optimum, kappa > 0 a certificate of primal infeasibility
(h^T z < 0) or unboundedness (c^T x < 0). Search directions use
Nesterov-Todd scaling with a Mehrotra predictor-corrector; step fraction 0.98
to the cone boundary. Columns and cone rows are Ruiz-equilibrated (one scalar
per PSD block, so cones are preserved), but convergence is declared on
residuals of the original data. Everything is deterministic dense numpy.

Every step renormalizes the iterate to tau = 1, which the embedding's positive
homogeneity allows, so tau is exactly 1 at the top of each iteration and is
no state of the loop.

Each iteration solves its KKT systems through one QR factorization of the
NT-scaled cone rows W^{-T} G and refines every solution against the residual
of the full (N+M)^2 system using products with G and the per-block W^T W
only. The factor's error grows with the condition number of W^{-T} G rather
than its square, which keeps the data-driven endgame, where W degenerates,
solvable. A KKT solve with no finite residual raises `LinAlgError`, as a
failed scaling or factorization does; one handler ends the solve
NumericalTrouble with its best iterate.

The cone layer works per block dimension, not per block, as SDPT3 (Toh, Todd
& Tutuncu 1999) stores blocks of one kind together. The blocks of one
dimension d form a group, and each group is held as one (k, d, d) stack of
matrices. A cone operation then costs one gather from the svec vector, one
stacked `@` or batched `np.linalg` call per group, and one svec back. The
data-driven LMIs have few dimensions and several small blocks, so this
removes most of the per-block Python work. It changes no result: each
matrix in a stack goes through the same kernel as it would on its own.

The LMIs' size does not depend on the record length, so on the larger designs
the per-iteration KKT build is the work. Its buffers are allocated once per
solve, in a `_Workspace`: the smat stacks of G's columns per block, the
[W^{-T} G; E] buffer that the QR factors in place, its triangle, and flat
work arrays shared by the blocks. Each build writes into them with `out=`
arguments, so an iteration allocates nothing proportional to G, and its
arithmetic is that of the allocating expressions it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# unused; bound only because the benchmark tracer perfbench/spans.py hooks them
from scipy.linalg import lu_factor, lu_solve  # noqa: F401
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtrs

from .lmi import ConicForm, smat, svec_len, svec_tables

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

    def __post_init__(self):
        # each message starts with the field it names
        for name in ("tol_feas", "tol_gap"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be finite and > 0, got {tol!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


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
    """Index bookkeeping for a product of PSD blocks, grouped by dimension.

    The blocks of one dimension d form a group, in order of first appearance,
    and every cone operation runs once per group on its (k, d, d) stack of
    smat blocks. One gather with its divisor maps an svec vector to a flat
    buffer that holds every group's stack back to back; one up/lo/scale
    triple maps such a buffer back to the svec vector in block order. Both are
    built from the per-dimension tables of `lmi.svec_tables`.
    """

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)
        self.slices = []
        off = 0
        for d in self.dims:
            self.slices.append(slice(off, off + svec_len(d)))
            off += svec_len(d)
        self.total = off
        self.degree = sum(self.dims)
        members = {}
        for i, d in enumerate(self.dims):
            members.setdefault(d, []).append(i)
        self.groups = [(d, len(blocks)) for d, blocks in members.items()]
        # block i is matrix where[i][1] of group where[i][0]'s stack
        self.where = [None] * len(self.dims)
        flat = [0] * len(self.dims)          # block -> offset in the flat buffer
        gather, div = [np.empty(0, np.intp)], [np.empty(0)]
        off = 0
        for g, (d, blocks) in enumerate(members.items()):
            _, _, pos, _, dv = svec_tables(d)
            for j, i in enumerate(blocks):
                self.where[i] = (g, j)
                flat[i] = off
                off += d * d
                gather.append(self.slices[i].start + pos.reshape(-1))
                div.append(dv.reshape(-1))
        self._gather, self._div = np.concatenate(gather), np.concatenate(div)
        up, lo, scale = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
        for i, d in enumerate(self.dims):
            u, l, _, sc, _ = svec_tables(d)
            up.append(flat[i] + u)
            lo.append(flat[i] + l)
            scale.append(sc)
        self._up, self._lo, self._scale = (np.concatenate(t) for t in (up, lo, scale))

    def stacks(self, v):
        """The smat blocks of v as one (k, d, d) stack per group."""
        buf = v[self._gather] / self._div
        out, off = [], 0
        for d, k in self.groups:
            out.append(buf[off:off + k * d * d].reshape(k, d, d))
            off += k * d * d
        return out

    def map(self, fn, *vs):
        """The svec of fn(g, d, stacks of vs...) over the groups g, in block order."""
        per = [self.stacks(v) for v in vs]
        out = [fn(g, d, *(p[g] for p in per)).reshape(-1)
               for g, (d, _) in enumerate(self.groups)]
        buf = np.concatenate(out)
        return 0.5 * (buf[self._up] + buf[self._lo]) * self._scale

    def max_violation(self, v):
        """The largest negated minimum eigenvalue over the blocks, at least 0."""
        return max([0.0] + [e for S in self.stacks(v)
                            for e in (-np.linalg.eigvalsh(S)[:, 0]).tolist()])

    def identity(self):
        return self.map(lambda g, d: np.broadcast_to(np.eye(d), (self.groups[g][1], d, d)))


class _Scaling:
    """Nesterov-Todd scaling point per block: W z = W^{-T} s = lambda.

    W acts on block i as v -> svec(R_i^T mat(v) R_i), so W^T W is the
    congruence by Wm_i = R_i R_i^T, formed once per iterate. R, Rinv, lambda
    and Wm are held as one stack per group of the cone.
    """

    def __init__(self, cone: _Cone, s, z):
        self.cone = cone
        self.R, self.Rinv, self.lam = [], [], []
        for S, Z in zip(cone.stacks(s), cone.stacks(z)):
            Ls = np.linalg.cholesky(S)
            Lz = np.linalg.cholesky(Z)
            U, sig, Vt = np.linalg.svd(Lz.swapaxes(-1, -2) @ Ls)
            sq = np.sqrt(sig)[:, None, :]
            self.R.append(Ls @ (Vt.swapaxes(-1, -2) / sq))
            self.Rinv.append((U / sq).swapaxes(-1, -2) @ Lz.swapaxes(-1, -2))
            self.lam.append(sig)
        self._wm_ext = [(R @ R.swapaxes(-1, -2)).astype(np.longdouble) for R in self.R]

    def _map(self, v, left, right):
        return self.cone.map(lambda g, d, M: left[g] @ M @ right[g], v)

    def w_apply(self, dz):
        """W dz = svec(R^T mat(dz) R)."""
        return self._map(dz, [R.swapaxes(-1, -2) for R in self.R], self.R)

    def wt_apply(self, v):
        """W^T v = svec(R mat(v) R^T)."""
        return self._map(v, self.R, [R.swapaxes(-1, -2) for R in self.R])

    def winvt_apply(self, ds):
        """W^{-T} ds = svec(R^{-1} mat(ds) R^{-T})."""
        return self._map(ds, self.Rinv, [Ri.swapaxes(-1, -2) for Ri in self.Rinv])

    def wtw_apply(self, v):
        """W^T W v = svec(Wm mat(v) Wm), formed in extended precision: it
        cancels against G dx in the KKT residual and against ds0 in the slack
        update, and Wm's spread near optimality swamps float64 products."""
        return self._map(v.astype(np.longdouble), self._wm_ext, self._wm_ext).astype(float)

    def winv_apply(self, v):
        """W^{-1} v = svec(R^{-T} mat(v) R^{-1})."""
        return self._map(v, [Ri.swapaxes(-1, -2) for Ri in self.Rinv], self.Rinv)

    def lam_vec(self):
        """svec of the diagonal scaled point Lambda."""
        def diag(g, d):
            lam = self.lam[g]
            M = np.zeros(lam.shape + (d,))
            M[:, np.arange(d), np.arange(d)] = lam
            return M
        return self.cone.map(diag)

    def lam_solve(self, v):
        """Solve lambda o u = v in svec coordinates (Lambda is diagonal)."""
        return self.cone.map(
            lambda g, d, M: M / (0.5 * (self.lam[g][:, :, None] + self.lam[g][:, None, :])), v)

    def max_step(self, dtilde):
        """Largest alpha with Lambda + alpha*mat(dtilde) staying PSD."""
        alpha = np.inf
        for M, lam in zip(self.cone.stacks(dtilde), self.lam):
            sq = np.sqrt(lam)
            lmin = np.linalg.eigvalsh(M / (sq[:, :, None] * sq[:, None, :]))[:, 0]
            neg = lmin[lmin < 0]
            if neg.size:
                alpha = min(alpha, float((-1.0 / neg).min()))
        return alpha


def _sym_prod(cone: _Cone, u, v):
    """Jordan product (UV + VU)/2 in svec coordinates."""
    return cone.map(lambda g, d, U, V: 0.5 * (U @ V + V @ U), u, v)


# --- equilibration ----------------------------------------------------------

def _equilibrate(G, h, c, cone: _Cone, iters: int = 4):
    """Ruiz-style scaling; PSD blocks get one uniform row scale each."""
    M, N = G.shape
    drG = np.ones(M)
    dcol = np.ones(N)
    Gs = G.copy()
    for _ in range(iters):
        # max |x| as max(max x, -min x): the same values, without an |G| copy
        cm = np.maximum(Gs.max(axis=0, initial=0.0), -Gs.min(axis=0, initial=0.0))
        sc = 1.0 / np.sqrt(np.maximum(cm, 1e-8))
        sc[cm == 0.0] = 1.0
        dcol *= sc
        Gs *= sc[None, :]
        for sl in cone.slices:
            Gb = Gs[sl]
            rm = max(Gb.max(initial=0.0), -Gb.min(initial=0.0))
            sr = 1.0 if rm == 0.0 else 1.0 / np.sqrt(max(rm, 1e-8))
            drG[sl] *= sr
            Gs[sl] *= sr
    hs = drG * h
    cs = dcol * c
    cscale = 1.0 / max(1.0, np.abs(cs).max(initial=0.0))
    return Gs, hs, cs * cscale, drG, dcol, cscale


# --- KKT systems ------------------------------------------------------------
#
# Every search direction solves, in the equilibrated data,
#
#     [ 0     G^T  ] [dx]   [r1]
#     [ G   -W^T W ] [dz] = [r3].

# Refinement passes per solve: corrections against the residual of the full
# system, each reusing the iterate's factorization.
_KKT_REFINE = 3


def _svec_into(M, out, work):
    """lmi.svec of a (k, d, d) stack, written into out, a (k, svec_len(d))
    array; work is scratch of out's shape. (u + l) * (0.5 * scale) equals
    lmi.svec's 0.5 * (u + l) * scale exactly, and mode "clip" keeps np.take
    from buffering its output."""
    k, d = M.shape[0], M.shape[-1]
    up, lo, _, scale, _ = svec_tables(d)
    flat = M.reshape(k, d * d)
    np.take(flat, up, axis=1, out=out, mode="clip")
    np.take(flat, lo, axis=1, out=work, mode="clip")
    out += work
    out *= 0.5 * scale
    return out


class _Workspace:
    """The buffers of one solve's KKT builds, sized once from G's pattern.

    Per PSD block: the columns of G that touch it and their C-contiguous smat
    stack. For the whole system: the columns no row touches, the F-order
    [Gt; E] buffer that `dgeqrf` factors in place, and the F-order (N, N)
    buffer of its triangle T. Four flat work arrays, sized for the largest
    block, hold the congruence and svec temporaries; blocks are filled one
    after another, so they share them.

    A `_KKT` built on a workspace reads its factor from these buffers, and the
    next build overwrites them: at most one `_KKT` per workspace is live.
    """

    def __init__(self, cone: _Cone, G):
        N, M = G.shape[1], cone.total
        self.blocks = []
        for d, sl in zip(cone.dims, cone.slices):
            Gb = G[sl]
            cols = np.flatnonzero(np.any(Gb != 0.0, axis=0))
            self.blocks.append((cols, smat(Gb[:, cols].T, d)))
        self.idle = np.flatnonzero(~np.any(G, axis=0))
        self.idle_rows = M + np.arange(self.idle.size)
        self.stack = np.zeros((M + self.idle.size, N), order="F")
        self.T = np.empty((N, N), order="F")
        ks = [cols.size for cols, _ in self.blocks]
        mat_size = max(k * d * d for k, d in zip(ks, cone.dims))
        vec_size = max(k * svec_len(d) for k, d in zip(ks, cone.dims))
        self._t1, self._t2 = np.empty(mat_size), np.empty(mat_size)
        self._a, self._b = np.empty(vec_size), np.empty(vec_size)

    def build(self, W: _Scaling):
        """Write [W^{-T} G; E] into the stack buffer and return it."""
        cone = W.cone
        Gt = self.stack
        Gt.fill(0.0)                       # the last factorization overwrote it
        for (cols, mats), sl, (g, j), d in zip(self.blocks, cone.slices, cone.where,
                                               cone.dims):
            k, L = cols.size, svec_len(d)
            Ri = W.Rinv[g][j]
            t1 = self._t1[:k * d * d].reshape(k, d, d)
            t2 = self._t2[:k * d * d].reshape(k, d, d)
            np.matmul(Ri, mats, out=t1)
            np.matmul(t1, Ri.T, out=t2)
            a = _svec_into(t2, self._a[:k * L].reshape(k, L), self._b[:k * L].reshape(k, L))
            Gt[sl, cols] = a.T
        Gt[self.idle_rows, self.idle] = 1.0
        return Gt


class _KKT:
    """The KKT system through a QR factorization of Gt = W^{-T} G.

    With v = W dz the system reads

        Gt^T v = r1,   Gt dx - v = W^{-T} r3,

    a least-squares problem in dx. Gt is formed block by block from the
    columns that touch each block. A column that no row touches (a variable
    the model leaves unused) gets a unit row, so that its equation reads
    dx_j = r1_j, which is 0 whenever c_j = 0. The stack [Gt; E] = Q T is
    factored once per iterate, Q kept as Householder reflectors. Unlike the
    Schur complement Gt^T Gt, the factor's error grows with cond(Gt), not
    with its square. Solutions are refined against the residual of the full
    system, which needs only products with G and the per-block W^T W.

    The stack, its factor and T live in the solve's `_Workspace`, built once
    per solve: building a `_KKT` overwrites the previous one's factor, so one
    `_KKT` per workspace is live at a time.
    """

    def __init__(self, G, W: _Scaling, ws: _Workspace):
        N, M = G.shape[1], W.cone.total
        Gt = ws.build(W)
        if Gt.shape[0] < N:
            raise np.linalg.LinAlgError("fewer cone rows than variables")
        self.qr, self.tau, _, _ = dgeqrf(Gt, lwork=64 * N, overwrite_a=1)
        # a contiguous copy, into the workspace: the triangular solves are
        # several times slower on the strided view into the factor
        self.T = ws.T
        self.T[...] = self.qr[:N]
        if not np.all(np.diagonal(self.T)):
            raise np.linalg.LinAlgError("the cone rows leave a variable free")
        self.G, self.W, self.N, self.M = G, W, N, M

    def _tri(self, b, trans):
        """T^{-1} b (trans 0) or T^{-T} b (trans 1), straight through LAPACK."""
        x, info = dtrtrs(self.T, b, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
        return x

    def _q(self, trans, v):
        """Q v ("N") or Q^T v ("T"), v zero-padded to the factor's rows."""
        c = np.zeros((self.qr.shape[0], 1))
        c[:v.size, 0] = v
        return dormqr("L", trans, self.qr, self.tau, c, 64, overwrite_c=1)[0][:, 0]

    def _solve(self, rhs):
        N, M = self.N, self.M
        r1, r3 = rhs[:N], rhs[N:]
        r3t = self.W.winvt_apply(r3)
        # w = T dx solves T^T w = r1 + [Gt; E]^T [r3t; 0]
        w = self._tri(r1, 1) + self._q("T", r3t)[:N]
        # Gt dx = (Q [w; 0])[:M]
        v = self._q("N", w)[:M] - r3t
        return np.concatenate([self._tri(w, 0), self.W.winv_apply(v)])

    def residual(self, rhs, sol):
        dx, dz = sol[:self.N], sol[self.N:]
        return rhs - np.concatenate([self.G.T @ dz, self.G @ dx - self.W.wtw_apply(dz)])

    def solve(self, rhs):
        """Refined solution and the max-norm residual of the full system.

        Raises LinAlgError when no solution has a finite residual."""
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
        if not np.isfinite(best_err):
            raise np.linalg.LinAlgError("the KKT solve has no finite residual")
        return best_sol, best_err


# --- the solver -------------------------------------------------------------

def solve(conic: ConicForm, opts: SolverOptions | None = None) -> SolveReport:
    opts = opts or SolverOptions()
    G0, h0, c0 = conic.G, conic.h, conic.c
    if not conic.dims:
        raise ValueError("the solver needs at least one PSD block")
    N = conic.n_reduced
    cone = _Cone(conic.dims)

    G, h, c, drG, dcol, cscale = _equilibrate(G0, h0, c0, cone)

    x = np.zeros(N)
    ident = cone.identity()
    s = ident.copy()
    z = ident.copy()
    kappa = 1.0
    nu = cone.degree + 1

    ws = _Workspace(cone, G)
    best = None      # (score, X, pobj, metrics, iteration)
    stall = 0
    for it in range(opts.max_iter + 1):
        # --- termination checks on the original data
        X = dcol * x
        Zr = drG * z
        Z = Zr / cscale
        # primal feasibility is the conic violation of the candidate itself:
        # downstream consumers evaluate eigenvalues of h - G x, not the
        # solver's internal slack iterate; absolute, as they check it
        pres = cone.max_violation(h0 - G0 @ X)
        gtz = G0.T @ Z
        # normalized by the size of the dual terms, as is standard: the raw
        # residual cannot cancel below roundoff of the terms that form it
        dscale = 1.0 + np.abs(c0).max(initial=0.0) + np.abs(gtz).max(initial=0.0)
        dres = np.abs(gtz + c0).max(initial=0.0) / dscale
        pobj = float(c0 @ X)
        dobj = float(-h0 @ Z)
        gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            best = (score, X.copy(), pobj, {"feas": max(pres, dres), "gap": gap}, it)
        if opts.verbose:
            print(f"  it={it:3d} pres={pres:.2e} dres={dres:.2e} gap={gap:.2e} "
                  f"kappa={kappa:.2e}")
        if pres <= opts.tol_feas and dres <= opts.tol_feas and gap <= opts.tol_gap:
            return SolveReport(status="Optimal", x=X,
                               objective=pobj + conic.obj_const,
                               dual_objective=dobj + conic.obj_const,
                               residuals={"feas": max(pres, dres), "gap": gap},
                               iterations=it)
        # primal infeasibility: z ray with G^T z = 0, h^T z < 0
        denom = -float(h0 @ Zr)
        if denom > 0:
            Zc = Zr / denom
            res = np.abs(G0.T @ Zc).max(initial=0.0)
            if res <= _TOL_INFEAS * (1.0 + np.abs(Zc).max(initial=0.0)):
                return SolveReport(status="Infeasible", x=None, objective=None,
                                   residuals={"feas": res, "gap": 0.0},
                                   iterations=it,
                                   certificate={"kind": "primal_infeasibility",
                                                "z": Zc, "residual": float(res)})
        # unboundedness: x ray with G x + s = 0, c^T x < 0
        cdx = float(c0 @ X)
        if cdx < 0:
            Xc, Sc = X / (-cdx), s / drG / (-cdx)
            res = np.abs(G0 @ Xc + Sc).max(initial=0.0)
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
        rx = G.T @ z + c
        rz = -G @ x + h - s
        rtau = -float(c @ x) - float(h @ z) - kappa
        mu = (float(s @ z) + kappa) / nu

        def hdot(u, v):
            return np.dot(u.astype(np.longdouble), v.astype(np.longdouble))

        def solve2(rxh, rzh):
            sol, _ = kkt.solve(np.concatenate([rxh, -rzh]))
            return sol[:N], sol[N:]

        def direction(sigma, eta_s, eta_kappa):
            ds0 = W.wt_apply(W.lam_solve(eta_s))
            dx2, dz2 = solve2(-(1 - sigma) * rx, -(1 - sigma) * rz + ds0)
            # the tau pivot and the slack update both suffer catastrophic
            # cancellation at small mu; extended precision keeps them honest
            g2 = hdot(c, dx2) + hdot(h, dz2)
            dtau = float((g2 + eta_kappa - (1 - sigma) * rtau) / (g1 + kappa))
            dx = dx2 - dtau * dx1
            dz = dz2 - dtau * dz1
            ds = ds0 - W.wtw_apply(dz)
            dkappa = eta_kappa - kappa * dtau
            return dx, dz, ds, dtau, dkappa

        def boundary_step(dz, ds, dtau, dkappa):
            """The step to the boundary, with the scaled directions W dz and
            W^{-T} ds that it measures it on."""
            wdz, wds = W.w_apply(dz), W.winvt_apply(ds)
            alpha = min(W.max_step(wdz), W.max_step(wds))
            if dtau < 0:
                alpha = min(alpha, -1.0 / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha, wdz, wds

        try:
            W = _Scaling(cone, s, z)
            kkt = _KKT(G, W, ws)
            lam = W.lam_vec()
            dx1, dz1 = solve2(c, h)
            g1 = hdot(c, dx1) + hdot(h, dz1)

            # predictor
            lam_sq = _sym_prod(cone, lam, lam)
            da = direction(0.0, -lam_sq, -kappa)
            step_aff, wdz_aff, wds_aff = boundary_step(*da[1:])
            a_aff = min(1.0, step_aff)
            mu_aff = (float((s + a_aff * da[2]) @ (z + a_aff * da[1]))
                      + (1.0 + a_aff * da[3]) * (kappa + a_aff * da[4])) / nu
            sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

            # corrector, dropped when its lambda-inverse amplification would
            # swamp the base right-hand side and inject roundoff into the
            # linear rows (only happens very near the central-path endgame)
            base = sigma * mu * ident - lam_sq
            corr = _sym_prod(cone, wds_aff, wdz_aff)
            base_amp = np.abs(W.lam_solve(base)).max(initial=0.0)
            corr_amp = np.abs(W.lam_solve(corr)).max(initial=0.0)
            if corr_amp <= 100.0 * (1.0 + base_amp):
                eta_s = base - corr
                eta_kappa = sigma * mu - kappa - da[3] * da[4]
            else:
                eta_s = base
                eta_kappa = sigma * mu - kappa
            dx, dz, ds, dtau, dkappa = direction(sigma, eta_s, eta_kappa)
        except np.linalg.LinAlgError:
            break

        alpha = min(1.0, _STEP_FRAC * boundary_step(dz, ds, dtau, dkappa)[0])
        if not np.isfinite(alpha) or alpha <= 0:
            break
        stall = stall + 1 if alpha < 1e-4 else 0

        x += alpha * dx
        z += alpha * dz
        s += alpha * ds
        tau = 1.0 + alpha * dtau
        kappa += alpha * dkappa
        if not (np.isfinite(tau) and np.isfinite(kappa) and tau > 0 and kappa > 0
                and np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
            break
        # the embedding is positively homogeneous: renormalizing the iterate
        # to tau = 1 keeps the recovered candidates free of 1/tau noise
        # amplification without changing the trajectory (x /= tau would
        # round differently from x *= 1 / tau)
        rescale = 1.0 / tau
        x *= rescale
        z *= rescale
        s *= rescale
        kappa *= rescale

    return SolveReport(status="NumericalTrouble", x=best[1],
                       objective=best[2] + conic.obj_const,
                       residuals=best[3], iterations=it)


def infeasibility_residual(conic: ConicForm, certificate: dict) -> float:
    """Recompute the improving-ray residual of an infeasibility certificate."""
    z = np.asarray(certificate["z"], dtype=float)
    denom = -float(conic.h @ z)
    if denom <= 0:
        return np.inf
    z = z / denom
    res = conic.G.T @ z
    return max(float(np.abs(res).max(initial=0.0)), _Cone(conic.dims).max_violation(z))

