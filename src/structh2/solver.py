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
residuals of the original data. Everything is deterministic numpy.

G is 1-5 % nonzero in the designs' LMIs, and under 0.1 % at scale. The
compile emits it as the row-major table of its nonzeros (`lmi.Nonzeros`),
and the solve reads that table as it is. Every product with G or G^T, in
the stopping and ray checks, the embedding's residuals and the KKT
refinement, runs over the table with `np.bincount`: each entry sums its
row's (or column's) products in index order, without BLAS and without
reading G's zeros. Equilibration rescales the table's values entry by
entry, as a dense pass would, and the KKT (`_KKT`) is built from them, so
no dense G exists anywhere in a solve.

Every step renormalizes the iterate to tau = 1, which the embedding's positive
homogeneity allows, so tau is exactly 1 at the top of each iteration and is
no state of the loop.

Each iteration solves its KKT systems through one QR factorization of the
NT-scaled cone rows W^{-T} G and refines every solution against the residual
of the full (N+M)^2 system using products with G and the per-block W^T W
only. The factor's error grows with the condition number of W^{-T} G rather
than its square, which keeps the data-driven endgame, where W degenerates,
solvable. The factorization (LAPACK `dgeqrt`) keeps Q as block reflectors
of up to `_QR_BLOCK` columns with their triangular factors, the compact WY
form of Schreiber & Van Loan (1989), and each of the iteration's one-column
applications of Q or Q^T (`dgemqrt`) reuses those factors rather than
forming them again. `_qr_factor` and `_qr_apply` are the solver's only
calls into LAPACK's QR, and the first call of either imports scipy's
wrappers of these routines and of `dtrtrs` (`_load_lapack`). Importing this
module does not: scipy.linalg takes about 0.1 s to import, which a process
that never solves, such as `struct-h2 simulate` or `verify`, need not pay.
A KKT solve with no finite residual raises `LinAlgError`, as a failed
scaling or factorization does; one handler ends the solve NumericalTrouble
with its best iterate.

The factorization runs in stages, a staircase that skips the blocks of
W^{-T} G that a column never touches. The LMIs give G a column structure:
the entries of the H2 bound Q appear only in the output block and the trace
row, and in data mode the H2 block's variables never touch the S-lemma
block. Once per solve, `_stage_plan` adds the PSD blocks one at a time and
places each column in the first stage that holds all of its blocks, so that
a block's rows have nonzeros only in the columns of its own stage and of
later ones. Each stage factors its columns on the rows still live at it,
its own rows and those that the stage before left below its triangle, as
row-merge and multifrontal sparse QR do (George & Heath 1980; Davis,
SuiteSparseQR 2011). This is Householder QR of the same matrix with its
rows and columns permuted, so it is as backward stable, and on the 12- to
20-state D4 designs it takes 0.44-0.73 of the flops of one dense QR. Q and
Q^T are applied to one column laid out as the staircase, each stage in
place on its own run of it, so the rows that a stage leaves below its
triangle already sit where the next stage reads them. Every plan goes
through that one path; a plan of one stage, as every example1 LMI has,
keeps the stack's order, and its path makes the one `dgeqrt` call on the
whole stack and the `dgemqrt` calls that apply it.

The cone layer works per block dimension, not per block, as SDPT3 (Toh, Todd
& Tutuncu 1999) stores blocks of one kind together. The blocks of one
dimension d form a group, and each group is held as one (k, d, d) stack of
matrices. A cone operation then costs one gather from the svec vector, the
products or a batched `np.linalg` call per group, and one svec back, written
in place. The data-driven LMIs have few dimensions and several small blocks,
so this removes most of the per-block Python work. It changes no result:
each matrix in a stack goes through the same kernel as it would on its own.

The matrix products of W's maps and of the Jordan product go through 2-D
`np.dot`, one matrix at a time, into one flat buffer per operation. The
stacked `@` that they replace computes each matrix of a stack by the same
kernel: the float64 products reach the same `dgemm` without the gufunc's
overhead, and numpy's long-double products have no BLAS, so both `np.dot`
and `@` sum each entry in sequence in extended precision. The bits are the
same, and `tests/test_solver.py` checks them against `@`. The long-double
W^T W product, the most expensive, costs a half to a third of its stacked
form (about 550 -> 190 us for blocks of 24, 30, 12 and 1 on a 2-vCPU Xeon).
A group of 1 x 1 blocks takes the same scalar products elementwise. Lambda
is diagonal, so Lambda and Lambda o Lambda = diag(lambda^2) are scattered
onto the diagonal svec positions with no product at all.

What does not change within a solve or a scaling point is computed once.
`_Cone.map` reads its inputs into, and lets each group write into, per-cone
scratch buffers whose group views are made on first use; only the svec it
returns is new. A `_Scaling` keeps its transposed factors, the divisor
(lambda_i + lambda_j)/2 of `lam_solve` and the sqrt(lambda_i) sqrt(lambda_j)
of `max_step`, which takes both boundary directions in one eigvalsh per
group.

The LMIs' size does not depend on the record length, so on the larger designs
the per-iteration KKT build is the work. One `_KKT` is built per solve and
factored at each iterate, and it holds every buffer: the stage buffers of
[W^{-T} G; E] that the QR factors in place, its triangle, the column that Q
is applied to, and work arrays for one cache-sized chunk of G's columns.
G's columns are kept per block as their nonzeros alone, as Fujisawa, Kojima
& Nakata (1997) form the scaled system from sparse constraint data; each
build scatters a chunk's nonzeros into its smat stack, applies the
congruence by R^{-1} to the stack through BLAS and writes its svec into its
stage buffer, with `out=` arguments throughout. So an iteration allocates nothing proportional
to G, and each column's arithmetic is that of the congruence of its dense
smat.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .lmi import ConicForm, Nonzeros, svec_len, svec_tables

# scipy's LAPACK wrappers, bound by `_load_lapack` on first use
dgeqrt = dgemqrt = dtrtrs = None


def _load_lapack():
    global dgeqrt, dgemqrt, dtrtrs
    from scipy.linalg.lapack import dgemqrt, dgeqrt, dtrtrs


def __getattr__(name):
    # lu_factor and lu_solve are unused: the benchmark tracer
    # perfbench/spans.py hooks them, so they resolve, importing scipy.linalg
    # on first access rather than at import
    if name in ("lu_factor", "lu_solve"):
        import scipy.linalg
        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
        # 2.5 would fail inside the solve's range(), and True run one iteration
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 0):
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")


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
    built from the per-dimension tables of `lmi.svec_tables`, as is the svec
    position of every diagonal entry, in the same group order.
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
        gather, div, diag = [np.empty(0, np.intp)], [np.empty(0)], [np.empty(0, np.intp)]
        off = 0
        for g, (d, blocks) in enumerate(members.items()):
            _, _, pos, _, dv = svec_tables(d)
            for j, i in enumerate(blocks):
                self.where[i] = (g, j)
                flat[i] = off
                off += d * d
                gather.append(self.slices[i].start + pos.reshape(-1))
                div.append(dv.reshape(-1))
                diag.append(self.slices[i].start + np.diagonal(pos))
        self._flat = off
        self._gather, self._div, self._diag = (np.concatenate(t) for t in (gather, div, diag))
        up, lo, scale = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
        for i, d in enumerate(self.dims):
            u, l, _, sc, _ = svec_tables(d)
            up.append(flat[i] + u)
            lo.append(flat[i] + l)
            scale.append(sc)
        self._up, self._lo = np.concatenate(up), np.concatenate(lo)
        # 0.5 * scale is exact, so (u + l) * (0.5 * scale) == 0.5 * (u + l) * scale
        self._half_scale = 0.5 * np.concatenate(scale)
        self._bufs = {}

    def _split(self, buf):
        """The (k, d, d) stack of every group, as views into a flat buffer."""
        out, off = [], 0
        for d, k in self.groups:
            out.append(buf[off:off + k * d * d].reshape(k, d, d))
            off += k * d * d
        return out

    def stacks(self, v):
        """The smat blocks of v as one (k, d, d) stack per group."""
        buf = v[self._gather]
        buf /= self._div
        return self._split(buf)

    def _scratch(self, slot, dtype):
        """Flat buffer number slot of dtype and its group views, made on first
        use and kept: `map` reads its inputs into slots 1, 2, ... and lets fn
        write into slot 0."""
        got = self._bufs.get((slot, dtype))
        if got is None:
            buf = np.empty(self._flat, dtype)
            got = self._bufs[slot, dtype] = buf, self._split(buf)
        return got

    def map(self, fn, *vs):
        """The svec, in block order, of what fn(g, out, stacks of vs...)
        writes into out for each group g: out is g's (k, d, d) stack in one
        flat buffer of the dtype of vs. The stacks are the cone's scratch,
        overwritten by the next call, so fn must not call `map`; the svec
        returned is a new array."""
        per = []
        for slot, v in enumerate(vs, 1):
            # take(mode="clip") would clamp the indices of a short v
            if v.shape != (self.total,):
                raise ValueError(f"expected an svec of length {self.total}, got shape {v.shape}")
            buf, views = self._scratch(slot, v.dtype)
            v.take(self._gather, out=buf, mode="clip")
            buf /= self._div
            per.append(views)
        buf, views = self._scratch(0, np.result_type(*vs))
        for g, out in enumerate(views):
            fn(g, out, *(p[g] for p in per))
        v = buf[self._up]
        v += buf[self._lo]
        v *= self._half_scale
        return v

    def diagonal(self, diags):
        """The svec of the blocks that are diagonal with diags, one (k, d)
        array per group: Lambda's svec holds lambda on its diagonal and zeros."""
        v = np.zeros(self.total)
        v[self._diag] = np.concatenate([x.reshape(-1) for x in diags])
        return v

    def max_violation(self, v):
        """The largest negated minimum eigenvalue over the blocks, at least 0."""
        return max([0.0] + [e for S in self.stacks(v)
                            for e in (-np.linalg.eigvalsh(S)[:, 0]).tolist()])

    def identity(self):
        v = np.zeros(self.total)
        v[self._diag] = 1.0
        return v


def _congruence(left, M, right, out):
    """out[j] = left[j] M[j] right[j] for every matrix j of the (k, d, d) stacks.

    Each matrix goes through 2-D np.dot, the dgemm that the stacked `@` calls
    per matrix (long double: the same in-sequence sums) without its gufunc
    overhead. A group of 1 x 1 blocks is the same scalar products, elementwise.
    """
    if M.shape[-1] == 1:
        np.multiply(left * M, right, out=out)
        return
    for j in range(M.shape[0]):
        np.dot(np.dot(left[j], M[j]), right[j], out=out[j])


class _Scaling:
    """Nesterov-Todd scaling point per block: W z = W^{-T} s = lambda.

    W acts on block i as v -> svec(R_i^T mat(v) R_i), so W^T W is the
    congruence by Wm_i = R_i R_i^T. R, Rinv, lambda and Wm are held as one
    stack per group of the cone, and so is all that the maps and step tests
    reuse within the iterate: the transposed factors, (lambda_i + lambda_j)/2
    and sqrt(lambda_i) sqrt(lambda_j).
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
        self._Rt = [R.swapaxes(-1, -2) for R in self.R]
        self._Rinvt = [Ri.swapaxes(-1, -2) for Ri in self.Rinv]
        self._lam_mean = [0.5 * (lam[:, :, None] + lam[:, None, :]) for lam in self.lam]
        self._sqrt_outer = []
        for lam in self.lam:
            sq = np.sqrt(lam)
            self._sqrt_outer.append(sq[:, :, None] * sq[:, None, :])

    def _map(self, v, left, right):
        return self.cone.map(lambda g, out, M: _congruence(left[g], M, right[g], out), v)

    def w_apply(self, dz):
        """W dz = svec(R^T mat(dz) R)."""
        return self._map(dz, self._Rt, self.R)

    def wt_apply(self, v):
        """W^T v = svec(R mat(v) R^T)."""
        return self._map(v, self.R, self._Rt)

    def winvt_apply(self, ds):
        """W^{-T} ds = svec(R^{-1} mat(ds) R^{-T})."""
        return self._map(ds, self.Rinv, self._Rinvt)

    def wtw_apply(self, v):
        """W^T W v = svec(Wm mat(v) Wm), formed in extended precision: it
        cancels against G dx in the KKT residual and against ds0 in the slack
        update, and Wm's spread near optimality swamps float64 products."""
        return self._map(v.astype(np.longdouble), self._wm_ext, self._wm_ext).astype(float)

    def winv_apply(self, v):
        """W^{-1} v = svec(R^{-T} mat(v) R^{-1})."""
        return self._map(v, self._Rinvt, self.Rinv)

    def lam_sq(self):
        """svec of Lambda o Lambda, which is diag(lambda^2): Lambda is diagonal."""
        return self.cone.diagonal([lam * lam for lam in self.lam])

    def lam_solve(self, v):
        """Solve lambda o u = v in svec coordinates (Lambda is diagonal)."""
        return self.cone.map(lambda g, out, M: np.divide(M, self._lam_mean[g], out=out), v)

    def max_step(self, *dirs):
        """Largest alpha with Lambda + alpha*mat(d) staying PSD for every d in
        dirs: one eigvalsh per group over the stacks of all of them."""
        alpha = np.inf
        per = [self.cone.stacks(d) for d in dirs]
        for g, sq in enumerate(self._sqrt_outer):
            lmin = np.linalg.eigvalsh(np.stack([p[g] for p in per]) / sq)[..., 0]
            neg = lmin[lmin < 0]
            if neg.size:
                alpha = min(alpha, float((-1.0 / neg).min()))
        return alpha


def _sym_prod(cone: _Cone, u, v):
    """Jordan product (UV + VU)/2 in svec coordinates, each matrix product
    through 2-D np.dot as in `_congruence`."""
    def prod(g, out, U, V):
        if U.shape[-1] == 1:
            np.multiply(U, V, out=out)
            out += V * U
        else:
            for j in range(U.shape[0]):
                np.dot(U[j], V[j], out=out[j])
                out[j] += np.dot(V[j], U[j])
        out *= 0.5
    return cone.map(prod, u, v)


# --- equilibration ----------------------------------------------------------

def _equilibrate(G: Nonzeros, h, c, cone: _Cone, iters: int = 4):
    """Ruiz-style scaling; PSD blocks get one uniform row scale each.

    Each entry of G is multiplied by the same scales in the same order as a
    dense pass over G would, and the maxima are exact, so the scaled values
    are those of the dense pass bit for bit."""
    M, N = G.shape
    drG = np.ones(M)
    dcol = np.ones(N)
    vals = G.vals.copy()
    # the table is row-major: each block's entries are one run of it
    bounds = np.searchsorted(G.rows, [sl.start for sl in cone.slices] + [M])
    for _ in range(iters):
        cm = np.zeros(N)
        np.maximum.at(cm, G.cols, np.abs(vals))
        sc = 1.0 / np.sqrt(np.maximum(cm, 1e-8))
        sc[cm == 0.0] = 1.0
        dcol *= sc
        vals *= sc[G.cols]
        for sl, lo, hi in zip(cone.slices, bounds[:-1], bounds[1:]):
            rm = np.abs(vals[lo:hi]).max(initial=0.0)
            sr = 1.0 if rm == 0.0 else 1.0 / np.sqrt(max(rm, 1e-8))
            drG[sl] *= sr
            vals[lo:hi] *= sr
    hs = drG * h
    cs = dcol * c
    cscale = 1.0 / max(1.0, np.abs(cs).max(initial=0.0))
    return Nonzeros(G.rows, G.cols, vals, G.shape), hs, cs * cscale, drG, dcol, cscale


# --- KKT systems ------------------------------------------------------------
#
# Every search direction solves, in the equilibrated data,
#
#     [ 0     G^T  ] [dx]   [r1]
#     [ G   -W^T W ] [dz] = [r3].

# Refinement passes per solve: corrections against the residual of the full
# system, each reusing the iterate's factorization.
_KKT_REFINE = 3

# Entries of one chunk's (kc, d, d) smat stack in a KKT build: G's columns are
# expanded from their nonzeros a chunk at a time, so the stack and its
# congruence temporaries stay in cache. Of 2^13 ... 2^17, 2^15 and 2^16 built
# fastest on 12- and 20-state D4 designs; 2^15 needs half the buffers.
_CHUNK_ENTRIES = 1 << 15

# Columns per block reflector of the KKT factorization (LAPACK dgeqrt's nb),
# capped at a stage's columns, and the fewest columns a stage of the
# staircase QR keeps (`_stage_plan`). Timed as one factorization and five
# Q^T, Q pairs on stacks of the 12-state sharing designs (844 x 402 D4,
# 766 x 454 D1), 48 was fastest in each of three runs, 0-4 % ahead of 64 and
# 3-6 % ahead of 32 (2-vCPU Xeon, 1 OpenBLAS thread); 16, 24 and 96 were
# slower still.
_QR_BLOCK = 48


def _qr_factor(a, nb):
    """QR of the F-order (M, N) array a, M >= N, in place, with block
    reflectors of nb <= N columns: returns (qr, t), qr holding R on and above
    its diagonal and the Householder vectors below it, t the (nb, N) triangular
    factors of its block reflectors (compact WY). The solver's only QR
    factorization; a is a stage's leading columns (`_KKT.factor`)."""
    if dgeqrt is None:
        _load_lapack()
    qr, t, info = dgeqrt(nb, a, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"QR factorization failed: dgeqrt info {info}")
    return qr, t


def _qr_apply(qr, t, trans, c):
    """Q c (trans "N") or Q^T c ("T") for the factor (qr, t) of `_qr_factor`,
    written over the F-order c, which has qr's rows: a stage's trailing
    columns or its run of the column `_KKT.col`. The solver's only
    application of Q."""
    if dgemqrt is None:
        _load_lapack()
    c, info = dgemqrt(qr, t, c, trans=trans, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"applying Q failed: dgemqrt info {info}")
    return c


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


def _stage_plan(touch, sizes):
    """The stages of the staircase QR, as (blocks, columns) pairs of
    ascending index arrays, from touch, the (N, b) table of the row blocks
    that each column has nonzeros in, and sizes, the rows of each block.

    Blocks are added one at a time, each time the one that completes the
    most columns not yet placed (ties go to fewer rows, then to the lower
    index); a column joins the stage of the block that completes it. A stage
    of fewer than `_QR_BLOCK` columns merges into the next one, and a short
    last stage into the one before it. Every block's rows then have nonzeros
    only in the columns of its own stage and of later ones. Deterministic: the
    same table gives the same plan."""
    n_blocks = touch.shape[1]
    missing = touch.sum(axis=1)          # blocks of each column not yet added
    unused = np.ones(n_blocks, bool)
    stages = []
    for _ in range(n_blocks):
        ready = touch[missing == 1].sum(axis=0)
        b = min(np.flatnonzero(unused).tolist(), key=lambda b: (-ready[b], sizes[b], b))
        unused[b] = False
        done = np.flatnonzero(touch[:, b] & (missing == 1))
        missing -= touch[:, b]
        if stages and stages[-1][1].size < _QR_BLOCK:
            blocks, cols = stages.pop()
            stages.append((blocks + [b], np.union1d(cols, done)))
        else:
            stages.append(([b], done))
    if len(stages) > 1 and stages[-1][1].size < _QR_BLOCK:
        blocks, cols = stages.pop()
        stages[-1] = (stages[-1][0] + blocks, np.union1d(stages[-1][1], cols))
    return [(np.sort(blocks), cols) for blocks, cols in stages]


def _run(idx):
    """The index array idx as the slice it equals when its entries are
    consecutive and ascending, so that indexing by it makes a view, not a
    gather; otherwise idx itself. Compared as lists, which is cheaper than
    numpy's reductions on arrays of a few dozen entries, as the example1
    LMIs give."""
    a = idx.tolist()
    if a and a == list(range(a[0], a[-1] + 1)):
        return slice(a[0], a[-1] + 1)
    return idx


class _Stage:
    """One stage of the staircase QR: the columns c0 ... c0 + k - 1 of the
    plan's column order, factored in an F-order buffer over the columns
    c0 ... N - 1. Its first lead rows are those that the stage before left
    below its triangle. Its own rows follow: the cone rows `rows` (indices
    into them), then `units` unit rows of E, which the stage of E's
    pseudo-block holds, in the order of the idle columns."""

    def __init__(self, c0, k, lead, rows, units, N):
        self.c0, self.k, self.lead, self.rows, self.units = c0, k, lead, rows, units
        self.buf = np.zeros((lead + rows.size + units, N - c0), order="F")


class _KKT:
    """The KKT systems of one solve, through a QR factorization of
    Gt = W^{-T} G at each iterate.

    With v = W dz the system reads

        Gt^T v = r1,   Gt dx - v = W^{-T} r3,

    a least-squares problem in dx. A column that no row touches (a variable
    the model leaves unused) gets a unit row, so that its equation reads
    dx_j = r1_j, which is 0 whenever c_j = 0.

    Built once per solve, from the equilibrated `Nonzeros` table, never from
    a dense G. G's columns that touch a PSD block are kept as chunks of at
    most `_CHUNK_ENTRIES // d^2` columns each, and every chunk only as the
    nonzeros of its columns: each value, divided as `lmi.smat` divides it,
    with the flat positions of its entry and the entry's mirror in the
    chunk's (kc, d, d) smat stack. The stack [Gt; E] is factored as a
    staircase (`_stage_plan`): each PSD block, and E as one more, belongs to
    the stage that first holds all of some columns' blocks, and each stage
    is an F-order buffer (`_Stage`) over the columns of its own and later
    stages, with room above its own rows for the rows that the stage before
    leaves below its triangle. `perm` lists G's columns in the plan's order
    and `place` the position of each column in it. T is the F-order (N, N)
    buffer of the triangle in the plan's column order. Four flat work
    arrays, sized for the largest chunk, hold one chunk's smat stack, its
    congruence and its svec; chunks are expanded one after another, so they
    share them.

    `factor(W)` writes each chunk's columns straight into its block's stage
    buffer, at the plan's row and column positions, and factors the stages
    in turn: each stage's columns by `dgeqrt`, Q_s kept as its Householder
    vectors and the (nb, k) triangular factors t of its block reflectors,
    nb = min(_QR_BLOCK, k); Q_s^T is applied to the stage's trailing columns
    by `dgemqrt`; the rows below its triangle pass on to the next stage; and
    its top rows are its rows of T. So P_r [Gt; E] P_c = Q T with
    Q = Q_1 ... Q_K, each Q_s acting on its stage's live rows. Householder
    QR of the permuted stack is backward stable as that of the stack is:
    unlike the Schur complement Gt^T Gt, the factor's error grows with
    cond(Gt), not with its square. A stage with fewer live rows than columns
    leaves its columns rank deficient and raises LinAlgError. Each factor
    overwrites the last, so an iteration allocates nothing proportional to
    G.

    Q and Q^T are applied to col, one F-order column of the stack's rows
    laid out as the staircase: the L live rows of the stage at column c0
    are col[c0 : c0 + L], so the rows that a stage leaves below its
    triangle already sit where the next stage's lead rows are, and `slot`
    is the position of each cone row in col. perm, place and slot
    are held as slices when they are runs of consecutive indices, so that
    indexing by them makes views. A plan of one stage keeps the stack's own
    order, so all three are runs, and its Q is the one `dgeqrt` factor of
    the whole stack. Solutions are refined against the residual of the full
    system, which needs only the per-block W^T W and products with G, run
    over G's nonzeros in row order (`Nonzeros`) without BLAS.
    """

    def __init__(self, cone: _Cone, G: Nonzeros):
        M, N = G.shape
        # G's negative zeros, and entries that equilibration took to zero, are
        # left out, to be +0.0 in the stack: a congruence sums a zero of
        # either sign to the same values
        keep = G.vals != 0.0
        rows, cols, vals = G.rows[keep], G.cols[keep], G.vals[keep]
        bounds = np.searchsorted(rows, [sl.start for sl in cone.slices] + [M])
        self.idle = np.flatnonzero(np.bincount(cols, minlength=N) == 0)
        # the row ranges of the blocks in the stack, E's last
        ranges = [(sl.start, sl.stop) for sl in cone.slices] + [(M, M + self.idle.size)]
        # two stages need 2 * _QR_BLOCK columns: below that, the one stage
        # that `_stage_plan` gives, without its cost (about 0.1 ms a solve)
        if N < 2 * _QR_BLOCK:
            plan = [(np.arange(len(ranges)), np.arange(N))]
        else:
            touch = np.zeros((N, len(ranges)), bool)
            for b, (e0, e1) in enumerate(zip(bounds[:-1], bounds[1:])):
                touch[cols[e0:e1], b] = True
            touch[self.idle, -1] = True
            plan = _stage_plan(touch, [r1 - r0 for r0, r1 in ranges])
        perm = np.concatenate([c for _, c in plan])
        place = np.empty(N, np.intp)
        place[perm] = np.arange(N)
        self.stages = []
        at = {}                                     # block -> (stage, first buffer row)
        slot = np.empty(M, np.intp)
        c0 = lead = 0
        for s, (blocks, cc) in enumerate(plan):
            own = lead
            for b in blocks.tolist():
                at[b] = s, own
                own += ranges[b][1] - ranges[b][0]
            # E's pseudo-block has the highest index, so its rows come last
            cone_rows = np.concatenate([np.empty(0, np.intp)] + [
                np.arange(*ranges[b]) for b in blocks.tolist() if b < len(cone.dims)])
            units = self.idle.size if blocks[-1] == len(cone.dims) else 0
            # the stage's own rows follow its lead rows in col
            slot[cone_rows] = c0 + lead + np.arange(cone_rows.size)
            self.stages.append(_Stage(c0, cc.size, lead, cone_rows, units, N))
            c0 += cc.size
            lead = max(own - cc.size, 0)
        # (stage, row slice, columns, group, member, d, flat targets, values)
        # per chunk
        self.chunks = []
        mat_size = vec_size = 0
        for b, (d, (g, j), e0, e1) in enumerate(zip(cone.dims, cone.where,
                                                    bounds[:-1], bounds[1:])):
            up, lo, _, scale, _ = svec_tables(d)
            p, c, v = rows[e0:e1] - ranges[b][0], cols[e0:e1], vals[e0:e1]
            s, r0 = at[b]
            pos = place[c] - self.stages[s].c0      # the entry's column in the stage buffer
            touched = np.unique(pos)
            which = np.searchsorted(touched, pos)   # the entry's column among touched
            kc = max(1, min(touched.size, _CHUNK_ENTRIES // (d * d)))
            mat_size, vec_size = max(mat_size, kc * d * d), max(vec_size, kc * svec_len(d))
            for k0 in range(0, touched.size, kc):
                e = np.flatnonzero((which >= k0) & (which < k0 + kc))
                base = (which[e] - k0) * (d * d)
                self.chunks.append((s, slice(r0, r0 + svec_len(d)), touched[k0:k0 + kc], g, j, d,
                                    np.stack([base + up[p[e]], base + lo[p[e]]]),
                                    v[e] / scale[p[e]]))
        s, r0 = at[len(cone.dims)]
        self.unit = (s, r0 + np.arange(self.idle.size), place[self.idle] - self.stages[s].c0)
        self.perm, self.place, self.slot = _run(perm), _run(place), _run(slot)
        self.T = np.zeros((N, N), order="F")
        self.col = np.empty((M + self.idle.size, 1), order="F")
        self._m1, self._m2 = np.empty(mat_size), np.empty(mat_size)
        self._a, self._b = np.empty(vec_size), np.empty(vec_size)
        self.G, self.N = G, N

    def build(self, W: _Scaling):
        """Write [W^{-T} G; E] into the stages' own rows."""
        for st in self.stages:
            st.buf[st.lead:] = 0.0         # the last factorization overwrote them
        for s, rs, pos, g, j, d, targets, values in self.chunks:
            k, L = pos.size, svec_len(d)
            Ri = W.Rinv[g][j]
            m1, m2 = self._m1[:k * d * d], self._m2[:k * d * d].reshape(k, d, d)
            m1.fill(0.0)
            m1[targets] = values           # the smat stack of the chunk's columns
            m1 = m1.reshape(k, d, d)
            np.matmul(Ri, m1, out=m2)
            np.matmul(m2, Ri.T, out=m1)
            a = _svec_into(m1, self._a[:k * L].reshape(k, L), self._b[:k * L].reshape(k, L))
            self.stages[s].buf[rs, pos] = a.T
        s, r, c = self.unit
        self.stages[s].buf[r, c] = 1.0

    def factor(self, W: _Scaling):
        """Build [W^{-T} G; E] and factor it stage by stage, in place of the
        last iterate's factor."""
        self.build(W)
        self.W = W
        # the factor (qr, t) of each stage, with the view of col that holds
        # the stage's live rows
        self.factors = []
        below = None
        for st in self.stages:
            c0, c1, k = st.c0, st.c0 + st.k, st.k
            if below is not None:
                st.buf[:st.lead] = below
            if st.buf.shape[0] < k:
                raise np.linalg.LinAlgError("a stage of the QR has fewer live rows than columns")
            qr, t = _qr_factor(st.buf[:, :k], min(_QR_BLOCK, k))
            self.factors.append((qr, t, self.col[c0:c0 + st.buf.shape[0]]))
            # T is a contiguous copy: the triangular solves are several times
            # slower on the strided view into the factor. Rows of a later
            # stage keep their zeros left of its diagonal block
            self.T[c0:c1, c0:c1] = qr[:k]
            if c1 < self.N:
                rest = _qr_apply(qr, t, "T", st.buf[:, k:])
                self.T[c0:c1, c1:] = rest[:k]
                below = rest[k:]
        if not np.all(np.diagonal(self.T)):
            raise np.linalg.LinAlgError("the cone rows leave a variable free")

    def _tri(self, b, trans):
        """T^{-1} b (trans 0) or T^{-T} b (trans 1), straight through LAPACK.
        `factor` has bound dtrtrs: its `_qr_factor` call loads it."""
        x, info = dtrtrs(self.T, b, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
        return x

    def _qt(self, v):
        """The first N entries of Q^T P_r [v; 0], for v in the cone rows'
        order: T's rows, in the plan's column order. A view into `col`,
        which the next application of Q overwrites."""
        c = self.col
        c.fill(0.0)                        # E's rows stay zero
        c[self.slot, 0] = v
        for qr, t, run in self.factors:
            _qr_apply(qr, t, "T", run)
        return c[:self.N, 0]

    def _qn(self, w):
        """P_r^T Q [w; 0] in the cone rows' order, for w in the plan's column
        order; it holds until the next application of Q."""
        c = self.col
        c[:self.N, 0] = w
        c[self.N:] = 0.0
        for qr, t, run in reversed(self.factors):
            _qr_apply(qr, t, "N", run)
        return c[self.slot, 0]

    def _solve(self, rhs):
        r3t = self.W.winvt_apply(rhs[self.N:])
        # w = T P_c^T dx solves T^T w = P_c^T r1 + (Q^T P_r [r3t; 0])[:N],
        # where P_c^T r1 = rhs[perm]: perm indexes r1 = rhs[:N]
        w = self._tri(rhs[self.perm], 1) + self._qt(r3t)
        # Gt dx = (P_r^T Q [w; 0])[:M]
        v = self._qn(w) - r3t
        dx = self._tri(w, 0)
        return np.concatenate([dx[self.place], self.W.winv_apply(v)])

    def residual(self, rhs, sol):
        dx, dz = sol[:self.N], sol[self.N:]
        return rhs - np.concatenate([self.G.tdot(dz), self.G.dot(dx) - self.W.wtw_apply(dz)])

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
    h0, c0 = conic.h, conic.c
    if not conic.dims:
        raise ValueError("the solver needs at least one PSD block")
    N = conic.n_reduced
    cone = _Cone(conic.dims)
    G0 = conic.nonzeros

    G, h, c, drG, dcol, cscale = _equilibrate(G0, h0, c0, cone)

    x = np.zeros(N)
    ident = cone.identity()
    s = ident.copy()
    z = ident.copy()
    kappa = 1.0
    nu = cone.degree + 1

    kkt = _KKT(cone, G)
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
        pres = cone.max_violation(h0 - G0.dot(X))
        gtz = G0.tdot(Z)
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
            res = np.abs(G0.tdot(Zc)).max(initial=0.0)
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
            res = np.abs(G0.dot(Xc) + Sc).max(initial=0.0)
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
        rx = G.tdot(z) + c
        rz = -G.dot(x) + h - s
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
            alpha = W.max_step(wdz, wds)
            if dtau < 0:
                alpha = min(alpha, -1.0 / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha, wdz, wds

        try:
            W = _Scaling(cone, s, z)
            kkt.factor(W)
            dx1, dz1 = solve2(c, h)
            g1 = hdot(c, dx1) + hdot(h, dz1)

            # predictor
            lam_sq = W.lam_sq()
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
            # eigvalsh raises on a non-finite direction, as from g1 + kappa == 0
            alpha = min(1.0, _STEP_FRAC * boundary_step(dz, ds, dtau, dkappa)[0])
        except np.linalg.LinAlgError:
            break

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
    """Recompute the improving-ray residual of an infeasibility certificate,
    G^T z over G's nonzeros as the solve's own ray check forms it."""
    z = np.asarray(certificate["z"], dtype=float)
    denom = -float(conic.h @ z)
    if denom <= 0:
        return np.inf
    z = z / denom
    res = conic.nonzeros.tdot(z)
    return max(float(np.abs(res).max(initial=0.0)), _Cone(conic.dims).max_violation(z))

