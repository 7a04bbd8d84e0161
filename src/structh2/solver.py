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

Each direction is taken in W's scaled space, as CVXOPT's cone solvers take
it (Vandenberghe, "The CVXOPT linear and quadratic cone program solvers",
2010). Its unknowns are v = W dz and W^{-T} ds: the linearized
complementarity lambda o (v + W^{-T} ds) = eta gives W^{-T} ds = p - v for
p = lam_solve(eta), so the KKT right-hand side is W^{-T} r - p, with W^{-T} r
mapped once per iteration. p - v is a difference of quantities of the size
of lambda, which float64 carries; the unscaled ds0 - W^T W dz cancels at
small mu beyond what float64 carries. One W^T map takes the corrector's
p - v back to ds; the boundary step and the corrector's Jordan product read
the scaled vectors. The tau pivot |W dz_1|^2 equals c^T dx_1 + h^T dz_1 and
cannot go negative.

Mehrotra's predictor only sets sigma and the corrector's second-order term
(Mehrotra, SIAM J. Optim. 2, 1992), so it takes one back-solve through the
factor, with no refinement, and makes no cone map: h^T dz_2 is
(W^{-T} h)^T v_2, with W^{-T} h mapped once for the tau pivot's solve, and
mu_aff is read from the scaled vectors as CVXOPT reads it, since
(W^T u).(W^{-1} v) = u.v gives (s + a ds).(z + a dz) =
(lambda + a W^{-T} ds).(lambda + a W dz). The pivot's solve and the
corrector's are refined.

Each iteration solves its KKT systems through one QR factorization of the
NT-scaled cone rows W^{-T} G and refines the solutions of the tau pivot and
the corrector in the scaled system that the QR solves, with products with G
and W's per-block maps only. The factor's error grows with the condition
number of W^{-T} G rather than its square, which keeps the data-driven
endgame, where W degenerates, solvable.
The factorization (LAPACK `dgeqrt`) keeps Q as block reflectors of up to
`_QR_BLOCK` columns with their triangular factors, the compact WY form of
Schreiber & Van Loan (1989), and each of the iteration's one-column
applications of Q or Q^T (`dgemqrt`) reuses those factors rather than forming
them again. `_qr_factor` and `_qr_apply` are the KKT factorization's only
calls into LAPACK's QR (the small QR of an eliminated block's scaling factor
is `np.linalg.qr`'s), and the first call of either, or of
`_tri_congruence`, imports scipy's wrappers of these routines and of
`dtrtrs` (`_load_lapack`). Importing this module does not:
scipy.linalg takes about 0.1 s to import, which a process that never solves,
such as `struct-h2 simulate` or `verify`, need not pay. A KKT solve with no
finite residual raises `LinAlgError`, as a failed scaling or factorization
does; one handler ends the solve NumericalTrouble with its best iterate.

The H2 bound Q enters G only as the leading q x q principal block of the
output block [[Q, X], [X^T, Y]] (the designs minimize tr Q itself, with no
trace row), yet its q(q+1)/2 columns are most of G's. Where G has at least
2 `_QR_BLOCK` columns, the KKT takes them out of the factorization
(`_Elimination`), as Vandenberghe, Balakrishnan, Wallin, Hansson & Roh
(2005) use the structure of a KYP-lemma LMI's matrix variable in the Newton
system. At each iterate the
QR R^{-1} = V Rr of the output block's scaling factor gives an orthogonal V,
and in the block's rows rotated by V's congruence Q's image is
svec(T' Q T'^T) on the svec(q) rows of the leading block, T' the leading
q x q block of Rr, and zero on the others. That image is square and
invertible, so Q's equations fix v on those rows, and those rows then fix
dQ, each by q x q triangular solves by T' (`dtrtrs`). The stack that the QR
factors is the other columns on the other rows: 672 x 230 in place of
843 x 401 on the 12-state sharing D4 design. The refinement still runs
against the whole scaled system, through G's products.

The cone layer works per block dimension, not per block, as SDPT3 (Toh, Todd
& Tutuncu 1999) stores blocks of one kind together. The blocks of one
dimension d form a group, and each group is held as one (k, d, d) stack of
matrices. A cone operation then costs one gather from the svec vector, the
products or a batched `np.linalg` call per group, and one svec back, written
in place. The data-driven LMIs have few dimensions and several small blocks,
so this removes most of the per-block Python work. It changes no result:
each matrix in a stack goes through the same kernel as it would on its own.

The matrix products of W's maps and of the Jordan product go through 2-D
`np.dot`, one matrix at a time, into one flat buffer per operation: the
`dgemm` that the stacked `@` calls per matrix, without the gufunc's
overhead, and so the same bits, which `tests/test_solver.py` checks against
`@`. A group of 1 x 1 blocks takes the same scalar products elementwise, and
its scaling and eigenvalues by scalar arithmetic that gives LAPACK's bits.
Lambda is diagonal, so Lambda and Lambda o Lambda = diag(lambda^2) are
scattered onto the diagonal svec positions, and `lam_solve` divides each
svec entry by (lambda_i + lambda_j)/2, with no map at all.

What does not change within a solve or a scaling point is computed once.
`_Cone.stacks` is the cone's one gather: it reads any number of svecs into
one buffer, which the cone keeps per number of vectors, with one division by
smat's divisor, and returns each group's stack of all of them. `map` reads
its inputs through it and lets each group write into one kept output
buffer, so only the svec it returns is new; `max_step` takes both boundary
directions in one eigvalsh per group, and a `_Scaling` factors s and z in
one batched Cholesky per group. A `_Scaling` keeps its transposed factors,
the divisor of `lam_solve` at every svec position and the
sqrt(lambda_i) sqrt(lambda_j) of `max_step`.

The LMIs' size does not depend on the record length, so on the larger designs
the per-iteration KKT build is the work. One `_KKT` is built per solve and
factored at each iterate, and it holds every buffer: the stack, which the
QR factors in place, an eliminated Q's rotated rows of the other columns,
the triangle, the column that Q is applied to, and work arrays for one
cache-sized chunk of G's columns.
G's columns are kept per block as their nonzeros alone, and each column's
scaled rows are formed on the row indices its nonzeros touch, as Fujisawa,
Kojima & Nakata (1997) form the scaled system from sparse constraint data:
with T the t of the block's d indices that a column g touches,
R^{-1} smat(g) R^{-T} = U S U^T for U = R^{-1}[:, T] and S the t x t smat of
g on T. Each build scatters a chunk's nonzeros into its compact (k, t, t)
stack, gathers the k U^T, takes U S and (U S) U^T through BLAS, 2 d t (d + t)
flops a column in place of the dense congruence's 4 d^3, and writes the
svec into the stack, with `out=` arguments throughout. The 1 x 1 blocks
(the LMIs' scalar rows) take no chunk: one elementwise operation writes
their entries r_i v r_i, the products of the 1 x 1 congruence, whose svec
leaves them as they are. So an iteration allocates
nothing proportional to G. Each entry's sums are those of the dense
congruence without their exact-zero terms, in the same index order, so
they keep its bits where the dgemm kernel adds each entry's terms in index
order into one sum. OpenBLAS's kernels do not at every size (Haswell's last
row at odd d, some SkylakeX sizes), and there an entry can move in its
last bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .lmi import ConicForm, Nonzeros, smat, svec, svec_len, svec_tables

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
        # svec's sqrt(2) scale per position, also smat's divisor of its entry;
        # 0.5 * scale is exact, so (u + l) * (0.5 * scale) == 0.5 * (u + l) * scale
        self._scale = np.concatenate(scale)
        self._half_scale = 0.5 * self._scale
        self._out = np.empty(self._flat)
        self._out_stacks = self._split(self._out)
        self._bufs = {}

    def _split(self, buf):
        """The (..., k, d, d) stack of every group, as views into a buffer
        whose last axis is flat."""
        out, off = [], 0
        for d, k in self.groups:
            out.append(buf[..., off:off + k * d * d].reshape(buf.shape[:-1] + (k, d, d)))
            off += k * d * d
        return out

    def stacks(self, *vs):
        """The smat blocks of the svecs vs as one (len(vs), k, d, d) stack
        per group: views into one (len(vs), flat) buffer, which the cone
        keeps per len(vs) and the next call with as many vectors overwrites."""
        got = self._bufs.get(len(vs))
        if got is None:
            buf = np.empty((len(vs), self._flat))
            got = self._bufs[len(vs)] = buf, self._split(buf)
        buf, views = got
        for row, v in zip(buf, vs):
            # take(mode="clip") would clamp the indices of a short v
            if v.shape != (self.total,):
                raise ValueError(f"expected an svec of length {self.total}, got shape {v.shape}")
            v.take(self._gather, out=row, mode="clip")
        buf /= self._div
        return views

    def map(self, fn, *vs):
        """The svec, in block order, of what fn(g, out, stacks of vs...)
        writes into out for each group g: out is g's (k, d, d) stack in a
        flat buffer that the cone keeps. The stacks are `stacks(*vs)`, so fn
        must not call `map`; the svec returned is a new array."""
        for g, (out, S) in enumerate(zip(self._out_stacks, self.stacks(*vs))):
            fn(g, out, *S)
        v = self._out[self._up]
        v += self._out[self._lo]
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
        return max([0.0] + [e for S in self.stacks(v) for e in (-_min_eig(S)).ravel().tolist()])

    def identity(self):
        v = np.zeros(self.total)
        v[self._diag] = 1.0
        return v


def _min_eig(S):
    """The least eigenvalue of each matrix of a (..., d, d) stack. A 1 x 1
    matrix's is its entry, which is what eigvalsh returns for it."""
    return S[..., 0, 0] if S.shape[-1] == 1 else np.linalg.eigvalsh(S)[..., 0]


def _congruence(left, M, right, out):
    """out[j] = left[j] M[j] right[j] for every matrix j of the (k, d, d) stacks.

    Each matrix goes through 2-D np.dot, the dgemm that the stacked `@` calls
    per matrix, without its gufunc overhead. A group of 1 x 1 blocks is the
    same scalar products, elementwise.
    """
    if M.shape[-1] == 1:
        np.multiply(left * M, right, out=out)
        return
    for j in range(M.shape[0]):
        np.dot(np.dot(left[j], M[j]), right[j], out=out[j])


class _Scaling:
    """Nesterov-Todd scaling point per block: W z = W^{-T} s = lambda.

    W acts on block i as v -> svec(R_i^T mat(v) R_i). R, Rinv and lambda are
    held as one stack per group of the cone, and so is all that the maps and
    step tests reuse within the iterate: the transposed factors,
    sqrt(lambda_i) sqrt(lambda_j), and (lambda_i + lambda_j)/2 at every svec
    position. A group of 1 x 1 blocks takes its factors by scalar arithmetic,
    which gives LAPACK's results bit for bit: the Cholesky factor of a is
    sqrt(a), the SVD of x > 0 is 1 * x * 1, and a 1 x 1 product is one
    multiplication. An entry that is not positive, or NaN, raises
    LinAlgError, as LAPACK's path does.
    """

    def __init__(self, cone: _Cone, s, z):
        self.cone = cone
        self.R, self.Rinv, self.lam = [], [], []
        for SZ in cone.stacks(s, z):
            if SZ.shape[-1] == 1:
                if not np.all(SZ > 0.0):                # NaN fails too
                    raise np.linalg.LinAlgError("Matrix is not positive definite")
                Ls, Lz = np.sqrt(SZ)
                sig = (Lz * Ls)[:, 0]
                inv = 1.0 / np.sqrt(sig)[:, None, :]
                self.R.append(Ls * inv)
                self.Rinv.append(inv * Lz)
            else:
                Ls, Lz = np.linalg.cholesky(SZ)
                U, sig, Vt = np.linalg.svd(Lz.swapaxes(-1, -2) @ Ls)
                sq = np.sqrt(sig)[:, None, :]
                self.R.append(Ls @ (Vt.swapaxes(-1, -2) / sq))
                self.Rinv.append((U / sq).swapaxes(-1, -2) @ Lz.swapaxes(-1, -2))
            self.lam.append(sig)
        self._Rt = [R.swapaxes(-1, -2) for R in self.R]
        self._Rinvt = [Ri.swapaxes(-1, -2) for Ri in self.Rinv]
        self._sqrt_outer = [sq[:, :, None] * sq[:, None, :] for sq in map(np.sqrt, self.lam)]
        mean = [0.5 * (lam[:, :, None] + lam[:, None, :]) for lam in self.lam]
        self._lam_mean = np.concatenate([m.reshape(-1) for m in mean])[cone._up]

    def _map(self, v, left, right):
        return self.cone.map(lambda g, out, M: _congruence(left[g], M, right[g], out), v)

    def wt_apply(self, v):
        """W^T v = svec(R mat(v) R^T)."""
        return self._map(v, self.R, self._Rt)

    def winvt_apply(self, ds):
        """W^{-T} ds = svec(R^{-1} mat(ds) R^{-T})."""
        return self._map(ds, self.Rinv, self._Rinvt)

    def winv_apply(self, v):
        """W^{-1} v = svec(R^{-T} mat(v) R^{-1})."""
        return self._map(v, self._Rinvt, self.Rinv)

    def lam_sq(self):
        """svec of Lambda o Lambda, which is diag(lambda^2): Lambda is diagonal."""
        return self.cone.diagonal([lam * lam for lam in self.lam])

    def lam_solve(self, v):
        """Solve lambda o u = v in svec coordinates. Lambda is diagonal, so
        each entry is divided by (lambda_i + lambda_j)/2: three elementwise
        operations in the order of a cone map's gather (smat's divisor), its
        division and its scatter (svec's scale), whose bits they give."""
        u = v / self.cone._scale
        u /= self._lam_mean
        u *= self.cone._scale
        return u

    def max_step(self, *dirs):
        """Largest alpha with Lambda + alpha*mat(d) staying PSD for every d in
        dirs: one eigvalsh per group over the stacks of all of them."""
        alpha = np.inf
        for S, sq in zip(self.cone.stacks(*dirs), self._sqrt_outer):
            lmin = _min_eig(S / sq)
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

def _equilibrate(G: Nonzeros, h, c, cone: _Cone):
    """Four passes of Ruiz-style scaling; PSD blocks get one uniform row
    scale each.

    Each entry of G is multiplied by the same scales in the same order as a
    dense pass over G would, and the maxima are exact, so the scaled values
    are those of the dense pass bit for bit."""
    M, N = G.shape
    drG = np.ones(M)
    dcol = np.ones(N)
    vals = G.vals.copy()
    # the table is row-major: each block's entries are one run of it
    bounds = np.searchsorted(G.rows, [sl.start for sl in cone.slices] + [M])
    for _ in range(4):
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
#     [ G   -W^T W ] [dz] = [r3],
#
# given as r1 and r3t = W^{-T} r3, for (dx, dz) and v = W dz.

# Refinement passes per solve: corrections against the residual of the
# scaled system, each reusing the iterate's factorization.
_KKT_REFINE = 3

# Entries of one chunk's (kc, d, d) congruence stack in a KKT build, its
# largest work array: G's columns are built a chunk at a time, so the stack
# and its compact temporaries stay in cache. Of 2^13 ... 2^17, timed on lone
# builds of the 12-state sharing designs and the 12- to 28-state D4 data
# designs, 2^16 was fastest, 4-9 % ahead of 2^15, and 2^13 took 1.4-2.1
# times as long; 2^15 keeps the work arrays at half 2^16's size.
_CHUNK_ENTRIES = 1 << 15

# Columns per block reflector of the KKT factorization (LAPACK dgeqrt's nb),
# capped at the stack's columns. Timed as one factorization and five
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
    factorization; a is the KKT's stack (`_KKT.buf`)."""
    if dgeqrt is None:
        _load_lapack()
    qr, t, info = dgeqrt(nb, a, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"QR factorization failed: dgeqrt info {info}")
    return qr, t


def _qr_apply(qr, t, trans, c):
    """Q c (trans "N") or Q^T c ("T") for the factor (qr, t) of `_qr_factor`,
    written over the F-order c, which has qr's rows: the column `_KKT.col`.
    The solver's only application of Q."""
    if dgemqrt is None:
        _load_lapack()
    c, info = dgemqrt(qr, t, c, trans=trans, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"applying Q failed: dgemqrt info {info}")
    return c


def _svec_into(M, out, work, tables=None):
    """lmi.svec of a (k, d, d) stack, written into out, a (k, svec_len(d))
    array; work is scratch of out's shape. (u + l) * (0.5 * scale) equals
    lmi.svec's 0.5 * (u + l) * scale exactly, and mode "clip" keeps np.take
    from buffering its output. tables, the (up, lo, scale) of lmi.svec_tables
    taken in another order of the svec positions, writes them in that order."""
    k, d = M.shape[0], M.shape[-1]
    up, lo, scale = tables or [svec_tables(d)[i] for i in (0, 1, 3)]
    flat = M.reshape(k, d * d)
    np.take(flat, up, axis=1, out=out, mode="clip")
    np.take(flat, lo, axis=1, out=work, mode="clip")
    out += work
    out *= 0.5 * scale
    return out


def _tri_congruence(T, v, trans):
    """svec(T^{-1} smat(v) T^{-T}) (trans 0) or svec(T^{-T} smat(v) T^{-1})
    (trans 1), for T upper triangular: two triangular solves, the second on
    the transpose of the first's result, whose svec is that of its own
    transpose, since svec averages an entry with its mirror."""
    if dtrtrs is None:
        _load_lapack()
    X = smat(v, T.shape[0])
    for _ in range(2):
        X, info = dtrtrs(T, X.T, trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
    return svec(X)


class _Elimination:
    """The columns of a symmetric q x q variable that enters G only as the
    leading principal block of one PSD block of d > 1, once per entry: the
    H2 bound Q of the output block [[Q, X], [X^T, Y]] >= eta I. `_KKT` takes
    them out of its QR and solves for them exactly.

    At each iterate, the QR R^{-1} = V Rr of the block's scaling factor gives
    an orthogonal V whose congruence is an orthogonal map of the block's svec
    rows, and Rr = V^T R^{-1}, upper triangular, whose leading q x q block T'
    comes from the QR of R^{-1}'s first q columns alone. In the rotated rows,
    svec(Rr mat(g) Rr^T) of a column g, a column of the variable is
    svec(T' E T'^T) on the svec(q) rows of the leading block, with E its one
    entry, and zero on the others. With D the variable's entries in the
    block's svec (one per column, so diagonal once the columns are sorted by
    position), the variable's columns of the scaled stack are A = K D on
    those svec(q) rows and zero on all others, where
    K u = svec(T' mat(u) T'^T). A is square and invertible, so the equations
    of its columns fix v on those rows, and those rows' equations then fix
    the variable's dx: the stack that `_KKT` factors is the other columns on
    the other rows, and a solve needs K^{-1} and K^{-T} only, two q x q
    triangular solves by T' each (`_tri_congruence`).

    The columns are sorted by their entry's position in svec(q): `cols`,
    with their entries `d`. `order` lists the block's svec positions with
    the leading block's svec(q) first, in svec(q)'s order, and `tables` are
    lmi.svec_tables in that order. `top` holds the svec(q) rotated rows of
    the other columns, over the stack's columns; `_KKT` sizes it, and the
    block's chunks write it."""

    def __init__(self, cone: _Cone, block, q, cols, d):
        self.block, self.q, self.cols, self.d = block, q, cols, d
        self.nq = svec_len(q)
        self.rows = cone.slices[block]
        up, lo, pos, scale, _ = svec_tables(cone.dims[block])
        lead = pos[np.triu_indices(q)]
        self.order = np.concatenate([lead, np.setdiff1d(np.arange(up.size), lead)])
        self.tables = up[self.order], lo[self.order], scale[self.order]
        self.where = cone.where[block]

    @classmethod
    def find(cls, cone: _Cone, rows, cols, vals, bounds, N):
        """The elimination of the largest such variable that G's table holds,
        or None. A column qualifies in a block of d > 1 when that entry is
        its one nonzero in G; the variable's q is the largest for which the
        qualifying entries in the leading q x q block are svec(q), at
        distinct positions."""
        single = np.bincount(cols, minlength=N) == 1
        best = None
        for b, d in enumerate(cone.dims):
            if d == 1:
                continue
            e = np.arange(bounds[b], bounds[b + 1])
            e = e[single[cols[e]]]
            p = rows[e] - cone.slices[b].start
            i, j = (t[p] for t in np.triu_indices(d))      # i <= j
            q = next((q for q in range(d, 0, -1) if np.count_nonzero(j < q) == svec_len(q)
                      and np.unique(p[j < q]).size == svec_len(q)), None)
            if q is not None and (best is None or q > best[0]):
                lead = j < q
                best = q, b, e[lead][np.argsort(svec_tables(q)[2][i[lead], j[lead]])]
        if best is None:
            return None
        q, b, e = best
        return cls(cone, b, q, cols[e], vals[e])

    def rotate(self, W: _Scaling):
        """Factor the block's R^{-1} at the iterate W: V, Rr and T'."""
        g, j = self.where
        self.V, self.Rr = np.linalg.qr(W.Rinv[g][j])
        self.Tq = self.Rr[:self.q, :self.q]

    def to_block(self, x):
        """svec(V^T mat(x) V) of the block's rows x, in `order`."""
        d = self.V.shape[0]
        return svec(self.V.T @ smat(x, d) @ self.V)[self.order]

    def from_block(self, y):
        """svec(V mat(x) V^T) of the rotated rows y, given in `order`."""
        x = np.empty(y.size)
        x[self.order] = y
        return svec(self.V @ smat(x, self.V.shape[0]) @ self.V.T)


class _KKT:
    """The KKT systems of one solve, through a QR factorization of
    Gt = W^{-T} G at each iterate.

    With v = W dz the system reads

        Gt^T v = r1,   Gt dx - v = W^{-T} r3,

    a least-squares problem in dx. A column that no row touches (a variable
    the model leaves unused) gets a unit row, so that its equation reads
    dx_j = r1_j, which is 0 whenever c_j = 0.

    Built once per solve, from the equilibrated `Nonzeros` table, never from
    a dense G. Where G has at least 2 `_QR_BLOCK` columns,
    `_Elimination.find` looks in the table for a variable that enters G only
    as one PSD block's leading principal block, the H2 bound Q. Its columns
    then stay out of the QR (`elim`): the stack holds that block's other
    rows, rotated, and `_solve` recovers them exactly. Otherwise
    `elim` is None and the stack is [Gt; E] itself. `free` lists the
    factored columns of G, in G's order, which are the stack's columns.

    G's other columns that touch a PSD block of d > 1 are kept as chunks
    of at most `_CHUNK_ENTRIES // d^2` columns each, taken in order of t, the
    number of the block's indices that a column's nonzeros touch, and every
    chunk only as idx, the (kc, t) touched indices of its columns (ascending,
    a narrower column's padded with its last one), and the nonzeros of its
    columns: each value, divided as `lmi.smat` divides it, with the flat
    positions of its entry and the entry's mirror in the chunk's compact
    (kc, t, t) smat stack, whose padded rows and columns stay zero. The
    entries of the 1 x 1 blocks are kept together (`scalars`), each with its
    stack row and column, its block's member index j in the group of 1 x 1
    blocks (`scalar_group`) and its value v; `build` writes r_j v r_j there
    for r = R^{-1} of that group, in one elementwise operation. These are
    the chunks' products (r_j v) r_j, and svec's (x + x) * 0.5 of a diagonal
    entry is x, so the bits are the chunks'. The stack is one F-order
    buffer, `buf`: the cone rows in block order, less the svec(q) rows of an
    eliminated variable's block, then E's unit rows in the order of the idle
    columns. T is the F-order buffer of the triangle. Three flat work
    arrays, sized for the largest chunk, hold one chunk's compact stack and
    then its congruence, its U^T and U S and then svec's scratch, and its
    svec; chunks are built one after another, so they share them.

    `factor(W)` writes each chunk's columns, and the 1 x 1 blocks' entries,
    straight into `buf` (an eliminated variable's block through Rr in place
    of R^{-1}, its svec(q) rotated rows into `elim.top`), and factors it in
    place by `dgeqrt`: Q kept as its Householder vectors and the (nb, n)
    triangular factors of its block reflectors, nb = min(_QR_BLOCK, n), and
    the top n rows are T. A stack with fewer rows than columns leaves its
    columns rank deficient and raises LinAlgError. Each factor overwrites
    the last. Q and Q^T are applied by `dgemqrt` to col, one F-order column
    of the stack's rows.
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
        # the stack's rows of each block, in block order
        sizes = [svec_len(d) for d in cone.dims]
        factored = np.ones(N, bool)
        # below 2 * _QR_BLOCK columns an elimination's rotation and triangular
        # solves at each iterate cost more than its smaller QR saves: on the
        # example1 LMIs (N <= 39, q = 5) it made each design 20-32 % slower
        e = self.elim = None if N < 2 * _QR_BLOCK else _Elimination.find(
            cone, rows, cols, vals, bounds, N)
        if e is not None:
            factored[e.cols] = False
            rest = factored[cols]
            rows, cols, vals = rows[rest], cols[rest], vals[rest]
            bounds = np.searchsorted(rows, [sl.start for sl in cone.slices] + [M])
            sizes[e.block] -= e.nq
        start = np.cumsum([0] + sizes).tolist()
        self.free = np.flatnonzero(factored)
        place = np.cumsum(factored) - 1         # a factored column's stack column
        # (row slice, columns, touched indices, group, member, d, flat
        # targets, values) per chunk of a block of d > 1, and (row, column,
        # member, value) per entry of a 1 x 1 block
        self.chunks = []
        scalars = []
        self.scalar_group = None
        mat_size = vec_size = tall_size = 0
        for b, (d, (g, j), sl, e0, e1) in enumerate(zip(cone.dims, cone.where, cone.slices,
                                                        bounds[:-1], bounds[1:])):
            up, _, _, scale, _ = svec_tables(d)
            p, c, v = rows[e0:e1] - sl.start, cols[e0:e1], vals[e0:e1]
            r0 = start[b]
            pos = place[c]
            if d == 1:
                self.scalar_group = g
                scalars.append((np.full(c.size, r0), pos, np.full(c.size, j), v))
                continue
            # each touched column's indices T_c, ascending, padded with its
            # last one, and each entry's row and column as places in T_c
            touched, which = np.unique(pos, return_inverse=True)
            ei, ej = np.divmod(up[p], d)
            mask = np.zeros((touched.size, d), bool)
            mask[which, ei] = mask[which, ej] = True
            t = mask.sum(axis=1)
            rank = np.cumsum(mask, axis=1) - 1
            idx = np.zeros((touched.size, t.max(initial=0)), np.intp)
            w, x = np.nonzero(mask)
            idx[w, rank[w, x]] = x
            idx = np.maximum.accumulate(idx, axis=1)
            ti, tj = rank[which, ei], rank[which, ej]
            # chunks of columns in order of t, so that a wide column pads
            # none but its own chunk: the chunk's t is its last column's
            order = np.argsort(t, kind="stable")
            sw = np.empty_like(order)
            sw[order] = np.arange(order.size)
            sw = sw[which]                          # the entry's column in that order
            ent = np.argsort(sw, kind="stable")
            kc = max(1, min(touched.size, _CHUNK_ENTRIES // (d * d)))
            cuts = np.searchsorted(sw[ent], np.arange(0, touched.size + kc, kc)).tolist()
            mat_size, vec_size = max(mat_size, kc * d * d), max(vec_size, kc * svec_len(d))
            for k0, lo, hi in zip(range(0, touched.size, kc), cuts, cuts[1:]):
                cs, k = order[k0:k0 + kc], ent[lo:hi]
                tc = int(t[cs[-1]])
                tall_size = max(tall_size, cs.size * tc * d)
                base = (sw[k] - k0) * (tc * tc)
                self.chunks.append((slice(r0, r0 + sizes[b]), touched[cs], idx[cs, :tc],
                                    g, j, d, np.stack([base + ti[k] * tc + tj[k],
                                                       base + tj[k] * tc + ti[k]]),
                                    v[k] / scale[p[k]]))
        self.scalars = [np.concatenate(t) for t in zip(*scalars)]
        self.unit = start[-1] + np.arange(self.idle.size), place[self.idle]
        n = self.free.size
        if e is not None:
            e.top = np.zeros((e.nq, n), order="F")
        self.buf = np.zeros((start[-1] + self.idle.size, n), order="F")
        self.T = np.zeros((n, n), order="F")
        self.col = np.empty((self.buf.shape[0], 1), order="F")
        self.cone_rows = start[-1]
        # the chunk's U_c^T and U_c S_c, and later svec's work array, share one
        self._m, self._a = np.empty(mat_size), np.empty(vec_size)
        self._w = np.empty(max(2 * tall_size, vec_size))
        self.G, self.N = G, N

    def build(self, W: _Scaling):
        """Write the stack at W into `buf`."""
        e = self.elim
        if e is not None:
            e.rotate(W)
        buf = self.buf
        buf.fill(0.0)                      # the last factorization overwrote it
        for rs, pos, idx, g, j, d, targets, values in self.chunks:
            (k, t), L = idx.shape, svec_len(d)
            rotated = e is not None and (g, j) == e.where
            Ri = e.Rr if rotated else W.Rinv[g][j]
            # U_c S_c U_c^T with U_c = R^{-1}[:, T_c] and S_c the compact smat
            # of column c; S_c is read before m is written
            S = self._m[:k * t * t]
            S.fill(0.0)
            S[targets] = values
            n = k * t * d
            Ut = np.take(Ri.T, idx, axis=0, out=self._w[:n].reshape(k, t, d), mode="clip")
            US = np.matmul(Ut.swapaxes(1, 2), S.reshape(k, t, t),
                           out=self._w[n:2 * n].reshape(k, d, t))
            m = np.matmul(US, Ut, out=self._m[:k * d * d].reshape(k, d, d))
            a = _svec_into(m, self._a[:k * L].reshape(k, L), self._w[:k * L].reshape(k, L),
                           e.tables if rotated else None)
            if rotated:
                e.top[:, pos] = a[:, :e.nq].T
                a = a[:, e.nq:]
            buf[rs, pos] = a.T
        if self.scalars:
            # the 1 x 1 congruence ri v ri, in the chunks' order of products;
            # their svec's (x + x) * 0.5 is x exactly
            ri = W.Rinv[self.scalar_group][:, 0, 0]
            r, c, j, v = self.scalars
            buf[r, c] = ri[j] * v * ri[j]
        buf[self.unit] = 1.0

    def factor(self, W: _Scaling):
        """Build the stack at W and factor it in place of the last iterate's
        factor."""
        self.build(W)
        self.W = W
        n = self.T.shape[0]
        if self.buf.shape[0] < n:
            raise np.linalg.LinAlgError("the KKT stack has fewer rows than columns")
        self.qr, self.t = _qr_factor(self.buf, min(_QR_BLOCK, n))
        # T is a contiguous copy: the triangular solves are several times
        # slower on the strided view into the factor
        self.T[:] = self.qr[:n]
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
        """The leading entries of Q^T [v; 0], for v on the stack's cone rows:
        T's rows. A view into `col`, which the next application of Q
        overwrites."""
        c = self.col
        c[:v.size, 0] = v
        c[v.size:] = 0.0                   # E's rows
        _qr_apply(self.qr, self.t, "T", c)
        return c[:self.T.shape[0], 0]

    def _qn(self, w):
        """Q [w; 0] on the stack's cone rows, for w over T's columns; it holds
        until the next application of Q."""
        c = self.col
        n = self.T.shape[0]
        c[:n, 0] = w
        c[n:] = 0.0
        _qr_apply(self.qr, self.t, "N", c)
        return c[:self.cone_rows, 0]

    def _back(self, r1, r3):
        """(x, v) solving S^T v = r1, S x - v = r3 for the factored stack S."""
        # w = T x solves T^T w = r1 + (Q^T [r3; 0])[:n]
        w = self._tri(r1, 1) + self._qt(r3)
        # S x = (Q [w; 0])[:M]
        v = self._qn(w) - r3
        return self._tri(w, 0), v

    def _solve(self, r1, r3t):
        """(dx, v) solving Gt^T v = r1, Gt dx - v = r3t through the factor."""
        e = self.elim
        if e is None:
            return self._back(r1, r3t)
        # in the block's rotated rows y, the variable's columns A live on the
        # leading svec(q) rows alone, and there v is y0, which solves
        # A^T y0 = r1's entries of the variable; the other columns'
        # equations lose top^T y0
        b0, b1, nq = e.rows.start, e.rows.stop, e.nq
        y = e.to_block(r3t[b0:b1])
        y0 = _tri_congruence(e.Tq, r1[e.cols] / e.d, 1)
        x, v = self._back(r1[self.free] - e.top.T @ y0,
                          np.concatenate([r3t[:b0], y[nq:], r3t[b1:]]))
        # the variable's dx is what v and the other columns leave on the
        # leading rows, through K D
        xa = _tri_congruence(e.Tq, y0 - e.top @ x + y[:nq], 0) / e.d
        Lr = b1 - b0 - nq
        v = np.concatenate([v[:b0], e.from_block(np.concatenate([y0, v[b0:b0 + Lr]])),
                            v[b0 + Lr:]])
        dx = np.empty(self.N)
        dx[self.free] = x
        dx[e.cols] = xa
        return dx, v

    def solve(self, r1, r3t):
        """The refined (dx, dz, v) with v = W dz that solve G^T dz = r1 and
        G dx - W^T W dz = r3 for r3t = W^{-T} r3, refined in (dx, v) against
        the scaled system Gt^T v = r1, Gt dx - v = r3t; dz = W^{-1} v is the
        map that the residual needs. Raises LinAlgError when no solution has
        a finite residual."""
        tol = 1e-13 * (1.0 + max(np.abs(r1).max(initial=0.0), np.abs(r3t).max(initial=0.0)))
        dx, v = self._solve(r1, r3t)
        best, best_err = None, np.inf
        for k in range(_KKT_REFINE + 1):
            dz = self.W.winv_apply(v)
            rho1 = r1 - self.G.tdot(dz)
            rho3 = r3t - (self.W.winvt_apply(self.G.dot(dx)) - v)
            err = np.maximum(np.abs(rho1).max(initial=0.0), np.abs(rho3).max(initial=0.0))
            if not err < best_err:       # a NaN, which np.maximum keeps, stops too
                break
            best, best_err = (dx, dz, v), err
            if err <= tol or k == _KKT_REFINE:
                break
            ddx, dv = self._solve(rho1, rho3)
            dx, v = dx + ddx, v + dv
        if not np.isfinite(best_err):
            raise np.linalg.LinAlgError("the KKT solve has no finite residual")
        return best


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
        if pobj < 0:
            Xc, Sc = X / (-pobj), s / drG / (-pobj)
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

        def direction(sigma, eta_kappa, p, v2, g2):
            """(dtau, dkappa, W dz, W^{-T} ds, step) of the direction whose
            KKT solve with r3t = (1 - sigma) W^{-T} rz - p gave v2 and
            g2 = c^T dx2 + h^T dz2, for the slack target W^{-T} ds0 = p: the
            step to the boundary is measured on the scaled vectors."""
            dtau = (g2 + eta_kappa - (1 - sigma) * rtau) / (g1 + kappa)
            dkappa = eta_kappa - kappa * dtau
            wdz = v2 - dtau * v1
            wds = p - wdz
            step = W.max_step(wdz, wds)
            if dtau < 0:
                step = min(step, -1.0 / dtau)
            if dkappa < 0:
                step = min(step, -kappa / dkappa)
            return dtau, dkappa, wdz, wds, step

        try:
            W = _Scaling(cone, s, z)
            kkt.factor(W)
            rzt = W.winvt_apply(rz)
            ht = W.winvt_apply(h)
            dx1, dz1, v1 = kkt.solve(c, -ht)
            # c^T dx1 + h^T dz1 = v1^T v1, which cannot go negative
            g1 = float(v1 @ v1)

            # predictor: one unrefined back-solve and no map (module
            # docstring); h^T dz2 = (W^{-T} h)^T v2, and mu_aff reads
            # (lam + a W^{-T} ds).(lam + a W dz) = (s + a ds).(z + a dz)
            lam = cone.diagonal(W.lam)
            lam_sq = W.lam_sq()
            p = W.lam_solve(-lam_sq)
            dx2, v2 = kkt._solve(-rx, rzt - p)
            g2 = float(c @ dx2) + float(ht @ v2)
            dtau_aff, dkappa_aff, wdz_aff, wds_aff, step_aff = direction(0.0, -kappa, p, v2, g2)
            a_aff = min(1.0, step_aff)
            mu_aff = (float((lam + a_aff * wds_aff) @ (lam + a_aff * wdz_aff))
                      + (1.0 + a_aff * dtau_aff) * (kappa + a_aff * dkappa_aff)) / nu
            sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

            # corrector, with Mehrotra's second-order term at every iteration,
            # as CVXOPT applies it
            eta_s = sigma * mu * ident - lam_sq - _sym_prod(cone, wds_aff, wdz_aff)
            eta_kappa = sigma * mu - kappa - dtau_aff * dkappa_aff
            p = W.lam_solve(eta_s)
            dx2, dz2, v2 = kkt.solve(-(1 - sigma) * rx, (1 - sigma) * rzt - p)
            g2 = float(c @ dx2) + float(h @ dz2)
            # eigvalsh raises on a non-finite direction in a block of d > 1;
            # the iterate's check below catches one in a 1 x 1 block
            dtau, dkappa, _, wds, step = direction(sigma, eta_kappa, p, v2, g2)
            dx, dz, ds = dx2 - dtau * dx1, dz2 - dtau * dz1, W.wt_apply(wds)
            alpha = min(1.0, _STEP_FRAC * step)
        except np.linalg.LinAlgError:
            break

        # on the step itself: min(1.0, 0.98 * nan) is a full step
        if not step > 0:
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

