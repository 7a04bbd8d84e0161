"""LMI modeling layer: matrix variables, affine PSD blocks, conic compilation.

A problem collects matrix decision variables (symmetric, rectangular, scalar,
optionally with zero masks), affine PSD block constraints with a margin shift
for strict inequalities, and a linear objective. There are no equality
constraints: a linear restriction on a variable is expressed by declaring it
over a subspace (a mask, or a coefficient vector times a basis). `compile`
lowers everything to the standard conic form

    minimize c^T x   s.t.   G x + s = h,   s in (product of PSD cones)

in scaled symmetric vectorization (off-diagonals times sqrt(2), so plain dot
products agree with matrix inner products). x stacks the free entries of the
variables in declaration order, so decoding is slicing by each variable's
offset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, UnboundedShape

_SQRT2 = float(np.sqrt(2.0))


# --- scaled symmetric vectorization ---------------------------------------

def svec_len(d: int) -> int:
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def svec_tables(d: int):
    """Index tables of the svec of a d x d matrix: the flat positions of its
    row-major upper triangle and of their mirrors, the svec position of every
    entry, the sqrt(2) scale of every svec position and the divisor of every
    entry. Cached per d and read-only."""
    r, c = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[r, c] = pos[c, r] = np.arange(r.size)
    tables = (r * d + c, c * d + r, pos, np.where(r == c, 1.0, _SQRT2),
              np.where(np.eye(d, dtype=bool), 1.0, _SQRT2))
    for t in tables:
        t.setflags(write=False)
    return tables


def svec(M: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle svec with sqrt(2) off-diagonal scaling."""
    up, lo, _, scale, _ = svec_tables(M.shape[0])
    M = M.reshape(-1)
    return 0.5 * (M[up] + M[lo]) * scale


def smat(v: np.ndarray, d: int) -> np.ndarray:
    _, _, pos, _, div = svec_tables(d)
    return np.asarray(v)[pos] / div


def vecrow_to_svec(C: np.ndarray, d: int) -> np.ndarray:
    """Map coefficient columns from vec_row(d*d) space into svec space."""
    up, lo, _, scale, _ = svec_tables(d)
    return 0.5 * (C[up] + C[lo]) * scale[:, None]


# --- variables and affine matrix expressions ------------------------------

@dataclass(frozen=True)
class MatrixVar:
    """Matrix decision variable; masked entries are identically zero."""

    vid: int
    name: str
    rows: int
    cols: int
    kind: str                       # "symmetric" | "rectangular" | "scalar"
    offset: int                     # start in the stacked free-entry vector
    nfree: int
    index: np.ndarray               # (rows, cols) local free index, -1 = forced zero

    def entry_free(self, i: int, j: int) -> int | None:
        """Local free index carrying entry (i, j), or None if forced zero."""
        f = int(self.index[i, j])
        return None if f < 0 else f

    def value(self, xfree: np.ndarray) -> np.ndarray:
        # the appended zero is what index -1 picks
        return np.append(np.asarray(xfree, dtype=float), 0.0)[self.index]

    def free_values(self, M: np.ndarray) -> np.ndarray:
        """Extract the free-entry vector from a full matrix (inverse of value)."""
        M = np.asarray(M, dtype=float)
        if M.shape != (self.rows, self.cols):
            raise DimensionMismatch(f"{self.name}: expected shape {(self.rows, self.cols)}")
        # a symmetric free entry is the average of its pair
        on = self.index >= 0
        idx = self.index[on]
        return (np.bincount(idx, weights=M[on], minlength=self.nfree)
                / np.bincount(idx, minlength=self.nfree))


def _build_var(vid, name, rows, cols, kind, mask, offset) -> MatrixVar:
    if kind == "scalar":
        if (rows, cols) != (1, 1):
            raise DimensionMismatch("scalar variables must be 1x1")
    if kind == "symmetric" and rows != cols:
        raise DimensionMismatch("symmetric variables must be square")
    if mask is not None:
        mask = np.asarray(mask).astype(bool)
        if mask.shape != (rows, cols):
            raise DimensionMismatch(f"{name}: mask shape {mask.shape} != {(rows, cols)}")
        if kind == "symmetric" and not np.array_equal(mask, mask.T):
            raise ValueError(f"{name}: symmetric variable needs a symmetric mask")
    free = np.ones((rows, cols), dtype=bool) if mask is None else mask
    if kind == "symmetric":
        free = np.triu(free)
    # free entries are numbered in row-major order; a symmetric variable's
    # lower triangle mirrors its upper one
    nfree = int(np.count_nonzero(free))
    index = np.full((rows, cols), -1, dtype=np.intp)
    index[free] = np.arange(nfree)
    if kind == "symmetric":
        index = np.maximum(index, index.T)
    return MatrixVar(vid=vid, name=name, rows=rows, cols=cols, kind=kind,
                     offset=offset, nfree=nfree, index=index)


class MatExpr:
    """Affine matrix expression: constant + sum of linear images of variables."""

    __array_ufunc__ = None  # keep numpy from consuming our operators

    def __init__(self, rows, cols, const=None, coeff=None):
        self.rows = rows
        self.cols = cols
        self.const = np.zeros((rows, cols)) if const is None else np.asarray(const, float)
        self.coeff = {} if coeff is None else coeff  # vid -> (rows*cols, nfree)

    # constructors
    @staticmethod
    def constant(M) -> "MatExpr":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return MatExpr(M.shape[0], M.shape[1], const=M.copy())

    @staticmethod
    def of(var: MatrixVar) -> "MatExpr":
        flat = var.index.reshape(-1)
        on = np.flatnonzero(flat >= 0)
        coeff = np.zeros((flat.size, var.nfree))
        coeff[on, flat[on]] = 1.0
        return MatExpr(var.rows, var.cols, coeff={var.vid: coeff})

    @staticmethod
    def scaled(var: MatrixVar, C) -> "MatExpr":
        """C times a scalar variable (the alpha*Psi / beta*I building block)."""
        if var.nfree != 1:
            raise DimensionMismatch("scaled() needs a scalar variable")
        C = np.atleast_2d(np.asarray(C, dtype=float))
        return MatExpr(C.shape[0], C.shape[1],
                       coeff={var.vid: C.reshape(-1, 1).copy()})

    def _coerce(self, other) -> "MatExpr":
        if isinstance(other, MatExpr):
            return other
        if isinstance(other, MatrixVar):
            return MatExpr.of(other)
        return MatExpr.constant(other)

    def copy(self) -> "MatExpr":
        return MatExpr(self.rows, self.cols, self.const.copy(),
                       {v: c.copy() for v, c in self.coeff.items()})

    # algebra
    def __add__(self, other):
        other = self._coerce(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("added expressions must share a shape")
        out = self.copy()
        out.const += other.const
        for v, c in other.coeff.items():
            out.coeff[v] = out.coeff.get(v, 0) + c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return MatExpr(self.rows, self.cols, -self.const,
                       {v: -c for v, c in self.coeff.items()})

    def __mul__(self, scalar):
        s = float(scalar)
        return MatExpr(self.rows, self.cols, s * self.const,
                       {v: s * c for v, c in self.coeff.items()})

    __rmul__ = __mul__

    def __matmul__(self, B):
        """Right multiplication by a constant matrix."""
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[0] != self.cols:
            raise DimensionMismatch("matmul: inner dimensions differ")
        out = MatExpr(self.rows, B.shape[1], const=self.const @ B)
        for v, c in self.coeff.items():
            c3 = c.reshape(self.rows, self.cols, -1)
            out.coeff[v] = np.einsum("rcf,cb->rbf", c3, B).reshape(self.rows * B.shape[1], -1)
        return out

    def __rmatmul__(self, A):
        """Left multiplication by a constant matrix."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[1] != self.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        out = MatExpr(A.shape[0], self.cols, const=A @ self.const)
        for v, c in self.coeff.items():
            c3 = c.reshape(self.rows, self.cols, -1)
            out.coeff[v] = np.einsum("ar,rcf->acf", A, c3).reshape(A.shape[0] * self.cols, -1)
        return out

    @property
    def T(self) -> "MatExpr":
        out = MatExpr(self.cols, self.rows, const=self.const.T.copy())
        for v, c in self.coeff.items():
            c3 = c.reshape(self.rows, self.cols, -1)
            out.coeff[v] = c3.transpose(1, 0, 2).reshape(self.rows * self.cols, -1)
        return out

    def trace(self) -> "MatExpr":
        if self.rows != self.cols:
            raise DimensionMismatch("trace needs a square expression")
        idx = [i * self.cols + i for i in range(self.rows)]
        out = MatExpr(1, 1, const=np.array([[np.trace(self.const)]]))
        for v, c in self.coeff.items():
            out.coeff[v] = c[idx].sum(axis=0, keepdims=True)
        return out

    def value(self, assign: dict) -> np.ndarray:
        """Evaluate at {vid: local free-entry vector}."""
        M = self.const.copy()
        for v, c in self.coeff.items():
            M += (c @ assign[v]).reshape(self.rows, self.cols)
        return M


def block(rows) -> MatExpr:
    """Assemble a block expression from a list of lists (np.block analogue)."""
    exprs = [[e if isinstance(e, MatExpr) else MatExpr.constant(e) for e in row]
             for row in rows]
    heights = [row[0].rows for row in exprs]
    widths = [e.cols for e in exprs[0]]
    for row in exprs:
        if len(row) != len(widths):
            raise DimensionMismatch("block rows must have equal length")
        for e, w in zip(row, widths):
            if e.cols != w:
                raise DimensionMismatch("block column widths are inconsistent")
            if e.rows != row[0].rows:
                raise DimensionMismatch("block row heights are inconsistent")
    R, Csz = sum(heights), sum(widths)
    out = MatExpr(R, Csz)
    r0 = 0
    for row, h in zip(exprs, heights):
        c0 = 0
        for e, w in zip(row, widths):
            out.const[r0:r0 + h, c0:c0 + w] = e.const
            if e.coeff:
                # row-major embedding of the sub-block's vec indices
                sub = (np.arange(h)[:, None] + r0) * Csz + (np.arange(w)[None, :] + c0)
                sub = sub.reshape(-1)
                for v, c in e.coeff.items():
                    tgt = out.coeff.get(v)
                    if tgt is None:
                        tgt = np.zeros((R * Csz, c.shape[1]))
                        out.coeff[v] = tgt
                    tgt[sub] += c
            c0 += w
        r0 += h
    return out


# --- the problem container -------------------------------------------------

@dataclass
class _PsdBlock:
    name: str
    expr: MatExpr
    margin: float


@dataclass
class LmiProblem:
    vars: list = field(default_factory=list)
    blocks: list = field(default_factory=list)
    objective: MatExpr | None = None

    def declare_var(self, name, rows, cols, kind="rectangular", mask=None) -> MatrixVar:
        if kind not in ("symmetric", "rectangular", "scalar"):
            raise ValueError(f"unknown variable kind {kind!r}")
        offset = sum(v.nfree for v in self.vars)
        var = _build_var(len(self.vars), name, rows, cols, kind, mask, offset)
        self.vars.append(var)
        return var

    def declare_scalar(self, name) -> MatrixVar:
        return self.declare_var(name, 1, 1, kind="scalar")

    def add_psd(self, expr, margin: float = 0.0, name: str | None = None) -> None:
        """Require expr - margin*I to be positive semidefinite."""
        expr = expr if isinstance(expr, MatExpr) else MatExpr.constant(expr)
        if expr.rows != expr.cols:
            raise DimensionMismatch("PSD blocks must be square")
        self._check_declared(expr)
        self.blocks.append(_PsdBlock(name or f"psd{len(self.blocks)}", expr, float(margin)))

    def trace_leq(self, Q: MatrixVar, g: MatrixVar) -> None:
        """Add the 1x1 block g - Tr(Q) >= 0."""
        self.add_psd(MatExpr.of(g) - MatExpr.of(Q).trace(), margin=0.0,
                     name="trace_bound")

    def minimize(self, expr) -> None:
        expr = MatExpr.of(expr) if isinstance(expr, MatrixVar) else expr
        if (expr.rows, expr.cols) != (1, 1):
            raise DimensionMismatch("objective must be a 1x1 expression")
        self._check_declared(expr)
        self.objective = expr

    def _check_declared(self, expr: MatExpr) -> None:
        known = {v.vid for v in self.vars}
        for vid in expr.coeff:
            if vid not in known:
                raise UnboundedShape(f"expression references undeclared variable id {vid}")

    @property
    def num_free(self) -> int:
        return sum(v.nfree for v in self.vars)

    def compile(self) -> "ConicForm":
        N = self.num_free
        c = np.zeros(N)
        obj_const = 0.0
        if self.objective is not None:
            obj_const = float(self.objective.const[0, 0])
            for v, cmat in self.objective.coeff.items():
                var = self.vars[v]
                c[var.offset:var.offset + var.nfree] += cmat[0]

        Gs, hs, dims, names = [], [], [], []
        for blk in self.blocks:
            d = blk.expr.rows
            Gb = np.zeros((svec_len(d), N))
            for v, cmat in blk.expr.coeff.items():
                var = self.vars[v]
                Gb[:, var.offset:var.offset + var.nfree] += vecrow_to_svec(cmat, d)
            Gs.append(-Gb)
            hs.append(svec(blk.expr.const - blk.margin * np.eye(d)))
            dims.append(d)
            names.append(blk.name)

        G = np.vstack(Gs) if Gs else np.zeros((0, N))
        h = np.concatenate(hs) if hs else np.zeros(0)
        return ConicForm(c=c, obj_const=obj_const, G=G, h=h, dims=tuple(dims),
                         block_names=tuple(names), vars=tuple(self.vars))


@dataclass(frozen=True)
class ConicForm:
    """Standard-form conic program with the decode map back to named variables."""

    c: np.ndarray
    obj_const: float
    G: np.ndarray
    h: np.ndarray
    dims: tuple
    block_names: tuple
    vars: tuple

    @property
    def n_reduced(self) -> int:
        return self.c.size

    # n_full and A exist only because the benchmark tracer perfbench/spans.py reads them
    @property
    def n_full(self) -> int:
        return self.n_reduced

    @property
    def A(self) -> np.ndarray:
        return np.zeros((0, self.n_reduced))

    def local_assign(self, x: np.ndarray) -> dict:
        """Local free-entry vectors by variable id."""
        return {v.vid: x[v.offset:v.offset + v.nfree] for v in self.vars}

    def decode(self, x: np.ndarray) -> dict:
        """Named variable values from a solution vector."""
        return {v.name: v.value(x[v.offset:v.offset + v.nfree]) for v in self.vars}

    def encode(self, assign: dict) -> np.ndarray:
        """Solution vector from named full matrices (inverse of decode)."""
        return np.concatenate([v.free_values(assign[v.name]) for v in self.vars])

    def dump(self, path) -> None:
        """Self-describing text export: dimensions plus sparse triplets."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"conic_form n={self.n_reduced} cone_rows={self.G.shape[0]}\n")
            fh.write("psd_dims " + " ".join(str(d) for d in self.dims) + "\n")
            fh.write("c " + " ".join(f"{i}:{v:.17g}" for i, v in enumerate(self.c) if v) + "\n")
            fh.write(f"obj_const {self.obj_const:.17g}\n")
            for r in range(self.G.shape[0]):
                nz = np.nonzero(self.G[r])[0]
                trip = " ".join(f"{cix}:{self.G[r, cix]:.17g}" for cix in nz)
                fh.write(f"G {r} rhs={self.h[r]:.17g} {trip}\n")
