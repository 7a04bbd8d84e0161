"""LMI modeling layer: matrix variables, affine PSD blocks, conic compilation.

A problem collects matrix decision variables (symmetric, rectangular, scalar,
optionally with zero masks), affine PSD block constraints with a margin shift
for strict inequalities, linear equalities, and a linear objective. `compile`
lowers everything to the standard conic form

    minimize c^T x   s.t.   A x = b,   G x + s = h,   s in (product of PSD cones)

in scaled symmetric vectorization (off-diagonals times sqrt(2), so plain dot
products agree with matrix inner products), along with an invertible decode
map back to named variables. A pin/alias presolve removes equalities touching
at most two scalar unknowns.
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
    eq_exprs: list = field(default_factory=list)
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

    def add_equality(self, expr) -> None:
        """Require every entry of expr to equal zero."""
        expr = expr if isinstance(expr, MatExpr) else MatExpr.constant(expr)
        self._check_declared(expr)
        self.eq_exprs.append(expr)

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

    def compile(self, presolve: bool = True) -> "ConicForm":
        N = self.num_free
        c_full = np.zeros(N)
        obj_const = 0.0
        if self.objective is not None:
            obj_const = float(self.objective.const[0, 0])
            for v, cmat in self.objective.coeff.items():
                var = self.vars[v]
                c_full[var.offset:var.offset + var.nfree] += cmat[0]

        rows = []
        for expr in self.eq_exprs:
            consts = expr.const.reshape(-1)
            per_var = {v: c for v, c in expr.coeff.items()}
            for e in range(expr.rows * expr.cols):
                coeffs = {}
                for v, cmat in per_var.items():
                    var = self.vars[v]
                    nz = np.nonzero(cmat[e])[0]
                    for f in nz:
                        gi = var.offset + int(f)
                        coeffs[gi] = coeffs.get(gi, 0.0) + float(cmat[e, f])
                if coeffs or consts[e] != 0.0:
                    rows.append((coeffs, -float(consts[e])))

        if presolve:
            sub, kept, bad = _presolve(rows, N)
        else:
            sub, kept, bad = {}, rows, []

        root = np.arange(N)
        mult = np.ones(N)
        shift = np.zeros(N)
        for i in range(N):
            j, a, b0 = _resolve(sub, i)
            if j is None:
                root[i], mult[i], shift[i] = -1, 0.0, b0
            else:
                root[i], mult[i], shift[i] = j, a, b0
        free = sorted({int(r) for r in root if r >= 0})
        red = {g: idx for idx, g in enumerate(free)}
        Nred = len(free)
        red_col = np.array([red[r] if r >= 0 else -1 for r in root])

        c = np.zeros(Nred)
        np.add.at(c, red_col[red_col >= 0], (c_full * mult)[red_col >= 0])
        obj_const += float(c_full @ shift)

        A = np.zeros((len(kept), Nred))
        b = np.zeros(len(kept))
        for r, (coeffs, rhs) in enumerate(kept):
            acc = rhs
            for gi, cv in coeffs.items():
                if red_col[gi] >= 0:
                    A[r, red_col[gi]] += cv * mult[gi]
                acc -= cv * shift[gi]
            b[r] = acc

        Gs, hs, dims, names = [], [], [], []
        for blk in self.blocks:
            d = blk.expr.rows
            hvec = svec(blk.expr.const - blk.margin * np.eye(d))
            Gb = np.zeros((svec_len(d), Nred))
            for v, cmat in blk.expr.coeff.items():
                var = self.vars[v]
                cs = vecrow_to_svec(cmat, d)          # (dsvec, nfree_v)
                gidx = np.arange(var.offset, var.offset + var.nfree)
                cols = red_col[gidx]
                keep = cols >= 0
                if np.any(keep):
                    np.add.at(Gb.T, cols[keep], (cs[:, keep] * mult[gidx][keep]).T)
                hvec += cs @ shift[gidx]
            Gs.append(-Gb)
            hs.append(hvec)
            dims.append(d)
            names.append(blk.name)

        G = np.vstack(Gs) if Gs else np.zeros((0, Nred))
        h = np.concatenate(hs) if hs else np.zeros(0)
        return ConicForm(c=c, obj_const=obj_const, A=A, b=b, G=G, h=h,
                         dims=tuple(dims), block_names=tuple(names),
                         vars=tuple(self.vars), red_col=red_col, mult=mult,
                         shift=shift, n_full=N, bad_rows=tuple(bad))


def _resolve(sub: dict, i: int):
    """Follow substitution chains x_i = a x_j + b; returns (j|None, a, b)."""
    a, b = 1.0, 0.0
    seen = 0
    while i in sub:
        j, aj, bj = sub[i]
        b += a * bj
        a *= aj
        if j is None:
            return None, 0.0, b
        i = j
        seen += 1
        if seen > len(sub) + 1:
            raise RuntimeError("substitution cycle")  # defensive; cannot happen
    return i, a, b


def _presolve(rows, N):
    """Pin/alias propagation for equalities with <= 2 surviving unknowns."""
    sub = {}
    bad = []
    pending = list(rows)
    while True:
        changed = False
        kept = []
        for coeffs, rhs in pending:
            acc = {}
            r = rhs
            for i, cv in coeffs.items():
                j, a, b0 = _resolve(sub, i)
                r -= cv * b0
                if j is not None and a != 0.0:
                    acc[j] = acc.get(j, 0.0) + cv * a
            scale = max((abs(v) for v in acc.values()), default=0.0)
            acc = {i: v for i, v in acc.items() if abs(v) > 1e-12 * max(scale, 1.0)}
            if not acc:
                if abs(r) > 1e-9:
                    bad.append((coeffs, rhs))
                continue
            if len(acc) == 1:
                (i, cv), = acc.items()
                sub[i] = (None, 0.0, r / cv)
                changed = True
            elif len(acc) == 2:
                (i1, c1), (i2, c2) = sorted(acc.items())
                # eliminate the entry with the larger coefficient for stability
                if abs(c1) >= abs(c2):
                    sub[i1] = (i2, -c2 / c1, r / c1)
                else:
                    sub[i2] = (i1, -c1 / c2, r / c2)
                changed = True
            else:
                kept.append((acc, r))
        pending = kept
        if not changed:
            return sub, kept, bad


@dataclass(frozen=True)
class ConicForm:
    """Standard-form conic program with the decode map back to named variables."""

    c: np.ndarray
    obj_const: float
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    dims: tuple
    block_names: tuple
    vars: tuple
    red_col: np.ndarray
    mult: np.ndarray
    shift: np.ndarray
    n_full: int
    bad_rows: tuple = ()

    @property
    def n_reduced(self) -> int:
        return self.c.size

    def full_vector(self, x: np.ndarray) -> np.ndarray:
        xf = self.shift.copy()
        ok = self.red_col >= 0
        xf[ok] += self.mult[ok] * x[self.red_col[ok]]
        return xf

    def decode(self, x: np.ndarray) -> dict:
        """Named variable values from a reduced solution vector."""
        xf = self.full_vector(x)
        return {v.name: v.value(xf[v.offset:v.offset + v.nfree]) for v in self.vars}

    def encode(self, assign: dict) -> np.ndarray:
        """Reduced vector from named full matrices (inverse of decode)."""
        xf = np.zeros(self.n_full)
        for v in self.vars:
            xf[v.offset:v.offset + v.nfree] = v.free_values(assign[v.name])
        x = np.zeros(self.n_reduced)
        counted = np.zeros(self.n_reduced, dtype=bool)
        for i in range(self.n_full):
            rc = self.red_col[i]
            if rc >= 0 and not counted[rc] and self.mult[i] != 0.0:
                x[rc] = (xf[i] - self.shift[i]) / self.mult[i]
                counted[rc] = True
        return x

    def local_assign(self, x: np.ndarray) -> dict:
        xf = self.full_vector(x)
        return {v.vid: xf[v.offset:v.offset + v.nfree] for v in self.vars}

    def dump(self, path) -> None:
        """Self-describing text export: dimensions plus sparse triplets."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"conic_form n={self.n_reduced} eq={self.A.shape[0]} "
                     f"cone_rows={self.G.shape[0]}\n")
            fh.write("psd_dims " + " ".join(str(d) for d in self.dims) + "\n")
            fh.write("c " + " ".join(f"{i}:{v:.17g}" for i, v in enumerate(self.c) if v) + "\n")
            fh.write(f"obj_const {self.obj_const:.17g}\n")
            for tag, M, rhs in (("A", self.A, self.b), ("G", self.G, self.h)):
                for r in range(M.shape[0]):
                    nz = np.nonzero(M[r])[0]
                    trip = " ".join(f"{cix}:{M[r, cix]:.17g}" for cix in nz)
                    fh.write(f"{tag} {r} rhs={rhs[r]:.17g} {trip}\n")
