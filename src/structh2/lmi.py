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

The LMIs have O(n^2) free entries, and each entry of a block depends on a few
of them, so nothing here is stored densely per free entry. An expression
holds each variable's image as triplets of its nonzero coefficients (flat
entry, local free index, value), and its algebra is index arithmetic on them:
a product with a constant pairs every triplet with the constant's row or
column, and `np.bincount` sums the pairs of each entry in the order of the
contracted index, the order in which a dense product sums them, so the
coefficients are bit for bit those of the dense algebra. `compile` lowers the
blocks' triplets to G as the row-major table of its nonzeros (`Nonzeros`), the
form in which the solver reads G, as Fujisawa, Kojima & Nakata (1997) build
the scaled system from sparse constraint data and YALMIP (Lofberg 2004) holds
each matrix variable as a sparse basis.
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
    """Row-major upper-triangle svec with sqrt(2) off-diagonal scaling, of a
    d x d matrix or of each matrix of a (..., d, d) stack."""
    d = M.shape[-1]
    up, lo, _, scale, _ = svec_tables(d)
    M = M.reshape(M.shape[:-2] + (d * d,))
    return 0.5 * (M[..., up] + M[..., lo]) * scale


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """The symmetric d x d matrix of an svec, or of each svec of a stack."""
    _, _, pos, _, div = svec_tables(d)
    return np.asarray(v)[..., pos] / div


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


def _collect(size, ent, free, val):
    """Triplets of an image with size entries, with the values of each
    repeated (ent, free) pair summed in the order given, sorted by
    (ent, free), zero values dropped. ent and free broadcast to val's shape,
    whose row-major order is the order given.

    `np.bincount` adds each value to its bin in order, from 0.0, so an entry
    that a dense product sums in the order of its contracted index comes out
    bit for bit when its terms are listed in that order; a zero term, as a
    dense product adds too, leaves a nonzero sum as it is. Pairs are binned by
    their key ent * width + free where the keys' range is at most a few times
    the number of pairs, and by their rank among the distinct keys where it
    is not, so the bins never outgrow the pairs by more than that."""
    width = int(free.max()) + 1 if free.size else 1
    key = (ent * width + free).reshape(-1)
    val = val.reshape(-1)
    if size * width <= 4 * key.size + 4096:
        total = np.bincount(key, val)
        key = total.nonzero()[0]
        val = total[key]
    else:
        key, rank = np.unique(key, return_inverse=True)
        val = np.bincount(rank.reshape(-1), val, minlength=key.size)
        keep = val != 0.0
        key, val = key[keep], val[keep]
    return (*np.divmod(key, width), val)


class MatExpr:
    """Affine matrix expression: constant + sum of linear images of variables.

    The constant is a dense (rows, cols) array. Each variable's image is held
    as triplets (ent, free, val), one per nonzero coefficient: the row-major
    flat entry, the variable's local free index and the value, sorted by
    (ent, free) without repeats. The algebra is index arithmetic on the
    triplets, so an image costs its nonzeros, not rows * cols * nfree. A
    product sums each entry's terms in the order of the contracted index, as
    a dense product would, so every coefficient is that of the dense algebra
    bit for bit.
    """

    __array_ufunc__ = None  # keep numpy from consuming our operators

    def __init__(self, rows, cols, const=None, coeff=None):
        self.rows = rows
        self.cols = cols
        self.const = np.zeros((rows, cols)) if const is None else np.asarray(const, float)
        self.coeff = {} if coeff is None else coeff  # vid -> (ent, free, val)

    # constructors
    @staticmethod
    def constant(M) -> "MatExpr":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return MatExpr(M.shape[0], M.shape[1], const=M.copy())

    @staticmethod
    def of(var: MatrixVar) -> "MatExpr":
        flat = var.index.reshape(-1)
        ent = np.flatnonzero(flat >= 0)
        return MatExpr(var.rows, var.cols,
                       coeff={var.vid: (ent, flat[ent], np.ones(ent.size))})

    @staticmethod
    def scaled(var: MatrixVar, C) -> "MatExpr":
        """C times a scalar variable (the alpha*Psi / beta*I building block)."""
        if var.nfree != 1:
            raise DimensionMismatch("scaled() needs a scalar variable")
        C = np.atleast_2d(np.asarray(C, dtype=float))
        ent = np.flatnonzero(C)
        return MatExpr(C.shape[0], C.shape[1],
                       coeff={var.vid: (ent, np.zeros_like(ent), C.reshape(-1)[ent])})

    @staticmethod
    def combination(var: MatrixVar, basis) -> "MatExpr":
        """sum_i x_i basis[i] for the k free entries x of var and a
        (k, rows, cols) stack of basis matrices."""
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 3 or basis.shape[0] != var.nfree:
            raise DimensionMismatch(f"{var.name}: needs a stack of {var.nfree} basis matrices")
        vec = basis.reshape(var.nfree, -1).T
        ent, free = np.nonzero(vec)
        return MatExpr(basis.shape[1], basis.shape[2],
                       coeff={var.vid: (ent, free, vec[ent, free])})

    def _coerce(self, other) -> "MatExpr":
        if isinstance(other, MatExpr):
            return other
        if isinstance(other, MatrixVar):
            return MatExpr.of(other)
        return MatExpr.constant(other)

    def _map(self, fn) -> dict:
        """fn(row, col, free, val) -> triplets, for every variable's image."""
        out = {}
        for v, (ent, free, val) in self.coeff.items():
            r, c = np.divmod(ent, self.cols)
            out[v] = fn(r, c, free, val)
        return out

    # algebra; triplet arrays are shared between expressions, never written
    def __add__(self, other):
        other = self._coerce(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("added expressions must share a shape")
        coeff = dict(self.coeff)
        for v, t in other.coeff.items():
            mine = coeff.get(v)
            if mine is not None:
                t = _collect(self.const.size, *map(np.concatenate, zip(mine, t)))
            coeff[v] = t
        return MatExpr(self.rows, self.cols, self.const + other.const, coeff)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return MatExpr(self.rows, self.cols, -self.const,
                       {v: (e, f, -c) for v, (e, f, c) in self.coeff.items()})

    def __mul__(self, scalar):
        s = float(scalar)
        return MatExpr(self.rows, self.cols, s * self.const,
                       {v: (e, f, s * c) for v, (e, f, c) in self.coeff.items()})

    __rmul__ = __mul__

    def __matmul__(self, B):
        """Right multiplication by a constant matrix."""
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[0] != self.cols:
            raise DimensionMismatch("matmul: inner dimensions differ")
        nb = B.shape[1]

        # entry (r, c) meets row c of B; each entry (r, b) sums over c in order
        def times(r, c, free, val):
            return _collect(self.rows * nb, (r * nb)[:, None] + np.arange(nb), free[:, None],
                            val[:, None] * B[c])
        return MatExpr(self.rows, nb, self.const @ B, self._map(times))

    def __rmatmul__(self, A):
        """Left multiplication by a constant matrix."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if A.shape[1] != self.rows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        At = A.T

        # entry (r, c) meets column r of A; each entry (a, c) sums over r in order
        def times(r, c, free, val):
            return _collect(A.shape[0] * self.cols, np.arange(A.shape[0]) * self.cols + c[:, None],
                            free[:, None], At[r] * val[:, None])
        return MatExpr(A.shape[0], self.cols, A @ self.const, self._map(times))

    @property
    def T(self) -> "MatExpr":
        def swap(r, c, free, val):
            return _collect(self.const.size, c * self.rows + r, free, val)
        return MatExpr(self.cols, self.rows, self.const.T.copy(), self._map(swap))

    def trace(self) -> "MatExpr":
        if self.rows != self.cols:
            raise DimensionMismatch("trace needs a square expression")

        def diagonal(r, c, free, val):
            on = r == c
            return _collect(1, np.zeros(np.count_nonzero(on), np.intp), free[on], val[on])
        return MatExpr(1, 1, np.array([[np.trace(self.const)]]), self._map(diagonal))

    def value(self, assign: dict) -> np.ndarray:
        """Evaluate at {vid: local free-entry vector}. An image with several
        terms in an entry is evaluated as the dense product of its
        coefficients with the vector, so a variable declared over a basis
        takes the value basis @ x of numpy's matmul."""
        M = self.const.copy()
        for v, (ent, free, val) in self.coeff.items():
            x = np.asarray(assign[v], dtype=float)
            if np.all(ent[1:] != ent[:-1]):
                M += np.bincount(ent, val * x[free], minlength=M.size).reshape(M.shape)
            else:
                dense = np.zeros((M.size, x.size))
                dense[ent, free] = val
                M += (dense @ x).reshape(M.shape)
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
    parts = {}                         # vid -> the sub-blocks' triplets, moved into place
    r0 = 0
    for row, h in zip(exprs, heights):
        c0 = 0
        for e, w in zip(row, widths):
            out.const[r0:r0 + h, c0:c0 + w] = e.const
            if e.coeff:
                # row-major embedding of the sub-block's flat entries
                sub = (np.arange(h)[:, None] + r0) * Csz + (np.arange(w)[None, :] + c0)
                sub = sub.reshape(-1)
                for v, (ent, free, val) in e.coeff.items():
                    parts.setdefault(v, []).append((sub[ent], free, val))
            c0 += w
        r0 += h
    # the sub-blocks cover disjoint entries: collecting only sorts
    out.coeff = {v: _collect(R * Csz, *map(np.concatenate, zip(*p))) for v, p in parts.items()}
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
            for v, (_, free, val) in self.objective.coeff.items():
                c[self.vars[v].offset + free] += val

        rows, cols, vals = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
        hs, dims, names = [], [], []
        row0 = 0
        for blk in self.blocks:
            d = blk.expr.rows
            _, _, pos, scale, _ = svec_tables(d)
            parts = [(ent, self.vars[v].offset + free, val)
                     for v, (ent, free, val) in blk.expr.coeff.items()]
            if parts:
                ent, col, val = map(np.concatenate, zip(*parts))
                i, j = np.divmod(ent, d)
                # each column's svec, 0.5 * (u + l) * scale, into the block's
                # rows; a diagonal entry is its own mirror, so there u + l is 2 u
                p, col, uv = _collect(svec_len(d), pos[i, j], col,
                                      np.where(i == j, 2.0, 1.0) * val)
                rows.append(row0 + p)
                cols.append(col)
                vals.append(-(0.5 * uv * scale[p]))
            hs.append(svec(blk.expr.const - blk.margin * np.eye(d)))
            dims.append(d)
            names.append(blk.name)
            row0 += svec_len(d)

        G = Nonzeros(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (row0, N))
        h = np.concatenate(hs) if hs else np.zeros(0)
        return ConicForm(c=c, obj_const=obj_const, nonzeros=G, h=h, dims=tuple(dims),
                         block_names=tuple(names), vars=tuple(self.vars))


class Nonzeros:
    """A matrix held as the table of its nonzeros in row-major order: rows,
    cols and vals, one entry each, and its shape.

    G x and G^T z run over the table with `np.bincount`, which adds each
    entry's product to its bin in table order. So every entry of G x sums its
    row's products in column order, every entry of G^T z its column's in row
    order, with no BLAS call and no pass over G's zeros.
    """

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape

    @classmethod
    def of(cls, G):
        rows, cols = np.nonzero(G)
        return cls(rows, cols, G[rows, cols], G.shape)

    def dense(self) -> np.ndarray:
        G = np.zeros(self.shape)
        G[self.rows, self.cols] = self.vals
        return G

    def dot(self, x):
        """G x."""
        return np.bincount(self.rows, self.vals * x[self.cols], minlength=self.shape[0])

    def tdot(self, z):
        """G^T z."""
        return np.bincount(self.cols, self.vals * z[self.rows], minlength=self.shape[1])


@dataclass(frozen=True)
class ConicForm:
    """Standard-form conic program with the decode map back to named variables.
    G is held as the row-major table of its nonzeros."""

    c: np.ndarray
    obj_const: float
    nonzeros: Nonzeros
    h: np.ndarray
    dims: tuple
    block_names: tuple
    vars: tuple

    @property
    def n_reduced(self) -> int:
        return self.c.size

    # n_full, A and the dense G exist only because the benchmark tracer
    # perfbench/spans.py reads them; G is built on every read
    @property
    def n_full(self) -> int:
        return self.n_reduced

    @property
    def A(self) -> np.ndarray:
        return np.zeros((0, self.n_reduced))

    @property
    def G(self) -> np.ndarray:
        return self.nonzeros.dense()

    def local_assign(self, x: np.ndarray) -> dict:
        """Local free-entry vectors by variable id."""
        return {v.vid: x[v.offset:v.offset + v.nfree] for v in self.vars}

    def decode(self, x: np.ndarray) -> dict:
        """Named variable values from a solution vector."""
        return {v.name: v.value(x[v.offset:v.offset + v.nfree]) for v in self.vars}

    def dump(self, path) -> None:
        """Self-describing text export: dimensions plus sparse triplets."""
        G = self.nonzeros
        M = G.shape[0]
        bounds = np.searchsorted(G.rows, np.arange(M + 1)).tolist()
        cols, vals, h = G.cols.tolist(), G.vals.tolist(), self.h.tolist()
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"conic_form n={self.n_reduced} cone_rows={M}\n")
            fh.write("psd_dims " + " ".join(str(d) for d in self.dims) + "\n")
            fh.write("c " + " ".join(f"{i}:{v:.17g}" for i, v in enumerate(self.c) if v) + "\n")
            fh.write(f"obj_const {self.obj_const:.17g}\n")
            for r in range(M):
                lo, hi = bounds[r], bounds[r + 1]
                trip = " ".join(f"{cix}:{v:.17g}" for cix, v in zip(cols[lo:hi], vals[lo:hi]))
                fh.write(f"G {r} rhs={h[r]:.17g} {trip}\n")
