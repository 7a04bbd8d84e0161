"""Controller structure: gain subspaces, representation matrices, and Upsilon(S).

A subspace S of m-by-n gains is carried as an explicit basis {S_1..S_k}
together with the representation matrix [S_1 ... S_k]. Sparsity patterns are
the common special case; basis order for patterns is the row-major scan of
the free positions, so representation matrices and constraint indices are
reproducible.

Upsilon(S) is the convex set of square matrices R for which membership of L
in S plus invertibility of R force L R^{-1} back into S. It is encoded as the
linear system S(I_k (x) Q) = S(Lam (x) I_n) in (Q, Lam); Lam stays an explicit
unknown (eliminated only in the least-squares membership test below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySubspace
from .linalg import as_matrix


@dataclass(frozen=True)
class SubspaceSpec:
    """Gain subspace with basis, optional sparsity pattern, and representation matrix."""

    m: int
    n: int
    basis: tuple
    pattern: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def repmat(self) -> np.ndarray:
        """Horizontal concatenation [S_1 ... S_k], shape m x (n*k)."""
        return np.hstack(self.basis)

    def project(self, K) -> np.ndarray:
        """Orthogonal projection of K onto the subspace."""
        K = as_matrix(K, rows=self.m, cols=self.n, name="K")
        B = np.column_stack([S.reshape(-1) for S in self.basis])
        coef, *_ = np.linalg.lstsq(B, K.reshape(-1), rcond=None)
        return (B @ coef).reshape(self.m, self.n)


def from_pattern(pattern) -> SubspaceSpec:
    """Build the subspace {K : K[i,j] = 0 where pattern[i,j] = 0}.

    Basis elements are e_i e_j^T for each free position, row-major.
    """
    P = np.asarray(pattern)
    if P.ndim != 2:
        raise DimensionMismatch("pattern must be a 2-D 0/1 array")
    if not np.all((P == 0) | (P == 1)):
        raise ValueError("pattern entries must be 0 or 1")
    m, n = P.shape
    basis = []
    for i in range(m):
        for j in range(n):
            if P[i, j] == 1:
                S = np.zeros((m, n))
                S[i, j] = 1.0
                basis.append(S)
    if not basis:
        raise EmptySubspace("pattern has no free entries")
    return SubspaceSpec(m=m, n=n, basis=tuple(basis), pattern=P.astype(int))


def from_basis(mats) -> SubspaceSpec:
    """Build a subspace from explicit (linearly independent) basis matrices."""
    mats = [as_matrix(S, name="basis element") for S in mats]
    if not mats:
        raise EmptySubspace("basis is empty")
    m, n = mats[0].shape
    for S in mats:
        if S.shape != (m, n):
            raise DimensionMismatch("basis elements must share one shape")
    V = np.column_stack([S.reshape(-1) for S in mats])
    if np.linalg.matrix_rank(V) != len(mats):
        raise ValueError("basis matrices are linearly dependent")
    return SubspaceSpec(m=m, n=n, basis=tuple(mats), pattern=None)


def contains(spec: SubspaceSpec, K, tol: float = 1e-7) -> bool:
    """True iff the distance from K to the subspace is <= tol * (1 + ||K||_F)."""
    K = as_matrix(K, rows=spec.m, cols=spec.n, name="K")
    resid = np.linalg.norm(K - spec.project(K))
    return bool(resid <= tol * (1.0 + np.linalg.norm(K)))


@dataclass(frozen=True)
class UpsilonConstraint:
    """Linear equalities on (Q in R^{n x n}, Lam in R^{k x k}) entrywise equal to
    S(I_k (x) Q) = S(Lam (x) I_n).

    Each equation is (q_terms, lam_terms) with terms ((row, col), coefficient);
    the equation reads sum(q_terms on Q) + sum(lam_terms on Lam) = 0.
    """

    n: int
    k: int
    equations: tuple

    def residual(self, Q, Lam) -> float:
        Q = as_matrix(Q, rows=self.n, cols=self.n, name="Q")
        Lam = as_matrix(Lam, rows=self.k, cols=self.k, name="Lam")
        worst = 0.0
        for q_terms, lam_terms in self.equations:
            val = sum(c * Q[r, s] for (r, s), c in q_terms)
            val += sum(c * Lam[t, l] for (t, l), c in lam_terms)
            worst = max(worst, abs(val))
        return worst


def upsilon_constraints(spec: SubspaceSpec) -> UpsilonConstraint:
    """Entrywise equations of S(I_k (x) Q) = S(Lam (x) I_n).

    Block l of the left side is S_l Q; block l of the right side is
    sum_t Lam[t, l] S_t. One equation per (block, row, col), identically-zero
    rows dropped. Lam is a general k-by-k unknown here: the sparsity example
    and the reproduced designs require the general multiplier (see also
    `upsilon_free_mask`). A caller that declares Lam symmetric restricts to
    the symmetric variant, a smaller (more conservative) set.
    """
    k = spec.k
    eqs = []
    for l, Sl in enumerate(spec.basis):
        for a in range(spec.m):
            for c in range(spec.n):
                q_terms = tuple((((r, c), float(Sl[a, r])))
                                for r in range(spec.n) if Sl[a, r] != 0.0)
                lam_terms = tuple((((t, l), float(-St[a, c])))
                                  for t, St in enumerate(spec.basis) if St[a, c] != 0.0)
                if q_terms or lam_terms:
                    eqs.append((q_terms, lam_terms))
    return UpsilonConstraint(n=spec.n, k=k, equations=tuple(eqs))


def _lambda_lstsq(spec: SubspaceSpec, Q: np.ndarray, symmetric_lambda: bool):
    """Least-squares Lam for S(I (x) Q) = S(Lam (x) I) and its residual."""
    k, m, n = spec.k, spec.m, spec.n
    target = np.hstack([S @ Q for S in spec.basis]).reshape(-1)
    # columns: d(target)/d(Lam[t, l]) = vec of S_t placed in block l
    if symmetric_lambda:
        pairs = [(t, l) for t in range(k) for l in range(t, k)]
    else:
        pairs = [(t, l) for t in range(k) for l in range(k)]
    cols = np.zeros((m * n * k, len(pairs)))
    for idx, (t, l) in enumerate(pairs):
        block = np.zeros((m, n * k))
        block[:, l * n:(l + 1) * n] = spec.basis[t]
        cols[:, idx] = block.reshape(-1)
        if symmetric_lambda and t != l:
            block2 = np.zeros((m, n * k))
            block2[:, t * n:(t + 1) * n] = spec.basis[l]
            cols[:, idx] += block2.reshape(-1)
    coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
    resid = np.linalg.norm(cols @ coef - target)
    Lam = np.zeros((k, k))
    for idx, (t, l) in enumerate(pairs):
        Lam[t, l] = coef[idx]
        if symmetric_lambda:
            Lam[l, t] = coef[idx]
    return Lam, float(resid)


def upsilon_member(spec: SubspaceSpec, Q, tol: float = 1e-7,
                   symmetric_lambda: bool = False) -> bool:
    """True iff some Lam achieves ||S(I (x) Q) - S(Lam (x) I)||_F <= tol * (1 + ||Q||_F)."""
    Q = as_matrix(Q, rows=spec.n, cols=spec.n, name="Q")
    _, resid = _lambda_lstsq(spec, Q, symmetric_lambda)
    return bool(resid <= tol * (1.0 + np.linalg.norm(Q)))


def upsilon_free_mask(spec: SubspaceSpec) -> np.ndarray:
    """Free-entry mask of Upsilon(S) for pattern subspaces (general Lam).

    Entry (j, c) of Q may be nonzero iff every pattern row i with a free
    (i, j) also has (i, c) free. For the 2x3 example pattern this reproduces
    a matrix with zeros exactly at (1,3), (2,1), (2,3), (3,1) and every
    other entry free.
    Only defined for pattern-derived subspaces.
    """
    if spec.pattern is None:
        raise ValueError("upsilon_free_mask needs a pattern-derived subspace")
    P = spec.pattern
    n = spec.n
    mask = np.ones((n, n), dtype=bool)
    for j in range(n):
        rows = np.where(P[:, j] == 1)[0]
        if rows.size == 0:
            continue
        allowed = np.ones(n, dtype=bool)
        for i in rows:
            allowed &= P[i, :] == 1
        mask[j, :] = allowed
    return mask


def read_pattern_csv(path) -> np.ndarray:
    """Read a 0/1 pattern from CSV."""
    from .linalg import read_matrix_csv

    M = read_matrix_csv(path)
    if not np.all((M == 0) | (M == 1)):
        raise ValueError(f"{path}: pattern entries must be 0 or 1")
    return M.astype(int)


def read_basis_csv(path) -> list:
    """Read concatenated m x n CSV blocks separated by blank lines."""
    blocks, current = [], []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                if current:
                    blocks.append(np.asarray(current, dtype=float))
                    current = []
                continue
            parts = [float(p) for p in line.split(",")]
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"{path}: ragged row in basis file")
            current.append(parts)
    if current:
        blocks.append(np.asarray(current, dtype=float))
    if not blocks:
        raise EmptySubspace(f"{path}: no basis blocks found")
    return blocks
