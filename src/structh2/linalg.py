"""Dense matrix kernel: Lyapunov solves, spectral oracles, CSV matrix I/O.

Matrices are plain float ndarrays. Symmetric matrices are kept symmetric by
construction: run solver or file input through `symmetrize` before trusting
eigenvalue routines. These oracles are the independent verification path for
every LMI certificate produced elsewhere, so they deliberately avoid the
modeling and solver layers. Everything here is a pure function of immutable
inputs; results are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, UnstableMatrix

STABILITY_MARGIN = 1e-9


def as_matrix(a, rows=None, cols=None, name="matrix") -> np.ndarray:
    """Coerce to a 2-D float array and validate shape and finiteness."""
    M = np.atleast_2d(np.asarray(a, dtype=float))
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={M.ndim}")
    if rows is not None and M.shape[0] != rows:
        raise DimensionMismatch(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionMismatch(f"{name} must have {cols} cols, got {M.shape[1]}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def symmetrize(M, name="matrix") -> np.ndarray:
    """Return (M + M^T)/2; `M` must be square.

    Solver and file inputs carry roundoff-level asymmetry; everything
    downstream assumes exact symmetry.
    """
    M = as_matrix(M, name=name)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square to symmetrize, got {M.shape}")
    return 0.5 * (M + M.T)


def _square_stack(A, name):
    """A square matrix, or a stack of them along a leading axis, as a float
    (S, n, n) array; also whether a single matrix was given."""
    A = np.asarray(A, dtype=float)
    single = A.ndim <= 2
    if single:
        A = as_matrix(A, name=name)[None]
    elif A.ndim != 3:
        raise DimensionMismatch(f"{name} must be 2-D or a 3-D stack, got ndim={A.ndim}")
    elif not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    if A.shape[1] != A.shape[2]:
        raise DimensionMismatch(f"{name} must be square, got {A.shape[1:]}")
    return A, single


def spectral_radius(A):
    """Largest eigenvalue modulus: a float for a matrix, an (S,) array for a
    stack of S matrices."""
    A, single = _square_stack(A, "A")
    rho = np.abs(np.linalg.eigvals(A)).max(axis=-1)
    return float(rho[0]) if single else rho


def min_eig(M) -> float:
    """Smallest eigenvalue of a (nearly) symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(M))[0])


def is_psd(M, shift: float = 0.0) -> bool:
    """Cholesky-based PSD test of M + shift*I (independent of `min_eig`)."""
    M = symmetrize(M) + shift * np.eye(np.atleast_2d(M).shape[0])
    try:
        np.linalg.cholesky(M + 0.0)
        return True
    except np.linalg.LinAlgError:
        return False


# Kronecker-system entries per batched solve (8 MB of float64): a stack is
# solved in chunks, so memory stays bounded at n = 12-24 whatever its length
_SOLVE_CHUNK = 2 ** 20
_UNSTABLE = "solve_dlyap needs spectral_radius(Acl) < 1 - 1e-9"


def _dlyap_stack(Acl, M):
    """solve_dlyap on an (S, n, n) stack: P with nan matrices where
    unstable, and the (S,) stability mask.

    I - Acl (x) Acl is built by broadcasting, with the single products
    `np.kron` forms, and each system goes through the same LAPACK solve
    alone or in a stack, so every member's P is bit for bit its 2-D result.
    """
    S, n, _ = Acl.shape
    stable = spectral_radius(Acl) < 1.0 - STABILITY_MARGIN
    idx = np.flatnonzero(stable)
    P = np.full((S, n, n), np.nan)
    step = max(1, _SOLVE_CHUNK // n ** 4)
    for lo in range(0, idx.size, step):
        part = idx[lo:lo + step]
        P[part] = _kron_solve(Acl[part], M)
    return 0.5 * (P + P.swapaxes(-1, -2)), stable


def _kron_solve(A, M) -> np.ndarray:
    """vec^-1 of (I - A (x) A)^{-1} vec(M) for each matrix of the stack A."""
    k, n, _ = A.shape
    lhs = (A[:, :, None, :, None] * A[:, None, :, None, :]).reshape(k, n * n, n * n)
    # 0 - x (where -x would turn +0.0 into -0.0), then + 1 on the diagonal:
    # bit for bit the entries of eye(n*n) - kron(A, A)
    np.subtract(0.0, lhs, out=lhs)
    diag = np.arange(n * n)
    lhs[:, diag, diag] += 1.0
    return np.linalg.solve(lhs, M.reshape(-1, 1)).reshape(k, n, n)


def solve_dlyap(Acl, M) -> np.ndarray:
    """Solve P = Acl P Acl^T + M for symmetric M and Schur-stable Acl.

    Vectorized linear solve through (I - Acl (x) Acl); exact at the problem
    sizes used here, preferred over iteration for verification duty. A
    single Acl raises UnstableMatrix when its spectral radius is >= 1 - 1e-9.
    A stack (S, n, n) sharing one M gives (S, n, n), all nan for each such
    member, and each member bit for bit its 2-D result.
    """
    Acl, single = _square_stack(Acl, "Acl")
    n = Acl.shape[1]
    P, stable = _dlyap_stack(Acl, symmetrize(as_matrix(M, rows=n, cols=n, name="M"),
                                             name="M"))
    if not single:
        return P
    if not stable[0]:
        raise UnstableMatrix(_UNSTABLE)
    return P[0]


def dlyap_series(Acl, M, terms: int = 200) -> np.ndarray:
    """Truncated series sum_k Acl^k M (Acl^T)^k; verification fallback for solve_dlyap."""
    Acl = as_matrix(Acl, name="Acl")
    M = symmetrize(as_matrix(M, name="M"), name="M")
    P = M.copy()
    term = M.copy()
    for _ in range(terms - 1):
        term = Acl @ term @ Acl.T
        P += term
    return symmetrize(P)


def h2_norm(Acl, E, Ccl):
    """H2 norm of Ccl (zI - Acl)^{-1} E for a Schur-stable Acl.

    Computed as sqrt(trace(Ccl Pc Ccl^T)) with Pc the controllability Gramian
    from `solve_dlyap(Acl, E E^T)`. A single Acl gives a float and raises
    UnstableMatrix when its spectral radius is >= 1 - 1e-9. A stack
    (S, n, n) of closed loops sharing E and Ccl gives an (S,) array, nan for
    each such member, and each entry bit for bit its 2-D result.
    """
    Acl, single = _square_stack(Acl, "Acl")
    n = Acl.shape[1]
    E = as_matrix(E, rows=n, name="E")
    Ccl = as_matrix(Ccl, cols=n, name="Ccl")
    Pc, stable = _dlyap_stack(Acl, symmetrize(E @ E.T))
    # each diagonal is copied out and summed alone, in the order np.trace
    # sums a 2-D product's diagonal
    val = np.diagonal(Ccl @ Pc @ Ccl.T, axis1=1, axis2=2).copy().sum(axis=1)
    h2 = np.sqrt(np.where(val < 0.0, 0.0, val))     # max(val, 0.0), nan kept
    if not single:
        return h2
    if not stable[0]:
        raise UnstableMatrix(_UNSTABLE)
    return float(h2[0])


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix; rejects ragged rows."""
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"{path}: ragged row at line {ln} "
                                 f"({len(parts)} fields, expected {width})")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}: bad number at line {ln}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return np.asarray(rows, dtype=float)


def write_matrix_csv(path, M) -> None:
    """Write a matrix as headerless CSV with full float round-trip precision."""
    M = as_matrix(M, name="matrix")
    # %-formatting with "%.17g" gives the bytes format(v, ".17g") gives; rows
    # are converted one at a time so a large matrix is never held as a list
    line = ",".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in M:
            fh.write(line % tuple(row.tolist()))
