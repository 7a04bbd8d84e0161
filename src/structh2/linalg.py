"""Dense matrix kernel: Lyapunov solves, spectral oracles, CSV matrix I/O.

Matrices are plain float ndarrays. Symmetric matrices are kept symmetric by
construction: run solver or file input through `symmetrize` before trusting
eigenvalue routines. These oracles are the independent verification path for
every LMI certificate produced elsewhere, so they deliberately avoid the
modeling and solver layers. Everything here is a pure function of immutable
inputs; results are safe to share across threads.
"""

from __future__ import annotations

import numbers

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


def check_count(value, name):
    """Raise ValueError, starting with `name`, unless value is an integer >= 0.

    A bool is rejected: True would count as one. So is 2.5, which numpy would
    reject only deep inside the call that sizes an array with it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


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


_UNSTABLE = "solve_dlyap needs spectral_radius(Acl) < 1 - 1e-9"
# A member leaves the doubling once every entry of its A^(2^k) is below this:
# the tail it leaves out, A^(2^k) P A^(2^k)^T, is then about 1e-16 P
_DOUBLING_TOL = 1e-8
# 2^64 terms of the series: by the Schur form, ||A^j|| <= n (j ||A||_F)^(n-1)
# rho^(j-n+1), and rho^(2^64) < exp(-1.8e10) at rho < 1 - 1e-9 outweighs that
# growth for every finite float A of any practical n (rho alone needs 35)
_MAX_SQUARINGS = 64


def _dlyap_stack(Acl, M):
    """solve_dlyap on an (S, n, n) stack: P with nan matrices where
    unstable, and the (S,) stability mask.

    Squared Smith doubling (Smith, SIAM J. Appl. Math. 16, 1968): after k
    steps of P <- P + A P A^T, A <- A A, P holds the first 2^k terms of
    sum_j Acl^j M (Acl^T)^j in O(k n^3). Each stable member leaves the stack
    on its own step count, so its P is bit for bit its 2-D result.
    """
    stable = spectral_radius(Acl) < 1.0 - STABILITY_MARGIN
    P = np.where(stable[:, None, None], M, np.nan)
    live = np.flatnonzero(stable)
    A = Acl[live]
    for _ in range(_MAX_SQUARINGS):
        # nan compares false: a member whose A has overflowed stays to the
        # cap, and leaves with a non-finite P
        keep = ~(np.abs(A).max(axis=(1, 2)) < _DOUBLING_TOL)
        if not keep.any():
            break
        live, A = live[keep], A[keep]
        Pl = P[live]
        P[live] = Pl + A @ Pl @ A.swapaxes(-1, -2)
        A = A @ A
    return 0.5 * (P + P.swapaxes(-1, -2)), stable


def solve_dlyap(Acl, M) -> np.ndarray:
    """Solve P = Acl P Acl^T + M for symmetric M and Schur-stable Acl.

    Squared Smith doubling, O(n^3) per step, until Acl^(2^k) is below 1e-8:
    about log2(18/(1 - rho)) + 1 steps at spectral radius rho, 15 at
    rho = 0.999 and 35 at the 1 - 1e-9 margin. A single Acl raises
    UnstableMatrix when its spectral radius is >= 1 - 1e-9.
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


def csv_row(path, ln, line, width=None) -> list:
    """The fields of line ln of the CSV file path as floats. Raises a
    ValueError that names the path and the line when the row does not have
    width fields (width None takes any) or a field is not a number."""
    parts = [p.strip() for p in line.split(",")]
    if width is not None and len(parts) != width:
        raise ValueError(f"{path}: ragged row at line {ln} "
                         f"({len(parts)} fields, expected {width})")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{path}: bad number at line {ln}: {exc}") from exc


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix; rejects ragged rows."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                rows.append(csv_row(path, ln, line, len(rows[0]) if rows else None))
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
