import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from structh2 import (DimensionMismatch, UnstableMatrix, h2_norm, min_eig, read_matrix_csv,
                      solve_dlyap, spectral_radius, symmetrize, write_matrix_csv)


def rand(rng, r, c):
    return rng.standard_normal((r, c))


def kron_dlyap(A, M):
    """Reference Lyapunov solve: vec P = (I - A (x) A)^{-1} vec M."""
    n = A.shape[0]
    return np.linalg.solve(np.eye(n * n) - np.kron(A, A), M.reshape(-1)).reshape(n, n)


class TestDlyap:
    def test_zero_dynamics(self):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.allclose(solve_dlyap(np.zeros((2, 2)), M), M)

    def test_scalar_geometric(self):
        assert solve_dlyap([[0.5]], [[1.0]])[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_matches_series(self):
        rng = np.random.default_rng(3)
        A = rand(rng, 3, 3)
        A *= 0.6 / spectral_radius(A)
        M = rand(rng, 3, 3)
        M = M @ M.T
        P = solve_dlyap(A, M)
        assert np.abs(P - kron_dlyap(A, M)).max() <= 1e-10

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("rho, rel", [(0.5, 1e-10), (0.999, 1e-10), (1.0 - 2e-9, 1e-5)])
    def test_stack_matches_kronecker(self, n, rho, rel):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((6, n, n))
        A *= (rho / spectral_radius(A))[:, None, None]
        M = rand(rng, n, n)
        M = M @ M.T
        P = solve_dlyap(A, M)
        for Ai, Pi in zip(A, P):
            ref = kron_dlyap(Ai, M)
            assert np.abs(Pi - ref).max() <= rel * np.abs(ref).max()

    def test_overflow_terminates(self):
        # nilpotent, so stable and finite, but A @ A overflows: the doubling
        # must stop on its step cap and report the non-finite result
        A = np.array([[0.0, 1e200, 0.0], [0.0, 0.0, 1e200], [0.0, 0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            h2 = h2_norm(A, np.eye(3), np.eye(3))
            stacked = h2_norm(np.stack([A, 0.5 * np.eye(3)]), np.eye(3), np.eye(3))
        assert not np.isfinite(h2)
        assert not np.isfinite(stacked[0])
        assert stacked[1] == h2_norm(0.5 * np.eye(3), np.eye(3), np.eye(3))

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        A = rand(rng, 4, 4)
        A *= 0.8 / spectral_radius(A)
        M = rand(rng, 4, 4)
        M = M @ M.T
        assert np.allclose(solve_dlyap(A, M), solve_discrete_lyapunov(A, M), atol=1e-10)

    def test_residual_and_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            A = rand(rng, n, n)
            A *= rng.uniform(0.2, 0.95) / spectral_radius(A)
            M = rand(rng, n, n)
            M = M @ M.T
            P = solve_dlyap(A, M)
            resid = np.abs(P - A @ P @ A.T - M).max()
            assert resid <= 1e-10 * (1.0 + np.abs(M).max())
            assert min_eig(P) >= -1e-10

    def test_unstable_rejected(self):
        with pytest.raises(UnstableMatrix):
            solve_dlyap([[1.0]], [[1.0]])


class TestH2Norm:
    def test_zero_output(self):
        assert h2_norm([[0.5]], [[1.0]], [[0.0]]) == 0.0

    def test_one_step_impulse(self):
        assert h2_norm([[0.0]], [[1.0]], [[1.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_geometric(self):
        assert h2_norm([[0.5]], [[1.0]], [[1.0]]) == pytest.approx(np.sqrt(4.0 / 3.0),
                                                                   abs=1e-12)

    def test_dual_gramian_cross_check(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rand(rng, n, n)
            A *= rng.uniform(0.3, 0.9) / spectral_radius(A)
            E = rand(rng, n, 2)
            C = rand(rng, 3, n)
            primal = h2_norm(A, E, C) ** 2
            Po = solve_dlyap(A.T, C.T @ C)
            dual = float(np.trace(E.T @ Po @ E))
            assert primal == pytest.approx(dual, rel=1e-8)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableMatrix):
            h2_norm([[2.0]], [[1.0]], [[1.0]])


def mixed_stack(n=4, seed=7):
    """Closed loops with spectral radius 0.3 ... 1.5, including marginal ones
    in [1 - 1e-9, 1) that the Lyapunov solve must reject."""
    rng = np.random.default_rng(seed)
    radii = np.array([0.3, 0.9, 0.999, 1.0 - 2e-9, 1.0 - 5e-10, 1.0 - 1e-10, 1.0, 1.5, 0.5])
    A = rng.standard_normal((radii.size, n, n))
    A *= (radii / spectral_radius(A))[:, None, None]
    return A, rng.standard_normal((n, 2)), rng.standard_normal((3, n))


class TestStackedOracle:
    def test_h2_matches_2d_bit_for_bit(self):
        # the stable members leave the doubling at different steps
        A, E, C = mixed_stack()
        rho = spectral_radius(A)
        assert np.any((rho >= 1.0 - 1e-9) & (rho < 1.0))
        h2 = h2_norm(A, E, C)
        assert h2.shape == (A.shape[0],)
        for i in range(A.shape[0]):
            try:
                assert h2[i] == h2_norm(A[i], E, C)
            except UnstableMatrix:
                assert np.isnan(h2[i])
                assert rho[i] >= 1.0 - 1e-9
            else:
                assert rho[i] < 1.0 - 1e-9
        assert 0 < np.isnan(h2).sum() < A.shape[0]

    def test_dlyap_and_radius_match_2d(self):
        A, E, _ = mixed_stack(n=3, seed=8)
        M = E @ E.T
        P = solve_dlyap(A, M)
        rho = spectral_radius(A)
        for i in range(A.shape[0]):
            assert rho[i] == spectral_radius(A[i])
            try:
                assert np.array_equal(P[i], solve_dlyap(A[i], M))
            except UnstableMatrix:
                assert np.isnan(P[i]).all()

    def test_2d_contract_kept(self):
        assert type(h2_norm([[0.5]], [[1.0]], [[1.0]])) is float
        assert type(spectral_radius([[0.5]])) is float
        with pytest.raises(UnstableMatrix):
            solve_dlyap(np.eye(2) * (1.0 - 5e-10), np.eye(2))

    def test_empty_stack(self):
        assert h2_norm(np.empty((0, 3, 3)), np.eye(3), np.eye(3)).shape == (0,)

    def test_bad_stack_rejected(self):
        with pytest.raises(DimensionMismatch):
            h2_norm(np.ones((2, 2, 3)), np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            spectral_radius(np.ones((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            h2_norm(np.full((2, 2, 2), np.nan), np.eye(2), np.eye(2))


class TestSpectra:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.2, -0.9])) == pytest.approx(0.9, abs=1e-12)

    def test_companion_golden_ratio(self):
        comp = np.array([[1.0, 1.0], [1.0, 0.0]])   # z^2 - z - 1
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        assert spectral_radius(comp) == pytest.approx(golden, rel=1e-9)

    def test_min_eig_cases(self):
        assert min_eig(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
        assert min_eig(np.diag([3.0, -2.0])) == pytest.approx(-2.0, abs=1e-12)
        assert min_eig([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, abs=1e-9)

    def test_min_eig_matches_cholesky_test(self):
        def cholesky_psd(M, shift):
            try:
                np.linalg.cholesky(symmetrize(M) + shift * np.eye(M.shape[0]))
                return True
            except np.linalg.LinAlgError:
                return False

        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            M = rand(rng, n, n)
            M = M + M.T + rng.uniform(-1, 1) * np.eye(n)
            assert (min_eig(M) >= -1e-9) == cholesky_psd(M, 1e-9)

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            spectral_radius(np.ones((2, 3)))


class TestSymmetrize:
    def test_removes_roundoff_skew(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
        S = symmetrize(M)
        assert np.abs(S - S.T).max() == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatch):
            symmetrize(np.ones((2, 3)))


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        assert np.array_equal(read_matrix_csv(path), M)

    def test_bytes_match_format(self, tmp_path):
        M = np.array([[-0.0, 5e-324], [1e300, 0.1]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in M)
        assert path.read_bytes() == expected.encode("ascii")

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="ragged"):
            read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_matrix_csv(path)
