import numpy as np
import pytest
from scipy.linalg.lapack import dgeqrf

from structh2 import (EXAMPLE1_X0, DesignOptions, LmiProblem, MatExpr, PlantPair,
                      SolverOptions, default_perf, design_data, design_model,
                      example1_perf, example1_plant, example1_subspace,
                      infeasibility_residual, min_eig, simulate, solve, spectral_radius)
from structh2 import solver
from structh2.lmi import svec_len
from structh2.solver import _KKT, _Cone, _g_blocks, _Scaling
from structh2.subspace import from_pattern

def scalar_bound_problem():
    prob = LmiProblem()
    x = prob.declare_scalar("x")
    prob.add_psd(MatExpr.of(x) - np.eye(1))
    prob.minimize(x)
    return prob.compile()


def trace_floor_problem(M):
    prob = LmiProblem()
    d = M.shape[0]
    X = prob.declare_var("X", d, d, kind="symmetric")
    g = prob.declare_scalar("g")
    prob.add_psd(MatExpr.of(X) - M)
    prob.trace_leq(X, g)
    prob.minimize(g)
    return prob.compile()


def eig_floor_problem(M):
    prob = LmiProblem()
    t = prob.declare_scalar("t")
    prob.add_psd(MatExpr.constant(M) - MatExpr.scaled(t, np.eye(M.shape[0])))
    prob.minimize(-1.0 * MatExpr.of(t))
    return prob.compile()


class TestOptimal:
    def test_scalar_bound(self):
        rep = solve(scalar_bound_problem())
        assert rep.status == "Optimal"
        assert rep.objective == pytest.approx(1.0, abs=1e-6)

    def test_trace_floor(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        M = M @ M.T
        rep = solve(trace_floor_problem(M))
        assert rep.status == "Optimal"
        assert rep.objective == pytest.approx(np.trace(M), rel=1e-6)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 5))
        M = M + M.T
        rep = solve(eig_floor_problem(M))
        assert rep.status == "Optimal"
        assert -rep.objective == pytest.approx(min_eig(M), abs=1e-7)

    def test_weak_duality(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            M = rng.standard_normal((3, 3))
            M = M @ M.T
            rep = solve(trace_floor_problem(M))
            assert rep.status == "Optimal"
            scale = 1.0 + abs(rep.objective)
            assert rep.dual_objective <= rep.objective + 1e-6 * scale

    def test_report_invariants(self):
        rep = solve(scalar_bound_problem())
        assert rep.residuals["feas"] <= 1e-8
        assert rep.residuals["gap"] <= 1e-7

    def test_unused_variable(self):
        # a variable no cone row touches leaves the KKT system
        # singular in its column; with zero cost it stays at zero
        prob = LmiProblem()
        x = prob.declare_scalar("x")
        prob.declare_scalar("unused")
        prob.add_psd(MatExpr.of(x) - np.eye(1))
        prob.minimize(x)
        rep = solve(prob.compile())
        assert rep.status == "Optimal"
        assert rep.objective == pytest.approx(1.0, abs=1e-6)


class TestDeterminism:
    def test_bit_for_bit(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        M = M @ M.T
        conic = trace_floor_problem(M)
        rep1 = solve(conic)
        rep2 = solve(conic)
        assert rep1.status == rep2.status
        assert rep1.objective == rep2.objective
        assert np.array_equal(rep1.x, rep2.x)
        assert rep1.iterations == rep2.iterations


class TestCertificates:
    def infeasible_problem(self):
        prob = LmiProblem()
        x = prob.declare_scalar("x")
        prob.add_psd(MatExpr.of(x) - np.eye(1))      # x >= 1
        prob.add_psd(-1.0 * MatExpr.of(x))           # x <= 0
        prob.minimize(x)
        return prob.compile()

    def test_infeasibility_certificate(self):
        conic = self.infeasible_problem()
        rep = solve(conic)
        assert rep.status == "Infeasible"
        assert rep.certificate is not None
        assert infeasibility_residual(conic, rep.certificate) <= 1e-7

    def test_unbounded_ray(self):
        prob = LmiProblem()
        x = prob.declare_scalar("x")
        prob.add_psd(-1.0 * MatExpr.of(x))           # x <= 0, min x
        prob.minimize(x)
        rep = solve(prob.compile())
        assert rep.status == "Unbounded"
        assert rep.certificate["kind"] == "unboundedness"

    def test_max_iter_exhaustion(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4))
        M = M @ M.T
        rep = solve(trace_floor_problem(M), SolverOptions(max_iter=1))
        assert rep.status == "NumericalTrouble"


class TestKktSolve:
    def random_system(self, seed=5):
        rng = np.random.default_rng(seed)
        cone = _Cone((3, 2))
        N, M = 5, cone.total

        def interior_point():
            v = np.zeros(M)
            for d, off in zip(cone.dims, cone.offsets):
                X = rng.standard_normal((d, d))
                v[off:off + svec_len(d)] = cone.svec(d, X @ X.T + 0.1 * np.eye(d))
            return v

        W = _Scaling(cone, interior_point(), interior_point())
        G = rng.standard_normal((M, N))
        G[:svec_len(3), 0] = 0.0          # a column that misses the first block
        WtW = np.column_stack([W.wtw_apply(e) for e in np.eye(M)])
        K2 = np.block([[np.zeros((N, N)), G.T],
                       [G, -WtW]])
        return G, W, cone, K2, rng.standard_normal(N + M)

    def test_kkt_matches_dense_solve(self):
        G, W, cone, K2, rhs = self.random_system()
        sol, err = _KKT(G, W, _g_blocks(cone, G)).solve(rhs)
        assert err <= 1e-10
        assert np.allclose(sol, np.linalg.solve(K2, rhs), rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("design", ["D1", "D2"])
    def test_data_endgame_stays_optimal(self, design):
        # the scaling point degenerates in this record's last iterations; a
        # Schur-complement solve, whose error grows with cond(W^{-T} G)^2,
        # ends its D2 design NumericalTrouble
        plant = example1_plant()
        batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.05, seed=100, exponent=2, T=20)
        spec = example1_subspace()
        res = design_data(batch, example1_perf(),
                          DesignOptions(design=design,
                                        subspace=None if design == "D1" else spec))
        assert res.status == "Optimal"

    def test_sharing12_reduced_solve(self, monkeypatch):
        factored = []

        def counting_dgeqrf(a, *args, **kwargs):
            factored.append(a.shape)
            return dgeqrf(a, *args, **kwargs)

        monkeypatch.setattr(solver, "dgeqrf", counting_dgeqrf)
        rng = np.random.default_rng(0)
        n, m = 12, 6
        A = rng.standard_normal((n, n))
        A *= 0.7 / spectral_radius(A)
        B = rng.standard_normal((n, m))
        pattern = np.block([[np.ones((3, 2)), np.ones((3, 8)), np.zeros((3, 2))],
                            [np.zeros((3, 2)), np.ones((3, 8)), np.ones((3, 2))]])
        res = design_model(PlantPair(A=A, B=B), default_perf(n, m),
                           DesignOptions(design="D4", subspace=from_pattern(pattern),
                                         sharing=True))
        assert res.status == "Optimal"
        assert abs(res.report.iterations - 11) <= 1
        assert res.gamma == pytest.approx(4.621524740281538, rel=1e-6)
        # L ranges over the sharing subspace: 12 fewer columns than the
        # pattern's free entries, and no equality rows
        conic = res.conic
        assert conic.n_reduced == 402
        # one QR factorization of the cone rows per iteration
        assert len(factored) == res.report.iterations
        assert set(factored) == {(conic.G.shape[0], conic.n_reduced)}
