import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgeqrf

from structh2 import (EXAMPLE1_X0, DesignOptions, LmiProblem, MatExpr, PlantPair,
                      SolverOptions, default_perf, design_data, design_model,
                      example1_perf, example1_plant, example1_subspace,
                      infeasibility_residual, min_eig, simulate, solve, spectral_radius)
from structh2 import solver
from structh2.lmi import smat, svec, svec_len
from structh2.solver import _KKT, _Cone, _Scaling, _svec_into, _Workspace
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

    def test_max_iter_floor(self):
        # zero iterations still report the starting point; fewer is an error
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(max_iter=-1)
        rep = solve(trace_floor_problem(np.eye(3)), SolverOptions(max_iter=0))
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == 0
        assert rep.x is not None


class TestKktSolve:
    def random_system(self, seed=5):
        rng = np.random.default_rng(seed)
        cone = _Cone((3, 2))
        N, M = 5, cone.total

        def interior_point():
            v = np.zeros(M)
            for d, sl in zip(cone.dims, cone.slices):
                X = rng.standard_normal((d, d))
                v[sl] = svec(X @ X.T + 0.1 * np.eye(d))
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
        sol, err = _KKT(G, W, _Workspace(cone, G)).solve(rhs)
        assert err <= 1e-10
        assert np.allclose(sol, np.linalg.solve(K2, rhs), rtol=1e-8, atol=1e-10)

    def test_nonfinite_solve_raises(self):
        # the solver's one failure exit catches LinAlgError
        G, W, cone, _, rhs = self.random_system()
        rhs[0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _KKT(G, W, _Workspace(cone, G)).solve(rhs)

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


class TestWorkspace:
    """One workspace per solve holds every KKT build's buffers; a build on a
    reused workspace must equal, bit for bit, one on a fresh workspace."""

    @staticmethod
    def system(seed=6, dims=(30, 30, 8, 1), N=200):
        """A sparse G with a column that misses a block and an idle column,
        and two scaling points. The stack buffer is 1.6 MB."""
        rng = np.random.default_rng(seed)
        cone = _Cone(dims)
        G = rng.standard_normal((cone.total, N)) * (rng.uniform(size=(cone.total, N)) < 0.3)
        G[cone.slices[0], 1] = 0.0
        G[:, 2] = 0.0

        def interior_point():
            return np.concatenate([svec(X @ X.T + 0.1 * np.eye(d))
                                   for d in dims for X in [rng.standard_normal((d, d))]])

        W1 = _Scaling(cone, interior_point(), interior_point())
        W2 = _Scaling(cone, interior_point(), interior_point())
        return G, cone, W1, W2, rng.standard_normal(N + cone.total)

    def test_reused_workspace_matches_fresh(self):
        # dgeqrf factors the stack buffer in place: a second build must clear
        # every entry the first left behind
        G, cone, W1, W2, rhs = self.system()
        ws = _Workspace(cone, G)
        _KKT(G, W1, ws)
        reused = _KKT(G, W2, ws)
        fresh = _KKT(G, W2, _Workspace(cone, G))
        for name in ("T", "qr", "tau"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
        got, want = reused.solve(rhs), fresh.solve(rhs)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]

    def test_build_allocates_less_than_the_stack(self):
        # the build writes into the workspace: what it allocates (the QR work
        # array, tau, index temporaries) stays below one copy of the stack
        G, cone, W1, W2, _ = self.system()
        ws = _Workspace(cone, G)
        assert ws.stack.nbytes >= 1 << 20
        _KKT(G, W1, ws)
        tracemalloc.start()
        try:
            _KKT(G, W2, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ws.stack.nbytes

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_svec_into_matches_svec(self, d):
        rng = np.random.default_rng(d)
        M = rng.standard_normal((17, d, d)) * 10.0 ** rng.uniform(-8, 8, size=(17, d, d))
        out, work = np.empty((17, svec_len(d))), np.empty((17, svec_len(d)))
        assert _svec_into(M, out, work) is out
        assert np.array_equal(out, svec(M))


class TestGroupedCone:
    """The cone layer works on one stack per block dimension; every operation
    must equal, bit for bit, the same arithmetic done block by block."""

    @staticmethod
    def per_block(cone, fn, *vs):
        """svec of fn(i, smat blocks of vs...) per block i, concatenated."""
        return np.concatenate([svec(fn(i, *(smat(v[sl], d) for v in vs)))
                               for i, (d, sl) in enumerate(zip(cone.dims, cone.slices))])

    @pytest.mark.parametrize("dims", [(3, 1, 2, 1, 3), (1, 1, 1), (4,)])
    def test_matches_per_block_loop(self, dims):
        rng = np.random.default_rng(7)
        cone = _Cone(dims)

        def interior_point():
            return np.concatenate([svec(X @ X.T + 0.1 * np.eye(d))
                                  for d in dims for X in [rng.standard_normal((d, d))]])

        s, z = interior_point(), interior_point()
        u, v = rng.standard_normal(cone.total), rng.standard_normal(cone.total)
        W = _Scaling(cone, s, z)
        # the Nesterov-Todd scaling point, block by block
        R, Rinv, lam = [], [], []
        for d, sl in zip(cone.dims, cone.slices):
            Ls = np.linalg.cholesky(smat(s[sl], d))
            Lz = np.linalg.cholesky(smat(z[sl], d))
            U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
            sq = np.sqrt(sig)
            R.append(Ls @ (Vt.T / sq))
            Rinv.append((U / sq).T @ Lz.T)
            lam.append(sig)
        wm = [(Rb @ Rb.T).astype(np.longdouble) for Rb in R]

        def loop(fn, *vs):
            return self.per_block(cone, fn, *vs)

        cases = {
            "w_apply": (W.w_apply(v), loop(lambda i, M: R[i].T @ M @ R[i], v)),
            "wt_apply": (W.wt_apply(v), loop(lambda i, M: R[i] @ M @ R[i].T, v)),
            "winvt_apply": (W.winvt_apply(v), loop(lambda i, M: Rinv[i] @ M @ Rinv[i].T, v)),
            "winv_apply": (W.winv_apply(v), loop(lambda i, M: Rinv[i].T @ M @ Rinv[i], v)),
            "wtw_apply": (W.wtw_apply(v),
                          loop(lambda i, M: wm[i] @ M @ wm[i],
                               v.astype(np.longdouble)).astype(float)),
            "lam_solve": (W.lam_solve(v),
                          loop(lambda i, M: M / (0.5 * (lam[i][:, None] + lam[i][None, :])),
                               v)),
            "lam_vec": (W.lam_vec(), loop(lambda i: np.diag(lam[i]))),
            "identity": (cone.identity(), loop(lambda i: np.eye(cone.dims[i]))),
            "sym_prod": (solver._sym_prod(cone, u, v),
                         loop(lambda i, U, V: 0.5 * (U @ V + V @ U), u, v)),
        }
        for name, (got, want) in cases.items():
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

        alpha = np.inf
        for d, sl, lb in zip(cone.dims, cone.slices, lam):
            sq = np.sqrt(lb)
            lmin = float(np.linalg.eigvalsh(smat(v[sl], d) / np.outer(sq, sq))[0])
            if lmin < 0:
                alpha = min(alpha, -1.0 / lmin)
        assert np.isfinite(alpha)
        assert W.max_step(v) == alpha
        violation = max([0.0] + [-float(np.linalg.eigvalsh(smat(v[sl], d))[0])
                                 for d, sl in zip(cone.dims, cone.slices)])
        assert violation > 0
        assert cone.max_violation(v) == violation


# Status, iteration count and gamma of example1 designs, recorded with the
# solver as it stood when this test was added. The solver is deterministic, so
# a rewrite of the IPM loop that keeps its arithmetic keeps these exactly; one
# that changes the arithmetic fails here and must say why the numbers moved.
RECORDED = {
    ("model", "D1"): ("Optimal", 10, 2.1570510918237864),
    ("model", "D2"): ("Optimal", 10, 3.5701048524631824),
    ("model", "D3"): ("Optimal", 11, 3.012718850422498),
    ("model", "D4"): ("Optimal", 11, 2.9831891589986066),
    # the fresh eps = 0.05, T = 20 record of the benchmark's small-sdp workload
    ("data", "D1"): ("Optimal", 13, 2.3940246266894345),
    ("data", "D2"): ("Optimal", 13, 4.388124249127456),
    ("data", "D3"): ("Optimal", 14, 3.5321048531113837),
    ("data", "D4"): ("Optimal", 12, 3.4833890639619955),
}


@pytest.mark.parametrize("mode, design", sorted(RECORDED))
def test_recorded_trajectory(mode, design, plant, perf, subspace):
    opts = DesignOptions(design=design, subspace=None if design == "D1" else subspace)
    if mode == "model":
        res = design_model(plant, perf, opts)
    else:
        batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.05, seed=100, exponent=2, T=20)
        res = design_data(batch, perf, opts)
    status, iterations, gamma = RECORDED[mode, design]
    assert res.status == status
    assert res.report.iterations == iterations
    assert res.gamma == pytest.approx(gamma, rel=1e-12)
