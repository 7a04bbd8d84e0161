import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgemqrt, dgeqrt

from kernel_repro import d4_data_design, d4_plant

from structh2 import (EXAMPLE1_X0, DesignOptions, LmiProblem, MatExpr, PlantPair,
                      SolverOptions, certify_fixed_k, default_perf, design_data, design_model,
                      example1_perf, example1_plant, example1_subspace,
                      h2_norm, infeasibility_residual, min_eig, simulate, solve,
                      spectral_radius)
import structh2
from structh2 import cli, solver, synthesis
from structh2.lmi import ConicForm, Nonzeros, smat, svec, svec_len, svec_tables
from structh2.solver import _KKT, _Cone, _Scaling, _svec_into
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
    prob.add_psd(MatExpr.of(g) - MatExpr.of(X).trace(), name="trace_bound")
    prob.minimize(g)
    return prob.compile()


def eig_floor_problem(M):
    prob = LmiProblem()
    t = prob.declare_scalar("t")
    prob.add_psd(MatExpr.constant(M) - MatExpr.scaled(t, np.eye(M.shape[0])))
    prob.minimize(-1.0 * MatExpr.of(t))
    return prob.compile()


def sharing12_plant():
    """The criterion-7 plant, 12 states and 6 inputs, and its pattern."""
    rng = np.random.default_rng(0)
    n, m = 12, 6
    A = rng.standard_normal((n, n))
    A *= 0.7 / spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = np.block([[np.ones((3, 2)), np.ones((3, 8)), np.zeros((3, 2))],
                        [np.zeros((3, 2)), np.ones((3, 8)), np.ones((3, 2))]]).astype(int)
    return PlantPair(A=A, B=B), from_pattern(pattern)


def d4_16_design():
    """The D4 model design of the 16-state `d4_plant`, with no solver
    iterations: design_model's arguments."""
    plant, pattern = d4_plant()
    return (plant, default_perf(16, 8),
            DesignOptions(design="D4", subspace=from_pattern(pattern),
                          solver=SolverOptions(max_iter=0)))


@pytest.fixture(scope="module")
def d4_16_conic():
    """The conic of `d4_16_design`: 1484 cone rows and 521 columns."""
    return design_model(*d4_16_design()).conic


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

    @pytest.mark.xfail(strict=True, reason="the KKT's QR needs G of full column rank: "
                       "no presolve merges dependent columns yet")
    def test_dependent_columns(self):
        # x and y enter only as x + y: G's two columns are equal, and the
        # solve ends NumericalTrouble at iteration 0
        prob = LmiProblem()
        total = MatExpr.of(prob.declare_scalar("x")) + MatExpr.of(prob.declare_scalar("y"))
        prob.add_psd(total - np.eye(1))
        prob.minimize(total)
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

    def test_linalg_error_in_the_corrector_step(self, monkeypatch):
        # eigvalsh raises LinAlgError on a non-finite direction; the second
        # max_step call of a solve measures the corrector's, and its failure
        # must end the solve with the best iterate, not escape it
        calls = []
        max_step = _Scaling.max_step

        def failing(W, *dirs):
            calls.append(len(dirs))
            if len(calls) == 2:
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return max_step(W, *dirs)

        monkeypatch.setattr(_Scaling, "max_step", failing)
        rep = solve(trace_floor_problem(np.eye(3)))
        assert calls == [2, 2]
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == 0
        assert rep.x is not None

    @staticmethod
    def assert_stops_at_iteration_2(monkeypatch, name, fn, call):
        """Solve trace_floor_problem(I) with the result of _Scaling.<name>'s
        call number call replaced by fn of it, and check that the solve ends
        NumericalTrouble at iteration 2 with the best iterate, which the
        checks at the top of iteration 2 recorded: the report of the same
        solve stopped by max_iter = 2."""
        conic = trace_floor_problem(np.eye(3))
        want = solve(conic, SolverOptions(max_iter=2))
        calls = []
        method = getattr(_Scaling, name)

        def patched(W, *args):
            calls.append(name)
            got = method(W, *args)
            return fn(got) if len(calls) == call else got

        monkeypatch.setattr(_Scaling, name, patched)
        rep = solve(conic)
        assert len(calls) == call
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == 2
        assert np.array_equal(rep.x, want.x)
        assert (rep.objective, rep.residuals) == (want.objective, want.residuals)

    @pytest.mark.parametrize("step", [0.0, -np.inf, np.nan])
    def test_step_not_positive_ends_the_solve(self, monkeypatch, step):
        # the corrector's step at iteration 2 (max_step's sixth call) is 0, a
        # direction that leaves the cone at once, -inf, which alpha keeps
        # non-finite, or NaN, which min(1.0, 0.98 * step) would make a full
        # step
        self.assert_stops_at_iteration_2(monkeypatch, "max_step", lambda _: step, 6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_iterate_ends_the_solve(self, monkeypatch, bad):
        # ds, the one W^T map of an iteration, is non-finite at iteration 2,
        # and so is s after the step
        self.assert_stops_at_iteration_2(monkeypatch, "wt_apply",
                                         lambda ds: np.full_like(ds, bad), 3)

    @pytest.mark.parametrize("stalled", [7, 8])
    def test_stall_ends_the_solve(self, monkeypatch, stalled):
        # every step of the first `stalled` iterations is cut to alpha < 1e-4
        # (max_step is called twice an iteration): after 8 such steps in a
        # row the solve stops at the top of iteration 8 with its best
        # iterate, the report of the same solve stopped by max_iter = 8;
        # after 7 it goes on to converge
        conic = trace_floor_problem(np.eye(3))
        calls = []
        max_step = _Scaling.max_step

        def short(W, *dirs):
            calls.append(len(dirs))
            step = max_step(W, *dirs)
            return 1e-5 if len(calls) <= 2 * stalled else step

        monkeypatch.setattr(_Scaling, "max_step", short)
        rep = solve(conic)
        if stalled == 7:
            assert rep.status == "Optimal"
            return
        calls.clear()
        want = solve(conic, SolverOptions(max_iter=8))
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == want.iterations == 8
        assert np.array_equal(rep.x, want.x)
        assert (rep.objective, rep.residuals) == (want.objective, want.residuals)

    @staticmethod
    def assert_stops_with_iteration_3(monkeypatch, pres, stop):
        """Solve trace_floor_problem(I), whose score first falls below 1e-5
        at iteration 3 (9.8e-6) and which converges at iteration 5, with the
        primal violation of every later iteration replaced by pres, and check
        that the solve ends NumericalTrouble at iteration stop with iteration
        3 as its best iterate: the report of the same solve stopped by
        max_iter = 3, but for the iteration count."""
        conic = trace_floor_problem(np.eye(3))
        want = solve(conic, SolverOptions(max_iter=3))
        calls = []
        max_violation = _Cone.max_violation

        def patched(cone, v):
            calls.append(1)
            return pres if len(calls) > 4 else max_violation(cone, v)

        monkeypatch.setattr(_Cone, "max_violation", patched)
        rep = solve(conic)
        assert want.residuals["gap"] < 1e-5 and want.residuals["feas"] < 1e-5
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == stop == len(calls) - 1
        assert np.array_equal(rep.x, want.x)
        assert (rep.objective, rep.residuals) == (want.objective, want.residuals)

    def test_divergence_after_near_convergence_ends_the_solve(self, monkeypatch):
        # iteration 4's score, 1, is over 1e3 times the best, 9.8e-6 < 1e-4
        self.assert_stops_with_iteration_3(monkeypatch, 1.0, 4)

    def test_no_progress_ends_the_solve(self, monkeypatch):
        # 5e-5 is above the best score, 9.8e-6 < 1e-5, but within 1e3 times
        # it: five iterations after the best, the solve stops at iteration 8
        self.assert_stops_with_iteration_3(monkeypatch, 5e-5, 8)

    def test_max_iter_floor(self):
        # zero iterations still report the starting point; fewer is an error
        with pytest.raises(ValueError, match="max_iter"):
            SolverOptions(max_iter=-1)
        rep = solve(trace_floor_problem(np.eye(3)), SolverOptions(max_iter=0))
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == 0
        assert rep.x is not None

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3", None])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # 2.5 used to fail inside the solve, and True to run one iteration
        with pytest.raises(ValueError, match="max_iter must be"):
            SolverOptions(max_iter=max_iter)
        assert SolverOptions(max_iter=np.int64(3)).max_iter == 3


def interior_point(cone, rng):
    """The svec of a random positive definite matrix per block of cone."""
    v = np.zeros(cone.total)
    for d, sl in zip(cone.dims, cone.slices):
        X = rng.standard_normal((d, d))
        v[sl] = svec(X @ X.T + 0.1 * np.eye(d))
    return v


def congruence(W, mats, v):
    """svec(A_i smat(v_i) A_i^T) per block i, for A_i = mats[g][j] at the
    block's place (g, j) in W's cone: one block at a time, by matmul."""
    cone = W.cone
    return np.concatenate([svec(mats[g][j] @ smat(v[sl], d) @ mats[g][j].T)
                           for d, sl, (g, j) in zip(cone.dims, cone.slices, cone.where)])


def winvt(W, v):
    """W^{-T} v = svec(R^{-1} smat(v) R^{-T}) per block."""
    return congruence(W, W.Rinv, v)


def dense_kkt(G, W):
    """The KKT matrix [[0, G^T], [G, -W^T W]], with a unit diagonal entry in
    the column of each variable that no row touches: the equation dx_j = r1_j
    that the unit rows E give it. W^T W is the congruence by R R^T."""
    M, N = G.shape
    Wm = [R @ R.swapaxes(-1, -2) for R in W.R]
    WtW = np.column_stack([congruence(W, Wm, e) for e in np.eye(M)])
    return np.block([[np.diag(1.0 * ~np.any(G, axis=0)), G.T],
                     [G, -WtW]])


def kkt_solve(kkt, rhs):
    """(dx, dz) of the KKT system with right-hand side rhs = (r1, r3), and
    v = W dz, through `_KKT.solve` of (r1, W^{-T} r3) at the factored W."""
    N = kkt.N
    dx, dz, v = kkt.solve(rhs[:N], winvt(kkt.W, rhs[N:]))
    return np.concatenate([dx, dz]), v


def scaled_residual(kkt, r1, r3t, sol):
    """The max-norm residual of a solution (dx, dz, v) of `_KKT.solve` in the
    scaled system G^T dz = r1, W^{-T} G dx - v = r3t."""
    dx, dz, v = sol
    Gn = kkt.G
    return max(np.abs(r1 - Gn.tdot(dz)).max(), np.abs(r3t - winvt(kkt.W, Gn.dot(dx)) + v).max())


def factored(cone, G, W):
    """The KKT of G (a `Nonzeros` table), factored at the scaling point W."""
    kkt = _KKT(cone, G)
    kkt.factor(W)
    return kkt


def example1_g(mode, design):
    """The equilibrated G of an example1 LMI (data mode: the eps = 0.05,
    T = 20 record of seed 100) and its cone."""
    plant, perf = example1_plant(), example1_perf()
    opts = DesignOptions(design=design, subspace=None if design == "D1" else example1_subspace(),
                         solver=SolverOptions(max_iter=0))
    if mode == "model":
        conic = design_model(plant, perf, opts).conic
    else:
        batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.05, seed=100, exponent=2, T=20)
        conic = design_data(batch, perf, opts).conic
    cone = _Cone(conic.dims)
    return solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0], cone


def staged_system(seed=9, rows=(10, 10, 9)):
    """A block-sparse G: nb = _QR_BLOCK columns touch block 1 alone, nb
    blocks 1 and 2, nb + 4 every block, and one column no row touches, in a
    shuffled column order. rows gives the blocks' dimensions."""
    nb = solver._QR_BLOCK
    rng = np.random.default_rng(seed)
    cone = _Cone(rows)
    M, N = cone.total, 3 * nb + 5
    G = np.zeros((M, N))
    for c0, c1, blocks in ((0, nb, [1]), (nb, 2 * nb, [1, 2]), (2 * nb, N - 1, [0, 1, 2])):
        for b in blocks:
            G[cone.slices[b], c0:c1] = rng.standard_normal((svec_len(cone.dims[b]), c1 - c0))
    G = G[:, rng.permutation(N)]
    W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
    return G, W, cone, rng


class TestKktSolve:
    def random_system(self, seed=5, N=5):
        rng = np.random.default_rng(seed)
        # blocks of 8 (36 rows each) beyond the first two keep M > N
        cone = _Cone((3, 2) + (8,) * -(-max(N - 5, 0) // 36))
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        G = rng.standard_normal((cone.total, N))
        G[:svec_len(3), 0] = 0.0          # a column that misses the first block
        return G, W, cone, dense_kkt(G, W), rng.standard_normal(N + cone.total)

    # N = nb factors in one block reflector, 1, 5 and nb - 1 in one narrower
    # than _QR_BLOCK, nb + 1 and 2 nb + 3 end on a narrow last panel
    @pytest.mark.parametrize("N", [1, 5, solver._QR_BLOCK - 1, solver._QR_BLOCK,
                                   solver._QR_BLOCK + 1, 2 * solver._QR_BLOCK + 3])
    def test_kkt_matches_dense_solve(self, N):
        G, W, cone, K2, rhs = self.random_system(N=N)
        kkt = factored(cone, Nonzeros.of(G), W)
        sol, v = kkt_solve(kkt, rhs)
        assert np.abs(K2 @ sol - rhs).max() <= 1e-10
        assert np.allclose(sol, np.linalg.solve(K2, rhs), rtol=1e-8, atol=1e-10)

    def test_well_conditioned_solve_takes_one_back_solve(self, monkeypatch):
        calls = []
        back_solve = _KKT._solve

        def counting(self, r1, r3t):
            calls.append(r1)
            return back_solve(self, r1, r3t)

        monkeypatch.setattr(_KKT, "_solve", counting)
        G, W, cone, K2, rhs = self.random_system()
        kkt = factored(cone, Nonzeros.of(G), W)
        N = G.shape[1]
        r1, r3t = rhs[:N], winvt(W, rhs[N:])
        got = kkt.solve(r1, r3t)
        # the first back-solve meets the tolerance, so no correction is made
        assert len(calls) == 1 and np.array_equal(calls[0], r1)
        tol = 1e-13 * (1.0 + max(np.abs(r1).max(), np.abs(r3t).max()))
        assert scaled_residual(kkt, r1, r3t, got) <= tol
        assert np.allclose(np.concatenate(got[:2]), np.linalg.solve(K2, rhs),
                           rtol=1e-8, atol=1e-10)

    def test_v_is_w_dz(self):
        # v, which the solve refines, is W dz: R_i^T smat(dz_i) R_i per block
        G, W, cone, K2, rhs = self.random_system(N=solver._QR_BLOCK + 1)
        kkt = factored(cone, Nonzeros.of(G), W)
        sol, v = kkt_solve(kkt, rhs)
        want = congruence(W, [R.swapaxes(-1, -2) for R in W.R], sol[G.shape[1]:])
        assert np.abs(v - want).max() <= 1e-12 * np.abs(want).max()

    def test_tau_pivot_is_a_squared_norm(self):
        # g1 = |v1|^2 for the solve of (c, -W^{-T} h) equals c^T dx1 + h^T dz1,
        # since G^T dz1 = c and G dx1 - W^T W dz1 = -h, to roundoff
        G, W, cone, K2, rhs = self.random_system(N=solver._QR_BLOCK + 1)
        N = G.shape[1]
        c, h = rhs[:N], rhs[N:]
        dx1, dz1, v1 = factored(cone, Nonzeros.of(G), W).solve(c, -winvt(W, h))
        terms = np.concatenate([c * dx1, h * dz1])
        assert abs(v1 @ v1 - terms.sum()) <= 1e-12 * np.abs(terms).sum()

    def test_corrections_reduce_the_residual(self, monkeypatch, plant, perf, subspace):
        # every KKT solve of an example1 data design, once with no correction
        # and once refined on the same factor: refinement never returns a
        # larger scaled residual, and on this design's endgame it lowers some
        pairs = []
        solve = _KKT.solve

        def both(self, r1, r3t):
            monkeypatch.setattr(solver, "_KKT_REFINE", 0)
            first = scaled_residual(self, r1, r3t, solve(self, r1, r3t))
            monkeypatch.setattr(solver, "_KKT_REFINE", 3)
            sol = solve(self, r1, r3t)
            pairs.append((first, scaled_residual(self, r1, r3t, sol)))
            return sol

        monkeypatch.setattr(_KKT, "solve", both)
        batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.05, seed=100, exponent=2, T=20)
        res = design_data(batch, perf, DesignOptions(design="D4", subspace=subspace))
        assert res.status == "Optimal"
        assert all(err <= first for first, err in pairs)
        assert any(err < first for first, err in pairs)

    def test_scaled_products(self):
        # what lets the predictor skip every map: (W^T u).(W^{-1} v) = u.v,
        # so mu_aff reads lambda + a W^{-T} ds and lambda + a W dz, and
        # (W^{-T} h)^T v = h^T W^{-1} v, so g2 needs no dz2, both to roundoff
        rng = np.random.default_rng(8)
        cone = _Cone((4, 1, 3, 1, 4))
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        u, v, h = (rng.standard_normal(cone.total) for _ in range(3))
        dx, c = rng.standard_normal(5), rng.standard_normal(5)
        for got, want in ((W.wt_apply(u) * W.winv_apply(v), u * v),
                          (np.concatenate([c * dx, W.winvt_apply(h) * v]),
                           np.concatenate([c * dx, h * W.winv_apply(v)]))):
            assert abs(got.sum() - want.sum()) <= 1e-13 * np.abs(got).sum()

    def test_predictor_makes_one_back_solve_and_no_map(self, monkeypatch, plant, perf,
                                                        subspace):
        # the calls of each iteration, in order, not counting what a refined
        # solve or the Jordan product calls inside: W^{-T} rz, W^{-T} h, the
        # refined solve for dx1, the predictor's one back-solve, the
        # corrector's Jordan product, its refined solve and W^T of its ds
        calls, depth = [], [0]

        def recording(name, fn):
            def call(*args):
                if not depth[0]:
                    calls.append(name)
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return call

        monkeypatch.setattr(_Cone, "map", recording("map", _Cone.map))
        monkeypatch.setattr(_KKT, "solve", recording("solve", _KKT.solve))
        monkeypatch.setattr(_KKT, "_solve", recording("_solve", _KKT._solve))
        monkeypatch.setattr(solver, "_sym_prod", recording("sym_prod", solver._sym_prod))
        batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.05, seed=100, exponent=2, T=20)
        res = design_data(batch, perf, DesignOptions(design="D4", subspace=subspace))
        assert res.status == "Optimal"
        iteration = ["map", "map", "solve", "_solve", "sym_prod", "solve", "map"]
        assert calls == iteration * res.report.iterations

    def test_maps_per_iteration(self, monkeypatch, plant, perf, subspace):
        # each direction is taken in W's scaled space: an iteration maps h
        # and rz through W^{-T} once, its predictor makes no map, each of its
        # two refined KKT solves maps once each way per pass, its corrector
        # maps W^{-T} ds back through W^T, and its Jordan product is one more
        # map: 8, and 2 per correction
        calls = []
        cone_map = _Cone.map

        def counting(self, fn, *vs):
            calls.append(fn)
            return cone_map(self, fn, *vs)

        monkeypatch.setattr(_Cone, "map", counting)
        batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.05, seed=100, exponent=2, T=20)
        res = design_data(batch, perf, DesignOptions(design="D4", subspace=subspace))
        assert res.status == "Optimal"
        assert 8 * res.report.iterations <= len(calls) <= 10 * res.report.iterations

    def test_staged_kkt_matches_dense_solve(self):
        G, W, cone, rng = staged_system()
        Gn = Nonzeros.of(G)
        kkt = _KKT(cone, Gn)
        # no column qualifies for elimination
        assert kkt.elim is None
        rhs = rng.standard_normal(G.shape[1] + G.shape[0])
        rhs[kkt.idle] = 0.0              # c_j = 0 for a variable the model leaves unused
        kkt.factor(W)
        sol, v = kkt_solve(kkt, rhs)
        K2 = dense_kkt(G, W)
        assert np.abs(K2 @ sol - rhs).max() <= 1e-10
        assert np.allclose(sol, np.linalg.solve(K2, rhs), rtol=1e-8, atol=1e-10)

    def test_stage_short_of_rows_raises(self):
        # with block 1 a 7 x 7 block, the stack has 128 cone rows and one
        # unit row for its 149 columns: G has dependent columns, and the QR
        # cannot factor them
        G, W, cone, rng = staged_system(rows=(10, 7, 9))
        Gn = Nonzeros.of(G)
        kkt = _KKT(cone, Gn)
        assert kkt.buf.shape == (129, 149)
        with pytest.raises(np.linalg.LinAlgError, match="fewer rows than columns"):
            kkt.factor(W)
        # the solve's one handler ends it NumericalTrouble at iteration 0
        conic = ConicForm(c=rng.standard_normal(G.shape[1]), obj_const=0.0, nonzeros=Gn,
                          h=cone.identity(), dims=cone.dims, block_names=("a", "b", "c"),
                          vars=())
        rep = solve(conic)
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == 0

    def test_stages_factor_in_place(self, monkeypatch):
        # the factor is on the KKT's F-order stack buffer, and every
        # application of Q on its F-order column, and each writes into it: a
        # wrapper that copied the array would allocate a stack-sized copy on
        # every call, which the KKT's buffers exist to avoid, and an
        # application that did not write into the column would lose its result
        factors, applies = [], []
        qr_factor, qr_apply = solver._qr_factor, solver._qr_apply

        def factor(a, nb):
            qr, t = qr_factor(a, nb)
            factors.append((a, qr))
            return qr, t

        def apply(qr, t, trans, c):
            out = qr_apply(qr, t, trans, c)
            applies.append((c, out))
            return out

        monkeypatch.setattr(solver, "_qr_factor", factor)
        monkeypatch.setattr(solver, "_qr_apply", apply)
        G, W, cone, rng = staged_system()
        Gn = Nonzeros.of(G)
        kkt = factored(cone, Gn, W)
        ((a, qr),) = factors
        assert a is kkt.buf and np.shares_memory(qr, kkt.buf) and not applies
        kkt.solve(rng.standard_normal(G.shape[1]), rng.standard_normal(G.shape[0]))
        assert applies
        for c, out in applies:
            assert c is kkt.col and np.shares_memory(out, kkt.col)

    def test_nonfinite_solve_raises(self):
        # the solver's one failure exit catches LinAlgError
        G, W, cone, _, rhs = self.random_system()
        rhs[0] = np.nan
        N = G.shape[1]
        with pytest.raises(np.linalg.LinAlgError):
            factored(cone, Nonzeros.of(G), W).solve(rhs[:N], rhs[N:])

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

        qr_factor = solver._qr_factor

        def counting_qr_factor(a, nb):
            factored.append(a.shape)
            return qr_factor(a, nb)

        monkeypatch.setattr(solver, "_qr_factor", counting_qr_factor)
        plant12, spec12 = sharing12_plant()
        res = design_model(plant12, default_perf(12, 6),
                           DesignOptions(design="D4", subspace=spec12, sharing=True))
        assert res.status == "Optimal"
        assert abs(res.report.iterations - 11) <= 1
        assert res.gamma == pytest.approx(4.621524740281538, rel=1e-6)
        # L ranges over the sharing subspace: 12 fewer columns than the
        # pattern's free entries, and no equality rows
        conic = res.conic
        assert conic.n_reduced == 401
        # one QR factorization per iteration: the H2 bound's svec(18) = 171
        # columns are eliminated, and the 230 others factor on the 843 cone
        # rows less the output block's 171 rotated rows of Q
        assert factored == [(843 - 171, 401 - 171)] * res.report.iterations
        assert 843 == conic.nonzeros.shape[0]


def stack_bytes(kkt):
    """Bytes of a KKT's stack buffer, and of the rotated rows of an
    eliminated variable's block, which the stack leaves out of the QR."""
    return kkt.buf.nbytes + (0 if kkt.elim is None else kkt.elim.top.nbytes)


def assembled(kkt):
    """[W^{-T} G; E] in G's row and column order, the stack buffer after a
    build: with no variable eliminated, its rows are G's and then E's, and
    its columns are G's."""
    assert kkt.elim is None
    return kkt.buf


class TestWorkspace:
    """One `_KKT` per solve holds every KKT build's buffers; a factor on a
    reused KKT must equal, bit for bit, one on a fresh KKT."""

    @staticmethod
    def system(seed=6, dims=(30, 30, 8, 1), N=200, density=0.3):
        """A sparse G with a column that misses a block and an idle column,
        and two scaling points. The stack buffer is 1.6 MB."""
        rng = np.random.default_rng(seed)
        cone = _Cone(dims)
        G = rng.standard_normal((cone.total, N)) * (rng.uniform(size=(cone.total, N)) < density)
        G[cone.slices[0], 1] = 0.0
        G[:, 2] = 0.0

        def interior_point():
            return np.concatenate([svec(X @ X.T + 0.1 * np.eye(d))
                                   for d in dims for X in [rng.standard_normal((d, d))]])

        W1 = _Scaling(cone, interior_point(), interior_point())
        W2 = _Scaling(cone, interior_point(), interior_point())
        return G, cone, W1, W2, rng.standard_normal(N + cone.total)

    def test_reused_workspace_matches_fresh(self):
        # dgeqrt factors the stack buffer in place: a second build must
        # clear every entry the first left behind, and the block reflectors'
        # factor t must come out the same
        G, cone, W1, W2, rhs = self.system()
        G = Nonzeros.of(G)
        reused = factored(cone, G, W1)
        reused.factor(W2)
        fresh = factored(cone, G, W2)
        assert np.array_equal(reused.T, fresh.T)
        assert np.array_equal(reused.qr, fresh.qr)
        assert np.array_equal(reused.t, fresh.t)
        N = G.shape[1]
        got, want = (k.solve(rhs[:N], rhs[N:]) for k in (reused, fresh))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_build_allocates_less_than_the_stack(self):
        # the factor writes into the KKT's buffers: what it allocates (the QR
        # work array, the reflectors' factor t, index temporaries) stays
        # below one copy of the stack
        G, cone, W1, W2, _ = self.system()
        kkt = factored(cone, Nonzeros.of(G), W1)
        assert stack_bytes(kkt) >= 1 << 20
        tracemalloc.start()
        try:
            kkt.factor(W2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes(kkt)

    def test_chunked_build_matches_congruence(self):
        # every chunk's smat stack is scattered from G's nonzeros; the build
        # must equal the congruence of the dense smat stack of each block,
        # at the block's rows and G's columns
        G, cone, W1, _, _ = self.system(density=0.02)
        kkt = _KKT(cone, Nonzeros.of(G))
        d0 = cone.dims[0]
        kc = solver._CHUNK_ENTRIES // d0 ** 2
        assert np.count_nonzero(np.any(G[cone.slices[0]], axis=0)) > 2 * kc
        kkt.build(W1)
        Gt = assembled(kkt)
        for d, sl, (g, j) in zip(cone.dims, cone.slices, cone.where):
            touch = np.any(G[sl] != 0.0, axis=0)
            cols = np.flatnonzero(touch)
            Ri = W1.Rinv[g][j]
            want = svec(Ri @ smat(G[sl][:, cols].T, d) @ Ri.T)
            assert np.array_equal(Gt[sl][:, cols], want.T)
            assert not np.any(Gt[sl][:, ~touch])
        assert not np.any(G[cone.slices[0], 1]) and np.any(G[:, 1])
        assert np.array_equal(kkt.idle, [2])
        assert np.array_equal(Gt[cone.total:], np.eye(G.shape[1])[[2]])

    def test_scalar_rows_match_congruence(self):
        # the rows of the 1 x 1 blocks skip the chunks: one elementwise write
        # of ri v ri must equal the chunks' congruence Ri M Ri^T of each
        # block's smat and its svec, with columns that touch one, two or
        # three of them
        nb = solver._QR_BLOCK
        rng = np.random.default_rng(12)
        cone = _Cone((10, 1, 9, 1, 1))
        N = 3 * nb + 5
        G = np.zeros((cone.total, N))
        for c0, c1, blocks in ((0, nb, [0, 1]), (nb, 2 * nb, [0, 1, 2, 3]),
                               (2 * nb, N, [0, 1, 2, 3, 4])):
            for b in blocks:
                G[cone.slices[b], c0:c1] = (rng.standard_normal((svec_len(cone.dims[b]), c1 - c0))
                                            * 10.0 ** rng.uniform(-3, 3))
        G = G[:, rng.permutation(N)]
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        kkt = _KKT(cone, Nonzeros.of(G))
        assert all(d > 1 for *_, d, _, _ in kkt.chunks)
        scalar_rows = [cone.slices[b].start for b, d in enumerate(cone.dims) if d == 1]
        assert kkt.scalars[-1].size == np.count_nonzero(G[scalar_rows])
        kkt.build(W)
        Gt = assembled(kkt)
        for d, sl, (g, j) in zip(cone.dims, cone.slices, cone.where):
            cols = np.flatnonzero(np.any(G[sl] != 0.0, axis=0))
            Ri = W.Rinv[g][j]
            want = svec(Ri @ smat(G[sl][:, cols].T, d) @ Ri.T)
            assert np.array_equal(Gt[sl][:, cols], want.T), d

    def test_compact_chunk_matches_congruence(self):
        # a chunk's congruence runs on the indices its columns touch, padded
        # to its widest column's: in one group of two 12 x 12 blocks, a
        # column with only a diagonal entry (t = 1), one whose superdiagonal
        # touches every index (t = d) and narrower ones padded to d must each
        # equal the dense congruence of its own smat, bit for bit. That holds
        # where the dgemm kernel adds each entry's terms in index order, as
        # SkylakeX, Haswell and Sandybridge do at d = 12; Haswell's last row
        # at odd d does not (CHANGES.md)
        rng = np.random.default_rng(14)
        d = 12
        cone = _Cone((d, d))
        pos = svec_tables(d)[2]
        N = 14
        G = np.zeros((cone.total, N))
        s0, s1 = cone.slices[0].start, cone.slices[1].start
        G[s0 + pos[4, 4], 0] = 3.0
        G[s0 + pos[np.arange(d - 1), np.arange(1, d)], 1] = rng.standard_normal(d - 1)
        for c in range(2, N):
            for s in (s0, s1)[:1 + c % 2]:
                i, j = rng.integers(d, size=(2, 1 + c % 3))
                G[s + pos[i, j], c] = (rng.standard_normal(i.size)
                                       * 10.0 ** rng.uniform(-3, 3, i.size))
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        kkt = _KKT(cone, Nonzeros.of(G))
        (idx,) = [ch[2] for ch in kkt.chunks if ch[2].shape[0] == N]
        t = [np.unique(row).size for row in idx]
        assert idx.shape[1] == d and min(t) == 1 and max(t) == d
        assert sum(tc < d for tc in t) >= 10
        kkt.build(W)
        Gt = assembled(kkt)
        for sl, (g, j) in zip(cone.slices, cone.where):
            Ri = W.Rinv[g][j]
            for c in np.flatnonzero(np.any(G[sl] != 0.0, axis=0)):
                want = svec(Ri @ smat(G[sl, c], d) @ Ri.T)
                assert np.array_equal(Gt[sl, c], want), c

    def test_rotated_chunks_match_congruence(self, sharing12_d4_conic):
        # the chunks of the sharing12 D4 output block, whose H2 bound is
        # eliminated, run through Rr = V^T R^{-1} in the order of e.order:
        # its svec(q) leading rows go to `top`, the others to the stack
        conic = sharing12_d4_conic
        cone = _Cone(conic.dims)
        G = solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0]
        rng = np.random.default_rng(23)
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        kkt = _KKT(cone, G)
        kkt.build(W)
        e = kkt.elim
        d = cone.dims[e.block]
        block = G.dense()[e.rows]
        rotated = [ch for ch in kkt.chunks if (ch[3], ch[4]) == e.where]
        assert sum(ch[1].size for ch in rotated) == np.count_nonzero(np.any(block, axis=0)) - 171
        for rs, pos, *_ in rotated:
            cols = kkt.free[pos]
            want = svec(e.Rr @ smat(block[:, cols].T, d) @ e.Rr.T)[:, e.order]
            assert np.array_equal(e.top[:, pos], want[:, :e.nq].T)
            assert np.array_equal(kkt.buf[rs, pos], want[:, e.nq:].T)

    def test_chunks_pad_little(self):
        # columns are chunked in order of how many indices they touch, so
        # the data conic's wide columns (alpha's touch 2n + m) pad no others
        batch, perf, opts = d4_data_design()
        conic = design_data(batch, perf, DesignOptions(design="D4", subspace=opts.subspace,
                                                       solver=SolverOptions(max_iter=0))).conic
        cone = _Cone(conic.dims)
        kkt = _KKT(cone, solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0])
        idx = [ch[2] for ch in kkt.chunks]
        assert max(i.shape[1] for i in idx) >= 2 * 16 + 8
        touched = sum(np.unique(row).size for i in idx for row in i)
        assert sum(i.size for i in idx) <= 1.5 * touched

    @staticmethod
    def held(obj):
        """Bytes of the arrays obj holds, through its attributes, lists and tuples."""
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        if isinstance(obj, (list, tuple)):
            return sum(TestWorkspace.held(o) for o in obj)
        if hasattr(obj, "__dict__"):
            return sum(TestWorkspace.held(v) for v in vars(obj).values())
        return 0

    def test_holds_no_copy_of_g(self):
        # G's columns are kept as their nonzeros, about 9 per column and
        # block as in the LMIs' densest columns: beside the stack and T the
        # KKT holds under 1 MB, where the dense smat stacks took 2.9 MB
        G, cone, _, _, _ = self.system(density=0.02)
        kkt = _KKT(cone, Nonzeros.of(G))
        assert self.held(kkt) < stack_bytes(kkt) + kkt.T.nbytes + (1 << 20)

    def test_holds_no_copy_of_g_at_scale(self, d4_16_conic):
        # the D4 model conic of a 16-state, 8-input plant: 1484 cone rows and
        # 521 columns, whose dense smat stacks took 8.8 MB and their
        # temporaries 20 MB more
        conic = d4_16_conic
        M, N = conic.nonzeros.shape
        assert (M, N) == (1484, 521)
        cone = _Cone(conic.dims)
        kkt = _KKT(cone, solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0])
        assert self.held(kkt) < stack_bytes(kkt) + kkt.T.nbytes + (1 << 20)
        # the stack and the rotated rows hold no more than a dense G; the H2
        # bound's columns are eliminated
        assert kkt.elim is not None and kkt.idle.size == 0
        assert stack_bytes(kkt) <= 8 * M * N

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_svec_into_matches_svec(self, d):
        rng = np.random.default_rng(d)
        M = rng.standard_normal((17, d, d)) * 10.0 ** rng.uniform(-8, 8, size=(17, d, d))
        out, work = np.empty((17, svec_len(d))), np.empty((17, svec_len(d)))
        assert _svec_into(M, out, work) is out
        assert np.array_equal(out, svec(M))


class TestOneQR:
    """The stack is factored by one dgeqrt call on the KKT's buffer, and Q^T
    and Q are applied by one dgemqrt call each on its column."""

    @pytest.mark.parametrize("system", [f"{design}-{mode}" for design in ("D1", "D2", "D3", "D4")
                                        for mode in ("model", "data")] + ["sharing12-D4"])
    def test_factor_is_one_dgeqrt(self, system, request):
        # bit for bit: the factor of a fresh build, with no variable
        # eliminated on example1 and Q eliminated on the sharing12 D4 conic,
        # is one dgeqrt call on the built stack, and _qt and _qn are dgemqrt
        # with that factor on the stack's column
        if system == "sharing12-D4":
            conic = request.getfixturevalue("sharing12_d4_conic")
            cone = _Cone(conic.dims)
            G = solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0]
        else:
            design, mode = system.split("-")
            G, cone = example1_g(mode, design)
        kkt, again = _KKT(cone, G), _KKT(cone, G)
        M, N = G.shape
        e = kkt.elim
        nq = 0 if e is None else e.nq
        assert (e is None) == (system != "sharing12-D4")
        # the stack's columns are G's less the eliminated ones, in G's order
        assert np.array_equal(kkt.free, np.setdiff1d(np.arange(N), [] if e is None else e.cols))
        rows, n = kkt.buf.shape
        assert (rows, n) == (M - nq + kkt.idle.size, N - nq)
        rng = np.random.default_rng(12)
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        again.build(W)
        qr, t, info = dgeqrt(min(solver._QR_BLOCK, n), again.buf.copy(order="F"))
        assert info == 0
        kkt.factor(W)
        assert np.array_equal(kkt.qr, qr)
        assert np.array_equal(kkt.t, t)
        assert np.array_equal(kkt.T, qr[:n])
        m = rows - kkt.idle.size
        for trans, x, size in (("T", rng.standard_normal(m), n), ("N", rng.standard_normal(n), m)):
            c = np.zeros((rows, 1), order="F")
            c[:x.size, 0] = x
            want, info = dgemqrt(qr, t, c, trans=trans)
            assert info == 0
            got = kkt._qt(x) if trans == "T" else kkt._qn(x)
            assert np.array_equal(got, want[:size, 0])

    @pytest.mark.parametrize("system", ["staged", "example1"])
    def test_qt_and_qn_of_gt_x(self, system):
        # on Gt x, for x zero on the idle columns, Q^T gives T's rows T x,
        # and Q takes them back to Gt x
        if system == "staged":
            G, W, cone, rng = staged_system()
            G = Nonzeros.of(G)
        else:
            G, cone = example1_g("data", "D4")
            rng = np.random.default_rng(14)
            W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        M, N = G.shape
        kkt = _KKT(cone, G)
        kkt.build(W)
        Gt = assembled(kkt)[:M].copy()
        kkt.factor(W)
        # an application of Q leaves the column's E rows nonzero, and Q^T
        # must not read them
        kkt._qn(rng.standard_normal(N))
        x = rng.standard_normal(N)
        x[kkt.idle] = 0.0
        # T's buffer holds the Householder vectors below its diagonal
        gx, tx = Gt @ x, np.triu(kkt.T) @ x
        qt = kkt._qt(gx).copy()
        assert np.abs(qt - tx).max() <= 1e-12 * np.abs(tx).max()
        assert np.abs(kkt._qn(qt) - gx).max() <= 1e-12 * np.abs(gx).max()


def leading_block_system(seed=3, dims=(14, 10, 1, 1), q=6, nb=50, trace_row=False):
    """A G whose first svec(q) columns are a symmetric q x q variable that
    enters G only as block 0's leading principal block, one entry per
    column; with trace_row, it enters the 1 x 1 block 2 through its trace
    too, as a fixed-gamma design's H2 bound does. Of the other columns, nb
    touch blocks 0, 1 and 2, nb touch block 1 and the 1 x 1 block 3, and one
    no row touches; the column order is shuffled. Returns the variable's
    columns after G, W, the cone and the generator."""
    rng = np.random.default_rng(seed)
    cone = _Cone(dims)
    nq = svec_len(q)
    M, N = cone.total, nq + 2 * nb + 1
    G = np.zeros((M, N))
    i, j = np.triu_indices(q)
    pos = svec_tables(dims[0])[2]
    G[cone.slices[0].start + pos[i, j], np.arange(nq)] = rng.uniform(-2.0, 2.0, nq)
    if trace_row:
        G[cone.slices[2].start, np.flatnonzero(i == j)] = rng.uniform(0.5, 2.0, q)
    for c0, c1, blocks in ((nq, nq + nb, [0, 1, 2]), (nq + nb, nq + 2 * nb, [1, 3])):
        for b in blocks:
            G[cone.slices[b], c0:c1] = rng.standard_normal((svec_len(cone.dims[b]), c1 - c0))
    order = rng.permutation(N)
    W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
    return G[:, order], W, cone, rng, np.flatnonzero(order < nq)


@pytest.fixture(scope="module")
def sharing12_d4_conic():
    """The conic of the sharing12 D4 model design: 843 cone rows and 401
    columns, 171 of them the 18 x 18 H2 bound Q's."""
    plant12, spec12 = sharing12_plant()
    return design_model(plant12, default_perf(12, 6),
                        DesignOptions(design="D4", subspace=spec12, sharing=True,
                                      solver=SolverOptions(max_iter=0))).conic


class TestElimination:
    """A symmetric variable that enters G only as one PSD block's leading
    principal block stays out of the QR: the KKT solves for it exactly, and
    the solve still solves the dense KKT."""

    @staticmethod
    def assert_solves_dense_kkt(G, W, cone, rng):
        kkt = factored(cone, Nonzeros.of(G), W)
        M, N = G.shape
        rhs = rng.standard_normal(N + M)
        rhs[kkt.idle] = 0.0
        r1, r3t = rhs[:N], winvt(W, rhs[N:])
        # the elimination is exact: one back-solve, with no correction,
        # solves the scaled system
        scale = 1.0 + max(np.abs(r1).max(), np.abs(r3t).max())
        dx, v = kkt._solve(r1, r3t)
        assert scaled_residual(kkt, r1, r3t, (dx, W.winv_apply(v), v)) <= 1e-10 * scale
        sol, v = kkt_solve(kkt, rhs)
        K2 = dense_kkt(G, W)
        assert np.abs(K2 @ sol - rhs).max() <= 1e-10
        assert np.allclose(sol, np.linalg.solve(K2, rhs), rtol=1e-8, atol=1e-10)
        want = congruence(W, [R.swapaxes(-1, -2) for R in W.R], sol[N:])
        assert np.abs(v - want).max() <= 1e-12 * np.abs(want).max()
        return kkt

    def test_eliminated_kkt_matches_dense_solve(self):
        G, W, cone, rng, cols = leading_block_system()
        kkt = self.assert_solves_dense_kkt(G, W, cone, rng)
        e = kkt.elim
        assert (e.block, e.q) == (0, 6)
        assert np.array_equal(np.sort(e.cols), cols)
        # the stack leaves out the 21 rows of the leading block
        assert kkt.col.shape[0] == G.shape[0] - 21 + kkt.idle.size

    def test_sharing12_d4_matches_dense_solve(self, sharing12_d4_conic):
        conic = sharing12_d4_conic
        cone = _Cone(conic.dims)
        G = solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0]
        rng = np.random.default_rng(21)
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        self.assert_solves_dense_kkt(G.dense(), W, cone, rng)

    def test_trace_row_keeps_the_variable(self):
        # a variable that also enters a 1 x 1 row, as a fixed-gamma design's
        # Q enters tr Q <= gamma^2, stays in the QR, and the unreduced solve
        # still solves the dense KKT
        G, W, cone, rng, _ = leading_block_system(trace_row=True)
        kkt = self.assert_solves_dense_kkt(G, W, cone, rng)
        assert kkt.elim is None
        assert kkt.buf.shape == (G.shape[0] + kkt.idle.size, G.shape[1])

    def test_fixed_gamma_keeps_the_h2_bound(self):
        # the sharing12 D4 design with gamma fixed: its Q's diagonal columns
        # touch the trace_bound row, so none is eliminated
        plant12, spec12 = sharing12_plant()
        conic = design_model(plant12, default_perf(12, 6),
                             DesignOptions(design="D4", subspace=spec12, sharing=True, gamma=5.0,
                                           solver=SolverOptions(max_iter=0))).conic
        assert conic.block_names[-1] == "trace_bound" and not np.any(conic.c)
        cone = _Cone(conic.dims)
        kkt = _KKT(cone, solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0])
        assert kkt.N >= 2 * solver._QR_BLOCK and kkt.elim is None

    def test_finds_the_h2_bound(self, sharing12_d4_conic):
        # exactly Q's svec(18) = 171 columns, in the output block, which no
        # other row touches: the design minimizes tr Q with no trace row
        conic = sharing12_d4_conic
        cone = _Cone(conic.dims)
        e = _KKT(cone, solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0]).elim
        (Q,) = [v for v in conic.vars if v.name == "Q"]
        assert (e.q, e.cols.size) == (18, 171)
        assert np.array_equal(np.sort(e.cols), Q.offset + np.arange(Q.nfree))
        assert conic.block_names[e.block] == "h2_output"
        assert "trace_bound" not in conic.block_names

    def test_certify_fixed_k_at_scale(self, monkeypatch):
        # certify_fixed_k minimizes tr Q: on the 16-state plant its Q is
        # eliminated, and the bound still meets the H2 norm
        eliminated = []

        class Recording(_KKT):
            def __init__(self, cone, G):
                super().__init__(cone, G)
                eliminated.append(self.elim is not None)

        plant, perf, opts = d4_16_design()
        K = design_model(plant, perf, DesignOptions(design="D4", subspace=opts.subspace)).K
        monkeypatch.setattr(solver, "_KKT", Recording)
        gamma = certify_fixed_k(plant, perf, K)
        assert eliminated == [True]
        h2 = h2_norm(plant.A + plant.B @ K, perf.E, perf.C + perf.D @ K)
        assert abs(gamma - h2) <= 1e-4 * (1.0 + gamma)


# Status, iteration count and gamma of the D4 designs of `d4_plant`, which
# every factorization of the KKT stack so far, one QR or a staircase of
# stages, with or without the H2 bound eliminated, kept within the
# tolerances below: the radius-0.7, n = 16 plant of the scale
# measurements, in model mode and in data mode (eps = 0.02, T = 4 (n + m),
# noise seed 0). The data design was re-recorded when design_data put Psi
# in units of 2^k and the KKT solves were refined in the scaled system: 16
# iterations became 20, and the gamma moved by 1.4e-8 relative. The same data design with A drawn at spectral radius 1.05 needs
# Psi in units of 2^k to end Optimal, and its status, iterations and gamma
# agree under OpenBLAS's SkylakeX, Haswell and Sandybridge kernels.
RECORDED_AT_SCALE = {
    "model": ("Optimal", 9, 4.8142788437574),
    "data": ("Optimal", 20, 5.01890292440274),
    "data-radius-1.05": ("Optimal", 27, 7.6735999542),
}


@pytest.mark.parametrize("mode", sorted(RECORDED_AT_SCALE))
def test_designs_at_scale(mode, monkeypatch):
    eliminated = []

    class Recording(_KKT):
        def __init__(self, cone, G):
            super().__init__(cone, G)
            eliminated.append(self.elim is not None)

    monkeypatch.setattr(solver, "_KKT", Recording)
    if mode == "model":
        plant, pattern = d4_plant()
        res = design_model(plant, default_perf(16, 8),
                           DesignOptions(design="D4", subspace=from_pattern(pattern)))
    else:
        res = design_data(*d4_data_design(radius=1.05 if mode.endswith("1.05") else 0.7))
    status, iterations, gamma = RECORDED_AT_SCALE[mode]
    assert eliminated and all(eliminated)
    assert res.status == status
    assert abs(res.report.iterations - iterations) <= 1
    assert res.gamma == pytest.approx(gamma, rel=1e-6)


def dense_ruiz(G, h, c, cone, iters=4):
    """The dense Ruiz loop that `solver._equilibrate` replaced, kept as its
    reference: the same scales, applied to every entry of a dense G."""
    M, N = G.shape
    drG = np.ones(M)
    dcol = np.ones(N)
    Gs = G.copy()
    for _ in range(iters):
        cm = np.maximum(Gs.max(axis=0, initial=0.0), -Gs.min(axis=0, initial=0.0))
        sc = 1.0 / np.sqrt(np.maximum(cm, 1e-8))
        sc[cm == 0.0] = 1.0
        dcol *= sc
        Gs *= sc[None, :]
        for sl in cone.slices:
            Gb = Gs[sl]
            rm = max(Gb.max(initial=0.0), -Gb.min(initial=0.0))
            sr = 1.0 if rm == 0.0 else 1.0 / np.sqrt(max(rm, 1e-8))
            drG[sl] *= sr
            Gs[sl] *= sr
    hs = drG * h
    cs = dcol * c
    cscale = 1.0 / max(1.0, np.abs(cs).max(initial=0.0))
    return Gs, hs, cs * cscale, drG, dcol, cscale


class TestNonzeros:
    """The solve holds G as its row-major nonzeros: the products sum each
    entry in index order, and equilibration scales each value as the dense
    loop scales its entry."""

    @staticmethod
    def sparse_g(seed=8, dims=(3, 1, 2, 4), N=12):
        """A G whose values span 12 orders of magnitude, with an empty column,
        an empty block of rows and negative zeros."""
        rng = np.random.default_rng(seed)
        cone = _Cone(dims)
        M = cone.total
        G = (rng.standard_normal((M, N)) * 10.0 ** rng.uniform(-6, 6, size=(M, N))
             * (rng.uniform(size=(M, N)) < 0.3))
        G[:, 4] = 0.0
        G[cone.slices[1]] = 0.0
        G[(G == 0.0) & (rng.uniform(size=(M, N)) < 0.2)] = -0.0
        assert np.any(np.signbit(G) & (G == 0.0))
        return G, cone, rng

    def test_products_match_dense(self):
        G, cone, rng = self.sparse_g()
        Gn = Nonzeros.of(G)
        assert Gn.vals.size == np.count_nonzero(G)
        x, z = rng.standard_normal(G.shape[1]), rng.standard_normal(G.shape[0])
        gx, gtz = Gn.dot(x), Gn.tdot(z)
        assert np.all(np.abs(gx - G @ x) <= 1e-14 * (np.abs(G) @ np.abs(x)))
        assert np.all(np.abs(gtz - G.T @ z) <= 1e-14 * (np.abs(G.T) @ np.abs(z)))
        # every entry is its row's (column's) products summed in order from
        # +0.0, over the zeros too: a zero of either sign adds nothing
        want_x, want_z = np.zeros(G.shape[0]), np.zeros(G.shape[1])
        for j in range(G.shape[1]):
            want_x += G[:, j] * x[j]
        for i in range(G.shape[0]):
            want_z += G[i] * z[i]
        assert np.array_equal(gx, want_x) and not np.any(np.signbit(gx[gx == 0.0]))
        assert np.array_equal(gtz, want_z) and not np.any(np.signbit(gtz[gtz == 0.0]))
        assert gtz[4] == 0.0 and not np.any(gx[cone.slices[1]])

    def test_equilibrate_matches_dense_loop(self, d4_16_conic):
        G, cone, rng = self.sparse_g()
        cases = [(G, rng.standard_normal(G.shape[0]), rng.standard_normal(G.shape[1]), cone),
                 (d4_16_conic.G, d4_16_conic.h, d4_16_conic.c, _Cone(d4_16_conic.dims))]
        for G, h, c, cone in cases:
            Gn = Nonzeros.of(G)
            got = solver._equilibrate(Gn, h, c, cone)
            want = dense_ruiz(G, h, c, cone)
            assert np.array_equal(got[0].vals, want[0][Gn.rows, Gn.cols])
            assert not np.any(np.delete(want[0].reshape(-1), Gn.rows * G.shape[1] + Gn.cols))
            for a, b in zip(got[1:], want[1:]):
                assert np.array_equal(a, b)
            assert np.array_equal(Gn.vals, G[Gn.rows, Gn.cols])      # left unscaled

    def test_solve_holds_no_copy_of_g(self, d4_16_conic):
        # beside the KKT's stack and T, a solve allocates less than half
        # of a dense G: the dense equilibrated copy that it held took all of it
        conic = d4_16_conic
        M, N = conic.nonzeros.shape
        kkt = _KKT(_Cone(conic.dims), conic.nonzeros)
        tracemalloc.start()
        try:
            rep = solve(conic)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.status == "Optimal"
        assert peak < stack_bytes(kkt) + kkt.T.nbytes + 8 * M * N // 2

    def test_build_and_compile_hold_no_dense_g(self, monkeypatch):
        # the LMIs are built as their coefficients' nonzeros and compiled
        # straight to G's: the dense coefficient arrays and the dense G that
        # the compile stacked took more than all of a dense G
        class Compiled(Exception):
            pass

        def stop(conic, opts=None):
            raise Compiled(conic)

        monkeypatch.setattr(synthesis, "solve", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Compiled) as got:
                design_model(*d4_16_design())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        M, N = got.value.args[0].nonzeros.shape
        assert (M, N) == (1484, 521)
        assert peak < 8 * M * N // 2

    def test_solve_adds_no_scipy_sparse(self):
        # the products need no scipy.sparse. scipy.linalg itself imports it
        # before scipy 1.17, so only what importing structh2 and a solve add
        # is checked
        code = ("import sys, scipy.linalg, scipy.linalg.lapack\n"
                "def sparse(): return {m for m in sys.modules if m.startswith('scipy.sparse')}\n"
                "before = sparse()\n"
                + EXAMPLE1_D4 +
                "print(sorted(sparse() - before))")
        assert run_fresh(code).splitlines()[-1] == "[]"


# an example1 D4 model design, as a fresh interpreter's code
EXAMPLE1_D4 = ("import structh2 as sh\n"
               "res = sh.design_model(sh.example1_plant(), sh.example1_perf(),\n"
               "                      sh.DesignOptions(design='D4', subspace=sh.example1_subspace()))\n")
# the solver's LAPACK wrappers, by name
LAPACK_NAMES = "LAPACK = ('dgeqrt', 'dgemqrt', 'dtrtrs')\n"
# prints the scipy modules that a fresh interpreter has loaded
SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def run_fresh(code, *args):
    """stdout of code run in a fresh interpreter, with args as sys.argv[1:],
    that imports structh2 from the same tree as this process."""
    src = os.path.dirname(os.path.dirname(structh2.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout


class TestLazyLapack:
    """scipy's LAPACK is loaded on the first factorization, not with
    structh2, so a process that never solves does not load scipy at all; and
    the first solve loads the extension `scipy.linalg._flapack` alone, not the
    rest of scipy.linalg."""

    def test_import_loads_no_scipy(self):
        assert run_fresh("import sys, structh2, structh2.cli\n" + SCIPY_LOADED) == "[]\n"

    def test_simulate_and_verify_load_no_scipy(self, tmp_path):
        def cfg(name, **doc):
            path = tmp_path / name
            path.write_text(json.dumps(dict(plant="example1", **doc)))
            return path

        noise = {"eps": 0.1, "T": 20, "seed": 1, "exponent": 2}
        des = cfg("des.json", designs=["D4"], mode="data", data_dir=str(tmp_path / "batch"),
                  output_dir=str(tmp_path / "out"))
        # the batch and the gain come from this process, which solves
        assert cli.main(["simulate", "--config", str(cfg(
            "sim.json", noise=noise, data_dir=str(tmp_path / "batch")))]) == 0
        assert cli.main(["design", "--config", str(des)]) == 0
        gamma = json.loads((tmp_path / "out" / "D4" / "result.json").read_text())["gamma"]
        sim = cfg("sim2.json", noise=noise, data_dir=str(tmp_path / "batch2"))
        ver = cfg("ver.json", mode="data", data_dir=str(tmp_path / "batch"),
                  output_dir=str(tmp_path / "ver"),
                  verify={"k": str(tmp_path / "out" / "D4" / "k.csv"), "gamma": gamma,
                          "samples": 20, "seed": 3})
        code = ("import sys\n"
                "from structh2.cli import main\n"
                "codes = [main(['simulate', '--config', sys.argv[1]]),\n"
                "         main(['verify', '--config', sys.argv[2]])]\n"
                "print(codes)\n" + SCIPY_LOADED)
        assert run_fresh(code, sim, ver).splitlines()[-2:] == ["[0, 0]", "[]"]

    def test_first_solve_loads_lapack(self, plant, perf, subspace):
        # the three wrappers are bound, and of scipy.linalg only the
        # extension that holds them is loaded
        res = design_model(plant, perf, DesignOptions(design="D4", subspace=subspace))
        code = ("import sys\n"
                "from structh2 import solver\n"
                "def state():\n"
                "    bound = [getattr(solver, f) is not None for f in LAPACK]\n"
                "    print(bound, sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
                + LAPACK_NAMES + "state()\n" + EXAMPLE1_D4 + "state()\n"
                "print(res.status, repr(res.gamma))")
        assert run_fresh(code).splitlines() == [
            "[False, False, False] []", "[True, True, True] ['scipy.linalg._flapack']",
            f"{res.status} {res.gamma!r}"]

    @pytest.mark.parametrize("first", ["scipy.linalg", "solve"])
    def test_wrappers_are_scipy_linalg_lapacks(self, first):
        # the extension is one module whichever of scipy.linalg and the
        # solver loads it first: the solver's wrappers are scipy.linalg.lapack's
        code = ("import sys\n"
                "from structh2 import solver\n"
                + LAPACK_NAMES +
                "if sys.argv[1] == 'scipy.linalg':\n"
                "    import scipy.linalg.lapack\n"
                + EXAMPLE1_D4 +
                "import scipy.linalg.lapack\n"
                "print(res.status, [getattr(solver, f) is getattr(scipy.linalg.lapack, f)\n"
                "                   for f in LAPACK])")
        assert run_fresh(code, first) == "Optimal [True, True, True]\n"

    def test_fallback_without_the_extension_file(self):
        # where no _flapack file sits under scipy.__path__, as in an editable
        # scipy built out of tree, the loader's lookup finds nothing: it then
        # binds the same wrappers through scipy.linalg.lapack. The lookup is
        # hidden once, so that scipy.linalg's own import still finds the file.
        code = ("import sys\n"
                "from importlib.machinery import PathFinder\n"
                "from structh2 import solver\n"
                + LAPACK_NAMES +
                "real = PathFinder.find_spec\n"
                "hidden = []\n"
                "def find_spec(name, path=None, target=None):\n"
                "    if name == 'scipy.linalg._flapack' and not hidden:\n"
                "        hidden.append(name)\n"
                "        return None\n"
                "    return real(name, path, target)\n"
                "PathFinder.find_spec = find_spec\n"
                "solver._load_lapack()\n"
                "PathFinder.find_spec = real\n"
                "print(hidden, 'scipy.linalg.lapack' in sys.modules)\n"
                "import scipy.linalg.lapack\n"
                "print([getattr(solver, f) is getattr(scipy.linalg.lapack, f) for f in LAPACK])")
        assert run_fresh(code).splitlines() == [
            "['scipy.linalg._flapack'] True", "[True, True, True]"]

    @pytest.mark.parametrize("order", [("_qr_factor", "_qr_apply"), ("_qr_apply", "_qr_factor")],
                             ids=["factor-first", "apply-first"])
    def test_qr_before_any_solve(self, order):
        # whichever of the two a process calls first binds the wrappers
        code = ("import sys\n"
                "import numpy as np\n"
                "from structh2 import solver\n"
                "assert solver.dgeqrt is None and solver.dgemqrt is None\n"
                "rng = np.random.default_rng(3)\n"
                "a = np.asfortranarray(rng.standard_normal((9, 5)))\n"
                "c = np.asfortranarray(rng.standard_normal((9, 1)))\n"
                "from scipy.linalg.lapack import dgemqrt, dgeqrt\n"
                "qr, t, _ = dgeqrt(2, a)\n"
                "want_c, _ = dgemqrt(qr, t, c, trans='T')\n"
                "calls = {'_qr_factor': lambda: solver._qr_factor(a.copy(order='F'), 2),\n"
                "         '_qr_apply': lambda: (solver._qr_apply(qr, t, 'T', c.copy(order='F')),)}\n"
                "got = {name: calls[name]() for name in sys.argv[1:]}\n"
                "print(all(np.array_equal(g, w) for g, w in\n"
                "          zip(got['_qr_factor'] + got['_qr_apply'], (qr, t, want_c))))")
        assert run_fresh(code, *order) == "True\n"

    def test_tri_congruence_before_any_solve(self):
        # an eliminated block's build solves by T' before the first QR: its
        # triangular solves bind the wrappers too, and give T^{-1} X T^{-T}
        code = ("import numpy as np\n"
                "from structh2 import solver\n"
                "from structh2.lmi import smat, svec\n"
                "assert solver.dtrtrs is None\n"
                "rng = np.random.default_rng(4)\n"
                "T = np.triu(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)\n"
                "v = rng.standard_normal(10)\n"
                "Ti = np.linalg.inv(T)\n"
                "got = [solver._tri_congruence(T, v, t) for t in (0, 1)]\n"
                "want = [svec(Ti @ smat(v, 4) @ Ti.T), svec(Ti.T @ smat(v, 4) @ Ti)]\n"
                "print(all(np.allclose(g, w, rtol=1e-12, atol=1e-14) for g, w in zip(got, want)))")
        assert run_fresh(code) == "True\n"


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

        def loop(fn, *vs):
            return self.per_block(cone, fn, *vs)

        cases = {
            "wt_apply": (W.wt_apply(v), loop(lambda i, M: R[i] @ M @ R[i].T, v)),
            "winvt_apply": (W.winvt_apply(v), loop(lambda i, M: Rinv[i] @ M @ Rinv[i].T, v)),
            "winv_apply": (W.winv_apply(v), loop(lambda i, M: Rinv[i].T @ M @ Rinv[i], v)),
            "lam_solve": (W.lam_solve(v),
                          loop(lambda i, M: M / (0.5 * (lam[i][:, None] + lam[i][None, :])),
                               v)),
            "lam_vec": (cone.diagonal(W.lam), loop(lambda i: np.diag(lam[i]))),
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

    def test_scalar_blocks_match_lapack(self):
        # a group of 1 x 1 blocks takes sqrt and products in place of the
        # Cholesky, the SVD and eigvalsh, and must give LAPACK's bits
        rng = np.random.default_rng(13)
        cone = _Cone((1,) * 1000)
        s, z = (10.0 ** rng.uniform(-12, 12, cone.total) for _ in range(2))
        W = _Scaling(cone, s, z)
        Ls, Lz = (np.linalg.cholesky(v.reshape(-1, 1, 1)) for v in (s, z))
        U, sig, Vt = np.linalg.svd(Lz.swapaxes(-1, -2) @ Ls)
        sq = np.sqrt(sig)[:, None, :]
        assert np.array_equal(W.lam[0], sig)
        assert np.array_equal(W.R[0], Ls @ (Vt.swapaxes(-1, -2) / sq))
        assert np.array_equal(W.Rinv[0], (U / sq).swapaxes(-1, -2) @ Lz.swapaxes(-1, -2))
        d = (rng.standard_normal((cone.total, 1, 1))
             * 10.0 ** rng.uniform(-12, 12, (cone.total, 1, 1)))
        assert np.array_equal(solver._min_eig(d), np.linalg.eigvalsh(d)[:, 0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("side", ["s", "z"])
    def test_scalar_block_not_positive_raises(self, bad, side):
        # as LAPACK's path does (the Cholesky for 0 and -1, the SVD for NaN),
        # so that the solve's one handler catches it
        cone = _Cone((2, 1, 1))
        pt = {"s": cone.identity(), "z": cone.identity()}
        pt[side][cone.slices[2]] = bad
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _Scaling(cone, pt["s"], pt["z"])


class TestKernelBits:
    """The cone layer's products go through 2-D np.dot per matrix, elementwise
    products for 1 x 1 blocks, and an in-place svec. Each must equal, bit for
    bit, the stacked `@` and the out-of-place svec that they replace."""

    DIMS = (24, 1, 30, 1, 12, 24, 1, 3)     # a k = 3 group of 1 x 1 blocks, d up to 30

    @staticmethod
    def smat_stacks(cone, v):
        """The smat blocks of v as one (k, d, d) stack per group, each block
        by lmi.smat and put at its place (g, j): no code shared with
        `_Cone.stacks`, whose buffer it cannot alias."""
        out = [np.empty((k, d, d)) for d, k in cone.groups]
        for d, sl, (g, j) in zip(cone.dims, cone.slices, cone.where):
            out[g][j] = smat(v[sl], d)
        return out

    @classmethod
    def stacked(cls, cone, fn, *vs):
        """svec of fn(g, stacks of vs...), a (k, d, d) stack per group, by
        lmi.svec's 0.5 * (u + l) * scale, put in block order."""
        per = [cls.smat_stacks(cone, v) for v in vs]
        out = [svec(fn(g, *(p[g] for p in per))) for g in range(len(cone.groups))]
        return np.concatenate([out[g][j] for g, j in cone.where])

    def scaled_system(self, seed):
        """A scaling point whose blocks spread over many orders of magnitude,
        and two vectors. Their entries share one magnitude: where one entry
        dominates, every order of summation rounds alike."""
        rng = np.random.default_rng(seed)
        cone = _Cone(self.DIMS)

        def interior_point():
            blocks = []
            for d in cone.dims:
                X = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3, 3)
                blocks.append(svec(X @ X.T + 10.0 ** rng.uniform(-6, 0) * np.eye(d)))
            return np.concatenate(blocks)

        W = _Scaling(cone, interior_point(), interior_point())
        u, v = (rng.standard_normal(cone.total) * 10.0 ** rng.uniform(-4, 4) for _ in range(2))
        return cone, W, u, v

    @pytest.mark.parametrize("seed", range(4))
    def test_scaling_matches_stacked_matmul(self, seed):
        cone, W, u, v = self.scaled_system(seed)
        R, Rinv = W.R, W.Rinv

        def t(X):
            return X.swapaxes(-1, -2)

        def stacked(fn, *vs):
            return self.stacked(cone, fn, *vs)

        def diag(g):
            lam = W.lam[g]
            M = np.zeros(lam.shape + (lam.shape[-1],))
            M[:, np.arange(lam.shape[-1]), np.arange(lam.shape[-1])] = lam
            return M

        lam_vec = stacked(diag)
        cases = {
            "wt_apply": (W.wt_apply(v), stacked(lambda g, M: R[g] @ M @ t(R[g]), v)),
            "winvt_apply": (W.winvt_apply(v),
                            stacked(lambda g, M: Rinv[g] @ M @ t(Rinv[g]), v)),
            "winv_apply": (W.winv_apply(v), stacked(lambda g, M: t(Rinv[g]) @ M @ Rinv[g], v)),
            "lam_solve": (W.lam_solve(v), stacked(
                lambda g, M: M / (0.5 * (W.lam[g][:, :, None] + W.lam[g][:, None, :])), v)),
            "sym_prod": (solver._sym_prod(cone, u, v),
                         stacked(lambda g, U, V: 0.5 * (U @ V + V @ U), u, v)),
            "lam_vec": (cone.diagonal(W.lam), lam_vec),
            "lam_sq": (W.lam_sq(),
                       stacked(lambda g, U, V: 0.5 * (U @ V + V @ U), lam_vec, lam_vec)),
        }
        for name, (got, want) in cases.items():
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("seed", range(4))
    def test_max_step_over_two_directions(self, seed):
        cone, W, u, v = self.scaled_system(seed)
        both = W.max_step(u, v)
        assert np.isfinite(both)
        assert both == min(W.max_step(u), W.max_step(v))

    @pytest.mark.parametrize("seed", range(4))
    def test_max_step_matches_stacked_groups(self, seed):
        # one gather of every direction into one buffer and one division by
        # smat's divisor, then each group's view divided by sqrt(lambda_i)
        # sqrt(lambda_j): the two divisions of each direction's stacks joined
        # per group by np.stack, in the same order. Each direction is zero
        # outside one group, so that group alone sets the step, the k = 2
        # group of 24 x 24 blocks and the k = 3 group of 1 x 1 blocks too
        cone, W, u, v = self.scaled_system(seed)
        dirs = (u, v, u - 2.0 * v)

        def stacked_max_step(*dirs):
            per = [self.smat_stacks(cone, d) for d in dirs]
            alpha = np.inf
            for g, sq in enumerate(W._sqrt_outer):
                lmin = solver._min_eig(np.stack([p[g] for p in per]) / sq)
                neg = lmin[lmin < 0]
                if neg.size:
                    alpha = min(alpha, float((-1.0 / neg).min()))
            return alpha

        for g in range(len(cone.groups)):
            mask = np.zeros(cone.total)
            for sl, (gi, _) in zip(cone.slices, cone.where):
                mask[sl] = gi == g
            got = W.max_step(*(d * mask for d in dirs))
            assert np.isfinite(got)
            assert got == stacked_max_step(*(d * mask for d in dirs)), cone.groups[g]
        assert W.max_step(*dirs) == stacked_max_step(*dirs)

    def test_map_results_are_fresh(self):
        # map reads and writes the cone's scratch, but returns a new svec
        cone, W, u, v = self.scaled_system(0)
        a = W.wt_apply(u)
        kept = a.copy()
        b = W.wt_apply(v)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, kept)
        c = solver._sym_prod(cone, u, v)
        assert not np.shares_memory(c, solver._sym_prod(cone, v, u))

    def test_map_rejects_a_wrong_length(self):
        # every gather goes through `_Cone.stacks`, which checks each vector
        cone, W, u, v = self.scaled_system(0)
        s = interior_point(cone, np.random.default_rng(0))
        for bad in (u[:-1], np.append(u, 0.0)):
            for call in (lambda: W.wt_apply(bad), lambda: solver._sym_prod(cone, u, bad),
                         lambda: W.max_step(u, bad), lambda: cone.max_violation(bad),
                         lambda: _Scaling(cone, s, bad), lambda: _Scaling(cone, bad, s)):
                with pytest.raises(ValueError, match="svec of length"):
                    call()

    def test_congruence_matches_matmul(self):
        # the kernel on its own, over every dimension the designs use and
        # beyond, with a transposed (F-order) right factor as W's maps pass it
        rng = np.random.default_rng(11)
        for d in range(1, 33):
            k = 1 + d % 3
            L, M, Rt = (rng.standard_normal((k, d, d)) * 10.0 ** rng.uniform(-6, 6)
                        for _ in range(3))
            out = np.empty((k, d, d))
            solver._congruence(L, M, Rt.swapaxes(-1, -2), out)
            assert np.array_equal(out, L @ M @ Rt.swapaxes(-1, -2)), d


# Status, iteration count and gamma of example1 designs, recorded with the
# solver as it stood when this test was added. The solver is deterministic, so
# a rewrite of the IPM loop that keeps its arithmetic keeps these exactly; one
# that changes the arithmetic fails here and must say why the numbers moved.
RECORDED = {
    # every design was re-recorded when the LMIs minimized tr Q itself, with
    # no gamma^2 variable and no trace row (gamma = sqrt(tr Q)): iterations
    # moved by at most 1, and the gammas by 3.6e-10 to 1.4e-7 relative, the
    # largest on data D1, which now stops one iteration earlier inside
    # tol_gap (old and new end within 1.8e-7 of a solve to tol 1e-11)
    ("model", "D1"): ("Optimal", 10, 2.157051093366807),
    ("model", "D2"): ("Optimal", 11, 3.570104865502452),
    ("model", "D3"): ("Optimal", 11, 3.012718848821994),
    ("model", "D4"): ("Optimal", 10, 2.9831891499275196),
    # the fresh eps = 0.05, T = 20 record of the benchmark's small-sdp
    # workload, re-recorded before that when design_data put Psi in units of
    # 2^k and the KKT solves were refined in the scaled system
    ("data", "D1"): ("Optimal", 13, 2.3940250368059695),
    ("data", "D2"): ("Optimal", 13, 4.388124400912666),
    ("data", "D3"): ("Optimal", 13, 3.532104933123057),
    ("data", "D4"): ("Optimal", 14, 3.4833892871855014),
    # the criterion-7 sharing plant, whose blocks reach d = 30
    ("sharing", "D1"): ("Optimal", 9, 4.335968606585238),
    ("sharing", "D4"): ("Optimal", 11, 4.621524742454437),
}


@pytest.mark.parametrize("mode, design", sorted(RECORDED))
def test_recorded_trajectory(mode, design, plant, perf, subspace):
    opts = DesignOptions(design=design, subspace=None if design == "D1" else subspace)
    if mode == "sharing":
        plant12, spec12 = sharing12_plant()
        res = design_model(plant12, default_perf(12, 6),
                           DesignOptions(design=design,
                                         subspace=None if design == "D1" else spec12,
                                         sharing=True))
    elif mode == "model":
        res = design_model(plant, perf, opts)
    else:
        batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.05, seed=100, exponent=2, T=20)
        res = design_data(batch, perf, opts)
    status, iterations, gamma = RECORDED[mode, design]
    assert res.status == status
    assert res.report.iterations == iterations
    assert res.gamma == pytest.approx(gamma, rel=1e-12)
