import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgemqrt, dgeqrt

from structh2 import (EXAMPLE1_X0, DesignOptions, LmiProblem, MatExpr, PlantPair,
                      SolverOptions, default_perf, design_data, design_model,
                      example1_perf, example1_plant, example1_subspace,
                      infeasibility_residual, min_eig, simulate, solve, spectral_radius)
import structh2
from structh2 import cli, solver, synthesis
from structh2.lmi import ConicForm, Nonzeros, smat, svec, svec_len
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
    prob.trace_leq(X, g)
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


def d4_16_plant():
    """A 16-state, 8-input plant (rng seed 0, spectral radius 0.7) and its
    pattern (density 0.4 plus the diagonal and superdiagonal)."""
    rng = np.random.default_rng(0)
    n, m = 16, 8
    A = rng.standard_normal((n, n))
    A *= 0.7 / spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = (rng.uniform(size=(m, n)) < 0.4).astype(int)
    pattern[np.arange(m), np.arange(m)] = 1
    pattern[np.arange(m), np.arange(1, m + 1)] = 1
    return PlantPair(A=A, B=B), pattern


def d4_16_design():
    """The D4 model design of `d4_16_plant`, with no solver iterations:
    design_model's arguments."""
    plant, pattern = d4_16_plant()
    return (plant, default_perf(16, 8),
            DesignOptions(design="D4", subspace=from_pattern(pattern),
                          solver=SolverOptions(max_iter=0)))


@pytest.fixture(scope="module")
def d4_16_conic():
    """The conic of `d4_16_design`: 1485 cone rows and 522 columns."""
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


def dense_kkt(G, W):
    """The KKT matrix [[0, G^T], [G, -W^T W]], with a unit diagonal entry in
    the column of each variable that no row touches: the equation dx_j = r1_j
    that the unit rows E give it."""
    M, N = G.shape
    WtW = np.column_stack([W.wtw_apply(e) for e in np.eye(M)])
    return np.block([[np.diag(1.0 * ~np.any(G, axis=0)), G.T],
                     [G, -WtW]])


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
    """A block-sparse G whose stage plan has three stages: nb = _QR_BLOCK
    columns touch block 1 alone, nb blocks 1 and 2, nb + 4 every block, and
    one column no row touches, in a shuffled column order. rows gives the
    blocks' dimensions, so the stages have 55, 52 and 60 live rows."""
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
        Gn = Nonzeros.of(G)
        sol, err = factored(cone, Gn, W).solve(rhs)
        assert err <= 1e-10
        assert np.allclose(sol, np.linalg.solve(K2, rhs), rtol=1e-8, atol=1e-10)

    def test_staged_kkt_matches_dense_solve(self):
        G, W, cone, rng = staged_system()
        Gn = Nonzeros.of(G)
        kkt = _KKT(cone, Gn)
        nb = solver._QR_BLOCK
        assert [(st.k, st.lead, st.buf.shape) for st in kkt.stages] == [
            (nb, 0, (55, 3 * nb + 5)), (nb, 7, (52, 2 * nb + 5)), (nb + 5, 4, (60, nb + 5))]
        order = np.arange(G.shape[1])
        assert not np.array_equal(order[kkt.perm], order)
        rhs = rng.standard_normal(G.shape[1] + G.shape[0])
        rhs[kkt.idle] = 0.0              # c_j = 0 for a variable the model leaves unused
        kkt.factor(W)
        sol, err = kkt.solve(rhs)
        assert err <= 1e-10
        assert np.allclose(sol, np.linalg.solve(dense_kkt(G, W), rhs), rtol=1e-8, atol=1e-10)

    def test_stage_short_of_rows_raises(self):
        # block 1 (a 7 x 7 block, 28 rows) alone holds nb columns: G has
        # dependent columns, and the stage cannot factor them
        G, W, cone, rng = staged_system(rows=(10, 7, 9))
        Gn = Nonzeros.of(G)
        kkt = _KKT(cone, Gn)
        assert kkt.stages[0].buf.shape[0] < kkt.stages[0].k
        with pytest.raises(np.linalg.LinAlgError, match="fewer live rows"):
            kkt.factor(W)
        # the solve's one handler ends it NumericalTrouble at iteration 0
        conic = ConicForm(c=rng.standard_normal(G.shape[1]), obj_const=0.0, nonzeros=Gn,
                          h=cone.identity(), dims=cone.dims, block_names=("a", "b", "c"),
                          vars=())
        rep = solve(conic)
        assert rep.status == "NumericalTrouble"
        assert rep.iterations == 0

    def test_stages_factor_in_place(self, monkeypatch):
        # every factor and application of Q is on a column slice of an
        # F-order stage buffer, or on a stage's rows of the KKT's column, and
        # writes into it: a wrapper that copied the slice would allocate a
        # stage-sized copy on every call, which the KKT's buffers exist to
        # avoid, and an application that did not write into the column would
        # lose its result
        seen = []
        qr_factor, qr_apply = solver._qr_factor, solver._qr_apply

        def factor(a, nb):
            qr, t = qr_factor(a, nb)
            seen.append(np.shares_memory(qr, a))
            return qr, t

        def apply(qr, t, trans, c):
            out = qr_apply(qr, t, trans, c)
            seen.append(np.shares_memory(out, c))
            return out

        monkeypatch.setattr(solver, "_qr_factor", factor)
        monkeypatch.setattr(solver, "_qr_apply", apply)
        G, W, cone, rng = staged_system()
        Gn = Nonzeros.of(G)
        kkt = factored(cone, Gn, W)
        assert len(seen) == 5             # three factors, two trailing updates
        for st, (qr, _, run) in zip(kkt.stages, kkt.factors):
            assert np.shares_memory(qr, st.buf)
            assert np.shares_memory(run, kkt.col)
        kkt.solve(rng.standard_normal(G.shape[1] + G.shape[0]))
        assert len(seen) > 5 and all(seen)

    def test_nonfinite_solve_raises(self):
        # the solver's one failure exit catches LinAlgError
        G, W, cone, _, rhs = self.random_system()
        rhs[0] = np.nan
        Gn = Nonzeros.of(G)
        with pytest.raises(np.linalg.LinAlgError):
            factored(cone, Gn, W).solve(rhs)

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
        assert conic.n_reduced == 402
        # one QR factorization per stage of the staircase per iteration, the
        # stages' columns adding up to G's; the stages have 465, 300 and 79
        # of the 844 cone rows, and the rows that each leaves below its
        # triangle on top
        stages = factored[:3]
        assert factored == stages * res.report.iterations
        assert stages == [(465, 153), (465 - 153 + 300, 152), (465 + 300 - 305 + 79, 97)]
        assert sum(k for _, k in stages) == conic.n_reduced
        assert 465 + 300 + 79 == conic.nonzeros.shape[0]


def stage_bytes(kkt):
    """Bytes of a KKT's stage buffers."""
    return sum(st.buf.nbytes for st in kkt.stages)


def assembled(kkt, shape):
    """[W^{-T} G; E] in G's row and column order, read back from the stage
    buffers after a build: each stage's own rows, over its columns and the
    later stages'."""
    M, N = shape
    out = np.zeros((M + kkt.idle.size, N))
    perm = np.arange(N)[kkt.perm]
    for st in kkt.stages:
        rows = np.concatenate([st.rows, M + np.arange(st.units)])
        out[np.ix_(rows, perm[st.c0:])] = st.buf[st.lead:]
    return out


class TestWorkspace:
    """One `_KKT` per solve holds every KKT build's buffers; a factor on a
    reused KKT must equal, bit for bit, one on a fresh KKT."""

    @staticmethod
    def system(seed=6, dims=(30, 30, 8, 1), N=200, density=0.3, stairs=False):
        """A sparse G with a column that misses a block and an idle column,
        and two scaling points. The stack buffer is 1.6 MB. With stairs, the
        last 60 columns touch only block 0 and the 60 before them only
        blocks 0 and 1, so that the plan has several stages."""
        rng = np.random.default_rng(seed)
        cone = _Cone(dims)
        G = rng.standard_normal((cone.total, N)) * (rng.uniform(size=(cone.total, N)) < density)
        G[cone.slices[0], 1] = 0.0
        G[:, 2] = 0.0
        if stairs:
            G[cone.slices[1].start:, N - 60:] = 0.0
            G[cone.slices[2].start:, N - 120:N - 60] = 0.0

        def interior_point():
            return np.concatenate([svec(X @ X.T + 0.1 * np.eye(d))
                                   for d in dims for X in [rng.standard_normal((d, d))]])

        W1 = _Scaling(cone, interior_point(), interior_point())
        W2 = _Scaling(cone, interior_point(), interior_point())
        return G, cone, W1, W2, rng.standard_normal(N + cone.total)

    def test_reused_workspace_matches_fresh(self):
        # dgeqrt factors each stage buffer in place: a second build must
        # clear every entry the first left behind, and every stage's block
        # reflectors' factor t must come out the same, for a plan of one
        # stage and one of three
        for stairs, stages in ((False, 1), (True, 3)):
            G, cone, W1, W2, rhs = self.system(stairs=stairs)
            G = Nonzeros.of(G)
            reused = factored(cone, G, W1)
            assert len(reused.stages) == stages
            reused.factor(W2)
            fresh = factored(cone, G, W2)
            assert np.array_equal(reused.T, fresh.T)
            assert len(reused.factors) == len(fresh.factors) == stages
            for (qr, t, _), (qr0, t0, _) in zip(reused.factors, fresh.factors):
                assert np.array_equal(qr, qr0)
                assert np.array_equal(t, t0)
            got, want = reused.solve(rhs), fresh.solve(rhs)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]

    def test_build_allocates_less_than_the_stack(self):
        # the factor writes into the KKT's buffers: what it allocates (the QR
        # work array, the reflectors' factor t, index temporaries) stays
        # below one copy of the stack
        G, cone, W1, W2, _ = self.system()
        kkt = factored(cone, Nonzeros.of(G), W1)
        assert stage_bytes(kkt) >= 1 << 20
        tracemalloc.start()
        try:
            kkt.factor(W2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stage_bytes(kkt)

    def test_chunked_build_matches_congruence(self):
        # every chunk's smat stack is scattered from G's nonzeros; the build
        # must equal the congruence of the dense smat stack of each block,
        # at the rows and columns the stage plan gives it
        for stairs in (False, True):
            G, cone, W1, _, _ = self.system(density=0.02, stairs=stairs)
            kkt = _KKT(cone, Nonzeros.of(G))
            assert (len(kkt.stages) > 1) == stairs
            d0 = cone.dims[0]
            kc = solver._CHUNK_ENTRIES // d0 ** 2
            assert np.count_nonzero(np.any(G[cone.slices[0]], axis=0)) > 2 * kc
            kkt.build(W1)
            Gt = assembled(kkt, G.shape)
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
        assert self.held(kkt) < stage_bytes(kkt) + kkt.T.nbytes + (1 << 20)

    def test_holds_no_copy_of_g_at_scale(self, d4_16_conic):
        # the D4 model conic of a 16-state, 8-input plant: 1485 cone rows and
        # 522 columns, whose dense smat stacks took 8.8 MB and their
        # temporaries 20 MB more
        conic = d4_16_conic
        M, N = conic.nonzeros.shape
        assert (M, N) == (1485, 522)
        cone = _Cone(conic.dims)
        kkt = _KKT(cone, solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0])
        assert self.held(kkt) < stage_bytes(kkt) + kkt.T.nbytes + (1 << 20)
        # the stages hold no more than the whole stack and one stage's rows
        # passed on from the stage before
        assert len(kkt.stages) == 3 and kkt.idle.size == 0
        assert stage_bytes(kkt) <= 8 * (M * N + max(st.lead * st.buf.shape[1]
                                                    for st in kkt.stages))

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_svec_into_matches_svec(self, d):
        rng = np.random.default_rng(d)
        M = rng.standard_normal((17, d, d)) * 10.0 ** rng.uniform(-8, 8, size=(17, d, d))
        out, work = np.empty((17, svec_len(d))), np.empty((17, svec_len(d)))
        assert _svec_into(M, out, work) is out
        assert np.array_equal(out, svec(M))


class TestStagePlan:
    """The staircase QR's plan: one stage, in the stack's own order, for every
    example1 LMI, and several for the larger designs."""

    @pytest.mark.parametrize("mode", ["model", "data"])
    @pytest.mark.parametrize("design", ["D1", "D2", "D3", "D4"])
    def test_example1_is_one_plain_stage(self, mode, design):
        # a one-stage plan factors the whole stack in its own row and column
        # order, bit for bit as one dgeqrt call on it, and applies Q^T and Q
        # bit for bit as dgemqrt with that factor does
        G, cone = example1_g(mode, design)
        M, N = G.shape
        kkt, again = _KKT(cone, G), _KKT(cone, G)
        for k in (kkt, again):
            (st,) = k.stages
            # the stack's own order: every index by perm, place and slot is a view
            assert (k.perm, k.place, k.slot) == (slice(0, N), slice(0, N), slice(0, M))
            assert np.array_equal(st.rows, np.arange(M))
            assert (st.c0, st.k, st.lead, st.units) == (0, N, 0, k.idle.size)
            assert st.buf.shape == (M + k.idle.size, N)
        # the KKT skips `_stage_plan` below 2 * _QR_BLOCK columns; the greedy
        # gives the same one stage
        keep = G.vals != 0.0
        touch = np.zeros((N, len(cone.dims) + 1), bool)
        touch[G.cols[keep], np.searchsorted([sl.stop for sl in cone.slices],
                                            G.rows[keep], side="right")] = True
        touch[kkt.idle, -1] = True
        ((blocks, cols),) = solver._stage_plan(touch, [sl.stop - sl.start for sl in cone.slices]
                                               + [kkt.idle.size])
        assert np.array_equal(blocks, np.arange(len(cone.dims) + 1))
        assert np.array_equal(cols, np.arange(N))
        rng = np.random.default_rng(12)
        W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
        again.build(W)
        qr, t, info = dgeqrt(min(solver._QR_BLOCK, N), again.stages[0].buf.copy(order="F"))
        assert info == 0
        kkt.factor(W)
        ((got_qr, got_t, _),) = kkt.factors
        assert np.array_equal(got_qr, qr)
        assert np.array_equal(got_t, t)
        assert np.array_equal(kkt.T, qr[:N])
        for trans, x, size in (("T", rng.standard_normal(M), N), ("N", rng.standard_normal(N), M)):
            c = np.zeros((M + kkt.idle.size, 1), order="F")
            c[:x.size, 0] = x
            want, info = dgemqrt(qr, t, c, trans=trans)
            assert info == 0
            got = kkt._qt(x) if trans == "T" else kkt._qn(x)
            assert np.array_equal(got, want[:size, 0])

    def test_plan_is_deterministic(self, d4_16_conic):
        conic = d4_16_conic
        cone = _Cone(conic.dims)
        G = solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0]
        plans = []
        for _ in range(2):
            kkt = _KKT(cone, G)
            plans.append((kkt.perm, [(st.c0, st.k, st.lead, st.rows, st.buf.shape)
                                     for st in kkt.stages]))
        (perm1, stages1), (perm2, stages2) = plans
        assert np.array_equal(perm1, perm2)
        assert len(stages1) == len(stages2) == 3
        for a, b in zip(stages1, stages2):
            assert a[:3] == b[:3] and a[4] == b[4]
            assert np.array_equal(a[3], b[3])


class TestStaircaseColumn:
    """Q and Q^T act on one column laid out as the staircase, each stage on
    its own run of it: on Gt x, for x zero on the idle columns, Q^T gives
    T's rows T x[perm], and Q takes them back to Gt x."""

    @pytest.mark.parametrize("system", ["staged", "example1"])
    def test_qt_and_qn_of_gt_x(self, system):
        if system == "staged":
            G, W, cone, rng = staged_system()
            G = Nonzeros.of(G)
            stages = 3
        else:
            G, cone = example1_g("data", "D4")
            rng = np.random.default_rng(14)
            W = _Scaling(cone, interior_point(cone, rng), interior_point(cone, rng))
            stages = 1
        M, N = G.shape
        kkt = _KKT(cone, G)
        assert len(kkt.stages) == stages
        kkt.build(W)
        Gt = assembled(kkt, G.shape)[:M]
        kkt.factor(W)
        # an application of Q leaves the column's E rows nonzero, and Q^T
        # must not read them
        kkt._qn(rng.standard_normal(N))
        x = rng.standard_normal(N)
        x[kkt.idle] = 0.0
        # T's buffer holds the Householder vectors below its diagonal
        gx, tx = Gt @ x, np.triu(kkt.T) @ x[kkt.perm]
        qt = kkt._qt(gx).copy()
        assert np.abs(qt - tx).max() <= 1e-12 * np.abs(tx).max()
        assert np.abs(kkt._qn(qt) - gx).max() <= 1e-12 * np.abs(gx).max()


# Status, iteration count and gamma of the D4 designs of `d4_16_plant`,
# recorded with the single-stage QR the staircase replaced: the radius-0.7,
# n = 16 plant of the scale measurements, in model mode and in data mode
# (eps = 0.02, T = 4 (n + m), noise seed 0).
RECORDED_AT_SCALE = {
    "model": ("Optimal", 9, 4.8142788437574),
    "data": ("Optimal", 16, 5.01890285443871),
}


@pytest.mark.parametrize("mode", sorted(RECORDED_AT_SCALE))
def test_staged_designs_at_scale(mode, monkeypatch):
    stages = []

    class Recording(_KKT):
        def __init__(self, cone, G):
            super().__init__(cone, G)
            stages.append(len(self.stages))

    monkeypatch.setattr(solver, "_KKT", Recording)
    plant, pattern = d4_16_plant()
    n, m = 16, 8
    opts = DesignOptions(design="D4", subspace=from_pattern(pattern))
    if mode == "model":
        res = design_model(plant, default_perf(n, m), opts)
    else:
        batch, _ = simulate(plant, np.zeros(n), None, 0.02, seed=0, exponent=2, T=4 * (n + m))
        res = design_data(batch, default_perf(n, m), opts)
    status, iterations, gamma = RECORDED_AT_SCALE[mode]
    assert stages and min(stages) >= 2
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
        assert peak < stage_bytes(kkt) + kkt.T.nbytes + 8 * M * N // 2

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
        assert (M, N) == (1485, 522)
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
    """scipy's LAPACK is imported on the first factorization, not with
    structh2, so a process that never solves does not load scipy at all."""

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
        res = design_model(plant, perf, DesignOptions(design="D4", subspace=subspace))
        code = ("import sys\n"
                "from structh2 import solver\n"
                "print(solver.dtrtrs is None, 'scipy.linalg.lapack' in sys.modules)\n"
                + EXAMPLE1_D4 +
                "print(solver.dtrtrs is None, 'scipy.linalg.lapack' in sys.modules)\n"
                "print(res.status, repr(res.gamma))")
        assert run_fresh(code).splitlines() == [
            "True False", "False True", f"{res.status} {res.gamma!r}"]

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


class TestKernelBits:
    """The cone layer's products go through 2-D np.dot per matrix, elementwise
    products for 1 x 1 blocks, and an in-place svec. Each must equal, bit for
    bit, the stacked `@` and the out-of-place svec that they replace."""

    DIMS = (24, 1, 30, 1, 12, 24, 1, 3)     # a k = 3 group of 1 x 1 blocks, d up to 30

    @staticmethod
    def stacked(cone, fn, *vs):
        """svec of fn(g, stacks of vs...), a (k, d, d) stack per group, by
        lmi.svec's 0.5 * (u + l) * scale, put in block order."""
        per = [cone.stacks(v) for v in vs]
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
        wm = [(Rg @ Rg.swapaxes(-1, -2)).astype(np.longdouble) for Rg in R]

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
            "w_apply": (W.w_apply(v), stacked(lambda g, M: t(R[g]) @ M @ R[g], v)),
            "wt_apply": (W.wt_apply(v), stacked(lambda g, M: R[g] @ M @ t(R[g]), v)),
            "winvt_apply": (W.winvt_apply(v),
                            stacked(lambda g, M: Rinv[g] @ M @ t(Rinv[g]), v)),
            "winv_apply": (W.winv_apply(v), stacked(lambda g, M: t(Rinv[g]) @ M @ Rinv[g], v)),
            "wtw_apply": (W.wtw_apply(v),
                          stacked(lambda g, M: wm[g] @ M @ wm[g],
                                  v.astype(np.longdouble)).astype(float)),
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

    def test_map_results_are_fresh(self):
        # map reads and writes the cone's scratch, but returns a new svec
        cone, W, u, v = self.scaled_system(0)
        a = W.w_apply(u)
        kept = a.copy()
        b = W.w_apply(v)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, kept)
        c = solver._sym_prod(cone, u, v)
        assert not np.shares_memory(c, solver._sym_prod(cone, v, u))

    def test_map_rejects_a_wrong_length(self):
        cone, W, u, v = self.scaled_system(0)
        for bad in (u[:-1], np.append(u, 0.0)):
            with pytest.raises(ValueError, match="svec of length"):
                W.w_apply(bad)
            with pytest.raises(ValueError, match="svec of length"):
                solver._sym_prod(cone, u, bad)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_congruence_matches_matmul(self, dtype):
        # the kernel on its own, over every dimension the designs use and
        # beyond, with a transposed (F-order) right factor as W's maps pass it
        rng = np.random.default_rng(11)
        for d in range(1, 33):
            k = 1 + d % 3
            L, M, Rt = (rng.standard_normal((k, d, d)).astype(dtype)
                        * 10.0 ** rng.uniform(-6, 6) for _ in range(3))
            out = np.empty((k, d, d), dtype)
            solver._congruence(L, M, Rt.swapaxes(-1, -2), out)
            assert np.array_equal(out, L @ M @ Rt.swapaxes(-1, -2)), d


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
    # the criterion-7 sharing plant, whose blocks reach d = 30
    ("sharing", "D1"): ("Optimal", 9, 4.33596860083306),
    ("sharing", "D4"): ("Optimal", 11, 4.621524740789265),
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
