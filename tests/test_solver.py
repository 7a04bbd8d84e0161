import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from structh2 import (EXAMPLE1_X0, DesignOptions, LmiProblem, MatExpr, PlantPair,
                      SolverOptions, default_perf, design_data, design_model,
                      example1_perf, example1_plant, example1_subspace,
                      infeasibility_residual, min_eig, simulate, solve, spectral_radius)
import structh2
from structh2 import solver, synthesis
from structh2.lmi import Nonzeros, smat, svec, svec_len
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
    """The D4 model design of a 16-state, 8-input plant (rng seed 0, spectral
    radius 0.7, pattern density 0.4 plus its diagonal and superdiagonal), with
    no solver iterations: design_model's arguments."""
    rng = np.random.default_rng(0)
    n, m = 16, 8
    A = rng.standard_normal((n, n))
    A *= 0.7 / spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = (rng.uniform(size=(m, n)) < 0.4).astype(int)
    pattern[np.arange(m), np.arange(m)] = 1
    pattern[np.arange(m), np.arange(1, m + 1)] = 1
    return (PlantPair(A=A, B=B), default_perf(n, m),
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


class TestKktSolve:
    def random_system(self, seed=5, N=5):
        rng = np.random.default_rng(seed)
        # blocks of 8 (36 rows each) beyond the first two keep M > N
        cone = _Cone((3, 2) + (8,) * -(-max(N - 5, 0) // 36))
        M = cone.total

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

    # N = nb factors in one block reflector, 1, 5 and nb - 1 in one narrower
    # than _QR_BLOCK, nb + 1 and 2 nb + 3 end on a narrow last panel
    @pytest.mark.parametrize("N", [1, 5, solver._QR_BLOCK - 1, solver._QR_BLOCK,
                                   solver._QR_BLOCK + 1, 2 * solver._QR_BLOCK + 3])
    def test_kkt_matches_dense_solve(self, N):
        G, W, cone, K2, rhs = self.random_system(N=N)
        Gn = Nonzeros.of(G)
        sol, err = _KKT(Gn, W, _Workspace(cone, Gn)).solve(rhs)
        assert err <= 1e-10
        assert np.allclose(sol, np.linalg.solve(K2, rhs), rtol=1e-8, atol=1e-10)

    def test_nonfinite_solve_raises(self):
        # the solver's one failure exit catches LinAlgError
        G, W, cone, _, rhs = self.random_system()
        rhs[0] = np.nan
        Gn = Nonzeros.of(G)
        with pytest.raises(np.linalg.LinAlgError):
            _KKT(Gn, W, _Workspace(cone, Gn)).solve(rhs)

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
        # one QR factorization of the cone rows per iteration
        assert len(factored) == res.report.iterations
        assert set(factored) == {(conic.G.shape[0], conic.n_reduced)}


class TestWorkspace:
    """One workspace per solve holds every KKT build's buffers; a build on a
    reused workspace must equal, bit for bit, one on a fresh workspace."""

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
        # dgeqrt factors the stack buffer in place: a second build must clear
        # every entry the first left behind, and the block reflectors' factor
        # t must come out the same
        G, cone, W1, W2, rhs = self.system()
        G = Nonzeros.of(G)
        ws = _Workspace(cone, G)
        _KKT(G, W1, ws)
        reused = _KKT(G, W2, ws)
        fresh = _KKT(G, W2, _Workspace(cone, G))
        for name in ("T", "qr", "t"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
        got, want = reused.solve(rhs), fresh.solve(rhs)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]

    def test_build_allocates_less_than_the_stack(self):
        # the build writes into the workspace: what it allocates (the QR work
        # array, the reflectors' factor t, index temporaries) stays below one
        # copy of the stack
        G, cone, W1, W2, _ = self.system()
        G = Nonzeros.of(G)
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

    def test_chunked_build_matches_congruence(self):
        # every chunk's smat stack is scattered from G's nonzeros; the build
        # must equal the congruence of the dense smat stack of each block
        G, cone, W1, _, _ = self.system(density=0.02)
        ws = _Workspace(cone, Nonzeros.of(G))
        d0 = cone.dims[0]
        kc = solver._CHUNK_ENTRIES // d0 ** 2
        assert np.count_nonzero(np.any(G[cone.slices[0]], axis=0)) > 2 * kc
        Gt = ws.build(W1)
        for d, sl, (g, j) in zip(cone.dims, cone.slices, cone.where):
            touch = np.any(G[sl] != 0.0, axis=0)
            cols = np.flatnonzero(touch)
            Ri = W1.Rinv[g][j]
            want = svec(Ri @ smat(G[sl][:, cols].T, d) @ Ri.T)
            assert np.array_equal(Gt[sl][:, cols], want.T)
            assert not np.any(Gt[sl][:, ~touch])
        assert not np.any(G[cone.slices[0], 1]) and np.any(G[:, 1])
        assert np.array_equal(ws.idle, [2])
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
        # workspace holds under 1 MB, where the dense smat stacks took 2.9 MB
        G, cone, _, _, _ = self.system(density=0.02)
        ws = _Workspace(cone, Nonzeros.of(G))
        assert self.held(ws) < ws.stack.nbytes + ws.T.nbytes + (1 << 20)

    def test_holds_no_copy_of_g_at_scale(self, d4_16_conic):
        # the D4 model conic of a 16-state, 8-input plant: 1485 cone rows and
        # 522 columns, whose dense smat stacks took 8.8 MB and their
        # temporaries 20 MB more
        conic = d4_16_conic
        assert conic.nonzeros.shape == (1485, 522)
        cone = _Cone(conic.dims)
        ws = _Workspace(cone, solver._equilibrate(conic.nonzeros, conic.h, conic.c, cone)[0])
        assert self.held(ws) < ws.stack.nbytes + ws.T.nbytes + (1 << 20)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_svec_into_matches_svec(self, d):
        rng = np.random.default_rng(d)
        M = rng.standard_normal((17, d, d)) * 10.0 ** rng.uniform(-8, 8, size=(17, d, d))
        out, work = np.empty((17, svec_len(d))), np.empty((17, svec_len(d)))
        assert _svec_into(M, out, work) is out
        assert np.array_equal(out, svec(M))


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
        # beside the workspace's stack and T, a solve allocates less than half
        # of a dense G: the dense equilibrated copy that it held took all of it
        conic = d4_16_conic
        M, N = conic.nonzeros.shape
        ws = _Workspace(_Cone(conic.dims), conic.nonzeros)
        tracemalloc.start()
        try:
            rep = solve(conic)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.status == "Optimal"
        assert peak < ws.stack.nbytes + ws.T.nbytes + 8 * M * N // 2

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

    def test_import_adds_no_scipy_sparse(self):
        # the products need no scipy.sparse. scipy.linalg itself imports it
        # before scipy 1.17, so only what importing structh2 adds is checked
        src = os.path.dirname(os.path.dirname(structh2.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, scipy.linalg, scipy.linalg.lapack\n"
                "def sparse(): return {m for m in sys.modules if m.startswith('scipy.sparse')}\n"
                "before = sparse()\n"
                "import structh2\n"
                "print(sorted(sparse() - before))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"


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
