import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structh2 import (DesignOptions, LmiProblem, MatExpr, SolverOptions, UnboundedShape, block,
                      design_data, design_model, min_eig, smat, solve, svec)
from structh2.errors import DimensionMismatch
from structh2.lmi import Nonzeros, svec_len


class TestVariables:
    def test_free_entry_counts(self):
        prob = LmiProblem()
        P = prob.declare_var("P", 3, 3, kind="symmetric")
        assert P.nfree == 6
        L = prob.declare_var("L", 2, 3, mask=np.array([[1, 1, 0], [0, 1, 1]], bool))
        assert L.nfree == 4
        g = prob.declare_scalar("g")
        assert g.nfree == 1
        D = prob.declare_var("D", 4, 4, kind="symmetric", mask=np.eye(4, dtype=bool))
        assert D.nfree == 4

    def test_symmetric_value_round_trip(self):
        M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        masked = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], bool)
        for mask in (None, masked):
            prob = LmiProblem()
            P = prob.declare_var("P", 3, 3, kind="symmetric", mask=mask)
            want = M if mask is None else np.where(mask, M, 0.0)
            assert np.array_equal(P.value(P.free_values(want)), want)

    def test_masked_entries_are_zero(self):
        prob = LmiProblem()
        mask = np.array([[1, 0], [0, 1]], bool)
        V = prob.declare_var("V", 2, 2, mask=mask)
        assert V.entry_free(0, 1) is None
        out = V.value(np.array([5.0, 7.0]))
        assert np.array_equal(out, np.diag([5.0, 7.0]))

    def test_declaring_allocates_no_dense_lift(self):
        # a dense (rows*cols x nfree) 0/1 lift of this variable is 20 MB
        prob = LmiProblem()
        tracemalloc.start()
        try:
            prob.declare_var("X", 40, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestSvec:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 6))
    def test_round_trip(self, seed, d):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((d, d))
        M = M + M.T
        assert np.abs(smat(svec(M), d) - M).max() <= 1e-14

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 5))
    def test_inner_product_preserved(self, seed, d):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((d, d))
        A = A + A.T
        B = rng.standard_normal((d, d))
        B = B + B.T
        assert float(svec(A) @ svec(B)) == pytest.approx(float(np.trace(A @ B)),
                                                         rel=1e-12, abs=1e-12)

    def test_vecrow_map_matches_svec(self):
        # the columns of an LMI coefficient matrix are vec_row'd d x d
        # matrices; the stacked svec of their transpose is bit for bit the
        # svec of each, and the stacked smat inverts it
        rng = np.random.default_rng(1)
        d = 4
        mats = rng.standard_normal((5, d, d))
        cols = mats.reshape(5, -1).T
        stacked = svec(cols.T.reshape(-1, d, d)).T
        for j, M in enumerate(mats):
            assert np.array_equal(stacked[:, j], svec(M))
            assert np.allclose(svec(M), svec(0.5 * (M + M.T)))
        sym = mats + mats.swapaxes(-1, -2)
        back = smat(svec(sym.reshape(1, 5, d, d)), d)
        assert back.shape == (1, 5, d, d)
        for j, M in enumerate(sym):
            assert np.array_equal(back[0, j], smat(svec(M), d))


class TestMatExpr:
    def test_affine_evaluation(self):
        prob = LmiProblem()
        X = prob.declare_var("X", 2, 3)
        Y = prob.declare_var("Y", 2, 2, kind="symmetric")
        A = np.arange(6.0).reshape(3, 2)
        B = np.array([[2.0, 0.0], [1.0, -1.0]])
        expr = B @ (MatExpr.of(X) @ A) - 2.0 * MatExpr.of(Y) + np.eye(2)
        xval = np.arange(6.0)
        yval = np.array([1.0, -1.0, 2.0])
        assign = {X.vid: xval, Y.vid: yval}
        Xm, Ym = X.value(xval), Y.value(yval)
        assert np.allclose(expr.value(assign), B @ (Xm @ A) - 2.0 * Ym + np.eye(2))

    def test_block_matches_numpy(self):
        prob = LmiProblem()
        X = prob.declare_var("X", 2, 2)
        xval = np.arange(4.0)
        Xm = X.value(xval)
        expr = block([[MatExpr.of(X), np.eye(2)], [np.zeros((1, 2)), np.ones((1, 2))]])
        ref = np.block([[Xm, np.eye(2)], [np.zeros((1, 2)), np.ones((1, 2))]])
        assert np.array_equal(expr.value({X.vid: xval}), ref)

    def test_transpose_and_trace(self):
        prob = LmiProblem()
        X = prob.declare_var("X", 2, 3)
        xval = np.arange(6.0)
        Xm = X.value(xval)
        assert np.array_equal(MatExpr.of(X).T.value({X.vid: xval}), Xm.T)
        tr = (MatExpr.of(X) @ Xm.T.copy()).trace().value({X.vid: xval})
        assert tr[0, 0] == pytest.approx(np.trace(Xm @ Xm.T))

    def test_combination_of_a_basis(self):
        prob = LmiProblem()
        coef = prob.declare_var("c", 2, 1)
        basis = np.array([[[1.0, 0.0, 2.0]], [[0.0, -1.0, 0.5]]])
        expr = MatExpr.combination(coef, basis)
        assert (expr.rows, expr.cols) == (1, 3)
        assert np.array_equal(expr.value({coef.vid: np.array([2.0, 4.0])}), [[2.0, -4.0, 6.0]])
        with pytest.raises(DimensionMismatch):
            MatExpr.combination(coef, basis[:1])

    def test_undeclared_variable_rejected(self):
        other = LmiProblem()
        X = other.declare_var("X", 2, 2)
        prob = LmiProblem()
        with pytest.raises(UnboundedShape):
            prob.add_psd(MatExpr.of(X))


class TestCompile:
    def test_decode_encode_identity(self):
        rng = np.random.default_rng(2)
        prob = LmiProblem()
        P = prob.declare_var("P", 3, 3, kind="symmetric")
        L = prob.declare_var("L", 2, 3, mask=np.array([[1, 1, 0], [0, 1, 1]], bool))
        g = prob.declare_scalar("g")
        prob.add_psd(MatExpr.of(P) + np.eye(3))
        prob.add_psd(MatExpr.of(g))
        conic = prob.compile()
        Pm = rng.standard_normal((3, 3))
        Pm = Pm + Pm.T
        Lm = rng.standard_normal((2, 3)) * np.array([[1, 1, 0], [0, 1, 1]])
        assign = {"P": Pm, "L": Lm, "g": np.array([[2.5]])}
        x = np.concatenate([v.free_values(assign[v.name]) for v in conic.vars])
        decoded = conic.decode(x)
        for name, ref in assign.items():
            assert np.abs(decoded[name] - ref).max() <= 1e-14

    def test_masked_decode_exact_zero(self):
        prob = LmiProblem()
        L = prob.declare_var("L", 2, 3, mask=np.array([[1, 1, 0], [0, 1, 1]], bool))
        prob.add_psd(block([[np.eye(2), MatExpr.of(L)],
                            [MatExpr.of(L).T, np.eye(3)]]))
        conic = prob.compile()
        decoded = conic.decode(np.ones(conic.n_reduced))
        assert decoded["L"][0, 2] == 0.0
        assert decoded["L"][1, 0] == 0.0

    def test_margin_shifts_constant(self):
        prob = LmiProblem()
        x = prob.declare_scalar("x")
        prob.add_psd(MatExpr.of(x), margin=0.25)
        prob.minimize(x)
        rep = solve(prob.compile())
        assert rep.objective == pytest.approx(0.25, abs=1e-6)

    def test_dump_writes_triplets(self, tmp_path, plant, perf, subspace):
        prob = LmiProblem()
        x = prob.declare_scalar("x")
        prob.add_psd(MatExpr.of(x) - np.eye(1))
        prob.minimize(x)
        conic = prob.compile()
        path = tmp_path / "conic.txt"
        conic.dump(path)
        text = path.read_text()
        assert "conic_form" in text and "psd_dims 1" in text
        # the example1 D4 conic's dump, byte for byte as the dense G's rows
        # wrote it (2338 bytes, 64 rows)
        conic = design_model(plant, perf, DesignOptions(design="D4", subspace=subspace,
                                                        solver=SolverOptions(max_iter=0))).conic
        conic.dump(path)
        assert hashlib.sha1(path.read_bytes()).hexdigest() == \
            "99a1e87a679c5973b5796eac203da4892928f2a5"

    # sha1 of the bytes of G's table (rows and cols as int64, vals), h and c
    # of the example1 designs, as the dense compile gave them. The pattern
    # subspace has 0/1 bases, so no LAPACK call enters the compile.
    PINNED = {
        ("model", "D1"): "aecd2217a682139750c5bcb1cae554ba0ab9a30e",
        ("model", "D2"): "92398a9f48447f5f793c13e4ce9e81ddf75c9246",
        ("model", "D3"): "241ad5f529e324322f4512ccecbdd0f55e1aa9ac",
        ("model", "D4"): "dbb6513a28c51ee56d6ce4967dfbfff9b351eaeb",
        ("data", "D1"): "cb1a786611aa604f6b02ae95ec55a657c7b54b27",
        ("data", "D2"): "4b61dbab5acee09d3d90edb9cdb5158448142542",
        ("data", "D3"): "5a77c1788db782682366e5b455efa344b38ef148",
        ("data", "D4"): "2f42905e8e12b6b94764b96996234ba1c2a6856a",
    }

    @pytest.mark.parametrize("mode,design", sorted(PINNED))
    def test_example1_tables_are_pinned(self, mode, design, plant, perf, subspace, batch):
        opts = DesignOptions(design=design, subspace=None if design == "D1" else subspace,
                             solver=SolverOptions(max_iter=0))
        conic = (design_model(plant, perf, opts) if mode == "model"
                 else design_data(batch, perf, opts)).conic
        G = conic.nonzeros
        digest = hashlib.sha1()
        for a in (G.rows.astype(np.int64), G.cols.astype(np.int64), G.vals, conic.h, conic.c):
            digest.update(np.ascontiguousarray(a).tobytes())
        assert digest.hexdigest() == self.PINNED[mode, design]

    def test_table_columns_are_block_images(self):
        # column j of G is, block by block, minus the svec of the block's
        # linear part at x = e_j: masked, symmetric, scalar and basis
        # variables through products, transposes, traces and blocks
        rng = np.random.default_rng(4)
        prob = LmiProblem()
        P = MatExpr.of(prob.declare_var("P", 3, 3, kind="symmetric",
                                        mask=np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], bool)))
        L = MatExpr.of(prob.declare_var("L", 2, 3, mask=np.array([[1, 0, 1], [0, 1, 1]], bool)))
        g = prob.declare_scalar("g")
        coef = prob.declare_var("c", 3, 1)
        basis = rng.standard_normal((3, 3, 3)) * (rng.uniform(size=(3, 3, 3)) < 0.6)
        S = MatExpr.combination(coef, basis)
        A, B = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        AS = A @ (S + P) - MatExpr.scaled(g, np.diag([1.0, 0.0, 2.0]))
        prob.add_psd(block([[P + AS + AS.T, S @ B - L.T], [(S @ B - L.T).T, np.eye(2)]]),
                     margin=0.5)
        prob.add_psd(MatExpr.of(g) - 2.0 * P.trace())
        prob.add_psd(3.0 * (B.T @ (S + S.T) @ B) + np.ones((2, 2)))
        conic = prob.compile()
        G = conic.nonzeros
        assert G.shape == (svec_len(5) + svec_len(1) + svec_len(2), conic.n_reduced)
        dense = conic.G
        table = Nonzeros.of(dense)
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(G, name), getattr(table, name)), name
        for j in range(conic.n_reduced):
            assign = conic.local_assign(np.eye(conic.n_reduced)[j])
            col = np.concatenate([-svec((blk.expr - blk.expr.const).value(assign))
                                  for blk in prob.blocks])
            assert np.array_equal(dense[:, j], col), j
        assert np.array_equal(conic.h, np.concatenate(
            [svec(blk.expr.const - blk.margin * np.eye(blk.expr.rows)) for blk in prob.blocks]))


class TestTraceBound:
    def test_zero_slack_at_balance(self):
        prob = LmiProblem()
        Q = prob.declare_var("Q", 2, 2, kind="symmetric")
        g = prob.declare_scalar("g")
        prob.trace_leq(Q, g)
        expr = prob.blocks[-1].expr
        assign = {Q.vid: Q.free_values(np.eye(2)), g.vid: np.array([2.0])}
        assert expr.value(assign)[0, 0] == pytest.approx(0.0, abs=1e-14)
        assign[g.vid] = np.array([1.0])
        assert expr.value(assign)[0, 0] < 0.0   # infeasible block value

    def test_minimal_trace_against_floor(self):
        prob = LmiProblem()
        Q = prob.declare_var("Q", 2, 2, kind="symmetric")
        g = prob.declare_scalar("g")
        prob.add_psd(MatExpr.of(Q) - np.diag([1.0, 3.0]))
        prob.trace_leq(Q, g)
        prob.minimize(g)
        rep = solve(prob.compile())
        assert rep.status == "Optimal"
        assert rep.objective == pytest.approx(4.0, rel=1e-6)


def test_block_evaluation_at_solution_is_feasible():
    rng = np.random.default_rng(3)
    Mfloor = rng.standard_normal((3, 3))
    Mfloor = Mfloor @ Mfloor.T
    prob = LmiProblem()
    X = prob.declare_var("X", 3, 3, kind="symmetric")
    g = prob.declare_scalar("g")
    prob.add_psd(MatExpr.of(X) - Mfloor, name="floor")
    prob.trace_leq(X, g)
    prob.minimize(g)
    conic = prob.compile()
    rep = solve(conic)
    assert rep.status == "Optimal"
    assign = conic.local_assign(rep.x)
    for blk in prob.blocks:
        value = blk.expr.value(assign) - blk.margin * np.eye(blk.expr.rows)
        assert min_eig(value) >= -1e-8
