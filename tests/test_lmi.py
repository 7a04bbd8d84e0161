import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structh2 import LmiProblem, MatExpr, UnboundedShape, block, min_eig, smat, solve, svec
from structh2.lmi import vecrow_to_svec


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
        rng = np.random.default_rng(1)
        d = 4
        M = rng.standard_normal((d, d))
        cols = M.reshape(-1, 1)
        assert np.allclose(vecrow_to_svec(cols, d)[:, 0], svec(0.5 * (M + M.T)))


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
        decoded = conic.decode(conic.encode(assign))
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

    def test_dump_writes_triplets(self, tmp_path):
        prob = LmiProblem()
        x = prob.declare_scalar("x")
        prob.add_psd(MatExpr.of(x) - np.eye(1))
        prob.minimize(x)
        conic = prob.compile()
        path = tmp_path / "conic.txt"
        conic.dump(path)
        text = path.read_text()
        assert "conic_form" in text and "psd_dims 1" in text


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
