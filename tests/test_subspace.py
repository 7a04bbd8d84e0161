import numpy as np
import pytest

from structh2 import (DimensionMismatch, EmptySubspace, contains, from_basis,
                      from_pattern, upsilon_constraints, upsilon_free_mask,
                      upsilon_member)

PATTERN = np.array([[1, 1, 0], [0, 1, 1]])


def test_from_pattern_basis_row_major():
    spec = from_pattern(PATTERN)
    assert spec.k == 4
    expected_positions = [(0, 0), (0, 1), (1, 1), (1, 2)]
    for S, (i, j) in zip(spec.basis, expected_positions):
        ref = np.zeros((2, 3))
        ref[i, j] = 1.0
        assert np.array_equal(S, ref)
    assert spec.repmat.shape == (2, 12)
    assert np.array_equal(spec.repmat, np.hstack(spec.basis))


def test_all_ones_spans_everything():
    spec = from_pattern(np.ones((2, 2)))
    assert spec.k == 4
    rng = np.random.default_rng(0)
    assert contains(spec, rng.standard_normal((2, 2)))


def test_empty_pattern_rejected():
    with pytest.raises(EmptySubspace):
        from_pattern(np.zeros((2, 2)))


def test_contains_pattern_cases():
    spec = from_pattern(PATTERN)
    K = np.array([[1.0, -2.0, 0.0], [0.0, 0.5, 3.0]])
    assert contains(spec, K)
    K_bad = K.copy()
    K_bad[0, 2] = 0.5
    assert not contains(spec, K_bad)
    with pytest.raises(DimensionMismatch):
        contains(spec, np.ones((3, 3)))


def test_contains_span_construction():
    rng = np.random.default_rng(1)
    spec = from_pattern(PATTERN)
    for _ in range(10):
        coef = rng.standard_normal(spec.k)
        K = sum(a * S for a, S in zip(coef, spec.basis))
        assert contains(spec, K)


def test_from_basis_general_subspace():
    S1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    S2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = from_basis([S1, S2])
    assert spec.pattern is None
    assert contains(spec, 2.0 * S1 - 3.0 * S2)
    assert not contains(spec, np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="dependent"):
        from_basis([S1, 2.0 * S1])


class TestUpsilon:
    def test_identity_pair_satisfies(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            pat = (rng.uniform(size=(2, 4)) < 0.5).astype(int)
            if pat.sum() == 0:
                pat[0, 0] = 1
            spec = from_pattern(pat)
            assert contains(upsilon_constraints(spec), np.eye(4), 0.0)

    def test_elimination_forces_expected_zeros(self):
        # row-support elimination of the example pattern zeroes exactly
        # (1,3), (2,1), (2,3), (3,1) and nothing else
        spec = from_pattern(PATTERN)
        mask = upsilon_free_mask(spec)
        assert np.array_equal(mask, np.array([[1, 1, 0],
                                              [0, 1, 0],
                                              [0, 1, 1]], dtype=bool))

    def test_free_mask_consistent_with_membership(self):
        rng = np.random.default_rng(3)
        spec = from_pattern(PATTERN)
        mask = upsilon_free_mask(spec)
        for _ in range(20):
            Q = rng.standard_normal((3, 3)) * mask
            assert upsilon_member(spec, Q)

    def test_membership_cases(self):
        spec = from_pattern(PATTERN)
        assert upsilon_member(spec, np.eye(3))
        Q = np.zeros((3, 3))
        Q[1, 0] = 1.0
        assert not upsilon_member(spec, Q)

    def test_diagonal_q_with_matching_lambda(self):
        # S_l Q = Q[j_l, j_l] S_l for the column j_l of each pattern basis
        # element, so every diagonal Q is a member
        rng = np.random.default_rng(4)
        for trial in range(5):
            pat = (rng.uniform(size=(3, 3)) < 0.6).astype(int)
            if pat.sum() == 0:
                pat[0, 0] = 1
            spec = from_pattern(pat)
            Q = np.diag(rng.standard_normal(3))
            assert upsilon_member(spec, Q)

    @pytest.mark.parametrize("case", ["pattern", "equal_rows", "rotated"])
    def test_subspace_agrees_with_membership(self, case):
        rng = np.random.default_rng(6)
        if case == "pattern":
            spec = from_pattern(PATTERN)
        elif case == "equal_rows":
            # S R keeps equal rows for every R, so Upsilon(S) is all of R^{2x2}
            spec = from_basis([np.array([[1.0, 0.0], [1.0, 0.0]]),
                               np.array([[0.0, 1.0], [0.0, 1.0]])])
        else:
            U = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            spec = from_basis([U @ S @ V for S in from_pattern(PATTERN).basis])
        ups = upsilon_constraints(spec)
        assert (ups.m, ups.n) == (spec.n, spec.n)
        if case == "pattern":
            assert np.array_equal(ups.pattern, upsilon_free_mask(spec))
        if case == "equal_rows":
            assert ups.k == 4
        for _ in range(10):
            R = sum(a * B for a, B in zip(rng.standard_normal(ups.k), ups.basis))
            assert upsilon_member(spec, R)
            Z = rng.standard_normal((spec.n, spec.n))
            Z -= ups.project(Z)
            if ups.k < spec.n ** 2:
                assert not upsilon_member(spec, Z / np.linalg.norm(Z))

    def test_closure_property(self):
        # membership of L plus the coupling on R force L R^{-1} back into
        # the subspace whenever R is well conditioned
        rng = np.random.default_rng(5)
        total = 0
        for pat in (PATTERN, np.array([[1, 0, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1]])):
            spec = from_pattern(pat)
            mask = upsilon_free_mask(spec)
            n = spec.n
            checked = 0
            while checked < 500:
                coef = rng.standard_normal(spec.k)
                L = sum(a * S for a, S in zip(coef, spec.basis))
                R = rng.standard_normal((n, n)) * mask
                if np.linalg.cond(R) >= 1e6:
                    continue
                assert upsilon_member(spec, R, tol=1e-9)
                K = np.linalg.solve(R.T, L.T).T
                assert contains(spec, K, 1e-7)
                checked += 1
            total += checked
        assert total == 1000

    def test_free_mask_needs_pattern(self):
        spec = from_basis([np.eye(2)])
        with pytest.raises(ValueError):
            upsilon_free_mask(spec)
