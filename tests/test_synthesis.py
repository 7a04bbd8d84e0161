import numpy as np
import pytest

import kernel_repro

from structh2 import (DesignOptions, PerformanceSpec, PlantPair, SingularInnerBlock,
                      UnstableClosedLoop, certify_fixed_k, consistency, contains,
                      design_data, design_model, h2_norm, infeasibility_residual,
                      simulate, slemma_holds, spectral_radius, verify_data)
from structh2.plants import EXAMPLE1_X0, default_perf
from structh2.subspace import from_pattern

TABLE_MODEL = {"D1": 2.1537, "D2": 3.5658, "D3": 3.0089, "D4": 2.9794}

# a known-good structured gain for the benchmark plant
K_BENCH = np.array([[0.5359, 0.1875, 0.0],
                      [0.0, -0.6245, 0.2226]])


def opts_for(design, subspace, **kw):
    return DesignOptions(design=design,
                         subspace=None if design == "D1" else subspace, **kw)


class TestDesignModel:
    @pytest.mark.parametrize("design", ["D1", "D2", "D3", "D4"])
    def test_benchmark_values(self, plant, perf, subspace, design):
        res = design_model(plant, perf, opts_for(design, subspace))
        assert res.status == "Optimal"
        assert res.gamma == pytest.approx(TABLE_MODEL[design], rel=0.01)

    def test_certificate_matrices_consistent(self, plant, perf, subspace):
        res = design_model(plant, perf, opts_for("D4", subspace))
        assert np.allclose(res.K, np.linalg.solve(res.R.T, res.L.T).T)
        assert contains(subspace, res.K, 1e-6)
        # the certified bound really bounds the closed loop
        h2 = h2_norm(plant.A + plant.B @ res.K, perf.E, perf.C + perf.D @ res.K)
        assert h2 <= res.gamma + 1e-6

    def test_scalar_unstructured(self):
        # integrator with direct input cost: any nonzero gain only adds cost
        plant = PlantPair(A=[[0.0]], B=[[1.0]])
        perf = PerformanceSpec(C=[[1.0], [0.0]], D=[[0.0], [1.0]], E=[[1.0]])
        res = design_model(plant, perf, DesignOptions(design="D1"))
        assert res.status == "Optimal"
        assert res.gamma == pytest.approx(1.0, abs=0.01)
        assert abs(res.K[0, 0]) <= 0.05

    def test_design_nesting(self, plant, perf, subspace):
        gams = {d: design_model(plant, perf, opts_for(d, subspace)).gamma
                for d in ("D1", "D2", "D3", "D4")}
        assert gams["D1"] <= gams["D4"] * (1 + 1e-4)
        assert gams["D4"] <= gams["D3"] * (1 + 1e-4)
        assert gams["D3"] <= gams["D2"] * (1 + 1e-4)

    def test_d4_declares_r_in_upsilon(self, plant, perf, subspace):
        # R ranges over Upsilon(S) directly, with no multiplier: 6 free
        # entries of P, 5 of R, 4 of L and 15 of Q
        res = design_model(plant, perf, opts_for("D4", subspace))
        assert res.conic.n_reduced == 30

    @pytest.mark.parametrize("mode", ["model", "data"])
    def test_minimizes_the_trace_of_q(self, plant, perf, subspace, batch, mode):
        # no gamma^2 variable and no trace row: c is 1 on Q's diagonal
        # entries and 0 elsewhere, and gamma is sqrt(tr Q), the objective
        opts = opts_for("D4", subspace)
        res = (design_model(plant, perf, opts) if mode == "model"
               else design_data(batch, perf, opts))
        assert res.status == "Optimal"
        conic = res.conic
        (Q,) = [v for v in conic.vars if v.name == "Q"]
        c = np.zeros(conic.n_reduced)
        c[Q.offset + Q.index[np.arange(Q.rows), np.arange(Q.rows)]] = 1.0
        assert np.array_equal(conic.c, c)
        assert "trace_bound" not in conic.block_names
        assert [v.name for v in conic.vars if v.nfree == 1] == ([] if mode == "model"
                                                                 else ["alpha", "beta"])
        assert res.gamma == np.sqrt(res.report.objective)
        assert res.gamma == pytest.approx(np.sqrt(np.trace(res.Q)), rel=1e-12)

    @pytest.mark.parametrize("design", ["D2", "D3", "D4"])
    def test_sharing_leaves_only_the_zero_gain(self, plant, perf, design):
        # each input owns one state, so 1^T L = 0 forces L = 0: the sharing
        # subspace is {0} and the design runs with K = 0 (iterations and
        # gammas re-recorded when the designs minimized tr Q, with no gamma^2
        # variable and no trace row)
        iterations, gamma = {"D2": (12, 4.742810712509068),
                             "D3": (11, 3.546056893545347),
                             "D4": (11, 3.363575043553341)}[design]
        spec = from_pattern(np.array([[1, 0, 0], [0, 1, 0]]))
        res = design_model(plant, perf, DesignOptions(design=design, subspace=spec,
                                                      sharing=True))
        assert res.status == "Optimal"
        assert res.report.iterations == iterations
        assert res.gamma == pytest.approx(gamma, rel=1e-9)
        assert np.array_equal(res.K, np.zeros((2, 3)))

    def test_fixed_gamma_feasibility(self, plant, perf):
        feasible = design_model(plant, perf, DesignOptions(design="D1", gamma=5.0))
        assert feasible.status == "Optimal"
        assert feasible.gamma == pytest.approx(5.0)
        infeasible = design_model(plant, perf, DesignOptions(design="D1", gamma=2.0))
        assert infeasible.status == "Infeasible"

    def test_sharing_on_dense_pattern(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3))
        A *= 0.6 / spectral_radius(A)
        B = rng.standard_normal((3, 2))
        plant = PlantPair(A=A, B=B)
        perf = default_perf(3, 2)
        spec = from_pattern(np.ones((2, 3)))
        res = design_model(plant, perf, DesignOptions(design="D4", subspace=spec,
                                                      sharing=True))
        assert res.status == "Optimal"
        assert np.abs(res.K.sum(axis=0)).max() <= 1e-6

    def test_subspace_required(self):
        with pytest.raises(ValueError):
            DesignOptions(design="D4")

    def test_sharing_needs_two_inputs(self):
        plant = PlantPair(A=[[0.5]], B=[[1.0]])
        perf = default_perf(1, 1)
        with pytest.raises(ValueError, match="two inputs"):
            design_model(plant, perf, DesignOptions(design="D1", sharing=True))

    def test_dimension_mismatch(self, plant):
        with pytest.raises(Exception):
            design_model(plant, default_perf(4, 2), DesignOptions(design="D1"))

    def test_general_basis_subspace(self):
        # coordinated gains: shared magnitude across both actuators
        rng = np.random.default_rng(9)
        A = rng.standard_normal((2, 2))
        A *= 0.5 / spectral_radius(A)
        B = rng.standard_normal((2, 2))
        plant = PlantPair(A=A, B=B)
        basis = [np.array([[1.0, 0.0], [1.0, 0.0]]),
                 np.array([[0.0, 1.0], [0.0, 1.0]])]
        from structh2.subspace import from_basis
        spec = from_basis(basis)
        res = design_model(plant, default_perf(2, 2),
                           DesignOptions(design="D4", subspace=spec))
        assert res.status == "Optimal"
        assert contains(spec, res.K, 1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_rotated_basis_d4(self, seed):
        # a pattern basis rotated as U S V has no pattern, so R ranges over
        # a computed null space; linearly dependent coupling rows here would
        # make the solver's p x p equality matrix singular (seeds 4 and 5)
        from scipy.stats import ortho_group
        from structh2 import from_basis, verify_model
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 4))
        A *= 0.95 / spectral_radius(A)
        B = rng.standard_normal((4, 2))
        pat = (rng.uniform(size=(2, 4)) < 0.6).astype(int)
        pat[0, 0] = pat[1, 1] = 1
        U = ortho_group.rvs(2, random_state=seed)
        V = ortho_group.rvs(4, random_state=seed + 50)
        spec = from_basis([U @ S @ V for S in from_pattern(pat).basis])
        plant, perf = PlantPair(A=A, B=B), default_perf(4, 2)
        res = design_model(plant, perf, DesignOptions(design="D4", subspace=spec))
        assert res.status == "Optimal"
        assert verify_model(plant, perf, res.K, subspace=spec).ok


class TestCertifyFixedK:
    def test_scalar_geometric(self):
        plant = PlantPair(A=[[0.5]], B=[[0.0]])
        perf = PerformanceSpec(C=[[1.0]], D=[[0.0]], E=[[1.0]])
        gamma = certify_fixed_k(plant, perf, [[0.0]])
        assert gamma == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-4)

    def test_benchmark_gain_certifies(self, plant, perf):
        true_h2 = h2_norm(plant.A + plant.B @ K_BENCH, perf.E,
                          perf.C + perf.D @ K_BENCH)
        gamma = certify_fixed_k(plant, perf, K_BENCH)
        assert np.isfinite(gamma)
        assert gamma >= true_h2 - 1e-3

    def test_matches_lyapunov_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            A *= rng.uniform(0.3, 0.9) / spectral_radius(A)
            B = rng.standard_normal((n, m))
            K = 0.1 * rng.standard_normal((m, n))
            if spectral_radius(A + B @ K) >= 0.95:
                continue
            plant = PlantPair(A=A, B=B)
            perf = default_perf(n, m)
            gamma = certify_fixed_k(plant, perf, K)
            h2 = h2_norm(A + B @ K, perf.E, perf.C + perf.D @ K)
            assert abs(gamma - h2) <= 1e-4 * (1.0 + gamma)

    def test_unstable_rejected(self):
        plant = PlantPair(A=[[2.0]], B=[[0.0]])
        perf = PerformanceSpec(C=[[1.0]], D=[[0.0]], E=[[1.0]])
        with pytest.raises(UnstableClosedLoop):
            certify_fixed_k(plant, perf, [[0.0]])


class TestDesignData:
    def test_structured_certificate(self, plant, perf, subspace, batch):
        res = design_data(batch, perf, opts_for("D4", subspace))
        assert res.status == "Optimal"
        assert contains(subspace, res.K, 1e-6)
        assert res.alpha > 0.0
        assert 0.0 < res.beta <= 1e-3          # beta sits near zero at optimality
        # data-driven certificate cannot beat the model-based structured optimum
        ref = design_model(plant, perf, opts_for("D4", subspace))
        assert res.gamma >= ref.gamma - 1e-4
        # and it bounds the true closed loop
        h2 = h2_norm(plant.A + plant.B @ res.K, perf.E, perf.C + perf.D @ res.K)
        assert h2 <= res.gamma + 1e-4 * (1.0 + res.gamma)

    def test_multiplier_magnitudes_reasonable(self, plant, perf, subspace):
        # reference solutions at this batch length put alpha near 10 and beta
        # near zero; realizations differ, so compare signs and orders only
        full, _ = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=7, exponent=2, T=20)
        res = design_data(full.prefix(6), perf, opts_for("D4", subspace))
        assert res.status == "Optimal"
        assert 0.1 <= res.alpha <= 1e3
        assert 0.0 < res.beta <= 1e-3

    def test_rank_deficient_warning(self, plant, perf):
        import warnings

        from structh2 import RankDeficientDataWarning

        short, _ = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=2, exponent=2, T=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            design_data(short, perf, DesignOptions(design="D1"))
        assert any(issubclass(w.category, RankDeficientDataWarning) for w in caught)

    def test_sharing_data_driven(self, plant, batch):
        perf = default_perf(3, 2)
        spec = from_pattern(np.ones((2, 3)))
        res = design_data(batch, perf, DesignOptions(design="D4", subspace=spec,
                                                     sharing=True))
        assert res.status == "Optimal"
        assert np.abs(res.K.sum(axis=0)).max() <= 1e-6


class TestSLemma:
    def test_optimal_certificates_pass(self, perf, subspace, batch):
        res = design_data(batch, perf, opts_for("D4", subspace))
        assert slemma_holds(res.P, res.R, res.L, res.alpha, res.beta,
                            batch.psi, perf.E)

    def test_inflated_multiplier_fails(self, perf, subspace, batch):
        res = design_data(batch, perf, opts_for("D4", subspace))
        assert not slemma_holds(res.P, res.R, res.L, 10.0 * res.alpha, res.beta,
                                batch.psi, perf.E)

    def test_tiny_block_diagonal_case(self):
        # everything at noise level: the check passes within its tolerance
        n, m = 2, 1
        P = 1e-8 * np.eye(n)
        R = P.copy()
        L = np.zeros((m, n))
        psi = np.zeros((2 * n + m, 2 * n + m))
        E = np.zeros((n, 1))
        assert slemma_holds(P, R, L, 0.0, 1e-9, psi, E)

    def test_singular_inner_block_rejected(self):
        n, m = 2, 1
        P = 2.0 * np.eye(n)
        R = 0.5 * np.eye(n)
        with pytest.raises(SingularInnerBlock):
            slemma_holds(P, R, np.zeros((m, n)), 1.0, 1e-9,
                         np.zeros((2 * n + m, 2 * n + m)), np.zeros((n, 1)))


class TestSoundnessOverConsistencySet:
    def test_sampled_plants_respect_certificate(self, plant, perf, subspace, batch):
        from structh2 import sample_consistent

        res = design_data(batch, perf, opts_for("D4", subspace))
        assert res.status == "Optimal"
        for p in sample_consistent(batch, 100, mode="boundary", seed=21):
            Acl = p.A + p.B @ res.K
            assert spectral_radius(Acl) < 1.0
            assert h2_norm(Acl, perf.E, perf.C + perf.D @ res.K) \
                <= res.gamma * (1.0 + 1e-4)

    def test_per_plant_lmi_blocks(self, perf, subspace, batch):
        # the recovered (P, R, L) certify the plant-dependent block at every
        # sampled consistent plant
        from structh2 import min_eig, sample_consistent

        res = design_data(batch, perf, opts_for("D4", subspace))
        E = perf.E
        for p in sample_consistent(batch, 50, mode="boundary", seed=22):
            ARBL = p.A @ res.R + p.B @ res.L
            blockmat = np.block([[res.P - E @ E.T, ARBL],
                                 [ARBL.T, res.R + res.R.T - res.P]])
            assert min_eig(blockmat) >= -1e-6


@pytest.mark.parametrize("design", ["D1", "D4"])
@pytest.mark.parametrize("seed", range(6))
def test_random_data_plant_is_decided(seed, design):
    # the random data-driven regime: spectral radius 1.05, a pattern of
    # density 0.6 with its diagonal forced, T = 4 (n + m)
    n, m = 4, 2
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 1.05 / spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = (rng.uniform(size=(m, n)) < 0.6).astype(int)
    pattern[np.arange(m), np.arange(m)] = 1
    batch, _ = simulate(PlantPair(A=A, B=B), np.zeros(n), None, 0.02, seed=seed,
                        exponent=2, T=4 * (n + m))
    perf = default_perf(n, m)
    spec = from_pattern(pattern)
    res = design_data(batch, perf, opts_for(design, spec))
    assert res.status in ("Optimal", "Infeasible")
    if res.status == "Infeasible":
        assert infeasibility_residual(res.conic, res.report.certificate) <= 1e-7
        return
    report = verify_data(batch, perf, res.K, res.gamma, samples=50, seed=seed,
                         subspace=None if design == "D1" else spec)
    assert report.ok, report.violations
    assert slemma_holds(res.P, res.R, res.L, res.alpha, res.beta, batch.psi, perf.E)


@pytest.mark.parametrize("n, m, seed, design", kernel_repro.cases(shapes=((6, 3), (8, 4))))
def test_repro_design_is_decided(n, m, seed, design):
    # the larger plants of the random data-driven repro (tests/kernel_repro.py),
    # 8 of whose 24 designs ended NumericalTrouble while Psi was solved in
    # its own units. Every Optimal certificate holds against the raw Psi
    # with the decoded alpha
    batch, perf, opts = kernel_repro.design(n, m, seed, design)
    res = design_data(batch, perf, opts)
    assert res.status in ("Optimal", "Infeasible")
    if res.status == "Infeasible":
        assert infeasibility_residual(res.conic, res.report.certificate) <= 1e-7
        return
    report = verify_data(batch, perf, res.K, res.gamma, samples=200, seed=0,
                         subspace=opts.subspace)
    assert report.ok, report.violations
    assert slemma_holds(res.P, res.R, res.L, res.alpha, res.beta, batch.psi, perf.E)


def test_large_data_driven_sharing_embedded():
    rng = np.random.default_rng(0)
    n, m = 12, 6
    A = rng.standard_normal((n, n))
    A *= 0.7 / spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = np.block([[np.ones((3, 2)), np.ones((3, 8)), np.zeros((3, 2))],
                        [np.zeros((3, 2)), np.ones((3, 8)), np.ones((3, 2))]]).astype(int)
    plant = PlantPair(A=A, B=B)
    perf = default_perf(n, m)
    spec = from_pattern(pattern)
    batch, _ = simulate(plant, np.zeros(n), None, 0.05, seed=3, exponent=2, T=50)
    res = design_data(batch, perf, DesignOptions(design="D4", subspace=spec, sharing=True))
    assert res.status == "Optimal"
    assert np.abs(res.K.sum(axis=0)).max() <= 1e-6
    assert np.abs(res.K[pattern == 0]).max() <= 1e-6
    h2 = h2_norm(plant.A + plant.B @ res.K, perf.E, perf.C + perf.D @ res.K)
    assert h2 <= res.gamma + 1e-4 * (1.0 + res.gamma)
    assert slemma_holds(res.P, res.R, res.L, res.alpha, res.beta, batch.psi, perf.E)
    report = verify_data(batch, perf, res.K, res.gamma, samples=50, seed=0,
                         subspace=spec, sharing=True)
    assert report.ok, report.violations
