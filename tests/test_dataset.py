import json
import os
import tracemalloc

import numpy as np
import pytest

from structh2 import (DataBatch, DimensionMismatch, EmptyInterior, NoiseModel,
                      PlantPair, PlantStack, RankDeficientData, assemble_psi, center_plant,
                      consistency, load_batch, min_eig, phi_ball,
                      sample_consistent, save_batch, simulate, write_matrix_csv)
from structh2.dataset import _psi_split, _sqrt_psd
from structh2.plants import EXAMPLE1_X0


class TestPhiBall:
    def test_benchmark_values(self):
        phi = phi_ball(3, 20, 0.1).phi
        assert np.array_equal(phi[:3, :3], 2.0 * np.eye(3))
        assert np.array_equal(phi[3:, 3:], -np.eye(20))
        assert np.array_equal(phi[:3, 3:], np.zeros((3, 20)))

    def test_single_sample(self):
        assert np.array_equal(phi_ball(4, 1, 1.0).phi[:4, :4], np.eye(4))

    def test_squared_bound(self):
        noise = phi_ball(3, 20, 0.1, exponent=2)
        assert np.allclose(noise.phi[:3, :3], 0.2 * np.eye(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_ball(3, 0, 0.1)
        with pytest.raises(ValueError):
            phi_ball(3, 5, -0.1)
        with pytest.raises(ValueError):
            phi_ball(3, 5, 0.1, exponent=3)
        # eps < 0 is false for a NaN, which then failed inside a design
        for eps in (float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="eps must be finite"):
                phi_ball(3, 5, eps)
        with pytest.raises(ValueError, match="exponent must be 1 or 2"):
            phi_ball(3, 5, 0.1, exponent=True)

    def test_noise_model_invariants(self):
        phi = np.zeros((3, 3))
        phi[0, 0] = -1.0       # Phi11 not PSD
        phi[1:, 1:] = -np.eye(2)
        with pytest.raises(ValueError):
            NoiseModel(phi=phi, n=1, T=2)
        phi = np.zeros((3, 3))  # -Phi22 not PD
        phi[0, 0] = 1.0
        with pytest.raises(ValueError):
            NoiseModel(phi=phi, n=1, T=2)

    @pytest.mark.parametrize("entry", [0.0, 1.0])
    def test_diagonal_phi22_checked_exactly(self, entry):
        phi = np.diag([1.0, -1.0, -2.0, entry])
        with pytest.raises(ValueError, match="Phi22"):
            NoiseModel(phi=phi, n=1, T=3)

    def test_phi_and_ball_bound_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            NoiseModel(phi=phi_ball(1, 2, 0.5).phi, n=1, T=2, eps=0.5, exponent=1)

    def test_nondiagonal_phi22_checked_by_eigenvalues(self):
        # every diagonal entry of Phi22 is negative, but its eigenvalues are
        # -3 and 1
        phi = np.zeros((3, 3))
        phi[0, 0] = 1.0
        phi[1:, 1:] = [[-1.0, 2.0], [2.0, -1.0]]
        with pytest.raises(ValueError, match="Phi22"):
            NoiseModel(phi=phi, n=1, T=2)
        phi[1:, 1:] = [[-2.0, 1.0], [1.0, -2.0]]
        assert NoiseModel(phi=phi, n=1, T=2).T == 2


class TestSimulate:
    def test_noiseless_exact(self, plant):
        batch, W = simulate(plant, EXAMPLE1_X0, None, 0.0, seed=3, T=10)
        assert np.abs(W).max() == 0.0
        assert np.abs(batch.xplus - (plant.A @ batch.xminus
                                     + plant.B @ batch.uminus)).max() == 0.0

    def test_data_equation_bitwise(self, plant):
        batch, W = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=3, T=20)
        resid = batch.xplus - (plant.A @ batch.xminus + plant.B @ batch.uminus + W)
        assert np.abs(resid).max() == 0.0

    def test_degenerate_dynamics(self):
        truth = PlantPair(A=np.zeros((3, 3)), B=np.zeros((3, 2)))
        batch, W = simulate(truth, [1.0, 0.0, 0.0], None, 0.5, seed=4, T=2)
        assert np.array_equal(batch.xminus[:, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(batch.xminus[:, 1], W[:, 0])

    def test_noise_stays_in_ball(self, plant):
        _, W = simulate(plant, EXAMPLE1_X0, None, 0.3, seed=5, T=10000)
        norms = np.linalg.norm(W, axis=0)
        assert norms.max() <= 0.3 + 1e-12
        assert norms.min() > 0.0          # interior points get exercised

    def test_sphere_mode(self, plant):
        _, W = simulate(plant, EXAMPLE1_X0, None, 0.3, seed=5, T=100, on_sphere=True)
        assert np.allclose(np.linalg.norm(W, axis=0), 0.3)

    def test_deterministic(self, plant):
        b1, w1 = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=6, T=15)
        b2, w2 = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=6, T=15)
        assert np.array_equal(b1.xplus, b2.xplus)
        assert np.array_equal(w1, w2)

    def test_bad_x0(self, plant):
        with pytest.raises(DimensionMismatch):
            simulate(plant, [1.0, 0.0], None, 0.1, seed=0, T=5)

    def test_qmi_soundness(self, plant):
        # the realized noise satisfies its own quadratic bound: exactly under
        # the squared form, and under the linear form whenever eps <= 1
        for eps, exponent in ((0.3, 2), (0.3, 1), (1.0, 1)):
            batch, W = simulate(plant, EXAMPLE1_X0, None, eps, seed=7,
                                exponent=exponent, T=25)
            stack = np.vstack([np.eye(3), W.T])
            qmi = stack.T @ batch.noise.phi @ stack
            assert min_eig(qmi) >= -1e-9


class TestPsi:
    def test_zero_data_block_structure(self):
        noise = phi_ball(2, 3, 0.5)
        batch = DataBatch(np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((2, 3)), noise)
        psi = batch.psi
        assert np.array_equal(psi[:2, :2], noise.phi[:2, :2])
        assert np.abs(psi[2:, :]).max() == 0.0
        assert np.abs(psi[:, 2:]).max() == 0.0

    def test_hand_computed_example(self):
        eps_bar = 0.5
        phi = np.array([[eps_bar, 0.0], [0.0, -1.0]])
        noise = NoiseModel(phi=phi, n=1, T=1)
        batch = DataBatch([[1.0]], [[1.0]], [[2.0]], noise)
        expect = np.array([[eps_bar - 4.0, 2.0, 2.0],
                           [2.0, -1.0, -1.0],
                           [2.0, -1.0, -1.0]])
        assert np.allclose(batch.psi, expect, atol=1e-14)

    @pytest.mark.parametrize("n, m, T, exponent", [(3, 2, 20, 2), (1, 1, 1, 1), (4, 3, 57, 1),
                                                 (6, 2, 300, 2)])
    def test_ball_psi_matches_dense_phi(self, n, m, T, exponent):
        # the ball model's column scaling gives M Phi M^T of the dense Phi bit
        # for bit
        rng = np.random.default_rng(n * 1000 + T)
        xm, um, xp = (rng.standard_normal((r, T)) for r in (n, m, n))
        ball = DataBatch(xm, um, xp, phi_ball(n, T, 0.37, exponent))
        dense = DataBatch(xm, um, xp, NoiseModel(phi=ball.noise.phi, n=n, T=T))
        assert dense.noise.eps is None
        assert np.array_equal(ball.psi, assemble_psi(dense))

    def test_congruence_recompute(self, batch):
        n, m, T = batch.n, batch.m, batch.T
        M = np.block([[np.eye(n), batch.xplus],
                      [np.zeros((n, n)), -batch.xminus],
                      [np.zeros((m, n)), -batch.uminus]])
        # same congruence, opposite association
        recomputed = M @ (batch.noise.phi @ M.T)
        assert np.abs(batch.psi - 0.5 * (recomputed + recomputed.T)).max() <= 1e-12 * (
            1.0 + np.abs(batch.psi).max())

    def test_truth_is_member(self, plant):
        for seed in range(5):
            b, _ = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=seed, exponent=2, T=20)
            assert consistency(b, plant) >= -1e-9
        b, _ = simulate(plant, EXAMPLE1_X0, None, 0.5, seed=0, exponent=1, T=15)
        assert consistency(b, plant) >= -1e-9

    def test_center_is_member(self, batch):
        assert consistency(batch, center_plant(batch)) >= -1e-9

    def test_far_plant_fails(self, batch, plant):
        far = PlantPair(A=1e3 * plant.A, B=plant.B)
        assert consistency(batch, far) < 0.0


class TestSampler:
    def test_boundary_margins(self, batch):
        plants = sample_consistent(batch, 100, mode="boundary", seed=11)
        margins = [consistency(batch, p) for p in plants]
        assert max(abs(m) for m in margins) <= 1e-6

    def test_interior_margins(self, batch):
        plants = sample_consistent(batch, 100, mode="interior", seed=12)
        assert min(consistency(batch, p) for p in plants) >= -1e-7

    def test_scaled_boundary_exits(self, batch):
        center = center_plant(batch)
        zc = np.vstack([center.A.T, center.B.T])
        for p in sample_consistent(batch, 20, mode="boundary", seed=13):
            z = np.vstack([p.A.T, p.B.T])
            z_out = zc + 1.01 * (z - zc)
            n = batch.n
            outside = PlantPair(A=z_out[:n, :].T, B=z_out[n:, :].T)
            assert consistency(batch, outside) < 0.0

    def test_rank_deficient_rejected(self, plant):
        b, _ = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=1, exponent=2, T=3)
        with pytest.raises(RankDeficientData):
            sample_consistent(b, 5, seed=0)
        with pytest.raises(RankDeficientData):
            center_plant(b)

    def test_empty_interior_rejected(self, batch):
        # an implausibly tight bound leaves no plant consistent
        tight = DataBatch(batch.xminus, batch.uminus, batch.xplus,
                          phi_ball(batch.n, batch.T, 1e-8, exponent=2))
        with pytest.raises(EmptyInterior):
            sample_consistent(tight, 5, seed=0)

    def test_mode_validation(self, batch):
        with pytest.raises(ValueError):
            sample_consistent(batch, 5, mode="edge", seed=0)

    @pytest.mark.parametrize("mode", ["boundary", "interior"])
    def test_matches_one_plant_at_a_time(self, batch, mode):
        # the formula the sampler stacks, one draw and one product per plant
        psi11, psi12, psi22 = _psi_split(batch)
        Zc = -np.linalg.solve(psi22, psi12.T)
        left = _sqrt_psd(np.linalg.inv(-psi22))
        right = _sqrt_psd(psi11 + psi12 @ Zc)
        rng = np.random.default_rng(4)
        plants = sample_consistent(batch, 30, mode=mode, seed=4)
        assert len(plants) == 30
        for p in plants:
            C = rng.standard_normal((batch.n + batch.m, batch.n))
            C /= np.linalg.svd(C, compute_uv=False)[0]
            if mode == "interior":
                C *= rng.uniform()
            Z = Zc + left @ C @ right
            assert np.array_equal(p.A, Z[:batch.n].T)
            assert np.array_equal(p.B, Z[batch.n:].T)

    def test_plant_stack_reads_like_a_list(self, batch):
        plants = sample_consistent(batch, 7, mode="interior", seed=3)
        assert isinstance(plants, PlantStack)
        assert len(plants) == 7
        assert plants.A.shape == (7, 3, 3) and plants.B.shape == (7, 3, 2)
        members = list(plants)
        assert len(members) == 7
        for i, p in enumerate(members):
            assert isinstance(p, PlantPair)
            assert np.array_equal(p.A, plants.A[i]) and np.array_equal(p.B, plants.B[i])
        assert np.array_equal(plants[-1].A, plants.A[6])
        head = plants[2:5]
        assert isinstance(head, PlantStack) and len(head) == 3
        assert np.array_equal(head.A, plants.A[2:5]) and np.array_equal(head.B, plants.B[2:5])
        assert len(sample_consistent(batch, 0, seed=3)) == 0

    @pytest.mark.parametrize("count", [-1, 2.5, True, "3", None])
    def test_count_must_be_an_integer(self, batch, count):
        # unchecked, -1 fails in numpy's "negative dimensions", 2.5 deeper
        # in numpy, and True draws one plant
        with pytest.raises(ValueError, match="^count must be an integer >= 0"):
            sample_consistent(batch, count, seed=3)
        assert len(sample_consistent(batch, np.int64(2), seed=3)) == 2


class TestDiskFormat:
    def test_round_trip_ball(self, batch, tmp_path):
        save_batch(batch, tmp_path / "b")
        again = load_batch(tmp_path / "b")
        assert np.array_equal(again.xminus, batch.xminus)
        assert np.array_equal(again.uminus, batch.uminus)
        assert np.array_equal(again.xplus, batch.xplus)
        assert np.array_equal(again.noise.phi, batch.noise.phi)
        assert again.noise.eps == batch.noise.eps
        assert os.path.exists(tmp_path / "b" / "noise.json")

    @pytest.mark.parametrize("key, value, message", [
        ("T", 20.5, "T: expected an integer"),
        ("T", True, "T: expected an integer"),
        ("T", "20", "T: expected an integer"),
        ("exponent", 1.9, "exponent: expected an integer"),
        ("exponent", True, "exponent: expected an integer"),
        ("eps", True, "eps: expected a number"),
        ("eps", float("nan"), "eps must be finite"),
        ("eps", float("inf"), "eps must be finite"),
        ("eps", None, "missing key 'eps'"),
    ])
    def test_noise_json_values_checked(self, batch, tmp_path, key, value, message):
        # int() truncated a T of 20.5 to 20 and float() read true as 1.0
        save_batch(batch, tmp_path / "b")
        path = tmp_path / "b" / "noise.json"
        doc = json.loads(path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as info:
            load_batch(tmp_path / "b")
        assert str(info.value).startswith(str(path))

    def test_noise_json_must_be_an_object(self, batch, tmp_path):
        save_batch(batch, tmp_path / "b")
        (tmp_path / "b" / "noise.json").write_text("[1]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_batch(tmp_path / "b")

    def test_noise_json_integral_floats_accepted(self, batch, tmp_path):
        save_batch(batch, tmp_path / "b")
        path = tmp_path / "b" / "noise.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "T": 20.0, "exponent": 2.0}))
        noise = load_batch(tmp_path / "b").noise
        assert (noise.T, noise.exponent) == (20, 2)
        assert np.array_equal(noise.phi, batch.noise.phi)

    def test_phi_csv_fallback(self, batch, tmp_path):
        save_batch(batch, tmp_path / "b")
        write_matrix_csv(tmp_path / "b" / "phi.csv", batch.noise.phi)
        os.remove(tmp_path / "b" / "noise.json")
        again = load_batch(tmp_path / "b")
        assert np.array_equal(again.noise.phi, batch.noise.phi)
        assert again.noise.eps is None

    def test_prefix_protocol(self, batch):
        short = batch.prefix(6)
        assert np.array_equal(short.xminus, batch.xminus[:, :6])
        assert np.array_equal(short.xplus, batch.xplus[:, :6])
        assert short.noise.T == 6
        assert np.allclose(short.noise.phi[:3, :3], 6 * 0.1 ** 2 * np.eye(3))
        with pytest.raises(ValueError):
            batch.prefix(0)

    def test_prefix_needs_ball_model(self, batch, tmp_path):
        save_batch(batch, tmp_path / "b")
        write_matrix_csv(tmp_path / "b" / "phi.csv", batch.noise.phi)
        os.remove(tmp_path / "b" / "noise.json")
        with pytest.raises(ValueError):
            load_batch(tmp_path / "b").prefix(5)

    def test_round_trip_user_phi(self, batch, tmp_path):
        noise = NoiseModel(phi=batch.noise.phi, n=batch.n, T=batch.T)
        save_batch(DataBatch(batch.xminus, batch.uminus, batch.xplus, noise), tmp_path / "b")
        assert not os.path.exists(tmp_path / "b" / "noise.json")
        again = load_batch(tmp_path / "b")
        assert np.array_equal(again.noise.phi, batch.noise.phi)
        assert np.array_equal(again.psi, batch.psi)

    def test_long_record_stays_linear_in_T(self, plant, tmp_path):
        # one dense (n+T)^2 Phi at T = 5000 would be 200 MB; the ball model
        # keeps the whole data path at O(T) memory
        T = 5000
        tracemalloc.start()
        try:
            batch, _ = simulate(plant, EXAMPLE1_X0, None, 0.1, seed=2, exponent=2, T=T)
            save_batch(batch, tmp_path / "b")
            again = load_batch(tmp_path / "b").prefix(T)
            psi = again.psi
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.shape == (8, 8)
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_column_count_validation(self):
        noise = phi_ball(2, 3, 0.5)
        with pytest.raises(DimensionMismatch):
            DataBatch(np.zeros((2, 3)), np.zeros((1, 4)), np.zeros((2, 3)), noise)
