import numpy as np
import pytest

from structh2 import (DesignOptions, PerformanceSpec, PlantPair, VerificationReport,
                      default_perf, design_data, h2_norm, verify_data, verify_model)

K_BENCH = np.array([[0.5359, 0.1875, 0.0],
                      [0.0, -0.6245, 0.2226]])


class TestVerifyModel:
    def test_benchmark_gain(self, plant, perf, subspace):
        report = verify_model(plant, perf, K_BENCH, subspace=subspace)
        assert report.stable
        assert report.structure_ok
        assert report.ok
        assert report.h2 == pytest.approx(
            h2_norm(plant.A + plant.B @ K_BENCH, perf.E,
                    perf.C + perf.D @ K_BENCH), rel=1e-12)

    def test_zero_gain(self, plant, perf):
        report = verify_model(plant, perf, np.zeros((2, 3)))
        assert report.stable
        assert report.h2 == pytest.approx(h2_norm(plant.A, perf.E, perf.C), rel=1e-12)

    def test_unstable_loop_flagged(self):
        plant = PlantPair(A=[[2.0]], B=[[0.0]])
        perf = PerformanceSpec(C=[[1.0]], D=[[0.0]], E=[[1.0]])
        report = verify_model(plant, perf, [[0.0]])
        assert not report.stable
        assert report.unstable
        assert report.h2 is None
        assert not report.ok

    def test_marginal_loop_flagged(self):
        # spectral radius 1 - 1e-10 lies inside the stability margin of the
        # Lyapunov solve: a violation to report, not an exception
        plant = PlantPair(A=(1.0 - 1e-10) * np.eye(2), B=np.eye(2))
        report = verify_model(plant, default_perf(2, 2), np.zeros((2, 2)))
        assert not report.stable
        assert report.unstable
        assert report.h2 is None
        assert report.violations == ["closed loop is not Schur stable"]

    def test_structure_violation_detected(self, plant, perf, subspace):
        K = K_BENCH.copy()
        K[0, 2] = 0.3
        report = verify_model(plant, perf, K, subspace=subspace)
        assert not report.structure_ok
        assert not report.ok

    def test_sharing_check(self, plant, perf):
        K = np.array([[1.0, 0.5, 0.0], [-1.0, -0.5, 0.0]])
        assert verify_model(plant, perf, K, sharing=True).sharing_ok
        K[1, 0] = 0.0
        assert not verify_model(plant, perf, K, sharing=True).sharing_ok


@pytest.fixture(scope="module")
def certified(perf, subspace, batch):
    res = design_data(batch, perf, DesignOptions(design="D4", subspace=subspace))
    assert res.status == "Optimal"
    return res


class TestVerifyData:
    def test_zero_violations_on_certificate(self, plant, perf, subspace, batch, certified):
        report = verify_data(batch, perf, certified.K, certified.gamma,
                             samples=200, seed=5, subspace=subspace, truth=plant)
        assert report.ok
        assert report.samples_checked == 200
        assert report.worst_case_h2 <= certified.gamma * (1 + 1e-4)

    def test_halved_gamma_fails(self, perf, subspace, batch, certified):
        report = verify_data(batch, perf, certified.K, certified.gamma / 2,
                             samples=200, seed=5, subspace=subspace)
        assert not report.ok
        assert report.violations

    def test_no_samples_membership_only(self, plant, perf, batch, certified):
        report = verify_data(batch, perf, certified.K, certified.gamma,
                             samples=0, seed=5, truth=plant)
        assert report.worst_case_h2 is None
        assert report.samples_checked == 0
        assert report.ok

    def test_deterministic(self, perf, batch, certified):
        r1 = verify_data(batch, perf, certified.K, certified.gamma, samples=60, seed=9)
        r2 = verify_data(batch, perf, certified.K, certified.gamma, samples=60, seed=9)
        assert r1.to_json() == r2.to_json()

    def test_worst_case_dominates_samples(self, perf, batch, certified):
        report = verify_data(batch, perf, certified.K, certified.gamma,
                             samples=80, seed=3)
        assert report.worst_case_h2 >= report.h2 - 1e-12


class TestReportSerialization:
    def test_json_round_trip(self, plant, perf):
        report = verify_model(plant, perf, np.zeros((2, 3)))
        again = VerificationReport.from_json(report.to_json())
        assert again == report

    def test_unstable_sentinel_is_null(self):
        plant = PlantPair(A=[[2.0]], B=[[0.0]])
        perf = PerformanceSpec(C=[[1.0]], D=[[0.0]], E=[[1.0]])
        text = verify_model(plant, perf, [[0.0]]).to_json()
        import json

        doc = json.loads(text)
        assert doc["h2"] is None
        assert doc["unstable"] is True
