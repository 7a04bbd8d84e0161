import tracemalloc

import numpy as np
import pytest

from structh2 import (DesignOptions, PerformanceSpec, PlantPair, UnstableMatrix,
                      VerificationReport, contains, default_perf, design_data,
                      design_model, h2_norm, sample_consistent, simulate,
                      spectral_radius, verify_data, verify_model)

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


def reference_report(batch, perf, K, gamma, samples, seed, subspace=None):
    """verify_data written as a loop over the sampled plants, one 2-D
    h2_norm call each."""
    n_boundary = (samples + 1) // 2
    plants = list(sample_consistent(batch, n_boundary, mode="boundary", seed=seed))
    plants += list(sample_consistent(batch, samples - n_boundary, mode="interior",
                                     seed=seed + 1))
    violations, worst, unstable = [], None, False
    for idx, p in enumerate(plants):
        try:
            val = h2_norm(p.A + p.B @ K, perf.E, perf.C + perf.D @ K)
        except UnstableMatrix:
            unstable = True
            violations.append(f"sample {idx}: closed loop unstable")
            continue
        worst = val if worst is None else max(worst, val)
        if val > gamma * (1.0 + 1e-4):
            violations.append(f"sample {idx}: h2 {val:.6f} exceeds gamma {gamma:.6f}")
    structure_ok = subspace is None or contains(subspace, K, 1e-6)
    if not structure_ok:
        violations.append("gain left the required subspace (tol 1e-6)")
    return VerificationReport(stable=not unstable, h2=worst, structure_ok=structure_ok,
                              sharing_ok=True, worst_case_h2=worst,
                              samples_checked=len(plants), unstable=unstable,
                              violations=violations)


@pytest.fixture(scope="module")
def random_case():
    """A random (4, 2) plant whose wide consistency set (eps = 0.5) holds
    plants that the true plant's D1 gain leaves unstable or above gamma."""
    rng = np.random.default_rng(0)
    n, m = 4, 2
    A = rng.standard_normal((n, n))
    A *= 1.05 / spectral_radius(A)
    plant = PlantPair(A=A, B=rng.standard_normal((n, m)))
    perf = default_perf(n, m)
    batch, _ = simulate(plant, np.zeros(n), None, 0.5, seed=0, exponent=2, T=4 * (n + m))
    res = design_model(plant, perf, DesignOptions(design="D1"))
    assert res.status == "Optimal"
    return batch, perf, res.K, res.gamma


class TestStackedVerifyData:
    @pytest.mark.parametrize("samples", [200, 7])
    def test_example1_matches_reference(self, perf, subspace, batch, certified, samples):
        for gamma in (certified.gamma, certified.gamma / 2):
            report = verify_data(batch, perf, certified.K, gamma, samples=samples, seed=5,
                                 subspace=subspace)
            ref = reference_report(batch, perf, certified.K, gamma, samples, 5, subspace)
            assert report.to_json() == ref.to_json()
        assert report.violations and not report.unstable

    def test_random_plant_matches_reference(self, random_case):
        batch, perf, K, gamma = random_case
        report = verify_data(batch, perf, K, gamma, samples=200, seed=0)
        assert report.to_json() == reference_report(batch, perf, K, gamma, 200, 0).to_json()
        kinds = {v.split(": ")[1].split()[0] for v in report.violations}
        assert kinds == {"closed", "h2"}        # unstable and above-gamma samples

    def test_memory_bounded_at_n12(self):
        # the doubling holds O(n^2) per sampled plant; a Kronecker solve of
        # all 200 144x144 systems at once would hold 33 MB
        rng = np.random.default_rng(0)
        n, m = 12, 6
        A = rng.standard_normal((n, n))
        A *= 0.7 / spectral_radius(A)
        plant = PlantPair(A=A, B=rng.standard_normal((n, m)))
        batch, _ = simulate(plant, np.zeros(n), None, 0.02, seed=0, exponent=2,
                            T=4 * (n + m))
        perf, K = default_perf(n, m), np.zeros((m, n))
        batch.psi
        tracemalloc.start()
        try:
            report = verify_data(batch, perf, K, 100.0, samples=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples_checked == 200 and report.ok
        assert peak < 16 * 2 ** 20


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
