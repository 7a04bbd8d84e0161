import json
import os

import numpy as np
import pytest

from structh2 import read_matrix_csv
from structh2.cli import main
from structh2.plants import EXAMPLE1_PATTERN

TABLE_MODEL = {"D1": 2.1537, "D2": 3.5658, "D3": 3.0089, "D4": 2.9794}


def write_cfg(path, **cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


class TestSimulate:
    def test_writes_batch_and_residual(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", plant="example1",
                        noise={"eps": 0.1, "T": 20, "seed": 1, "exponent": 2},
                        data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "T=20" in out and "eps=0.1" in out and "residual=0" in out
        for name in ("xminus.csv", "uminus.csv", "xplus.csv", "noise.json"):
            assert (tmp_path / "batch" / name).exists()
        # a ball model is stored as noise.json alone, without its (n+T)^2 Phi
        assert not (tmp_path / "batch" / "phi.csv").exists()

    def test_noiseless_residual_prints_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", plant="example1",
                        noise={"eps": 0.0, "T": 5, "seed": 1},
                        data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", cfg]) == 0
        assert "residual=0" in capsys.readouterr().out

    def test_rerun_bit_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg = write_cfg(tmp_path / f"{sub}.json", plant="example1",
                            noise={"eps": 0.1, "T": 20, "seed": 5},
                            data_dir=str(tmp_path / sub))
            assert main(["simulate", "--config", cfg]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_zero_length_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", plant="example1", noise={"T": 0})
        assert main(["simulate", "--config", cfg]) == 2
        assert "T must be >= 1" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 2

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {tmp_path}: could not read: "), err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"plant": "example1", "data_dir": "b\xe9"}')
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: could not read: "), err

    @pytest.mark.parametrize("text", ["[]", "3", "null"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: expected a JSON object, got {text}"), err


class TestDesign:
    def test_model_designs_match_benchmark(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", plant="example1",
                        designs=["D1", "D2", "D3", "D4"],
                        output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", cfg]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("design=")]
        assert len(lines) == 4
        for line in lines:
            fields = dict(kv.split("=") for kv in line.split())
            assert fields["status"] == "Optimal"
            assert float(fields["gamma"]) == pytest.approx(
                TABLE_MODEL[fields["design"]], rel=0.01)
        for d in TABLE_MODEL:
            assert (tmp_path / "out" / d / "k.csv").exists()
            doc = json.loads((tmp_path / "out" / d / "result.json").read_text())
            assert doc["status"] == "Optimal"

    def test_data_design_respects_pattern(self, tmp_path):
        sim = write_cfg(tmp_path / "sim.json", plant="example1",
                        noise={"eps": 0.1, "T": 20, "seed": 1, "exponent": 2},
                        data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", sim]) == 0
        cfg = write_cfg(tmp_path / "c.json", plant="example1", designs=["D4"],
                        mode="data", data_dir=str(tmp_path / "batch"),
                        output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", cfg]) == 0
        K = read_matrix_csv(tmp_path / "out" / "D4" / "k.csv")
        assert np.abs(K[EXAMPLE1_PATTERN == 0]).max() <= 1e-6

    def test_all_infeasible_exit_code(self, tmp_path, capsys):
        sim = write_cfg(tmp_path / "sim.json", plant="example1",
                        noise={"eps": 0.15, "T": 20, "seed": 0, "exponent": 2},
                        data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", sim]) == 0
        cfg = write_cfg(tmp_path / "c.json", plant="example1", designs=["D2"],
                        mode="data", data_dir=str(tmp_path / "batch"),
                        output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", cfg]) == 3
        assert "status=Infeasible" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "D2" / "result.json").read_text())
        assert doc["certificate_residual"] <= 1e-7

    def test_design_flag_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", plant="example1",
                        designs=["D1", "D2", "D3", "D4"],
                        output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", cfg, "--design", "D1"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("design=")]
        assert len(lines) == 1


class TestFlagOverrides:
    """Each command-line override writes what the same value in the config
    writes, and differs from what the config alone writes."""

    @pytest.mark.parametrize("flag, value, config", [
        ("--seed", "3", {"noise": {"eps": 0.1, "T": 20, "seed": 3}}),
        ("--exponent", "2", {"noise": {"eps": 0.1, "T": 20, "seed": 1, "exponent": 2}}),
        ("--plant", "example1", {"plant": "example1"}),
    ])
    def test_simulate_flag_matches_config(self, tmp_path, flag, value, config):
        (tmp_path / "a.csv").write_text("0.5,0\n0,0.5\n")
        (tmp_path / "b.csv").write_text("1,0\n0,1\n")
        base = {"plant": {"a": str(tmp_path / "a.csv"), "b": str(tmp_path / "b.csv")},
                "noise": {"eps": 0.1, "T": 20, "seed": 1}}
        if flag != "--plant":
            base["plant"] = "example1"
        runs = {"flag": ({**base, "data_dir": str(tmp_path / "flag")}, [flag, value]),
                "config": ({**base, **config, "data_dir": str(tmp_path / "config")}, []),
                "base": ({**base, "data_dir": str(tmp_path / "base")}, [])}
        for name, (cfg, extra) in runs.items():
            path = write_cfg(tmp_path / f"{name}.json", **cfg)
            assert main(["simulate", "--config", path] + extra) == 0
        flagged = read_tree(tmp_path / "flag")
        assert flagged == read_tree(tmp_path / "config")
        assert flagged != read_tree(tmp_path / "base")

    def test_eta_flag_matches_config(self, tmp_path):
        for name, cfg, extra in (("flag", {}, ["--eta", "0.01"]), ("config", {"eta": 0.01}, [])):
            path = write_cfg(tmp_path / f"{name}.json", plant="example1", designs=["D1"],
                             output_dir=str(tmp_path / name), **cfg)
            assert main(["design", "--config", path] + extra) == 0
        assert json.loads((tmp_path / "flag" / "D1" / "result.json").read_text())["eta"] == 0.01
        assert read_tree(tmp_path / "flag") == read_tree(tmp_path / "config")

    def test_unknown_design_flag(self, tmp_path, capsys):
        path = write_cfg(tmp_path / "c.json", plant="example1", output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", path, "--design", "D9"]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown design 'D9'")


class TestDesignSharing:
    def test_sharing_summary_line(self, tmp_path, capsys):
        import numpy as rnp

        from structh2 import write_matrix_csv

        rng = rnp.random.default_rng(6)
        A = rng.standard_normal((3, 3))
        A *= 0.6 / max(abs(rnp.linalg.eigvals(A)))
        B = rng.standard_normal((3, 2))
        write_matrix_csv(tmp_path / "a.csv", A)
        write_matrix_csv(tmp_path / "b.csv", B)
        (tmp_path / "pat.csv").write_text("1,1,1\n1,1,1\n")
        cfg = write_cfg(tmp_path / "c.json",
                        plant={"a": str(tmp_path / "a.csv"), "b": str(tmp_path / "b.csv")},
                        pattern=str(tmp_path / "pat.csv"), designs=["D4"],
                        output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", cfg, "--sharing"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("design=")][0]
        fields = dict(kv.split("=") for kv in line.split())
        assert float(fields["colsum_max"]) <= 1e-6
        K = read_matrix_csv(tmp_path / "out" / "D4" / "k.csv")
        assert abs(K.sum(axis=0)).max() <= 1e-6


class TestSweep:
    def test_eps_sweep_table_shape(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", plant="example1",
                        designs=["D1", "D4"],
                        noise={"T": 20, "seed": 1, "exponent": 2},
                        sweep={"eps": [0.05, 0.1], "T": [20]},
                        output_dir=str(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == 0
        table = (tmp_path / "out" / "table.csv").read_text().splitlines()
        assert table[0] == "design,model,eps=0.05,eps=0.1"
        assert len(table) == 3
        d1 = table[1].split(",")
        assert float(d1[1]) == pytest.approx(TABLE_MODEL["D1"], rel=0.01)

    def test_prefix_reuse_in_t_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", plant="example1", designs=["D4"],
                        noise={"eps": 0.1, "seed": 1, "exponent": 2},
                        sweep={"eps": [0.1], "T": [6, 10, 20]},
                        output_dir=str(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == 0
        long = read_matrix_csv(tmp_path / "out" / "batches" / "T_20" / "xminus.csv")
        short = read_matrix_csv(tmp_path / "out" / "batches" / "T_6" / "xminus.csv")
        assert np.array_equal(short, long[:, :6])
        up_long = read_matrix_csv(tmp_path / "out" / "batches" / "T_20" / "uminus.csv")
        up_short = read_matrix_csv(tmp_path / "out" / "batches" / "T_6" / "uminus.csv")
        assert np.array_equal(up_short, up_long[:, :6])

    def test_single_cell_grid(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", plant="example1", designs=["D4"],
                        noise={"seed": 1, "exponent": 2},
                        sweep={"eps": [0.1], "T": [20]},
                        output_dir=str(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == 0
        table = (tmp_path / "out" / "table.csv").read_text().splitlines()
        assert len(table) == 2
        assert len(table[0].split(",")) == 3

    def test_both_axes_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", plant="example1",
                        sweep={"eps": [0.1, 0.2], "T": [10, 20]},
                        output_dir=str(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == 2


class TestVerify:
    def _design_then_verify(self, tmp_path, gamma_scale):
        sim = write_cfg(tmp_path / "sim.json", plant="example1",
                        noise={"eps": 0.1, "T": 20, "seed": 1, "exponent": 2},
                        data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", sim]) == 0
        des = write_cfg(tmp_path / "des.json", plant="example1", designs=["D4"],
                        mode="data", data_dir=str(tmp_path / "batch"),
                        output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", des]) == 0
        doc = json.loads((tmp_path / "out" / "D4" / "result.json").read_text())
        ver = write_cfg(tmp_path / "ver.json", plant="example1", mode="data",
                        data_dir=str(tmp_path / "batch"),
                        output_dir=str(tmp_path / "ver"),
                        verify={"k": str(tmp_path / "out" / "D4" / "k.csv"),
                                "gamma": doc["gamma"] * gamma_scale,
                                "samples": 150, "seed": 3})
        return main(["verify", "--config", ver])

    def test_roundtrip_passes(self, tmp_path):
        assert self._design_then_verify(tmp_path, 1.0) == 0
        report = json.loads((tmp_path / "ver" / "report.json").read_text())
        assert report["violations"] == []

    def test_halved_gamma_fails(self, tmp_path):
        assert self._design_then_verify(tmp_path, 0.5) == 4

    def test_missing_gain_file(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", plant="example1",
                        verify={"k": str(tmp_path / "nope.csv")},
                        output_dir=str(tmp_path / "out"))
        assert main(["verify", "--config", cfg]) == 2


class TestSweepVerifyInvariant:
    def test_every_optimal_cell_passes_verification(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", plant="example1", designs=["D1", "D4"],
                        noise={"T": 20, "seed": 4, "exponent": 2},
                        sweep={"eps": [0.1], "T": [20]},
                        output_dir=str(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == 0
        cell = tmp_path / "out" / "cells" / "eps_0.1"
        batch_dir = tmp_path / "out" / "batches" / "eps_0.1"
        for design in ("D1", "D4"):
            doc = json.loads((cell / design / "result.json").read_text())
            if doc["status"] != "Optimal":
                continue
            ver = write_cfg(tmp_path / f"v{design}.json", plant="example1",
                            mode="data", data_dir=str(batch_dir),
                            output_dir=str(tmp_path / f"ver{design}"),
                            verify={"k": str(cell / design / "k.csv"),
                                    "gamma": doc["gamma"], "samples": 100,
                                    "seed": 2,
                                    "structure": design != "D1"})
            assert main(["verify", "--config", ver]) == 0


def test_basis_file_subspace(tmp_path, capsys):
    # non-pattern subspace delivered through the basis CSV format
    basis_file = tmp_path / "basis.csv"
    basis_file.write_text("1,0\n1,0\n\n0,1\n0,1\n")
    import numpy as rnp
    rng = rnp.random.default_rng(12)
    A = rng.standard_normal((2, 2))
    A *= 0.5 / max(abs(rnp.linalg.eigvals(A)))
    B = rng.standard_normal((2, 2))
    from structh2 import write_matrix_csv
    write_matrix_csv(tmp_path / "a.csv", A)
    write_matrix_csv(tmp_path / "b.csv", B)
    cfg = write_cfg(tmp_path / "c.json",
                    plant={"a": str(tmp_path / "a.csv"), "b": str(tmp_path / "b.csv")},
                    basis=str(basis_file), designs=["D4"],
                    output_dir=str(tmp_path / "out"))
    assert main(["design", "--config", cfg]) == 0
    K = read_matrix_csv(tmp_path / "out" / "D4" / "k.csv")
    assert abs(K[0, 0] - K[1, 0]) <= 1e-6
    assert abs(K[0, 1] - K[1, 1]) <= 1e-6


class TestConfigErrors:
    def _plant_files(self, tmp_path):
        (tmp_path / "a.csv").write_text("0.5,0\n0,0.5\n")
        (tmp_path / "b.csv").write_text("1,0\n0,1\n")
        return {"a": str(tmp_path / "a.csv"), "b": str(tmp_path / "b.csv")}

    def _design_exit(self, tmp_path, capsys, **cfg):
        path = write_cfg(tmp_path / "c.json", designs=["D4"],
                         output_dir=str(tmp_path / "out"), **cfg)
        code = main(["design", "--config", path])
        return code, capsys.readouterr().err

    def test_structured_design_needs_a_subspace(self, tmp_path, capsys):
        # a plant from files has no pattern of its own
        code, err = self._design_exit(tmp_path, capsys, plant=self._plant_files(tmp_path))
        assert code == 2
        assert err.startswith("config error: D4 needs a 'pattern' or 'basis' in the config")

    def test_missing_pattern_file(self, tmp_path, capsys):
        code, err = self._design_exit(tmp_path, capsys, plant="example1",
                                      pattern=str(tmp_path / "nope.csv"))
        assert code == 2
        assert err.startswith("config error: pattern:")

    def test_dependent_basis(self, tmp_path, capsys):
        (tmp_path / "basis.csv").write_text("1,0\n0,0\n\n2,0\n0,0\n")
        code, err = self._design_exit(tmp_path, capsys, plant=self._plant_files(tmp_path),
                                      basis=str(tmp_path / "basis.csv"))
        assert code == 2
        assert err.startswith("config error: basis:")
        assert "linearly dependent" in err

    @pytest.mark.parametrize("row, what", [("1,x", "bad number"), ("1,0,0", "ragged row")])
    def test_malformed_basis_names_path_and_line(self, tmp_path, capsys, row, what):
        # a basis file reports a bad row as a matrix file does: its path and
        # line, here the first row of the second block
        path = tmp_path / "basis.csv"
        path.write_text(f"1,0\n0,1\n\n{row}\n0,0\n")
        code, err = self._design_exit(tmp_path, capsys, plant=self._plant_files(tmp_path),
                                      basis=str(path))
        assert code == 2
        assert err.startswith(f"config error: basis: {path}: {what} at line 4"), err

    def test_plant_without_b(self, tmp_path, capsys):
        plant = self._plant_files(tmp_path)
        del plant["b"]
        code, err = self._design_exit(tmp_path, capsys, plant=plant)
        assert code == 2
        assert err.startswith("config error: plant.b:")

    def test_non_string_path(self, tmp_path, capsys):
        code, err = self._design_exit(tmp_path, capsys, plant="example1", pattern=5)
        assert code == 2
        assert err.startswith("config error: pattern:")

    @pytest.mark.parametrize("key, cfg", [("solver.max_iter", {"solver": {"max_iter": "abc"}}),
                                          ("eta", {"eta": "x"}),
                                          ("gamma", {"gamma": "g"}),
                                          ("x0", {"x0": ["a", 0, 0]}),
                                          ("solver", {"solver": 3}),
                                          ("solver.max_iter", {"solver": {"max_iter": -1}}),
                                          ("solver.tol_feas", {"solver": {"tol_feas": -1}}),
                                          ("solver.tol_feas",
                                           {"solver": {"tol_feas": float("nan")}}),
                                          ("solver.tol_gap", {"solver": {"tol_gap": 0}}),
                                          ("eta", {"eta": float("nan")}),
                                          ("gamma", {"gamma": -1}),
                                          ("gamma", {"gamma": float("nan")})])
    def test_malformed_value(self, tmp_path, capsys, key, cfg):
        code, err = self._design_exit(tmp_path, capsys, plant="example1", **cfg)
        assert code == 2
        assert err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("command, key, cfg", [
        ("simulate", "noise.T", {"noise": {"T": 20.7}}),
        ("simulate", "noise.seed", {"noise": {"seed": 1.5}}),
        ("simulate", "noise.exponent", {"noise": {"exponent": 1.5}}),
        ("design", "solver.max_iter", {"designs": ["D4"], "solver": {"max_iter": 50.5}}),
        ("sweep", "sweep.T", {"sweep": {"eps": [0.1], "T": [10, 20.5]}}),
        ("verify", "verify.samples", {"verify": {"samples": 10.5}}),
        ("verify", "verify.seed", {"verify": {"seed": 0.5}}),
    ])
    def test_non_integral_int_key(self, tmp_path, capsys, command, key, cfg):
        # an integer key must not truncate a float: T = 20.7 is not T = 20
        err = self._number_key_exit(tmp_path, capsys, command, cfg)
        assert err.startswith(f"config error: {key}: expected an integer"), err

    @pytest.mark.parametrize("command, key, cfg, kind", [
        ("simulate", "noise.T", {"noise": {"T": True}}, "an integer"),
        ("simulate", "noise.seed", {"noise": {"seed": True}}, "an integer"),
        ("simulate", "noise.exponent", {"noise": {"exponent": True}}, "an integer"),
        ("simulate", "noise.eps", {"noise": {"eps": True}}, "a number"),
        ("design", "solver.max_iter", {"designs": ["D4"], "solver": {"max_iter": True}},
         "an integer"),
        ("sweep", "sweep.T", {"sweep": {"eps": [0.1], "T": [10, True]}}, "an integer"),
        ("verify", "verify.samples", {"verify": {"samples": True}}, "an integer"),
        ("verify", "verify.seed", {"verify": {"seed": False}}, "an integer"),
    ])
    def test_boolean_number_key(self, tmp_path, capsys, command, key, cfg, kind):
        # a JSON true is not the number 1: {"T": true} must not simulate T = 1
        err = self._number_key_exit(tmp_path, capsys, command, cfg)
        assert err.startswith(f"config error: {key}: expected {kind}"), err

    @pytest.mark.parametrize("command, key, cfg", [
        ("simulate", "noise.T", {"noise": {"T": 0}}),
        ("simulate", "noise.eps", {"noise": {"eps": -0.1}}),
        ("simulate", "noise.eps", {"noise": {"eps": float("nan")}}),
        ("simulate", "noise.exponent", {"noise": {"exponent": 3}}),
        ("simulate", "noise.seed", {"noise": {"seed": -1}}),
        ("sweep", "sweep.eps", {"sweep": {"eps": [-0.1], "T": [10]}}),
        ("sweep", "sweep.eps", {"sweep": {"eps": [0.1, float("inf")], "T": [10]}}),
        ("verify", "verify.samples", {"verify": {"samples": -5}}),
        ("verify", "verify.seed", {"verify": {"seed": -5}}),
        ("verify", "verify.gamma", {"verify": {"gamma": float("nan")}}),
        ("verify", "verify.gamma", {"verify": {"gamma": float("inf")}}),
        ("verify", "verify.gamma", {"verify": {"gamma": 0}}),
        ("verify", "verify.gamma", {"verify": {"gamma": -1}}),
    ])
    def test_out_of_range_value(self, tmp_path, capsys, command, key, cfg):
        # a value the library would reject (or, for samples < 0, silently
        # check nothing with) is a config error naming its key
        err = self._number_key_exit(tmp_path, capsys, command, cfg)
        assert err.startswith(f"config error: {key}: "), err

    @pytest.mark.parametrize("text", ['{"gamma": NaN}', '{"gamma": -1}'])
    def test_result_gamma_out_of_range(self, tmp_path, capsys, text):
        # a gamma read from verify.result is checked as verify.gamma is
        (tmp_path / "result.json").write_text(text)
        err = self._number_key_exit(tmp_path, capsys, "verify",
                                    {"verify": {"gamma": None, "result": "result.json"}})
        assert err.startswith("config error: verify.gamma: "), err

    def test_result_without_gamma(self, tmp_path, capsys):
        # a cell that did not end Optimal writes a null gamma: the error names
        # the result file and its status, not a missing key
        (tmp_path / "result.json").write_text(
            '{"design": "D4", "eta": 0.001, "gamma": null, "status": "Infeasible"}\n')
        err = self._number_key_exit(tmp_path, capsys, "verify",
                                    {"verify": {"gamma": None, "result": "result.json"}})
        assert err.startswith("config error: verify.result: "), err
        assert str(tmp_path / "result.json") in err
        assert "status 'Infeasible'" in err

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_sharing_needs_two_inputs(self, tmp_path, capsys, command):
        # 1^T K = 0 with one input leaves only K = 0: a config error, not a
        # traceback from inside the design
        (tmp_path / "a.csv").write_text("0.5,0.1\n0,0.5\n")
        (tmp_path / "b.csv").write_text("1\n0.5\n")
        path = write_cfg(tmp_path / "c.json", designs=["D1"], sharing=True,
                         plant={"a": str(tmp_path / "a.csv"), "b": str(tmp_path / "b.csv")},
                         sweep={"eps": [0.1], "T": [20]}, output_dir=str(tmp_path / "out"))
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sharing: "), err
        assert "at least two inputs" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["design", "verify"])
    @pytest.mark.parametrize("key, value", [("T", 20.5), ("exponent", 1.9), ("eps", True),
                                            ("eps", float("nan"))])
    def test_malformed_noise_json(self, tmp_path, capsys, command, key, value):
        # a saved batch whose noise.json was edited by hand: a config error,
        # not a truncated T or a traceback from inside the design
        (tmp_path / "k.csv").write_text("0,0,0\n0,0,0\n")
        sim = write_cfg(tmp_path / "sim.json", plant="example1", noise={"T": 20},
                        data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", sim]) == 0
        noise = tmp_path / "batch" / "noise.json"
        noise.write_text(json.dumps({**json.loads(noise.read_text()), key: value}))
        path = write_cfg(tmp_path / "c.json", plant="example1", mode="data", designs=["D4"],
                         data_dir=str(tmp_path / "batch"), output_dir=str(tmp_path / "out"),
                         verify={"gamma": 1.0, "k": str(tmp_path / "k.csv")})
        capsys.readouterr()
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: could not load batch: "), err
        assert key in err

    @pytest.mark.parametrize("x0", [[True, 0, 0], [[1, 0, 0]], [float("nan"), 0, 0]])
    def test_x0_flat_finite_numbers(self, tmp_path, capsys, x0):
        # a JSON true is not 1.0, and a nested list or a NaN is no initial state
        path = write_cfg(tmp_path / "c.json", plant="example1", x0=x0, noise={"T": 20},
                         data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: x0: expected a flat list of finite numbers"), err

    def _number_key_exit(self, tmp_path, capsys, command, cfg):
        """Run command on a data-mode example1 config with cfg merged in;
        asserts exit code 2 and returns stderr."""
        (tmp_path / "k.csv").write_text("0,0,0\n0,0,0\n")
        sim = write_cfg(tmp_path / "sim.json", plant="example1", noise={"T": 20},
                        data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", sim]) == 0
        cfg = {**cfg, "verify": {"gamma": 1.0, **cfg.get("verify", {}),
                                 "k": str(tmp_path / "k.csv")}}
        path = write_cfg(tmp_path / "c.json", plant="example1", mode="data",
                         data_dir=str(tmp_path / "batch"), output_dir=str(tmp_path / "out"),
                         **cfg)
        capsys.readouterr()
        assert main([command, "--config", path]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("command, key, cfg", [
        ("design", "sharing", {"sharing": "false"}),
        ("verify", "sharing", {"sharing": 0}),
        ("verify", "verify.structure", {"verify": {"structure": "false"}}),
    ])
    def test_boolean_key(self, tmp_path, capsys, command, key, cfg):
        # bool("false") is True: a flag must be a JSON boolean
        (tmp_path / "k.csv").write_text("0,0,0\n0,0,0\n")
        cfg = {**cfg, "verify": {**cfg.get("verify", {}), "k": str(tmp_path / "k.csv")}}
        path = write_cfg(tmp_path / "c.json", plant="example1", designs=["D4"],
                         output_dir=str(tmp_path / "out"), **cfg)
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: expected true or false"), err

    def test_integral_float_accepted(self, tmp_path, capsys):
        path = write_cfg(tmp_path / "c.json", plant="example1",
                         noise={"T": 20.0, "seed": 1.0, "exponent": 2.0},
                         data_dir=str(tmp_path / "batch"))
        assert main(["simulate", "--config", path]) == 0
        assert "T=20 " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_designs_must_be_a_list(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path / "c.json", plant="example1", designs="D4",
                         sweep={"eps": [0.1], "T": [10, 20]},
                         output_dir=str(tmp_path / "out"))
        assert main([command, "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error: designs: expected a list")
