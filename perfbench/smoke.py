"""Self-check of the benchmark at reduced size.

    python3 perfbench/smoke.py

Runs every workload with `--smoke` for one second, untraced and traced, and
asserts that each metric is printed with its unit and that the final JSON line
holds exactly the metrics BENCHMARK.json declares. Then it corrupts outputs of
a reduced pass in this process (a gamma, an S-procedure multiplier, an
infeasibility certificate, a result file) and asserts that the output checks
reject each one. Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import env

SEED = 3
# the metrics each run prints in its human-readable part, beyond those in
# its JSON line
PRINTED = {
    0: {"wall_s": "s", "design_s_p50": "s", "verify_samples_per_s": "1/s",
        "fail_frac": "ratio"},
    1: {"dataset.simulate_s": "s", "dataset.phi_ball_s": "s", "dataset.psi_s": "s",
        "dataset.save_s": "s", "dataset.load_s": "s", "dataset.sample_s": "s",
        "verification.verify_s": "s", "verification.samples": "count",
        "verification.samples_per_s": "1/s", "linalg.h2_norm_calls": "count",
        "linalg.h2_norm_s": "s", "cli.sweep_s": "s", "cli.verify_s": "s", "cli.self_s": "s",
        "subspace.k": "count", "lmi.G_nnz_frac": "ratio"},
}
NOT_EVERYWHERE = {"design_s_p50": ("long-record",),
                  "verify_samples_per_s": ("sharing12-model",)}


def run_workload(spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(env.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=env.ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n" \
        + proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, \
        set(result["metrics"]) ^ {m["name"] for m in declared}
    printed = {m["name"]: m["unit"] for m in declared}
    printed.update(PRINTED[trace])
    for name, unit in printed.items():
        if workload in NOT_EVERYWHERE.get(name, ()):
            continue
        pattern = rf"^{re.escape(name)} = \S+ {re.escape(unit)}  \(.*n=\d+"
        assert any(re.match(pattern, line) for line in lines), \
            f"{workload} trace {trace}: no line for {name} [{unit}] with a sample count"
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
    checked = re.search(r"^checks: (\d+) operations checked", proc.stdout, re.M)
    assert checked and int(checked.group(1)) == result["attempted"], "no checks line"
    return result


def corrupted_outputs_are_rejected():
    """Each corruption must turn a passing check into a failed operation."""
    env.fix_threads()
    env.import_library()
    import numpy as np
    import workloads
    from run import make_workload

    with open(env.ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    work = make_workload(workloads, "small-sdp", SEED, smoke=True)
    work.setup()
    ops = work.run_pass(None)
    work.check_pass(ops, reference["small-sdp"])
    assert not [op.error for op in ops if op.error], "clean pass failed its checks"

    def rejected(op, corrupt):
        saved = op.result
        op.result = type(saved)(**vars(saved))
        corrupt(op.result)
        op.error = None
        work.check_pass([op] + [o for o in ops if o is not op], reference["small-sdp"])
        op.result, error = saved, op.error
        op.error = None
        return error is not None

    model = next(op for op in ops if op.job == "model/D4")
    data = next(op for op in ops if op.kind == "design" and op.job.startswith("data/")
                and op.status == "Optimal")
    infeasible = next(op for op in ops if op.kind == "design" and op.status == "Infeasible")
    assert rejected(model, lambda r: setattr(r, "gamma", r.gamma * (1 - 2e-5))), "gamma"

    def off_pattern(r):
        r.K = r.K.copy()
        r.K[0, 2] += 1e-5       # a structural zero of the example1 pattern
    assert rejected(model, off_pattern), "gain off its pattern"
    assert rejected(data, lambda r: setattr(r, "alpha", 10.0 * r.alpha)), "S-lemma multiplier"

    def bad_certificate(r):
        cert = dict(r.report.certificate)
        cert["z"] = np.asarray(cert["z"]) + 1e-3
        r.report = type(r.report)(**{**vars(r.report), "certificate": cert})
    assert rejected(infeasible, bad_certificate), "infeasibility certificate"

    work = make_workload(workloads, "long-record", SEED, smoke=True)
    work.setup()
    try:
        ops = work.run_pass(None)
        work.check_pass(ops, reference["long-record"])
        assert not [op.error for op in ops if op.error], "clean long-record pass failed"
        cell = next(op for op in ops if op.kind == "design" and op.status == "Optimal"
                    and "/model/" not in op.job)
        T, d = cell.job.split("/")[1][1:], cell.job.split("/")[2]
        path = os.path.join(work.workdir, f"sweep/cells/T_{T}/{d}/result.json")
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
        doc["alpha"] *= 10.0
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        for op in ops:
            op.error = None
        work.check_pass(ops, reference["long-record"])
        assert cell.error and "S-lemma" in cell.error, "long-record S-lemma check"
    finally:
        work.cleanup()


def main():
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in ("small-sdp", "long-record", "sharing12-model"):
        for trace in (0, 1):
            result = run_workload(spec, workload, trace)
            print(f"ok  {workload} trace {trace}: {result['attempted']} operations checked",
                  flush=True)
    corrupted_outputs_are_rejected()
    print("ok  corrupted gamma, gain, multiplier, certificate and result file are rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
