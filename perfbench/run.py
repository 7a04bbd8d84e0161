"""struct-h2 benchmark: one workload in one process, a closed loop with one caller.

    python3 perfbench/run.py --workload small-sdp --seed 1 --seconds 50 --trace 0

Runs the workload's job list over and over for `--seconds`, checks every
output of every pass, prints each metric with its unit and sample count, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics, measured with no wrapper in
place. `--trace 1` alternates traced and untraced passes and reports the
per-layer split of the traced ones, plus the tracing overhead (median traced
pass minus median untraced pass); its spans go to
`.perfbench_out/spans-<workload>-seed<seed>.json`. `--smoke` shrinks every
job list for the self-check in `smoke.py`.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import env  # noqa: E402

SETUP_REPS = 5
# what this process imports before its first input build, timed in a fresh
# interpreter (argv[1] is perfbench/)
IMPORT_CODE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
               "import env; env.import_library(); import speed, spans, workloads; "
               "print(time.perf_counter() - t)")
END_TO_END = ("setup_s", "wall_norm", "peak_rss_mb", "success_frac")
# the per-layer metrics of the final JSON line: no time in it is zero on any
# workload. The layer times that only some workloads exercise, and the counts
# fixed by the job lists, are printed above it.
PER_LAYER = (
    "solver.solve_s", "solver.self_s", "solver.s_per_iter", "solver.iterations",
    "solver.lu_factor_calls", "solver.lu_factor_s", "solver.lu_solve_calls",
    "solver.lu_solve_s", "solver.factor_per_iter", "solver.kkt_dim_max",
    "solver.kkt_factor_bytes", "solver.optimal", "solver.infeasible",
    "solver.numerical_trouble", "solver.final_feas_max", "solver.final_gap_max",
    "synthesis.design_s", "synthesis.self_s", "subspace.upsilon_s", "lmi.compile_s",
    "lmi.n_full", "lmi.n_reduced", "lmi.eq_rows", "lmi.cone_rows", "dataset.phi_bytes",
    "dataset.save_bytes", "cli.files_written", "cli.bytes_written", "trace.overhead_s",
)
# counts that must repeat exactly from pass to pass
REPEATING = ("solver.iterations", "solver.lu_factor_calls", "solver.optimal",
             "solver.infeasible", "solver.numerical_trouble", "lmi.n_reduced")


@dataclass
class Pass:
    seconds: float       # wall time of the job list, speed probe excluded
    ops: list
    traced: bool
    work: float | None   # the same in reference kernels (untraced passes)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("small-sdp", "long-record", "sharing12-model"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced job lists (self-check)")
    return p.parse_args(argv)


def import_seconds():
    """Median seconds of SETUP_REPS imports, each in a fresh interpreter that
    inherits the fixed thread counts; every child is waited for."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(env.ROOT / "perfbench")],
                             cwd=env.ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def make_workload(workloads, name, seed, smoke):
    if name == "long-record":
        workdir = str(env.ROOT / ".perfbench_out" / f"long-record-{seed}-{os.getpid()}")
        return workloads.LongRecord(seed, workdir, smoke=smoke)
    return workloads.WORKLOADS[name](seed, smoke=smoke)


def signature(ops):
    return [(op.job, op.kind, op.status, op.iterations) for op in ops]


def reference_flags(ops, reference, workloads):
    flags = []
    for op in ops:
        ref = workloads.ref_entry(reference, op.job) if op.kind == "design" else None
        if ref is None:
            continue
        if ref["status"] != op.status:
            flags.append(f"{op.job}: status {op.status}, reference {ref['status']}")
        elif ref.get("iterations") is not None and op.iterations is not None \
                and ref["iterations"] != op.iterations:
            flags.append(f"{op.job}: {op.iterations} iterations, reference {ref['iterations']}")
    return flags


def run(args):
    threads = env.fix_threads()
    env.import_library()
    import spans as tracing
    import workloads
    from speed import SpeedProbe
    import_s = time.perf_counter() - T0

    work = make_workload(workloads, args.workload, args.seed, args.smoke)
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        work.setup()
        setup_times.append(time.perf_counter() - start)
    fresh_import_s = import_seconds()
    setup_s = fresh_import_s + statistics.median(setup_times)
    with open(env.ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})

    meta = env.describe(threads, args.workload, args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in meta.items()))

    passes = []          # Pass records, in order
    layers = []          # per-layer metrics of each traced pass
    tracer = tracing.Tracer() if args.trace else None
    probe = SpeedProbe()
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                first = len(tracer.spans)
                tracer.install()
            else:
                probe.start()
            t = time.perf_counter()
            try:
                ops = work.run_pass(tracer if traced else None)
            finally:
                secs = time.perf_counter() - t
                if traced:
                    tracer.uninstall()
                else:
                    probe.stop()
                    secs -= probe.kernel_seconds()
            work.check_pass(ops, reference)
            for op in ops:
                op.result = None    # a D4 result holds its k^2 x k^2 lift: keep one pass
            if traced:
                layers.append(tracing.layer_metrics(tracer.spans[first:], work.disk_counts()))
                if len(layers) == 1:
                    splits = tracing.op_split(tracer.spans[first:])
            passes.append(Pass(secs, ops, traced, None if traced else probe.work()))
            done = time.perf_counter() - start >= args.seconds
            if done and len(passes) >= 1 + args.trace:
                break
        if tracer is not None:
            out = env.ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.json", meta)
    finally:
        work.cleanup()

    all_ops = [op for p in passes for op in p.ops]
    attempted = len(all_ops)
    failed = [op for op in all_ops if op.error]
    undecided = [op for op in all_ops if op.undecided and not op.error]
    plain = [p for p in passes if not p.traced]
    plain_ops = [op for p in plain for op in p.ops]
    wall = [p.seconds for p in plain]
    norm = [p.work for p in plain]

    flags = [f"pass {i}: statuses or iterations differ from pass 0"
             for i, p in enumerate(passes) if signature(p.ops) != signature(passes[0].ops)]
    flags += reference_flags(passes[0].ops, reference, workloads)
    flags += [f"traced pass {i}: {key} differs from traced pass 0"
              for i, lay in enumerate(layers) for key in REPEATING
              if lay[key] != layers[0][key]]

    e2e = {
        "setup_s": (setup_s, "s", f"median of n={SETUP_REPS} imports in fresh interpreters "
                    f"({fresh_import_s:.3f} s; {import_s:.3f} s in this one) plus median of "
                    f"n={SETUP_REPS} input builds"),
        "wall_s": (statistics.median(wall), "s", f"median of n={len(wall)} passes: "
                   + " ".join(f"{w:.3f}" for w in wall)),
        "wall_norm": (statistics.median(norm), "kernels", f"median of n={len(norm)} passes: "
                      + " ".join(f"{w:.0f}" for w in norm)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of the whole process, n=1"),
        "success_frac": (1.0 - (len(failed) + len(undecided)) / attempted, "ratio",
                         f"n={attempted} operations"),
    }
    designs = [op.seconds for op in plain_ops if op.kind == "design" and op.seconds is not None]
    if designs:
        e2e["design_s_p50"] = (statistics.median(designs), "s", f"median of n={len(designs)} "
                               f"design calls, max {max(designs):.4f}")
    verifies = [op for op in plain_ops if op.kind == "verify" and op.seconds is not None]
    if verifies:
        samples = sum(op.samples for op in verifies)
        e2e["verify_samples_per_s"] = (samples / sum(op.seconds for op in verifies), "1/s",
                                       f"n={samples} samples in {len(verifies)} verify calls")
    e2e["fail_frac"] = ((len(failed) + len(undecided)) / attempted, "ratio",
                        f"{len(failed) + len(undecided)} of n={attempted} operations: "
                        f"{len(undecided)} undecided, {len(failed)} raised or failed a check")

    for name, (value, unit, note) in e2e.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in END_TO_END}
    if args.trace:
        per_layer = {}
        for key, (first, unit) in layers[0].items():
            # counts repeat exactly (or are flagged above): report them as counted
            per_layer[key] = (first if isinstance(first, int) else
                              statistics.median(lay[key][0] for lay in layers), unit)
        traced_wall = statistics.median(p.seconds for p in passes if p.traced)
        per_layer["trace.overhead_s"] = (traced_wall - statistics.median(wall), "s")
        for key, (value, unit) in per_layer.items():
            print(f"{key} = {value:.6g} {unit}  (median of n={len(layers)} traced passes)")
        for op, row in splits.items():
            if row["top"] in ("synthesis.design", "cli.sweep"):
                print(f"op {op}: {row['seconds']:.4f} s, {row['top']} self "
                      f"{row['self_s']:.4f} s, solve {row['solve_s']:.4f} s "
                      f"({row['solve_s'] / row['seconds']:.0%}), {row['iterations']} iterations, "
                      f"{row['lu_factor_calls']} lu_factor calls {row['lu_factor_s']:.4f} s")
        metrics = {key: {"value": per_layer[key][0], "unit": per_layer[key][1]}
                   for key in PER_LAYER}
    for op in failed:
        print(f"FAILED: {op.error}")
    for flag in flags:
        print(f"FLAG: {flag}")
    print(f"checks: {attempted} operations checked over {len(passes)} passes, "
          f"{len(failed)} failed, {len(flags)} flags")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
