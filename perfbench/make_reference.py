"""Record every design job's status, iterations and gamma into reference.json.

    python3 perfbench/make_reference.py

Run it at the commit whose outputs later runs must reproduce. It runs one
pass of every workload (the design inputs do not depend on the seed), and its
outputs must pass the independent checks before they are recorded.
"""

from __future__ import annotations

import json
import sys

import env


def main():
    env.fix_threads()
    env.import_library()
    import workloads
    from run import make_workload

    doc = {}
    for name in workloads.WORKLOADS:
        work = make_workload(workloads, name, 0, smoke=False)
        work.setup()
        try:
            ops = work.run_pass(None)
            work.check_pass(ops, None)
        finally:
            work.cleanup()
        errors = [op.error for op in ops if op.error]
        if errors:
            raise SystemExit(f"{name}: {errors}")
        doc[name] = {op.job: {"status": op.status, "iterations": op.iterations,
                              "gamma": op.gamma}
                     for op in ops if op.kind == "design"}
        print(f"{name}: " + " ".join(f"{job}={r['status']}" for job, r in doc[name].items()
                                     if r["status"] != "Optimal"), flush=True)
    with open(env.ROOT / "perfbench" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
