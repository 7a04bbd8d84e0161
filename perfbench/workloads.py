"""The three benchmark workloads: fixed inputs, job lists, output checks.

Every workload is a closed loop with one caller: `run_pass` makes each call
after the previous one returned. The library sees only the generated plants,
batches and configs. `check_pass` judges every output of a pass by a path
independent of the solver (Lyapunov H2 norm, sampled consistent plants, the
S-lemma eigenvalue test, the certificate residual) and against the gammas
recorded in `reference.json` where one exists for the job.

An operation is one design call or one verify call. It is *undecided* when it
ends NumericalTrouble or Unbounded, and it *fails* when it raises or fails an
output check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import structh2 as sh
from structh2 import cli, plants
from structh2.solver import infeasibility_residual

PAPER_GAMMA = {"D1": 2.1537, "D2": 3.5658, "D3": 3.0089, "D4": 2.9794}
GAMMA_REL = 1e-5          # agreement with the gamma recorded at the reference commit
H2_REL = 1e-4             # h2 <= gamma * (1 + H2_REL)
CERT_TOL = 1e-7           # infeasibility certificate residual
VERIFY_SAMPLES = 200


@dataclass
class Op:
    """One design or verify call and what became of it."""

    job: str
    kind: str                       # "design" | "verify"
    seconds: float | None           # None: ran inside a CLI command, not timed alone
    status: str | None = None
    gamma: float | None = None
    iterations: int | None = None
    samples: int = 0
    error: str | None = None        # raised, or failed an output check
    result: object = None

    @property
    def undecided(self) -> bool:
        return self.status in ("NumericalTrouble", "Unbounded")


@dataclass
class DesignJob:
    name: str
    mode: str                       # "model" | "data"
    target: object                  # PlantPair (model) or DataBatch (data)
    perf: object
    opts: object
    paper: float | None = None


def _opts(design, spec, sharing=False):
    return sh.DesignOptions(design=design, subspace=None if design == "D1" else spec,
                            sharing=sharing)


def random_data_plant(seed, n=4, m=2, eps=0.02):
    """The data-driven regime of the roadmap: spectral radius 1.05, pattern
    density 0.6 with its diagonal forced, T = 4 (n + m)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 1.05 / sh.spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = (rng.uniform(size=(m, n)) < 0.6).astype(int)
    pattern[np.arange(min(m, n)), np.arange(min(m, n))] = 1
    plant = sh.PlantPair(A=A, B=B)
    batch, _ = sh.simulate(plant, np.zeros(n), None, eps, seed=seed, exponent=2,
                           T=4 * (n + m))
    return plant, batch, sh.from_pattern(pattern)


def sharing12_plant():
    """The criterion-7 plant: 12 states, 6 inputs, rng seed 0."""
    rng = np.random.default_rng(0)
    n, m = 12, 6
    A = rng.standard_normal((n, n))
    A *= 0.7 / sh.spectral_radius(A)
    B = rng.standard_normal((n, m))
    pattern = np.block([[np.ones((3, 2)), np.ones((3, 8)), np.zeros((3, 2))],
                        [np.zeros((3, 2)), np.ones((3, 8)), np.ones((3, 2))]]).astype(int)
    return sh.PlantPair(A=A, B=B), sh.from_pattern(pattern)


def verify_seed(seed):
    """The benchmark seed picks the consistent plants every verify call samples.

    The design inputs are fixed records (the acceptance grid, the roadmap's
    random plants, the CLI's default noise seed 0, the criterion-7 plant):
    with records drawn from the seed, the number of undecided solves, and
    with it the work of a pass, moved from seed to seed by more than the
    benchmark's bounds.
    """
    return 1000 * seed + 999


def _fresh(batch):
    # a new DataBatch per pass, so Psi is assembled in every pass as it is
    # for a user who designs from a newly loaded record
    return sh.DataBatch(batch.xminus, batch.uminus, batch.xplus, batch.noise)


def ref_entry(reference, name):
    """The recorded outcome of a job, if any."""
    return (reference or {}).get(name)


def _check_gamma(job_name, gamma, ref, paper):
    if paper is not None and abs(gamma - paper) > 0.01 * paper:
        return f"{job_name}: gamma {gamma:.6g} is more than 1% from the paper's {paper}"
    if ref is not None and ref.get("status") == "Optimal" and ref.get("gamma") is not None:
        if abs(gamma - ref["gamma"]) > GAMMA_REL * abs(ref["gamma"]):
            return (f"{job_name}: gamma {gamma!r} differs from the reference "
                    f"{ref['gamma']!r} by more than {GAMMA_REL:g} relative")
    return None


def slemma_psi(xminus, uminus, xplus, eps, exponent):
    """Psi for a ball noise model, formed here without the dataset module:
    blkdiag(T eps^e I, 0) - N N^T with N = [X+; -X-; -U-]."""
    n, T = xminus.shape
    N = np.vstack([xplus, -xminus, -uminus])
    psi = -N @ N.T
    psi[:n, :n] += T * eps ** exponent * np.eye(n)
    return psi


def check_synthesis(job, res, verify_op, ref):
    """Output check of one direct design call; returns an error or None."""
    if res.status == "Optimal":
        err = _check_gamma(job.name, res.gamma, ref, job.paper)
        if err:
            return err
        spec = job.opts.subspace
        if job.mode == "model":
            rep = sh.verify_model(job.target, job.perf, res.K, subspace=spec,
                                  sharing=job.opts.sharing)
            if not rep.ok:
                return f"{job.name}: verify_model: {rep.violations[:2]}"
            if rep.h2 > res.gamma * (1.0 + H2_REL):
                return f"{job.name}: h2 {rep.h2:.6g} exceeds gamma {res.gamma:.6g}"
            return None
        if verify_op is None or verify_op.error or verify_op.result is None:
            return f"{job.name}: the Optimal data certificate was not verified"
        if not verify_op.result.ok:
            return f"{job.name}: verify_data: {verify_op.result.violations[:2]}"
        b = job.target
        psi = slemma_psi(b.xminus, b.uminus, b.xplus, b.noise.eps, b.noise.exponent)
        if not sh.slemma_holds(res.P, res.R, res.L, res.alpha, res.beta, psi, job.perf.E):
            return f"{job.name}: S-lemma certificate does not hold"
        return None
    if res.status == "Infeasible":
        resid = infeasibility_residual(res.conic, res.report.certificate)
        if not resid <= CERT_TOL:
            return f"{job.name}: infeasibility certificate residual {resid:.3e} > {CERT_TOL:g}"
    return None


class DirectWorkload:
    """A job list of direct `design_model` / `design_data` calls; every
    Optimal data certificate is then checked by `verify_data` (an operation)."""

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.smoke = smoke

    def jobs(self):
        raise NotImplementedError

    def setup(self):
        self._jobs = self.jobs()

    def run_pass(self, tracer):
        ops = []
        for job in self._jobs:
            target = _fresh(job.target) if job.mode == "data" else job.target
            ops.append(self._call(tracer, job.name, "design", "synthesis.design",
                                  sh.design_model if job.mode == "model" else sh.design_data,
                                  target, job.perf, job.opts))
            res = ops[-1].result
            if job.mode == "data" and res is not None and res.status == "Optimal":
                spec = job.opts.subspace
                ops.append(self._call(tracer, job.name, "verify", "verification.verify",
                                      sh.verify_data, target, job.perf, res.K, res.gamma,
                                      samples=VERIFY_SAMPLES, seed=verify_seed(self.seed),
                                      subspace=spec, sharing=job.opts.sharing))
        return ops

    @staticmethod
    def _call(tracer, job, kind, span_name, fn, *args, **kwargs):
        op = Op(job=job, kind=kind, seconds=None)
        if tracer is not None:
            tracer.op = f"{kind}:{job}"
        ctx = tracer.span(span_name) if tracer is not None else contextlib.nullcontext()
        attrs = None
        start = time.perf_counter()
        try:
            with ctx as attrs:
                op.result = fn(*args, **kwargs)
        except Exception as exc:  # every raise is a failed operation, reported by job
            op.error = f"{job}: {kind} raised {type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - start
        if attrs is not None and kind == "verify":
            attrs["samples"] = op.result.samples_checked if op.result is not None else 0
        if op.result is not None and kind == "design":
            op.status = op.result.status
            op.gamma = op.result.gamma
            op.iterations = op.result.report.iterations if op.result.report else None
        elif op.result is not None:
            op.status = "ok" if op.result.ok else "violations"
            op.samples = op.result.samples_checked
            if op.samples != kwargs.get("samples"):
                op.error = f"{job}: verify checked {op.samples} samples"
        return op

    def check_pass(self, ops, reference):
        by_job = {job.name: job for job in self._jobs}
        verify = {op.job: op for op in ops if op.kind == "verify"}
        for op in ops:
            if op.kind != "design" or op.error or op.result is None:
                continue
            job = by_job[op.job]
            op.error = check_synthesis(job, op.result, verify.get(op.job),
                                       ref_entry(reference, job.name))

    def disk_counts(self):
        return {}

    def cleanup(self):
        pass


class SmallSdp(DirectWorkload):
    """36 design calls whose KKT systems have at most a few hundred rows."""

    def jobs(self):
        plant, perf, spec = plants.example1_plant(), plants.example1_perf(), \
            plants.example1_subspace()
        x0 = plants.EXAMPLE1_X0
        # the acceptance grid's own records: their statuses (and so the work)
        # do not move with the seed, which picks the sampled plants instead
        batches = []
        for i, eps in enumerate((0.05, 0.1, 0.15)):
            b, _ = sh.simulate(plant, x0, None, eps, seed=100 + i, exponent=2, T=20)
            batches.append((f"fresh/eps{eps:g}/T20", b))
        full, _ = sh.simulate(plant, x0, None, 0.1, seed=200, exponent=2, T=20)
        for T in (6, 10, 20):
            batches.append((f"prefix/eps0.1/T{T}", full.prefix(T)))
        jobs = [DesignJob(f"model/{d}", "model", plant, perf, _opts(d, spec),
                          paper=PAPER_GAMMA[d]) for d in PAPER_GAMMA]
        for label, b in batches:
            jobs += [DesignJob(f"data/{label}/{d}", "data", b, perf, _opts(d, spec))
                     for d in PAPER_GAMMA]
        for i in range(4):
            rplant, rbatch, rspec = random_data_plant(i)
            rperf = plants.default_perf(rplant.n, rplant.m)
            jobs += [DesignJob(f"random/seed{i}/{d}", "data", rbatch, rperf,
                               _opts(d, rspec)) for d in ("D1", "D4")]
        # smoke: the model designs, the eps = 0.15 record (Optimal, Infeasible
        # and NumericalTrouble outcomes) and one random plant
        return jobs[:4] + jobs[12:16] + jobs[-2:] if self.smoke else jobs


class Sharing12Model(DirectWorkload):
    """The 12-state, 6-input sharing design, once as D4 and once as D1."""

    def jobs(self):
        plant, spec = sharing12_plant()
        perf = plants.default_perf(plant.n, plant.m)
        return [DesignJob(f"model/{d}/sharing", "model", plant, perf,
                          _opts(d, spec, sharing=True))
                for d in ("D4", "D1")]


def _tree_size(root):
    files = size = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


class LongRecord:
    """`struct-h2 sweep` over record lengths, then `struct-h2 verify` on every
    Optimal data cell, reading its batch back from disk."""

    T_LIST = (20, 500, 1000, 2000)
    DESIGNS = ("D1", "D4")

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = workdir
        if smoke:
            self.T_LIST = (20, 60)

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.sweep_cfg = os.path.join(self.workdir, "sweep.json")
        cfg = {"plant": "example1", "designs": list(self.DESIGNS),
               "noise": {"eps": 0.1, "T": 20, "seed": 0, "exponent": 2},
               "sweep": {"eps": [0.1], "T": list(self.T_LIST)},
               "output_dir": "sweep"}
        _write_json(self.sweep_cfg, cfg)
        self.verify_cfg = {}
        for T in self.T_LIST:
            for d in self.DESIGNS:
                cell = f"sweep/cells/T_{T}/{d}"
                vcfg = {"plant": "example1", "mode": "data",
                        "data_dir": f"sweep/batches/T_{T}",
                        "verify": {"k": f"{cell}/k.csv", "result": f"{cell}/result.json",
                                   "samples": VERIFY_SAMPLES, "seed": verify_seed(self.seed),
                                   "structure": d != "D1"},
                        "output_dir": f"verify/T_{T}/{d}"}
                path = os.path.join(self.workdir, f"verify_T{T}_{d}.json")
                _write_json(path, vcfg)
                self.verify_cfg[(T, d)] = path

    def _cli(self, tracer, span_name, argv):
        out = io.StringIO()
        ctx = tracer.span(span_name) if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with ctx, contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except Exception as exc:  # a raise fails the command's operations
            rc = f"{type(exc).__name__}: {exc}"
        return rc, time.perf_counter() - start, out.getvalue()

    def run_pass(self, tracer):
        for sub in ("sweep", "verify"):
            shutil.rmtree(os.path.join(self.workdir, sub), ignore_errors=True)
        if tracer is not None:
            tracer.op = "sweep"
        rc, _, _ = self._cli(tracer, "cli.sweep", ["sweep", "--config", self.sweep_cfg])
        # cells are named after the record they are prefixes of
        rec = f"sweep{max(self.T_LIST)}"
        ops = [Op(job=f"{rec}/model/{d}", kind="design", seconds=None) for d in self.DESIGNS]
        ops += [Op(job=f"{rec}/T{T}/{d}", kind="design", seconds=None)
                for T in self.T_LIST for d in self.DESIGNS]
        if rc != 0:
            for op in ops:
                op.error = f"{op.job}: struct-h2 sweep failed ({rc})"
            return ops
        for T in self.T_LIST:
            for d in self.DESIGNS:
                doc = _read_json(os.path.join(self.workdir, f"sweep/cells/T_{T}/{d}/result.json"))
                if doc.get("status") != "Optimal":
                    continue
                if tracer is not None:
                    tracer.op = f"verify:T{T}/{d}"
                vrc, secs, _ = self._cli(tracer, "cli.verify",
                                         ["verify", "--config", self.verify_cfg[(T, d)]])
                op = Op(job=f"{rec}/T{T}/{d}", kind="verify", seconds=secs,
                        status={0: "ok", 4: "violations"}.get(vrc))
                if op.status is None:
                    op.error = f"{op.job}: struct-h2 verify failed ({vrc})"
                ops.append(op)
        return ops

    def disk_counts(self):
        files, size = _tree_size(self.workdir + "/sweep")
        vfiles, vsize = _tree_size(self.workdir + "/verify")
        _, save = _tree_size(self.workdir + "/sweep/batches")
        return {"files_written": files + vfiles, "bytes_written": size + vsize,
                "save_bytes": save}

    def check_pass(self, ops, reference):
        table = {}
        path = os.path.join(self.workdir, "sweep", "table.csv")
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                header = fh.readline().strip().split(",")
                for line in fh:
                    cells = line.strip().split(",")
                    table[cells[0]] = dict(zip(header, cells))
        verify = {op.job: op for op in ops if op.kind == "verify"}
        for op in ops:
            if op.kind != "design" or op.error:
                continue
            ref = ref_entry(reference, op.job)
            _, where, d = op.job.split("/")
            if where == "model":
                cell = table.get(d, {}).get("model")
                op.error = self._check_model_cell(op, cell, ref)
            else:
                op.error = self._check_data_cell(op, int(where[1:]), d, verify.get(op.job),
                                                 table.get(d, {}).get(f"T={where[1:]}"), ref)

    @staticmethod
    def _check_model_cell(op, cell, ref):
        if cell is None:
            return f"{op.job}: missing from table.csv"
        try:
            op.gamma = float(cell)
            op.status = "Optimal"
        except ValueError:
            op.status = {v: k for k, v in cli.STATUS_LABEL.items() if v}.get(cell, cell)
            return None
        # the table prints four decimals, so the reference is compared at
        # that resolution
        if ref is not None and ref.get("gamma") is not None \
                and abs(op.gamma - ref["gamma"]) > 5e-5 + GAMMA_REL * ref["gamma"]:
            return f"{op.job}: gamma {cell} differs from the reference {ref['gamma']!r}"
        return _check_gamma(op.job, op.gamma, None, PAPER_GAMMA[op.job.split("/")[-1]])

    def _check_data_cell(self, op, T, d, verify_op, cell, ref):
        cdir = os.path.join(self.workdir, f"sweep/cells/T_{T}/{d}")
        doc = _read_json(os.path.join(cdir, "result.json"))
        op.status = doc.get("status")
        if op.status is None:
            return f"{op.job}: no result.json"
        if op.status == "Infeasible":
            resid = doc.get("certificate_residual")
            if resid is None or not resid <= CERT_TOL:
                return f"{op.job}: infeasibility certificate residual {resid} > {CERT_TOL:g}"
            return None
        if op.status != "Optimal":
            return None
        op.gamma = doc["gamma"]
        if cell != f"{op.gamma:.4f}":
            return f"{op.job}: table.csv shows {cell}, result.json {op.gamma}"
        err = _check_gamma(op.job, op.gamma, ref, None)
        if err:
            return err
        if verify_op is None or verify_op.error:
            return f"{op.job}: the Optimal data certificate was not verified"
        if verify_op.status != "ok":
            return f"{op.job}: struct-h2 verify found violations"
        report = _read_json(os.path.join(self.workdir, f"verify/T_{T}/{d}/report.json"))
        verify_op.samples = report.get("samples_checked", 0)
        if verify_op.samples != VERIFY_SAMPLES:
            verify_op.error = f"{op.job}: verify checked {verify_op.samples} samples"
        bdir = os.path.join(self.workdir, f"sweep/batches/T_{T}")
        mats = {n: sh.read_matrix_csv(os.path.join(bdir, f"{n}.csv"))
                for n in ("xminus", "uminus", "xplus")}
        noise = _read_json(os.path.join(bdir, "noise.json"))
        psi = slemma_psi(mats["xminus"], mats["uminus"], mats["xplus"], noise["eps"],
                         noise["exponent"])
        P, R, L = (sh.read_matrix_csv(os.path.join(cdir, f"{n}.csv")) for n in "prl")
        if not sh.slemma_holds(P, R, L, doc["alpha"], doc["beta"], psi,
                               plants.example1_perf().E):
            return f"{op.job}: S-lemma certificate does not hold"
        return None

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


WORKLOADS = {"small-sdp": SmallSdp, "long-record": LongRecord,
             "sharing12-model": Sharing12Model}
