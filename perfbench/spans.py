"""Span tracer for the benchmark's traced run, installed from outside `src/`.

`Tracer.install()` replaces the names each structh2 module binds (for example
`structh2.synthesis.solve`, the name `design_model` calls) with timing
wrappers and `uninstall()` puts the originals back, so the untraced passes run
the library exactly as shipped. Spans stay in memory until the run writes
them out; a layer's self time is its spans' duration minus the part covered by
their direct children (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np


def _solve_attrs(args, report):
    return {"status": report.status, "iterations": int(report.iterations),
            "feas": float(report.residuals.get("feas", 0.0)),
            "gap": float(report.residuals.get("gap", 0.0))}


def _compile_attrs(args, conic):
    G = conic.G
    return {"n_full": int(conic.n_full), "n_reduced": int(conic.n_reduced),
            "eq_rows": int(conic.A.shape[0]), "cone_rows": int(G.shape[0]),
            "G_nnz": int(np.count_nonzero(G)), "G_size": int(G.size)}


def _phi_attrs(args, noise):
    return {"bytes": 8 * int(noise.phi.shape[0]) ** 2}


def _lu_attrs(args, result):
    return {"dim": int(args[0].shape[0])}


def _upsilon_attrs(args, result):
    return {"k": int(args[0].k)}


def _verify_attrs(args, report):
    return {"samples": int(report.samples_checked)}


# (module, attribute, span name, attribute hook). Each entry is the name a
# caller looks up at call time, so replacing it times every call made through
# it; `LmiProblem.compile` is a method and is replaced on the class.
HOOKS = (
    ("structh2.synthesis", "solve", "solver.solve", _solve_attrs),
    ("structh2.synthesis", "upsilon_constraints", "subspace.upsilon", _upsilon_attrs),
    ("structh2.lmi", "LmiProblem.compile", "lmi.compile", _compile_attrs),
    ("structh2.solver", "lu_factor", "solver.lu_factor", _lu_attrs),
    ("structh2.solver", "lu_solve", "solver.lu_solve", None),
    ("structh2.dataset", "phi_ball", "dataset.phi_ball", _phi_attrs),
    ("structh2.dataset", "assemble_psi", "dataset.psi", None),
    ("structh2.cli", "simulate", "dataset.simulate", None),
    ("structh2.cli", "save_batch", "dataset.save", None),
    ("structh2.cli", "load_batch", "dataset.load", None),
    ("structh2.cli", "design_model", "synthesis.design", None),
    ("structh2.cli", "design_data", "synthesis.design", None),
    ("structh2.cli", "verify_data", "verification.verify", _verify_attrs),
    ("structh2.verification", "h2_norm", "linalg.h2_norm", None),
    ("structh2.verification", "sample_consistent", "dataset.sample", None),
)


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, operation id, attrs]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.op, {}])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around the caller's own block; yields its attrs dict."""
        sid = self._open(name)
        try:
            yield self.spans[sid][6]
        finally:
            self._close(sid)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if hook is not None:
                self.spans[sid][6].update(hook(args, result))
            return result
        return timed

    def install(self):
        for modname, attr, name, hook in HOOKS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def dump(self, path, meta):
        doc = {"meta": meta, "fields": ["id", "name", "start", "end", "parent", "op", "attrs"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _child_time(spans):
    child = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + end - start
    return child


def op_split(spans):
    """Per-operation split of one traced pass, keyed by operation id: the
    top-level span's time and self time, and the solver work under it."""
    child = _child_time(spans)
    rows = {}
    for sid, name, start, end, parent, op, attrs in spans:
        row = rows.setdefault(op, {"top": None, "seconds": 0.0, "self_s": 0.0, "solve_s": 0.0,
                                   "iterations": 0, "lu_factor_calls": 0, "lu_factor_s": 0.0})
        d = end - start
        if parent is None:
            row["top"] = name
            row["seconds"] += d
            row["self_s"] += d - child.get(sid, 0.0)
        elif name == "solver.solve":
            row["solve_s"] += d
            row["iterations"] += attrs["iterations"]
        elif name == "solver.lu_factor":
            row["lu_factor_calls"] += 1
            row["lu_factor_s"] += d
    return rows


def layer_metrics(spans, extra):
    """Per-layer metrics of one traced pass from its spans.

    `extra` carries the counts measured outside the spans (files and bytes the
    CLI left on disk). Times are seconds summed over the pass; computed byte
    counts are 8 bytes per float64 entry and ignore cache effects.
    """
    dur = {}
    calls = {}
    for _, name, start, end, _, _, _ in spans:
        dur[name] = dur.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
    child = _child_time(spans)

    def self_time(prefix):
        return sum(s[3] - s[2] - child.get(s[0], 0.0) for s in spans if s[1].startswith(prefix))

    def attrs(name):
        return [s[6] for s in spans if s[1] == name]

    solves = attrs("solver.solve")
    compiles = attrs("lmi.compile")
    factors = attrs("solver.lu_factor")
    iterations = sum(a["iterations"] for a in solves)
    largest = max(compiles, key=lambda a: a["G_size"], default=None)
    verify_s = dur.get("verification.verify", 0.0)
    samples = sum(a["samples"] for a in attrs("verification.verify"))
    m = {
        "solver.solve_s": (dur.get("solver.solve", 0.0), "s"),
        "solver.self_s": (self_time("solver.solve"), "s"),
        "solver.s_per_iter": (dur.get("solver.solve", 0.0) / max(iterations, 1), "s/iter"),
        "solver.iterations": (iterations, "count"),
        "solver.lu_factor_calls": (calls.get("solver.lu_factor", 0), "count"),
        "solver.lu_factor_s": (dur.get("solver.lu_factor", 0.0), "s"),
        "solver.lu_solve_calls": (calls.get("solver.lu_solve", 0), "count"),
        "solver.lu_solve_s": (dur.get("solver.lu_solve", 0.0), "s"),
        "solver.factor_per_iter": (calls.get("solver.lu_factor", 0) / max(iterations, 1),
                                   "count/iter"),
        "solver.kkt_dim_max": (max((a["dim"] for a in factors), default=0), "count"),
        "solver.kkt_factor_bytes": (sum(8 * a["dim"] ** 2 for a in factors), "B"),
        "solver.optimal": (sum(a["status"] == "Optimal" for a in solves), "count"),
        "solver.infeasible": (sum(a["status"] == "Infeasible" for a in solves), "count"),
        "solver.numerical_trouble": (sum(a["status"] == "NumericalTrouble" for a in solves),
                                     "count"),
        "solver.final_feas_max": (max((a["feas"] for a in solves), default=0.0), "rel"),
        "solver.final_gap_max": (max((a["gap"] for a in solves), default=0.0), "rel"),
        "synthesis.design_s": (dur.get("synthesis.design", 0.0), "s"),
        "synthesis.self_s": (self_time("synthesis.design"), "s"),
        "subspace.upsilon_s": (dur.get("subspace.upsilon", 0.0), "s"),
        "subspace.k": (max((a["k"] for a in attrs("subspace.upsilon")), default=0), "count"),
        "lmi.compile_s": (dur.get("lmi.compile", 0.0), "s"),
        "lmi.n_full": (max((a["n_full"] for a in compiles), default=0), "count"),
        "lmi.n_reduced": (max((a["n_reduced"] for a in compiles), default=0), "count"),
        "lmi.eq_rows": (max((a["eq_rows"] for a in compiles), default=0), "count"),
        "lmi.cone_rows": (max((a["cone_rows"] for a in compiles), default=0), "count"),
        "lmi.G_nnz_frac": (largest["G_nnz"] / largest["G_size"] if largest else 0.0, "ratio"),
        "dataset.simulate_s": (dur.get("dataset.simulate", 0.0), "s"),
        "dataset.phi_ball_s": (dur.get("dataset.phi_ball", 0.0), "s"),
        "dataset.phi_bytes": (sum(a["bytes"] for a in attrs("dataset.phi_ball")), "B"),
        "dataset.psi_s": (dur.get("dataset.psi", 0.0), "s"),
        "dataset.save_s": (dur.get("dataset.save", 0.0), "s"),
        "dataset.save_bytes": (extra.get("save_bytes", 0), "B"),
        "dataset.load_s": (dur.get("dataset.load", 0.0), "s"),
        "dataset.sample_s": (dur.get("dataset.sample", 0.0), "s"),
        "verification.verify_s": (verify_s, "s"),
        "verification.samples": (samples, "count"),
        "verification.samples_per_s": (samples / verify_s if verify_s else 0.0, "1/s"),
        "linalg.h2_norm_calls": (calls.get("linalg.h2_norm", 0), "count"),
        "linalg.h2_norm_s": (dur.get("linalg.h2_norm", 0.0), "s"),
        "cli.sweep_s": (dur.get("cli.sweep", 0.0), "s"),
        "cli.verify_s": (dur.get("cli.verify", 0.0), "s"),
        "cli.self_s": (self_time("cli."), "s"),
        "cli.files_written": (extra.get("files_written", 0), "count"),
        "cli.bytes_written": (extra.get("bytes_written", 0), "B"),
    }
    return m
