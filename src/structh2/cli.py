"""Command line front end: simulate data, run designs, sweep grids, verify.

Configuration is a JSON file; matrices live in external CSV files referenced
from it (paths resolve relative to the config file). The builtin plant
"example1" ships the 3-state/2-input benchmark with its sparsity pattern and
state-plus-input performance channel, so a config can be as small as

    {"plant": "example1", "designs": ["D4"], "output_dir": "out"}

Exit codes: 0 success, 2 configuration error, 3 every requested design
infeasible, 4 verification found violations. All outputs are deterministic
functions of the config and seed, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import plants
from .dataset import PlantPair, load_batch, save_batch, simulate
from .errors import ConfigError, StructH2Error
from .linalg import read_matrix_csv, write_matrix_csv
from .solver import SolverOptions, infeasibility_residual
from .subspace import from_basis, from_pattern, read_basis_csv, read_pattern_csv
from .synthesis import (DESIGNS, DesignOptions, PerformanceSpec, SynthesisResult,
                        design_data, design_model)
from .verification import verify_data, verify_model

STATUS_LABEL = {"Optimal": None, "Infeasible": "Infeasible",
                "Unbounded": "Unbounded", "NumericalTrouble": "NumTrouble"}


def _load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg["_base"] = os.path.dirname(os.path.abspath(path))
    return cfg


def _path(cfg, value, name) -> str:
    """The config value under key name as a path relative to the config file."""
    if not isinstance(value, str):
        raise ConfigError(f"{name}: expected a path string, got {value!r}")
    return value if os.path.isabs(value) else os.path.join(cfg["_base"], value)


def _value(kind, value, name):
    """kind(value) for the config value under key name (kind is float, int, ...).

    An int key refuses a non-integral number rather than truncate it, and a
    number key refuses a JSON boolean, which Python reads as 0 or 1.
    """
    if kind is int and (isinstance(value, bool)
                        or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if kind is float and isinstance(value, bool):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _vector(value, name) -> np.ndarray:
    """The config value under key name, which must be a flat list of finite
    numbers: np.asarray would read a JSON boolean as 0 or 1 and accept a
    nested list or a NaN."""
    try:
        ok = isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in value)
    except OverflowError:       # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{name}: expected a flat list of finite numbers, got {value!r}")
    return np.array(value, dtype=float)


def _seed(value, name) -> int:
    """The config value under key name as an rng seed, which must be >= 0."""
    seed = _value(int, value, name)
    if seed < 0:
        raise ConfigError(f"{name}: seed must be >= 0, got {seed}")
    return seed


def _eps(value, name) -> float:
    """The config value under key name as a noise bound: finite and >= 0."""
    eps = _value(float, value, name)
    if not (math.isfinite(eps) and eps >= 0):
        raise ConfigError(f"{name}: eps must be finite and nonnegative, got {eps!r}")
    return eps


def _flag(value, name) -> bool:
    """The config value under key name, which must be a JSON boolean: bool()
    would read the string "false" as true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name}: expected true or false, got {value!r}")
    return value


def _designs(cfg, default) -> list:
    """The config's list of design names."""
    designs = cfg.get("designs", default)
    if not isinstance(designs, list):
        raise ConfigError(f"designs: expected a list such as [\"D4\"], got {designs!r}")
    return designs


def _section(cfg, key) -> dict:
    """The config object under key, {} when absent."""
    sec = cfg.get(key, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: expected an object, got {sec!r}")
    return sec


def _read(cfg, section, key, name):
    """Read the CSV matrix that section[key] names."""
    if not isinstance(section, dict) or key not in section:
        raise ConfigError(f"{name}: missing key")
    try:
        return read_matrix_csv(_path(cfg, section[key], name))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _resolve_plant(cfg):
    """Returns (plant, perf, subspace, x0)."""
    plant_cfg = cfg.get("plant", "example1")
    if plant_cfg == "example1":
        plant = plants.example1_plant()
        perf = plants.example1_perf()
        sub = plants.example1_subspace()
        x0 = plants.EXAMPLE1_X0.copy()
    elif isinstance(plant_cfg, dict):
        A = _read(cfg, plant_cfg, "a", "plant.a")
        B = _read(cfg, plant_cfg, "b", "plant.b")
        plant = PlantPair(A=A, B=B)
        perf = plants.default_perf(plant.n, plant.m)
        sub = None
        x0 = np.zeros(plant.n)
    else:
        raise ConfigError(f"unknown plant {plant_cfg!r}; use 'example1' or file paths")
    if "perf" in cfg:
        pc = cfg["perf"]
        perf = PerformanceSpec(C=_read(cfg, pc, "c", "perf.c"),
                               D=_read(cfg, pc, "d", "perf.d"),
                               E=_read(cfg, pc, "e", "perf.e"))
    if "pattern" in cfg or "basis" in cfg:
        key = "pattern" if "pattern" in cfg else "basis"
        path = _path(cfg, cfg[key], key)
        try:
            if key == "pattern":
                sub = from_pattern(read_pattern_csv(path))
            else:
                sub = from_basis(read_basis_csv(path))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if "x0" in cfg:
        x0 = _vector(cfg["x0"], "x0")
    return plant, perf, sub, x0


def _solver_options(cfg) -> SolverOptions:
    sc = _section(cfg, "solver")
    tol_feas = _value(float, sc.get("tol_feas", 1e-8), "solver.tol_feas")
    tol_gap = _value(float, sc.get("tol_gap", 1e-7), "solver.tol_gap")
    max_iter = _value(int, sc.get("max_iter", 200), "solver.max_iter")
    try:
        return SolverOptions(tol_feas=tol_feas, tol_gap=tol_gap, max_iter=max_iter)
    except ValueError as exc:
        # SolverOptions starts each message with the field it rejects
        raise ConfigError(f"solver.{str(exc).split()[0]}: {exc}") from exc


def _design_options(cfg, design, subspace) -> DesignOptions:
    if design not in DESIGNS:
        raise ConfigError(f"unknown design {design!r}; choose from {DESIGNS}")
    if design != "D1" and subspace is None:
        raise ConfigError(f"{design} needs a 'pattern' or 'basis' in the config")
    gamma = cfg.get("gamma")
    try:
        return DesignOptions(design=design,
                             subspace=None if design == "D1" else subspace,
                             sharing=_flag(cfg.get("sharing", False), "sharing"),
                             eta=_value(float, cfg.get("eta", 1e-3), "eta"),
                             gamma=None if gamma is None else _value(float, gamma, "gamma"),
                             solver=_solver_options(cfg))
    except ValueError as exc:
        # design and subspace are checked above; DesignOptions starts its
        # other messages with the field they reject (eta, gamma)
        raise ConfigError(f"{str(exc).split()[0]}: {exc}") from exc


def _noise_cfg(cfg):
    nc = _section(cfg, "noise")
    T = _value(int, nc.get("T", 20), "noise.T")
    if T < 1:
        raise ConfigError(f"noise.T: T must be >= 1, got {T}")
    eps = _eps(nc.get("eps", 0.1), "noise.eps")
    seed = _seed(nc.get("seed", 0), "noise.seed")
    exponent = _value(int, nc.get("exponent", 1), "noise.exponent")
    if exponent not in (1, 2):
        raise ConfigError(f"noise.exponent: exponent must be 1 or 2, got {exponent}")
    return eps, T, seed, exponent


def _load_data(cfg):
    """The batch saved under data_dir, for mode 'data'."""
    if cfg.get("data_dir") is None:
        raise ConfigError("mode 'data' needs a data_dir with a saved batch")
    try:
        return load_batch(_path(cfg, cfg["data_dir"], "data_dir"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"could not load batch: {exc}") from exc


def _out_dir(cfg) -> str:
    out = _path(cfg, cfg.get("output_dir", "out"), "output_dir")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(cfg) -> int:
    plant, _, _, x0 = _resolve_plant(cfg)
    eps, T, seed, exponent = _noise_cfg(cfg)
    batch, W = simulate(plant, x0, None, eps, seed=seed, exponent=exponent, T=T)
    resid = float(np.abs(batch.xplus - (plant.A @ batch.xminus
                                        + plant.B @ batch.uminus + W)).max())
    if "data_dir" in cfg:
        outdir = _path(cfg, cfg["data_dir"], "data_dir")
    else:
        outdir = os.path.join(_path(cfg, cfg.get("output_dir", "out"), "output_dir"), "batch")
    save_batch(batch, outdir)
    print(f"T={T} eps={eps:g} residual={resid:.17g}")
    print(f"wrote batch to {outdir}")
    if resid > 1e-12:
        print("warning: data equation residual exceeds 1e-12", file=sys.stderr)
    return 0


def _write_design_outputs(outdir, design, res: SynthesisResult, eta) -> None:
    ddir = os.path.join(outdir, design)
    os.makedirs(ddir, exist_ok=True)
    doc = {"design": design, "status": res.status, "eta": eta,
           "gamma": res.gamma, "alpha": res.alpha, "beta": res.beta}
    if res.status == "Infeasible" and res.report and res.report.certificate:
        doc["certificate_residual"] = infeasibility_residual(res.conic,
                                                             res.report.certificate)
    with open(os.path.join(ddir, "result.json"), "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if res.status == "Optimal":
        for name, M in (("k", res.K), ("p", res.P), ("q", res.Q),
                        ("r", res.R), ("l", res.L)):
            write_matrix_csv(os.path.join(ddir, f"{name}.csv"), M)


def cmd_design(cfg) -> int:
    plant, perf, sub, _ = _resolve_plant(cfg)
    designs = _designs(cfg, ["D4"])
    if not designs:
        raise ConfigError("designs list is empty")
    mode = cfg.get("mode", "model")
    batch = None
    if mode == "data":
        batch = _load_data(cfg)
    elif mode != "model":
        raise ConfigError(f"mode must be 'model' or 'data', got {mode!r}")
    outdir = _out_dir(cfg)
    any_usable = False
    for design in designs:
        opts = _design_options(cfg, design, sub)
        res = design_model(plant, perf, opts) if mode == "model" \
            else design_data(batch, perf, opts)
        _write_design_outputs(outdir, design, res, opts.eta)
        if res.status == "Optimal":
            any_usable = True
            line = f"design={design} gamma={res.gamma:.6g} status=Optimal"
            if opts.sharing:
                line += f" colsum_max={np.abs(res.K.sum(axis=0)).max():.3g}"
            print(line)
        else:
            print(f"design={design} status={res.status}")
    return 0 if any_usable else 3


def _format_table(rows, headers) -> str:
    widths = [max(len(str(h)), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"


def _cell(res: SynthesisResult) -> str:
    if res.status == "Optimal":
        return f"{res.gamma:.4f}"
    return STATUS_LABEL[res.status]


def cmd_sweep(cfg) -> int:
    plant, perf, sub, x0 = _resolve_plant(cfg)
    designs = _designs(cfg, list(DESIGNS))
    sweep = _section(cfg, "sweep")
    if not sweep:
        raise ConfigError("sweep command needs a 'sweep' section")
    eps_list, t_list = sweep.get("eps", []), sweep.get("T", [])
    if not (isinstance(eps_list, list) and isinstance(t_list, list)):
        raise ConfigError("sweep 'eps' and 'T' must be lists")
    eps_list = [_eps(v, "sweep.eps") for v in eps_list]
    t_list = [_value(int, v, "sweep.T") for v in t_list]
    if not eps_list or not t_list:
        raise ConfigError("sweep needs non-empty 'eps' and 'T' lists")
    if len(eps_list) > 1 and len(t_list) > 1:
        raise ConfigError("sweep varies eps or T, not both")
    if min(t_list) < 1:
        raise ConfigError(f"sweep.T: T must be >= 1, got {min(t_list)}")
    _, _, seed, exponent = _noise_cfg(cfg)
    outdir = _out_dir(cfg)

    # T sweep reuses prefixes of one max-length record; eps sweep draws a
    # fresh record per noise level
    cells = []
    if len(t_list) > 1:
        eps = eps_list[0]
        t_max = max(t_list)
        full, _ = simulate(plant, x0, None, eps, seed=seed, exponent=exponent, T=t_max)
        for T in t_list:
            cells.append((f"T={T}", full.prefix(T)))
    else:
        T = t_list[0]
        for i, eps in enumerate(eps_list):
            batch, _ = simulate(plant, x0, None, eps, seed=seed + i,
                                exponent=exponent, T=T)
            cells.append((f"eps={eps:g}", batch))
    for label, batch in cells:
        save_batch(batch, os.path.join(outdir, "batches", label.replace("=", "_")))

    headers = ["design", "model"] + [label for label, _ in cells]
    rows = []
    for design in designs:
        opts = _design_options(cfg, design, sub)
        row = [design, _cell(design_model(plant, perf, opts))]
        for label, batch in cells:
            res = design_data(batch, perf, opts)
            _write_design_outputs(os.path.join(outdir, "cells",
                                               label.replace("=", "_")),
                                  design, res, opts.eta)
            row.append(_cell(res))
        rows.append(row)

    table = _format_table(rows, headers)
    with open(os.path.join(outdir, "table.txt"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(table)
    with open(os.path.join(outdir, "table.csv"), "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(table, end="")
    return 0


def cmd_verify(cfg) -> int:
    vc = _section(cfg, "verify")
    kpath = vc.get("k")
    if kpath is None:
        raise ConfigError("verify needs 'verify.k' pointing at a gain CSV")
    try:
        K = read_matrix_csv(_path(cfg, kpath, "verify.k"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"could not read K: {exc}") from exc
    plant, perf, sub, _ = _resolve_plant(cfg)
    if not _flag(vc.get("structure", True), "verify.structure"):
        sub = None
    sharing = _flag(cfg.get("sharing", False), "sharing")
    mode = cfg.get("mode", "model")
    if mode == "data":
        batch = _load_data(cfg)
        gamma = vc.get("gamma")
        if gamma is None and "result" in vc:
            try:
                with open(_path(cfg, vc["result"], "verify.result"), "r",
                          encoding="ascii") as fh:
                    gamma = json.load(fh).get("gamma")
            except (OSError, ValueError) as exc:
                raise ConfigError(f"verify.result: {exc}") from exc
        if gamma is None:
            raise ConfigError("data verification needs 'verify.gamma' or 'verify.result'")
        gamma = _value(float, gamma, "verify.gamma")
        if not (math.isfinite(gamma) and gamma > 0):
            raise ConfigError(f"verify.gamma: gamma must be finite and > 0, got {gamma!r}")
        samples = _value(int, vc.get("samples", 200), "verify.samples")
        if samples < 0:
            raise ConfigError(f"verify.samples: samples must be >= 0, got {samples}")
        report = verify_data(batch, perf, K, gamma, samples=samples,
                             seed=_seed(vc.get("seed", 0), "verify.seed"),
                             subspace=sub, sharing=sharing,
                             truth=plant if cfg.get("plant") is not None else None)
    else:
        report = verify_model(plant, perf, K, subspace=sub, sharing=sharing)
    outdir = _out_dir(cfg)
    with open(os.path.join(outdir, "report.json"), "w", encoding="ascii") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    for v in report.violations:
        print(f"violation: {v}")
    print(f"stable={report.stable} h2={report.h2} structure_ok={report.structure_ok} "
          f"sharing_ok={report.sharing_ok} violations={len(report.violations)}")
    return 0 if report.ok else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="struct-h2",
        description="Structured state-feedback H2 synthesis from models or noisy data.")
    parser.add_argument("command", choices=["simulate", "design", "sweep", "verify"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--plant", help="override the plant (e.g. 'example1')")
    parser.add_argument("--seed", type=int, help="override noise.seed")
    parser.add_argument("--eta", type=float, help="override the margin shift")
    parser.add_argument("--design", help="comma list, e.g. D1,D4")
    parser.add_argument("--sharing", action="store_true", help="force the sharing constraint")
    parser.add_argument("--exponent", type=int, choices=(1, 2),
                        help="override the noise-bound exponent")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.plant is not None:
            cfg["plant"] = args.plant
        if args.seed is not None:
            cfg.setdefault("noise", {})["seed"] = args.seed
        if args.exponent is not None:
            cfg.setdefault("noise", {})["exponent"] = args.exponent
        if args.eta is not None:
            cfg["eta"] = args.eta
        if args.design:
            cfg["designs"] = [d.strip() for d in args.design.split(",") if d.strip()]
        if args.sharing:
            cfg["sharing"] = True
        handler = {"simulate": cmd_simulate, "design": cmd_design,
                   "sweep": cmd_sweep, "verify": cmd_verify}[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StructH2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
