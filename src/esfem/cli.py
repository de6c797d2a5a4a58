"""Command-line entry point: esfem-evolve <experiment> [flags].

Experiments: the coupled convergence benchmark (example1), the
regularization comparison (example3, both arms), the pattern-forming
tumor run (tumor), and the numerical identity suite (verify).  Flags
override an optional key=value config file; every run writes the fully
resolved configuration next to its outputs so it can be replayed
bit-for-bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from . import analysis, assembly, experiments, mesh, problems, verification
from .errors import LinearSolveFailure, MeshDegenerated

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATED = 3
EXIT_SOLVER = 4


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults reproduce the benchmarks)."""

    experiment: str
    levels: Tuple[int, ...] = (1, 2, 3, 4)
    level: int = 3
    alpha: float = 1.0
    beta: float = 0.0
    delta: float = 0.4
    gamma: float = 100.0
    a: float = 0.1
    b: float = 0.9
    d_c: float = 10.0
    r0: float = 1.0
    rk: float = 2.0
    k: float = 0.5
    t_end: float = 1.0
    tau: Optional[float] = None
    tau_c: float = 0.1
    seed: int = 0
    out: str = "results"
    export_every: int = 0
    solver: str = "cholesky"
    normal_coupling: str = "nodal"
    loads_on: str = "old"
    dump_matrices: bool = False


_DEFAULTS = {
    "example1": dict(t_end=1.0, alpha=1.0, beta=0.0, delta=0.4),
    "example3": dict(t_end=2.0, delta=0.0),
    "tumor": dict(t_end=5.0, alpha=0.0, beta=0.01, delta=0.01, tau=1e-3),
    "verify": dict(level=2),
}

_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}


def parse_levels(text):
    """'A..B' or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty level range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _coerce(name, raw):
    if name == "levels":
        return parse_levels(raw) if isinstance(raw, str) else tuple(raw)
    if name == "dump_matrices":
        return raw in (True, "1", "true", "yes") if not isinstance(raw, bool) else raw
    if name in ("level", "seed", "export_every"):
        return int(raw)
    if name == "tau":
        return None if raw in (None, "", "none") else float(raw)
    if name in ("experiment", "out", "solver", "normal_coupling", "loads_on"):
        return str(raw)
    return float(raw)


def read_config_file(path):
    """key=value lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def serialize_config(config: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        if f.name == "levels":
            value = f"{value[0]}..{value[-1]}" if len(value) > 1 else str(value[0])
        elif f.name == "tau":
            value = "none" if value is None else "%.17g" % value
        elif isinstance(value, float):
            value = "%.17g" % value
        elif isinstance(value, bool):
            value = "1" if value else "0"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def resolve_config(args) -> RunConfig:
    """Layer experiment defaults, then the config file, then explicit flags."""
    values = dict(experiment=args.experiment)
    values.update(_DEFAULTS.get(args.experiment, {}))
    if args.config:
        file_values = read_config_file(args.config)
        file_values.pop("experiment", None)
        values.update(file_values)
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = _coerce(name, flag)
    if args.experiment in ("example1", "example3") and values.get("tau") is not None:
        raise ValueError(f"{args.experiment} sets tau = tau_c * h^2 on every level; "
                         "use --tau-c instead of --tau")
    return RunConfig(**values)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esfem-evolve",
        description="Finite element evolution of field-driven closed surfaces",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in [
        ("example1", "coupled expanding-sphere convergence study"),
        ("example3", "velocity-law regularization comparison (both arms)"),
        ("tumor", "two-species pattern formation on a growing sphere"),
        ("verify", "numerical identity checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--levels", help="refinement range A..B")
        p.add_argument("--level", type=int, help="single refinement level")
        p.add_argument("--tau", type=float, help="fixed time step (tumor only)")
        p.add_argument("--tau-c", dest="tau_c", type=float,
                       help="step rule tau = c*h^2 (default c=0.1)")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--b", type=float)
        p.add_argument("--dc", dest="d_c", type=float, help="second-species diffusivity")
        p.add_argument("--r0", type=float)
        p.add_argument("--rk", type=float)
        p.add_argument("--k", type=float)
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory (default results/)")
        p.add_argument("--export-every", dest="export_every", type=int,
                       help="write surface snapshots every N steps")
        p.add_argument("--solver", choices=["cholesky", "cg"])
        p.add_argument("--normal-coupling", dest="normal_coupling",
                       choices=["nodal", "interpolated"])
        p.add_argument("--loads-on", dest="loads_on", choices=["old", "new"])
        p.add_argument("--dump-matrices", dest="dump_matrices", action="store_const",
                       const=True, help="dump initial mass/stiffness matrices")
    return parser


def _prepare_out(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.txt").write_text(serialize_config(config))
    if config.dump_matrices:
        mesh0 = mesh.generate_icosphere(
            config.levels[0] if config.experiment != "tumor" else config.level,
            config.r0)
        assembly.write_coordinate_matrix(assembly.assemble_mass(mesh0),
                                         out / "mass_matrix.txt")
        assembly.write_coordinate_matrix(assembly.assemble_stiffness(mesh0),
                                         out / "stiffness_matrix.txt")
    return out


def _warn_failure(level, err):
    print(f"level {level}: mesh degenerated at t={err.time:.4g}; "
          "level omitted from the table", file=sys.stderr)


def _run_example1(config: RunConfig, out: Path) -> int:
    report = experiments.example1_study(
        levels=config.levels, alpha=config.alpha, beta=config.beta,
        delta=config.delta, r0=config.r0, rK=config.rk, k=config.k,
        t_end=config.t_end, tau_c=config.tau_c, solver=config.solver,
        normal_coupling=config.normal_coupling, loads_on=config.loads_on,
        on_failure=_warn_failure)
    if not report.levels:
        return EXIT_DEGENERATED
    analysis.emit_table(report, out / "table.csv")
    return EXIT_OK


def _run_example3(config: RunConfig, out: Path) -> int:
    wrote_any = False
    for tag, (alpha, beta) in [("alpha", (1.0, 0.0)), ("beta", (0.0, 1.0))]:
        report = experiments.example3_study(
            alpha, beta, levels=config.levels, r0=config.r0, rK=config.rk,
            k=config.k, t_end=config.t_end, tau_c=config.tau_c,
            solver=config.solver, normal_coupling=config.normal_coupling,
            loads_on=config.loads_on, on_failure=_warn_failure)
        if report.levels:
            analysis.emit_table(report, out / f"table_{tag}.csv")
            wrote_any = True
    return EXIT_OK if wrote_any else EXIT_DEGENERATED


def _run_tumor(config: RunConfig, out: Path) -> int:
    kin = problems.TumorKinetics(D_c=config.d_c, gamma=config.gamma,
                                 a=config.a, b=config.b)
    experiments.tumor_experiment(
        alpha=config.alpha, beta=config.beta, delta=config.delta,
        level=config.level, tau=config.tau, t_end=config.t_end,
        seed=config.seed, kinetics=kin, solver=config.solver,
        normal_coupling=config.normal_coupling, loads_on=config.loads_on,
        out_dir=str(out), export_every=config.export_every)
    return EXIT_OK


def _run_verify(config: RunConfig, out: Path) -> int:
    results = verification.verify_suite(level=config.level, seed=config.seed)
    text = verification.format_report(results)
    (out / "verify.txt").write_text(text)
    print(text, end="")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = resolve_config(args)
        out = _prepare_out(config)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    runner = {
        "example1": _run_example1,
        "example3": _run_example3,
        "tumor": _run_tumor,
        "verify": _run_verify,
    }[config.experiment]
    try:
        return runner(config, out)
    except MeshDegenerated as exc:
        print(f"mesh degenerated at t={exc.time:.6g}", file=sys.stderr)
        return EXIT_DEGENERATED
    except LinearSolveFailure as exc:
        print(f"linear solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
