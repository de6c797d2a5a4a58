"""Command-line entry point: esfem-evolve <experiment> [flags].

Experiments: the coupled convergence benchmark (example1), the
regularization comparison (example3, both arms), the pattern-forming
tumor run (tumor), and the numerical identity suite (verify).  Each
experiment declares in ``EXPERIMENTS`` the fields its run reads, with
their defaults; its flags, its config-file keys and its
config_resolved.txt derive from that row, so a flag or key the run would
not read is a configuration error.  Flags override an optional key=value
config file; every run writes the fully resolved configuration next to
its outputs so it can be replayed bit-for-bit.
"""

import argparse
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from . import analysis, assembly, experiments, mesh, problems, stepper, verification
from .errors import (EsfemError, LinearSolveFailure, MeshDegenerated, NonFiniteIntegrand,
                     NonFiniteState)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATED = 3
EXIT_SOLVER = 4
EXIT_NONFINITE = 5
# a run's failures, matched by isinstance; an ArithmeticError is Python's float
# arithmetic overflowing or dividing by zero in the problem data
_EXIT_CODES = {MeshDegenerated: EXIT_DEGENERATED, LinearSolveFailure: EXIT_SOLVER,
               NonFiniteState: EXIT_NONFINITE, NonFiniteIntegrand: EXIT_NONFINITE,
               ArithmeticError: EXIT_NONFINITE}

_COMMON = dict(out="results", dump_matrices=False)
# the solve options, their allowed values and their defaults are StepperConfig's
_CHOICES = stepper.StepperConfig.CHOICES
_SOLVE = {name: getattr(stepper.StepperConfig, name) for name in _CHOICES}
_STUDY = dict(levels=(1, 2, 3, 4), r0=1.0, rk=2.0, k=0.5, tau_c=0.1, **_SOLVE)

# experiment -> (help text, {field its run reads: default}), fields in the
# order config_resolved.txt lists them; the defaults reproduce the paper's runs.
EXPERIMENTS = {
    "example1": ("coupled expanding-sphere convergence study",
                 dict(alpha=1.0, beta=0.0, delta=0.4, t_end=1.0, **_STUDY, **_COMMON)),
    "example3": ("velocity-law regularization comparison (both arms)",
                 dict(t_end=2.0, **_STUDY, **_COMMON)),
    "tumor": ("two-species pattern formation on a growing sphere",
              dict(level=3, alpha=0.0, beta=0.01, delta=0.01, gamma=100.0, a=0.1,
                   b=0.9, d_c=10.0, t_end=5.0, tau=1e-3, seed=0, export_every=0,
                   **_SOLVE, **_COMMON)),
    "verify": ("numerical identity checks", dict(level=2, seed=0, **_COMMON)),
}
_KEYS = {"experiment", *(key for _, row in EXPERIMENTS.values() for key in row)}


def _flag(name):
    return "--dc" if name == "d_c" else "--" + name.replace("_", "-")


def parse_levels(text):
    """'A..B' or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty level range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _convert(name, default, text):
    """Flag or file text -> a value of the default's type, within _CHOICES."""
    try:
        if isinstance(default, tuple):
            value = parse_levels(text)
        elif isinstance(default, bool):
            value = {"0": False, "1": True, "false": False, "true": True}[text.lower()]
        else:
            value = type(default)(text)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{name}={text}: not a {type(default).__name__} ({exc})") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    if value not in _CHOICES.get(name, (value,)):
        raise ValueError(f"{name} must be one of {', '.join(_CHOICES[name])}, got {text!r}")
    written = _text(value)  # read_config_file cuts lines at '#' and strips them
    if "#" in written or written != written.strip() or len(written.splitlines()) > 1:
        raise ValueError(f"{name}={text!r} cannot be written to config_resolved.txt")
    return value


def _text(value):
    """Inverse of _convert: the text that converts back to ``value`` exactly."""
    if isinstance(value, tuple):
        return f"{value[0]}..{value[-1]}" if len(value) > 1 else str(value[0])
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)  # a float's str is the shortest text that reads back exactly


def _unread(experiment, what):
    flags = " ".join(_flag(name) for name in EXPERIMENTS[experiment][1])
    return ValueError(f"{experiment} does not read {what}; "
                      f"its flags are --config {flags}")


def read_config_file(path):
    """key=value lines; '#' starts a comment.  Returns the raw text per key."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = raw
    return values


def serialize_config(config) -> str:
    return "".join(f"{name}={_text(value)}\n" for name, value in vars(config).items())


def resolve_config(args):
    """Layer the experiment's defaults, then the config file, then explicit
    flags; the result holds ``experiment`` and the experiment's fields only."""
    experiment, fields = args.experiment, EXPERIMENTS[args.experiment][1]
    given = read_config_file(args.config) if args.config else {}
    named = given.pop("experiment", experiment)
    if named != experiment:
        raise ValueError(f"{args.config} is a config for {named}, not {experiment}")
    unread = [key for key in given if key not in fields]
    if unread:
        raise _unread(experiment, "key " + ", ".join(map(repr, unread)))
    given.update((name, getattr(args, name)) for name in fields
                 if getattr(args, name) is not None)
    values = {name: _convert(name, default, given[name]) if name in given else default
              for name, default in fields.items()}
    return SimpleNamespace(experiment=experiment, **values)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esfem-evolve",
        description="Finite element evolution of field-driven closed surfaces",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment, (help_text, row) in EXPERIMENTS.items():
        # no abbreviations: "--tau" must not parse as "--tau-c"
        p = sub.add_parser(experiment, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="key=value file; flags override it")
        for name, default in row.items():
            # a bool field is a switch, so --dump-matrices takes no value
            choices = _CHOICES.get(name)
            kind = (dict(action="store_const", const="1") if isinstance(default, bool)
                    else dict(metavar="{%s}" % ",".join(choices) if choices else None))
            p.add_argument(_flag(name), dest=name, help=f"default: {_text(default)}", **kind)
    return parser


def _check(config):
    """The range checks the run makes before its first step, in its order,
    so that a run they refuse exits before --out is created or written.
    Only the study's check reads a mesh: its finest level, which takes
    the most steps, is built to check their count before any level runs."""
    if config.experiment == "verify":
        verification.check_recorded_level(config.level)
        problems.check_seed(config.seed)
        return
    solve = _solve_options(config)
    if config.experiment == "tumor":
        kin = _kinetics(config)
        experiments.check_export_every(config.export_every)
        problems.tumor_problem(config.alpha, config.beta, config.delta, kin)
        mesh.check_level(config.level)
        tau = experiments.step_size_for(None, config.t_end, tau=config.tau)  # reads no mesh
        stepper.StepperConfig(tau, config.t_end, **solve)
        problems.check_seed(config.seed)
        return
    for alpha, beta, delta in _arms(config).values():
        problems.example1_problem(alpha, beta, delta, config.r0, config.rk, config.k)
    tau = experiments.finest_step_size(config.levels, config.r0, config.t_end, config.tau_c)
    stepper.StepperConfig(tau, config.t_end, **solve)


def _starting_mesh(config):
    """The icosphere the run starts from (a study's first level)."""
    if config.experiment in ("tumor", "verify"):
        return mesh.generate_icosphere(config.level, 1.0)
    return mesh.generate_icosphere(config.levels[0], config.r0)


def _prepare_out(config) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.txt").write_text(serialize_config(config))
    if config.dump_matrices:
        mass, stiff = assembly.surface_matrices(_starting_mesh(config))
        assembly.write_coordinate_matrix(mass, out / "mass_matrix.txt")
        assembly.write_coordinate_matrix(stiff, out / "stiffness_matrix.txt")
    return out


def _solve_options(config):
    return {name: getattr(config, name) for name in _SOLVE}


def _warn_failure(level, err):
    print(f"level {level}: mesh degenerated at t={err.time:.4g}; "
          "level omitted from the table", file=sys.stderr)


# example3's arms, table -> (alpha, beta, delta): no field coupling
_EXAMPLE3_ARMS = {"table_alpha.csv": (1.0, 0.0, 0.0), "table_beta.csv": (0.0, 1.0, 0.0)}


def _arms(config):
    """table -> (alpha, beta, delta) of each arm of the study (example1 has one)."""
    if config.experiment == "example3":
        return _EXAMPLE3_ARMS
    return {"table.csv": (config.alpha, config.beta, config.delta)}


def _run_study(config, out: Path) -> int:
    """One table per arm; exit 3 if no arm completed a level."""
    wrote_any = False
    for table, (alpha, beta, delta) in _arms(config).items():
        report = experiments.example1_study(
            levels=config.levels, alpha=alpha, beta=beta, delta=delta, r0=config.r0,
            rK=config.rk, k=config.k, t_end=config.t_end, tau_c=config.tau_c,
            on_failure=_warn_failure, **_solve_options(config))
        if report.levels:
            analysis.emit_table(report, out / table)
            wrote_any = True
    return EXIT_OK if wrote_any else EXIT_DEGENERATED


def _kinetics(config):
    return problems.TumorKinetics(D_c=config.d_c, gamma=config.gamma, a=config.a, b=config.b)


def _run_tumor(config, out: Path) -> int:
    kin = _kinetics(config)
    experiments.tumor_experiment(
        alpha=config.alpha, beta=config.beta, delta=config.delta,
        level=config.level, tau=config.tau, t_end=config.t_end,
        seed=config.seed, kinetics=kin, out_dir=str(out),
        export_every=config.export_every, **_solve_options(config))
    return EXIT_OK


def _run_verify(config, out: Path) -> int:
    results = verification.verify_suite(level=config.level, seed=config.seed)
    text = verification.format_report(results)
    (out / "verify.txt").write_text(text)
    print(text, end="")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


_RUNNERS = {"example1": _run_study, "example3": _run_study, "tumor": _run_tumor,
            "verify": _run_verify}


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if extra:
            raise _unread(args.experiment, " ".join(extra))
        config = resolve_config(args)
        _check(config)
        return _RUNNERS[config.experiment](config, _prepare_out(config))
    except (ValueError, OSError) as exc:
        # a bad flag or key, the library's own range checks (e.g. a negative
        # t_end or seed) and an --out whose files cannot be written
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except tuple(_EXIT_CODES) as exc:
        what = exc if isinstance(exc, EsfemError) else f"{type(exc).__name__}: {exc}"
        print(f"run failed: {what}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
