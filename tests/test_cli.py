import csv
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esfem import (analysis, assembly, cli, errors, experiments, mesh, problems, stepper,
                   verification)

# The fields each experiment's run reads; every experiment also reads out
# and dump_matrices.
ROWS = {
    "example1": "alpha beta delta t_end levels r0 rk k tau_c solver normal_coupling",
    "example3": "t_end levels r0 rk k tau_c solver normal_coupling",
    "tumor": "level alpha beta delta gamma a b d_c t_end tau seed export_every "
             "solver normal_coupling",
    "verify": "level seed",
}
ROWS = {experiment: row.split() for experiment, row in ROWS.items()}
ENTRY_POINTS = {
    "example1": (experiments, "example1_study"),
    "example3": (experiments, "example1_study"),
    "tumor": (experiments, "tumor_experiment"),
    "verify": (verification, "verify_suite"),
}
DEFAULTS = {name: default for _, row in cli.EXPERIMENTS.values() for name, default in row.items()}
# the callables that declare defaults for the fields of each experiment that
# runs a driver, and the driver's name for a field where it differs
DRIVERS = {
    "example1": (experiments.example1_study,),
    "example3": (experiments.example1_study,),
    "tumor": (experiments.tumor_experiment, problems.TumorKinetics),
}
DRIVER_NAMES = {"rk": "rK", "d_c": "D_c"}
# fields whose default an experiment sets itself: example3 runs example1's
# study over its own, longer horizon
OWN_DEFAULTS = {"example3": {"t_end"}}


class Reached(Exception):
    """Raised by a stubbed entry point with the arguments it was called with."""


def stub_entry_point(monkeypatch, experiment):
    def reached(*args, **kwargs):
        raise Reached(args, kwargs)

    monkeypatch.setattr(*ENTRY_POINTS[experiment], reached)


def changed(name, default):
    """Flag text for a valid value of the field that differs from ``default``."""
    if isinstance(default, tuple):
        return "2..3"
    if name in cli._CHOICES:
        return next(c for c in cli._CHOICES[name] if c != default)
    if name == "tau":
        return str(default / 2)  # a fixed tau must divide t_end
    return str(default + 1)


def read_rows(path):
    with open(path) as f:
        return list(csv.reader(f))


def snapshot(path):
    """The bytes of the file ``path``, or of each file under the directory
    ``path`` by relative name; None when nothing is there."""
    if path.is_file():
        return path.read_bytes()
    if not path.exists():
        return None
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


def assert_refused(argv, out):
    """``argv --out out`` exits 2 and leaves out absent or as it was."""
    before = snapshot(out)
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert snapshot(out) == before


class TestLevelsParsing:
    def test_range(self):
        assert cli.parse_levels("1..4") == (1, 2, 3, 4)

    def test_single(self):
        assert cli.parse_levels("3") == (3,)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_levels("4..2")


class TestConfigRoundTrip:
    def test_serialize_reparse_identical(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["example1", "--levels", "1..2", "--alpha", "0.5", "--delta", "0.9",
             "--solver", "cg", "--tau-c", "0.2"])
        config = cli.resolve_config(args)
        path = tmp_path / "conf.txt"
        path.write_text(cli.serialize_config(config))
        args2 = cli.build_parser().parse_args(["example1", "--config", str(path)])
        config2 = cli.resolve_config(args2)
        assert config2 == config

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("# a comment-only line\nalpha=0.25\n\ndelta=0.3  # trailing\n")
        args = cli.build_parser().parse_args(
            ["example1", "--config", str(path), "--alpha", "0.75"])
        config = cli.resolve_config(args)
        assert config.alpha == 0.75  # flag wins
        assert config.delta == 0.3   # file wins over default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("omega=1\n")
        with pytest.raises(ValueError):
            cli.read_config_file(path)

    def test_experiment_defaults(self):
        args = cli.build_parser().parse_args(["tumor"])
        config = cli.resolve_config(args)
        assert config.t_end == 5.0
        assert config.tau == 1e-3
        assert (config.d_c, config.gamma, config.a, config.b) == (10.0, 100.0, 0.1, 0.9)
        args = cli.build_parser().parse_args(["example1"])
        config = cli.resolve_config(args)
        assert (config.t_end, config.alpha, config.beta, config.delta) == (1.0, 1.0, 0.0, 0.4)
        assert (config.r0, config.rk, config.k) == (1.0, 2.0, 0.5)

    @pytest.mark.parametrize("experiment", sorted(DRIVERS))
    def test_defaults_match_the_drivers(self, experiment):
        declared = {name: param.default for driver in DRIVERS[experiment]
                    for name, param in inspect.signature(driver).parameters.items()
                    if param.default is not param.empty}
        row = cli.EXPERIMENTS[experiment][1]
        shared = [name for name in row if DRIVER_NAMES.get(name, name) in declared
                  and name not in OWN_DEFAULTS.get(experiment, ())]
        assert len(shared) >= 5
        for name in shared:
            assert row[name] == declared[DRIVER_NAMES.get(name, name)], name


class TestMainContracts:
    def test_bad_flags_exit_code_two(self, tmp_path, capsys):
        assert_refused(["example1", "--solver", "qr"], tmp_path / "o")
        assert cli.EXIT_CONFIG == 2
        capsys.readouterr()

    @pytest.mark.parametrize("experiment", ["example1", "example3"])
    def test_fixed_tau_rejected_for_convergence_studies(self, experiment, tmp_path, capsys):
        # the studies set tau = tau_c * h^2 per level; a fixed tau would be
        # recorded in config_resolved.txt without being used
        out = tmp_path / "o"
        assert cli.main([experiment, "--tau", "0.5", "--out", str(out)]) == cli.EXIT_CONFIG
        assert "--tau-c" in capsys.readouterr().err
        conf = tmp_path / "c.txt"
        conf.write_text("tau=0.5\n")
        code = cli.main([experiment, "--config", str(conf), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "--tau-c" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_exit_code_two(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert_refused(["verify"], target)
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("argv, blocked", [
        (["tumor", "--level", "1", "--t-end", "0.002", "--export-every", "1"],
         "surface_000000.vtk"),
        (["example1", "--levels", "1", "--t-end", "0.05"], "table.csv"),
    ])
    def test_unwritable_output_exit_code_two(self, argv, blocked, tmp_path, capsys):
        # a directory where the run writes one of its files: an unusable --out
        (tmp_path / blocked).mkdir()
        assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        # the run passed its checks and started, so it wrote its resolved
        # configuration before the output it could not write
        assert (tmp_path / "config_resolved.txt").exists()

    def test_verify_failure_exit_code_one(self, tmp_path, monkeypatch, capsys):
        from esfem import verification

        def failing(level, seed):
            return [verification.CheckResult("forced", 1.0, 0.5, False)]

        monkeypatch.setattr(verification, "verify_suite", failing)
        code = cli.main(["verify", "--out", str(tmp_path / "v")])
        assert code == cli.EXIT_VERIFY_FAILED == 1
        assert "FAILURES PRESENT" in capsys.readouterr().out

    def test_bad_config_file_exit_code_two(self, tmp_path, capsys):
        bad = tmp_path / "c.txt"
        bad.write_text("nonsense\n")
        assert_refused(["example1", "--config", str(bad)], tmp_path)
        capsys.readouterr()

    def test_negative_level_in_config_file_exit_code_two(self, tmp_path, capsys):
        conf = tmp_path / "c.txt"
        conf.write_text("experiment=example1\nlevels=-1..1\nt_end=0.01\n")
        assert_refused(["example1", "--config", str(conf)], tmp_path / "o")
        assert capsys.readouterr().err.startswith("configuration error: subdivision_level -1 ")

    def test_example1_writes_table_with_row_per_level(self, tmp_path):
        out = tmp_path / "res"
        code = cli.main(["example1", "--levels", "1..2", "--tau-c", "0.5",
                         "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "table.csv")
        assert len(rows) == 3  # header + one row per level
        assert rows[0][0] == "level"
        assert (out / "config_resolved.txt").exists()

    def test_example1_deterministic_outputs(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli.main(["example1", "--levels", "1..1", "--tau-c", "0.5",
                             "--out", str(out)]) == 0
            outs.append((out / "table.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_dump_matrices_flag(self, tmp_path):
        out = tmp_path / "dump"
        assert cli.main(["example1", "--levels", "1..1", "--tau-c", "0.5",
                         "--out", str(out), "--dump-matrices"]) == 0
        mass_lines = (out / "mass_matrix.txt").read_text().splitlines()
        assert len(mass_lines) > 0
        i, j, v = mass_lines[0].split()
        assert int(i) == 0 and float(v) > 0

    def test_verify_writes_report(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = cli.main(["verify", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        text = (out / "verify.txt").read_text()
        assert "CHECK matrix_difference_mass" in text
        assert "ALL PASS" in text
        assert "CHECK" in captured.out

    def test_tumor_outputs_and_determinism(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = cli.main([
                "tumor", "--level", "1", "--tau", "2e-3", "--t-end", "0.02",
                "--seed", "7", "--export-every", "5", "--out", str(out)])
            assert code == 0
            summary = (out / "tumor_summary.csv").read_bytes()
            surface = (out / "surface_000005.vtk").read_bytes()
            final = (out / "surface_final.vtk").read_bytes()
            outputs.append((summary, surface, final))
        assert outputs[0] == outputs[1]

    def test_example3_arms_have_no_field_coupling(self, tmp_path, monkeypatch, capsys):
        arms = []

        def study(**kwargs):
            arms.append((kwargs["alpha"], kwargs["beta"], kwargs["delta"], kwargs["t_end"]))
            return analysis.ErrorReport()

        monkeypatch.setattr(experiments, "example1_study", study)
        assert cli.main(["example3", "--out", str(tmp_path / "o")]) == cli.EXIT_DEGENERATED
        assert arms == [(1.0, 0.0, 0.0, 2.0), (0.0, 1.0, 0.0, 2.0)]
        capsys.readouterr()

    def test_example3_writes_both_arms(self, tmp_path):
        out = tmp_path / "cmp"
        code = cli.main(["example3", "--levels", "2..2", "--tau-c", "1.0",
                         "--out", str(out)])
        assert code == 0
        assert (out / "table_alpha.csv").exists()
        assert (out / "table_beta.csv").exists()

    def test_replay_from_resolved_config_is_bitwise_identical(self, tmp_path):
        first = tmp_path / "first"
        assert cli.main(["example1", "--levels", "1..1", "--tau-c", "0.5",
                         "--delta", "0.3", "--out", str(first)]) == 0
        replay = tmp_path / "replay"
        assert cli.main(["example1", "--config", str(first / "config_resolved.txt"),
                         "--out", str(replay)]) == 0
        assert (first / "table.csv").read_bytes() == (replay / "table.csv").read_bytes()

    def test_degeneration_maps_to_exit_three(self, tmp_path, monkeypatch, capsys):
        from esfem import experiments
        from esfem.errors import MeshDegenerated
        from esfem.mesh import QualityReport

        def boom(**kwargs):
            raise MeshDegenerated(0.5, QualityReport(1.0, 99.0, 0.0))

        monkeypatch.setattr(experiments, "example1_study", boom)
        code = cli.main(["example1", "--out", str(tmp_path / "o")])
        assert code == 3
        capsys.readouterr()

    def test_solver_failure_maps_to_exit_four(self, tmp_path, monkeypatch, capsys):
        from esfem import experiments
        from esfem.errors import LinearSolveFailure

        def boom(**kwargs):
            raise LinearSolveFailure("stalled", 1e-3)

        monkeypatch.setattr(experiments, "example1_study", boom)
        code = cli.main(["example1", "--out", str(tmp_path / "o")])
        assert code == 4
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["example1", "--levels", "1..1", "--tau-c", "0.5"],
        ["tumor", "--level", "1", "--tau", "2e-3", "--t-end", "0.02"]])
    def test_singular_factorization_maps_to_exit_four(self, argv, tmp_path, monkeypatch,
                                                      capsys):
        import scipy.sparse.linalg as spla

        def not_positive_definite(band, **kwargs):
            return band, 1  # dpbtrf's breakdown at the first column

        def singular(matrix, *args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        # both factor kinds fail: the band Cholesky, then SuperLU
        monkeypatch.setattr(assembly, "dpbtrf", not_positive_definite)
        monkeypatch.setattr(spla, "splu", singular)
        code = cli.main([*argv, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_SOLVER == 4
        err = capsys.readouterr().err
        assert "exactly singular" in err and "Traceback" not in err


class TestExperimentFields:
    @pytest.mark.parametrize("experiment", sorted(ROWS))
    def test_help_lists_exactly_the_fields_read(self, experiment, capsys):
        assert set(cli.EXPERIMENTS[experiment][1]) == {*ROWS[experiment], "out", "dump_matrices"}
        assert cli.main([experiment, "--help"]) == 0
        flags = set(re.findall(r"\[(--[a-z0-9-]+)", capsys.readouterr().out))
        expected = {cli._flag(name) for name in ROWS[experiment]}
        assert flags == expected | {"--config", "--out", "--dump-matrices"}

    @pytest.mark.parametrize("experiment", sorted(ROWS))
    def test_every_field_read_reaches_the_entry_point(self, experiment, tmp_path,
                                                      monkeypatch):
        stub_entry_point(monkeypatch, experiment)
        out = ["--out", str(tmp_path / "o")]
        with pytest.raises(Reached) as info:
            cli.main([experiment, *out])
        args, defaults = info.value.args
        assert args == ()
        for name in ROWS[experiment]:
            text = changed(name, cli.EXPERIMENTS[experiment][1][name])
            with pytest.raises(Reached) as info:
                cli.main([experiment, cli._flag(name), text, *out])
            assert info.value.args[1] != defaults, name

    @pytest.mark.parametrize("experiment", sorted(ROWS))
    def test_every_field_not_read_is_rejected(self, experiment, tmp_path, capsys):
        out = tmp_path / "o"
        for name in sorted(set(DEFAULTS) - set(cli.EXPERIMENTS[experiment][1])):
            text = changed(name, DEFAULTS[name])
            code = cli.main([experiment, cli._flag(name), text, "--out", str(out)])
            assert code == cli.EXIT_CONFIG, name
            assert cli._flag(name) in capsys.readouterr().err
            conf = tmp_path / "c.txt"
            conf.write_text(f"{name}={text}\n")
            code = cli.main([experiment, "--config", str(conf), "--out", str(out)])
            assert code == cli.EXIT_CONFIG, name
            assert repr(name) in capsys.readouterr().err
            assert not out.exists()

    def test_out_that_would_not_replay_rejected(self, tmp_path, capsys):
        out = tmp_path / "runs#1"
        assert cli.main(["verify", "--out", str(out)]) == cli.EXIT_CONFIG
        assert "cannot be written" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, line", [
        ("example1", "solver=qr"),
        ("example3", "normal_coupling=foo"),
        ("tumor", "loads_on=old"),
        ("tumor", "tau=none"),
        ("tumor", "seed=1.5"),
        ("verify", "dump_matrices=maybe"),
        ("example1", "levels=3..1"),
        ("example1", "experiment=tumor"),
    ])
    def test_config_file_values_checked_like_flags(self, experiment, line, tmp_path, capsys):
        conf = tmp_path / "c.txt"
        conf.write_text(line + "\n")
        out = tmp_path / "o"
        code = cli.main([experiment, "--config", str(conf), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()


def field_strategy(name, default):
    if isinstance(default, tuple):
        return st.integers(0, 6).flatmap(
            lambda lo: st.integers(lo, lo + 3).map(lambda hi: tuple(range(lo, hi + 1))))
    if name in cli._CHOICES:
        return st.sampled_from(cli._CHOICES[name])
    if isinstance(default, str):
        return st.text()
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2**40, 2**40)
    return st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("experiment", sorted(ROWS))
def test_config_round_trip(experiment, tmp_path_factory):
    row = cli.EXPERIMENTS[experiment][1]

    @settings(max_examples=25, deadline=None)
    @given(st.fixed_dictionaries({name: field_strategy(name, default)
                                  for name, default in row.items()}))
    def round_trip(values):
        argv = [experiment]
        argv += [f"{cli._flag(name)}={cli._text(value)}" for name, value in values.items()
                 if not isinstance(value, bool)]
        argv += ["--dump-matrices"] * values["dump_matrices"]
        try:
            config = cli.resolve_config(cli.build_parser().parse_args(argv))
        except ValueError as exc:
            # only an --out text that the file format cannot hold is refused
            assert str(exc).startswith(f"out={values['out']!r} cannot be written")
            return
        assert vars(config) == dict(experiment=experiment, **values)
        path = tmp_path_factory.mktemp("c") / "config_resolved.txt"
        path.write_text(cli.serialize_config(config))
        keys = [line.split("=", 1)[0] for line in path.read_text().splitlines()]
        assert keys == ["experiment", *cli.EXPERIMENTS[experiment][1]]
        assert sorted(keys) == sorted(["experiment", *ROWS[experiment], "out", "dump_matrices"])
        replay = cli.resolve_config(
            cli.build_parser().parse_args([experiment, "--config", str(path)]))
        assert replay == config

    round_trip()


class TestDumpMatrices:
    @pytest.mark.parametrize("experiment, argv, level, radius", [
        ("verify", ["--level", "2"], 2, 1.0),
        ("tumor", ["--level", "1"], 1, 1.0),
        ("example1", ["--levels", "2..3", "--r0", "1.5"], 2, 1.5),
    ])
    def test_dumps_the_starting_mesh(self, experiment, argv, level, radius, tmp_path,
                                     monkeypatch):
        stub_entry_point(monkeypatch, experiment)
        out = tmp_path / "o"
        with pytest.raises(Reached):
            cli.main([experiment, *argv, "--dump-matrices", "--out", str(out)])
        mesh0 = mesh.generate_icosphere(level, radius)
        assembly.write_coordinate_matrix(assembly.assemble_mass(mesh0), tmp_path / "m.txt")
        assembly.write_coordinate_matrix(assembly.assemble_stiffness(mesh0), tmp_path / "a.txt")
        assert (out / "mass_matrix.txt").read_text() == (tmp_path / "m.txt").read_text()
        assert (out / "stiffness_matrix.txt").read_text() == (tmp_path / "a.txt").read_text()


def test_non_finite_state_exit_code_five(tmp_path, monkeypatch, capsys):
    from esfem import stepper
    # the field solves; the direct velocity solve of the first step, its
    # factor's own, does not use it
    monkeypatch.setattr(stepper, "_pcg_solver",
                        lambda *args: lambda rhs: rhs * float("nan"))
    code = cli.main(["example1", "--levels", "1..1", "--tau-c", "0.5",
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NONFINITE == 5
    err = capsys.readouterr().err
    assert "non-finite u" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # a stiff reaction overflows in the pre-relaxation
    ["tumor", "--level", "1", "--gamma", "1e6", "--t-end", "0.002"],
    # the integrand itself overflows at its first call
    ["tumor", "--level", "1", "--t-end", "0.002", "--gamma", "1e300"],
])
def test_non_finite_integrand_exit_code_five(argv, tmp_path, capsys):
    # without a numpy warning: the message is the one line on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*argv, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NONFINITE == 5
    err = capsys.readouterr().err
    assert err.startswith("run failed: integrand non-finite") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    # a huge coupling flings the surface out until its finite nodes give
    # NaN areas, which the step refuses before its forcing overflows
    (["tumor", "--level", "1", "--t-end", "0.002", "--delta", "1e300"],
     "run failed: mesh degenerated"),
    (["example1", "--levels", "1", "--t-end", "0.05", "--delta", "1e300"],
     "level 1: mesh degenerated"),
], ids=["tumor", "example1"])
def test_overflowing_surface_exit_code_three(argv, message, tmp_path, capsys):
    # without a numpy warning: the message is the one line on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([*argv, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DEGENERATED == 3
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["example1", "--t-end", "-1"],
    ["verify", "--seed", "-1"],
    ["tumor", "--dc", "-1"],
    ["example1", "--r0", "-1"],
    ["example1", "--alpha", "0", "--beta", "0"],
    ["example1", "--tau-c", "0"],
    ["example1", "--tau-c", "-1"],
    ["tumor", "--tau", "0"],
    ["tumor", "--t-end", "-1"],
    ["tumor", "--export-every", "-3"],
    ["verify", "--level", "0"],
    # about 1e299 and 2e297 steps: past problems.MAX_STEPS; a subnormal
    # step gives an infinite count
    ["example1", "--levels", "1", "--t-end", "0.05", "--tau-c", "1e-300"],
    ["tumor", "--level", "1", "--t-end", "0.002", "--tau", "1e-300"],
    ["example1", "--levels", "1", "--t-end", "0.05", "--tau-c", "1e-320"],
    ["tumor", "--level", "1", "--t-end", "0.002", "--tau", "1e-320"],
    # 0.01 / 0.003 is no whole number of steps, and no other tau runs instead
    ["tumor", "--level", "1", "--t-end", "0.01", "--tau", "0.003"],
    # past mesh.MAX_LEVEL: refused before any mesh is built
    ["tumor", "--level", "30", "--t-end", "0.002"],
    ["example1", "--levels", "1..30"],
    # a non-finite value parses as a float but is refused
    ["example1", "--alpha", "nan"],
    ["tumor", "--t-end", "inf"],
    # radii outside mesh.RADIUS_RANGE: the element geometry would overflow
    # or the midpoint projection divide by zero
    ["example1", "--levels", "1", "--t-end", "0.01", "--r0", "1e100"],
    ["example1", "--levels", "1", "--t-end", "0.01", "--r0", "1e200"],
    ["example1", "--levels", "1", "--t-end", "0.01", "--r0", "1e-200"],
    ["tumor", "--level", "1", "--t-end", "0.002", "--seed", "-1"],
    # below level 0: refused before --out is written
    ["example1", "--levels=-1..1", "--t-end", "0.01"],
    ["example1", "--levels=-1..1", "--t-end", "0.01", "--dump-matrices"],
    ["example3", "--levels=-1..1", "--t-end", "0.01"],
])
def test_out_of_range_value_exit_code_two(argv, tmp_path, capsys):
    # the value parses; the library's own range check rejects it, without
    # a numpy warning, before --out is created
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_refused(argv, tmp_path / "o")
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["tumor", "--level", "30", "--t-end", "0.002"],
    ["tumor", "--level", "30", "--t-end", "0.002", "--dump-matrices"],
    ["example1", "--levels", "1..30"],
    ["example3", "--levels", "1..9"],
    ["example1", "--levels", "1..30", "--dump-matrices"],
    ["example3", "--levels", "1..9", "--dump-matrices"],
])
def test_level_above_max_exits_before_any_mesh(argv, monkeypatch, tmp_path, capsys):
    # example1 and example3 must not run levels 1-8 first, nor dump level 1
    def unreachable(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(mesh, "_icosahedron", unreachable)
    assert_refused(argv, tmp_path / "o")
    assert re.fullmatch(r"configuration error: (subdivision_)?level (30|9) .*\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["tumor", "--t-end", "-1"],
    ["example1", "--levels", "1", "--r0", "1e100"],
    ["example1", "--levels", "1..30", "--dump-matrices"],
    ["verify", "--seed", "-1", "--dump-matrices"],
    ["example1", "--levels=-1..1", "--t-end", "0.01"],
    ["example3", "--levels=-1..1", "--t-end", "0.01", "--dump-matrices"],
])
def test_refused_run_leaves_an_earlier_run_as_it_was(argv, tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "config_resolved.txt").write_text("experiment=verify\n")
    (out / "mass_matrix.txt").write_text("0 0 1.0\n")
    assert_refused(argv, out)
    capsys.readouterr()


def test_fixed_tau_runs_as_given(monkeypatch, tmp_path):
    # 0.07 / 0.01 rounds to 7 steps of 0.01, as config_resolved.txt says
    def steady(mesh0, kin, seed, **kwargs):
        u, w = kin.steady_state()
        return np.full(mesh0.num_nodes, u), np.full(mesh0.num_nodes, w)

    monkeypatch.setattr(problems, "tumor_initial_data", steady)
    out = tmp_path / "o"
    argv = ["tumor", "--level", "1", "--t-end", "0.07", "--tau", "0.01"]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert "tau=0.01\n" in (out / "config_resolved.txt").read_text()
    with open(out / "tumor_summary.csv") as f:
        rows = list(csv.DictReader(f))
    assert [int(row["step"]) for row in rows] == list(range(8))


def test_step_count_checked_before_the_pre_relaxation(monkeypatch, tmp_path, capsys):
    # the level-3 pre-relaxation takes 5,000 steps; a hopeless step size
    # must exit before it starts
    def unreachable(*args, **kwargs):
        raise AssertionError("the pre-relaxation started")

    monkeypatch.setattr(problems, "tumor_initial_data", unreachable)
    assert_refused(["tumor", "--level", "3", "--t-end", "0.002", "--tau", "1e-300"],
                   tmp_path / "o")
    assert capsys.readouterr().err.startswith("configuration error: t_end/tau = 2e+297 exceeds")


def test_step_count_of_the_finest_level_checked_before_any_level_runs(monkeypatch, tmp_path,
                                                                      capsys):
    # level 0 alone would take about 350,000 steps; level 1 takes more than
    # problems.MAX_STEPS
    def unreachable(*args, **kwargs):
        raise AssertionError("a level started")

    monkeypatch.setattr(stepper, "run", unreachable)
    assert_refused(["example1", "--levels", "0..1", "--t-end", "0.01", "--tau-c", "2.584e-8"],
                   tmp_path / "o")
    assert capsys.readouterr().err.startswith("configuration error: t_end/tau = 1013171")
    with pytest.raises(ValueError, match="exceeds"):
        experiments.example1_study(levels=(0, 1), t_end=0.01, tau_c=2.584e-8)


@pytest.mark.parametrize("argv", [
    # r**2 underflows to 0.0 in the manufactured forcing: ZeroDivisionError
    ["example1", "--levels", "1", "--t-end", "0.05", "--rk", "1e-300"],
    # b / (a + b)**2 in the kinetics' steady state: OverflowError
    ["tumor", "--level", "1", "--t-end", "0.002", "--a", "1e300"],
])
def test_arithmetic_error_exit_code_five(argv, tmp_path, capsys):
    code = cli.main([*argv, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NONFINITE == 5
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and "Traceback" not in err


class _SubclassedFailure(errors.NonFiniteState):
    """A failure class that _EXIT_CODES names only through its base."""


@pytest.mark.parametrize("kind", [*cli._EXIT_CODES, _SubclassedFailure],
                         ids=lambda kind: kind.__name__)
def test_every_run_failure_ends_in_its_exit_code(kind, tmp_path, monkeypatch, capsys):
    documented = {cli.EXIT_DEGENERATED, cli.EXIT_SOLVER, cli.EXIT_NONFINITE}
    expected = next(code for base, code in cli._EXIT_CODES.items() if issubclass(kind, base))
    assert expected in documented

    def driver(**kwargs):
        # built from a message alone, whatever the class's constructor takes
        raise kind.__new__(kind, "stub failure")

    monkeypatch.setattr(experiments, "example1_study", driver)
    code = cli.main(["example1", "--out", str(tmp_path / "o")])
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and "stub failure" in err
