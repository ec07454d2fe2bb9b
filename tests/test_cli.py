import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from envcap import experiments
from envcap.canonical import SWAP, canonical_unitary, swap_power
from envcap.capacity import (
    CapacityResult,
    separable_helper_capacity,
    swap_power_helper_capacity,
    two_copy_curve,
)
from envcap.cli import (
    EXIT_BAD_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    _format_value,
    _merge_config,
    _rows_to_csv,
    _rows_to_json,
    build_parser,
    main,
)
from envcap.degradability import bloch_sphere_grid, classify_envs
from envcap.experiments import (
    A3_FAMILIES,
    COMMANDS,
    EXPERIMENTS,
    ExperimentConfig,
    a1_curve,
    a2_curve,
    a3_curve,
    b1_curve,
    b2_curve,
    run_experiment,
)
from oracles import (
    b2_best_over_theta,
    csv_by_value,
    degenerate_weights,
    json_by_row,
    same_bits,
    two_copy_by_kron,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestLocate:
    def test_a1_root(self, capsys):
        rc, out, _ = run_cli(["locate", "a1"], capsys)
        assert rc == EXIT_OK
        assert abs(float(out.strip()) - 0.6649) < 5e-4

    def test_a1_same_sign_bracket(self, capsys):
        rc, _, err = run_cli(["locate", "a1", "--bracket", "0.0", "0.4"], capsys)
        assert rc == EXIT_NUMERICAL
        assert "sign" in err

    @pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol", "-1"],
                                       ["--bracket", "0.9", "0.5"]])
    def test_bad_bisection_input(self, flags, capsys):
        rc, out, err = run_cli(["locate", "a1", *flags], capsys)
        assert rc == EXIT_BAD_CONFIG
        assert out == ""
        assert "bad configuration" in err

    def test_non_finite_curve_exits_numerical(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "a1_curve", lambda gamma, t=0.0: np.float64(np.nan))
        rc, out, err = run_cli(["locate", "a1"], capsys)
        assert (rc, out) == (EXIT_NUMERICAL, "")
        assert "not finite" in err

    def test_bad_target(self, capsys):
        rc, _, _ = run_cli(["locate", "b1"], capsys)
        assert rc == EXIT_BAD_CONFIG

    def test_target_only_for_locate(self, capsys):
        rc, out, _ = run_cli(["a1", "b1", "--grid", "3"], capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")

    def test_grid_below_two_rejected(self, capsys):
        # locate reads no grid: eh_swap, which does, rejects one below 2
        rc, out, err = run_cli(["eh_swap", "--grid", "1"], capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")
        assert "grid" in err


class TestExitCodes:
    def test_unknown_experiment(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-an-experiment"])
        assert exc.value.code == 2

    def test_unwritable_output(self, capsys):
        rc, _, err = run_cli(
            ["a1", "--grid", "3", "--out", "/nonexistent-dir/x.csv"], capsys)
        assert rc == EXIT_IO
        assert "cannot write" in err

    @pytest.mark.parametrize("command", ["qhtens", "eh_swap"])
    def test_separable_helper_grid_of_poles_rejected(self, command, capsys):
        # grid 2 is only |0> and |1>: the generic search rejects it, while eh_swap's
        # columns read no sphere grid and take it as two rows, gamma = 0 and 1
        rc, out, err = run_cli([command, "--grid", "2", "--no-timestamp"], capsys)
        if command == "qhtens":
            assert (rc, out) == (EXIT_BAD_CONFIG, "")
            assert "grid" in err
            return
        assert rc == EXIT_OK
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[3:]]
        assert [r[0] for r in rows] == [0.0, 1.0]
        for g, qeh, qh in rows:
            assert same_bits(qeh, swap_power_helper_capacity(g).value)
            assert same_bits(qh, separable_helper_capacity(swap_power(g)).value)


    @pytest.mark.parametrize("args", [["qhtens", "--params", "inf,0,0", "--grid", "4"],
                                      ["jammer", "--params", "nan,0,0"]])
    def test_non_finite_params_rejected(self, args, capsys):
        # stopped at the config, before any kernel sees them
        rc, out, err = run_cli(args, capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")
        assert "params" in err


class TestCsvOutput:
    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            rc, _, _ = run_cli(["b1", "--grid", "4", "--no-timestamp",
                                "--out", str(p)], capsys)
            assert rc == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_timestamp_line_toggles(self, capsys):
        _, with_ts, _ = run_cli(["b1", "--grid", "3"], capsys)
        _, without_ts, _ = run_cli(["b1", "--grid", "3", "--no-timestamp"], capsys)
        assert any(line.startswith("# generated:") for line in with_ts.splitlines())
        assert not any(line.startswith("# generated:") for line in without_ts.splitlines())

    def test_a1_row_at_half(self, capsys):
        rc, out, _ = run_cli(["a1", "--grid", "101", "--no-timestamp"], capsys)
        assert rc == EXIT_OK
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header, rows = lines[0].split(","), lines[1:]
        assert header == ["gamma", "t", "coherent_info"]
        first = rows[0].split(",")
        assert float(first[0]) == 0.5
        assert abs(float(first[2]) - 0.5488) < 1e-3

    def test_rows_reevaluate_exactly(self, capsys):
        _, out, _ = run_cli(["a1", "--grid", "7", "--no-timestamp"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        for g, t, val in rows:
            assert abs(a1_curve(float(g), float(t)) - float(val)) <= 1e-12

    def test_b2_rows_reevaluate(self, capsys):
        _, out, _ = run_cli(["b2", "--grid", "4", "--no-timestamp",
                             "--params", "0.5"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 4
        for t, theta, val in rows:
            assert abs(b2_curve(float(t), float(theta)) - float(val)) <= 1e-12

    def test_region_scan_contains_midpoint(self, capsys):
        _, out, _ = run_cli(["region_scan", "--grid", "5", "--no-timestamp"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        quarter = np.pi / 4
        hits = [r for r in rows
                if abs(float(r[0]) - quarter) < 1e-12
                and abs(float(r[1]) - quarter) < 1e-12
                and abs(float(r[2]) - quarter) < 1e-12]
        assert len(hits) == 1
        assert hits[0][3] == "true" and hits[0][4] == "true"

    def test_eh_swap_vanishes_past_threshold(self, capsys):
        _, out, _ = run_cli(["eh_swap", "--grid", "11", "--no-timestamp"], capsys)
        rows = [l.split(",") for l in out.splitlines()
                if not l.startswith("#")][1:]
        by_gamma = {round(float(r[0]), 6): (float(r[1]), float(r[2])) for r in rows}
        assert by_gamma[0.9] == (0.0, 0.0)
        assert by_gamma[0.0][0] == pytest.approx(1.0, abs=1e-9)
        assert by_gamma[0.3][0] > 0.5


class TestJsonOutput:
    def test_one_object_per_row(self, capsys):
        rc, out, _ = run_cli(["a2", "--grid", "3", "--format", "json"], capsys)
        assert rc == EXIT_OK
        objs = [json.loads(l) for l in out.splitlines()]
        assert len(objs) == 3
        assert set(objs[0]) == {"t", "curve_label", "coherent_info"}
        assert objs[0]["coherent_info"] == pytest.approx(0.5487949406953985)

    def test_qhtens_argmax_column(self, capsys):
        rc, out, _ = run_cli(["qhtens", "--grid", "16", "--params", "0,0,0",
                              "--format", "json"], capsys)
        assert rc == EXIT_OK
        obj = json.loads(out.splitlines()[0])
        assert obj["value"] == pytest.approx(1.0, abs=1e-6)
        argmax = json.loads(obj["argmax"])
        assert set(argmax) == {"input", "env"}

    def test_qhtens_csv_parses_with_stdlib_reader(self, capsys):
        import csv as csvmod
        import io
        rc, out, _ = run_cli(["qhtens", "--grid", "16", "--params", "0,0,0",
                              "--no-timestamp"], capsys)
        assert rc == EXIT_OK
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        rows = list(csvmod.reader(io.StringIO(body)))
        assert rows[0] == ["value", "argmax"]
        assert len(rows[1]) == 2
        argmax = json.loads(rows[1][1])
        assert set(argmax) == {"input", "env"}


class TestConfigFile:
    def test_config_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 3, "no_timestamp": True, "params": [0.0]}))
        _, out3, _ = run_cli(["a1", "--config", str(cfg)], capsys)
        _, out5, _ = run_cli(["a1", "--config", str(cfg), "--grid", "5"], capsys)
        n3 = len([l for l in out3.splitlines() if not l.startswith("#")]) - 1
        n5 = len([l for l in out5.splitlines() if not l.startswith("#")]) - 1
        assert (n3, n5) == (3, 5)

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc, _, _ = run_cli(["a1", "--config", str(cfg)], capsys)
        assert rc == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("doc", [{"gird": 5}, {"seed": 7}, {"format": "xml"}])
    def test_bad_config_key_or_value(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, out, err = run_cli(["a1", "--grid", "3", "--config", str(cfg)], capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")
        assert next(iter(doc)) in err

    @pytest.mark.parametrize("command,doc", [
        ("a1", {"grid": "5"}), ("a1", {"grid": 3.5}), ("a1", {"grid": True}),
        ("locate a1", {"tol": "1e-3"}), ("a1", {"params": 5}),
        ("a1", {"params": ["0.5"]}), ("locate a1", {"bracket": [0.5, "0.9"]}),
        ("a1", {"no_timestamp": "no"}), ("a1", {"output_path": 1}),
        ("a1", {"output_path": 7}), ("locate a1", {"bracket": [-np.inf, 1.0]}),
        ("locate a1", {"tol": np.nan}), ("a1", {"params": [np.nan]})])
    def test_wrong_value_type(self, command, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, out, err = run_cli([*command.split(), "--config", str(cfg)], capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")
        assert next(iter(doc)) in err

    def test_malformed_bracket(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bracket": [0.5, 0.7, 0.9]}))
        rc, out, _ = run_cli(["locate", "a1", "--config", str(cfg)], capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")

    def test_seed_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["a1", "--grid", "3", "--seed", "7"])
        assert exc.value.code == 2


#: One valid setting of each config field: as flags, and as a config-file entry.
SETTINGS = {
    "grid": (["--grid", "3"], 3),
    "tol": (["--tol", "0.01"], 0.01),
    "params": (["--params", "0.5"], [0.5]),
    "output_path": (["--out", "out.json"], "out.json"),
    "format": (["--format", "json"], "json"),
    "no_timestamp": (["--no-timestamp"], True),
    "bracket": (["--bracket", "0.6", "0.9"], [0.6, 0.9]),
}
OUTPUT_FIELDS = {"output_path", "format", "no_timestamp"}

#: Per command: flags of a quick run that set every computation field it
#: reads, and for each of those fields a second setting that changes the
#: result (rows, printed root or exit code).
QUICK = {
    "a1": (["--grid", "3", "--params", "0"],
           {"grid": ["--grid", "4"], "params": ["--params", "0.5"]}),
    "a2": (["--grid", "3"], {"grid": ["--grid", "4"]}),
    "a3": (["--grid", "3"], {"grid": ["--grid", "4"]}),
    "b1": (["--grid", "3"], {"grid": ["--grid", "4"]}),
    "b2": (["--grid", "3", "--params", "0.5"],
           {"grid": ["--grid", "4"], "params": ["--params", "0.25"]}),
    "eh_swap": (["--grid", "5"], {"grid": ["--grid", "3"]}),
    "region_scan": (["--grid", "3"], {"grid": ["--grid", "4"]}),
    "classify": (["--grid", "3", "--params", "0.3,0.2,0.1"],
                 {"grid": ["--grid", "4"], "params": ["--params", "0.5,0.25,0"]}),
    "qhtens": (["--grid", "8", "--tol", "1e-8", "--params", "0.3,0.2,0.1"],
               {"grid": ["--grid", "6"], "tol": ["--tol", "1e-3"],
                "params": ["--params", "0.4,0.2,0.1"]}),
    "jammer": (["--params", "0.3,0.2,0.1"], {"params": ["--params", "0,0,0"]}),
    "locate a1": (["--bracket", "0.5", "1.0", "--tol", "1e-5"],
                  {"bracket": ["--bracket", "0.8", "0.9"], "tol": ["--tol", "0.01"]}),
    "locate eh_swap": (["--bracket", "0.5", "1.0", "--tol", "1e-4"],
                       {"bracket": ["--bracket", "0.8", "0.9"], "tol": ["--tol", "0.01"]}),
}


class TestCommandTable:
    def test_settings_cover_every_config_field(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment"}
        assert set(SETTINGS) == fields
        assert set(QUICK) == set(COMMANDS)

    @pytest.mark.parametrize("name,field", [(n, f) for n, c in COMMANDS.items()
                                            for f in SETTINGS if f not in c.reads])
    def test_unread_field_exits_2(self, name, field, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        flags, value = SETTINGS[field]
        out_flags = ["--out", "out.json"] if "output_path" in COMMANDS[name].reads else []
        rc, out, err = run_cli([*name.split(), *flags, *out_flags], capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")
        assert field in err
        assert not (tmp_path / "out.json").exists()
        (tmp_path / "cfg.json").write_text(json.dumps({field: value}))
        rc, out, err = run_cli([*name.split(), "--config", "cfg.json"], capsys)
        assert (rc, out) == (EXIT_BAD_CONFIG, "")
        assert field in err

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_read_fields_accepted_and_change_result(self, name, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.chdir(tmp_path)
        reads = COMMANDS[name].reads
        base, variants = QUICK[name]
        assert set(variants) == reads - OUTPUT_FIELDS
        out_flags = sum((SETTINGS[f][0] for f in sorted(reads & OUTPUT_FIELDS)), [])
        out_file = tmp_path / "out.json"

        def result(extra):
            out_file.unlink(missing_ok=True)
            rc, out, _ = run_cli([*name.split(), *base, *extra, *out_flags], capsys)
            return rc, out, out_file.read_text() if out_file.exists() else None

        want = result([])
        assert want[0] == EXIT_OK
        assert (want[1] == "") == bool(out_flags)
        assert (want[2] is not None) == bool(out_flags)
        for field, flags in variants.items():
            assert result(flags) != want, field

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_config_states_the_settings_used(self, name, monkeypatch):
        # grid and tol are null where the command does not read them; elsewhere they
        # are the values its builder reads, and for qhtens the ones its search gets
        cfg = ExperimentConfig(name)
        echoed = json.loads(cfg.to_json())
        reads = COMMANDS[name].reads
        for field in ("grid", "tol"):
            assert (echoed[field] is None) == (field not in reads), field

        class Recorder:
            def __init__(self):
                self.read = {}

            def __getattr__(self, field):
                self.read[field] = getattr(cfg, field)
                return self.read[field]

        searches = []  # settings passed to the search; eh_swap's closed form gets none
        monkeypatch.setattr(experiments, "separable_helper_capacity",
                            lambda v, opts=None: searches.append(opts) or CapacityResult(0.0))
        monkeypatch.setattr(experiments, "find_zero_crossing", lambda f, lo, hi, tol: tol)
        recorder = Recorder()
        COMMANDS[name].build(recorder)
        for field in {"grid", "tol"} & set(recorder.read):
            assert field in reads and recorder.read[field] == echoed[field], field
        searches = [opts for opts in searches if opts is not None]
        for opts in searches:
            assert (opts.grid, opts.tol) == (echoed["grid"], echoed["tol"])
        assert bool(searches) == (name == "qhtens")


class TestWriters:
    """The CSV and JSON writers encode each distinct value of a table once;
    their text is the plain per-value join of :func:`oracles.csv_by_value`
    and the one ``json.dumps`` per row of :func:`oracles.json_by_row`."""

    #: Values that compare equal yet print apart, with their text.
    CELLS = [(True, "true"), (1, "1"), (1.0, "1.0000000000000000e+00"),
             (0.0, "0.0000000000000000e+00"), (-0.0, "-0.0000000000000000e+00"),
             (False, "false"), (0, "0"), (np.nan, "nan"), (np.inf, "inf"),
             (-np.inf, "-inf"), (np.float64(0.1), "1.0000000000000001e-01"),
             (np.float64(-0.0), "-0.0000000000000000e+00"), (np.True_, "true"),
             (np.False_, "false"), (np.int64(1), "1"), ('say "a,b"', '"say ""a,b"""'),
             (float("nan"), "nan")]

    def test_mixed_column(self):
        cfg = ExperimentConfig("a1", no_timestamp=True)
        values = [x for x, _ in self.CELLS]
        rows = [(x,) for x in values + values[::-1] + values]
        text = _rows_to_csv(cfg, ("x",), rows)
        assert text == csv_by_value(cfg, ("x",), rows)
        want = [t for _, t in self.CELLS]
        assert text.splitlines()[3:] == want + want[::-1] + want

    def test_values_repeat_across_columns(self):
        cfg = ExperimentConfig("a1", no_timestamp=True)
        values = [x for x, _ in self.CELLS]
        rows = [(x, y) for x in values for y in values]
        assert _rows_to_csv(cfg, ("x", "y"), rows) == csv_by_value(cfg, ("x", "y"), rows)

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_quick_tables_match_the_per_value_join(self, name):
        cfg = _merge_config(build_parser().parse_args([name, *QUICK[name][0], "--no-timestamp"]))
        header, rows = run_experiment(cfg)
        assert _rows_to_csv(cfg, header, rows) == csv_by_value(cfg, header, rows)
        assert _rows_to_json(header, rows) == json_by_row(header, rows)

    def test_json_mixed_rows(self):
        # values that compare equal yet encode apart, text JSON must escape,
        # and keys out of order, one of them not ASCII
        values = [x for x, _ in self.CELLS] + [
            np.int64(-7), np.uint8(3), "naïve, “quoted”", "tab\there", "", "0", "1.0", "true"]
        header = ("z", "a", "é", "m")
        n = len(values)
        rows = [tuple(values[(i + 3 * j) % n] for j in range(4)) for i in range(2 * n)]
        text = _rows_to_json(header, rows)
        assert text == json_by_row(header, rows)
        lines = text.splitlines()
        assert len(lines) == len(rows)
        assert lines[0] == '{"a": 0.0, "m": -Infinity, "z": true, "\\u00e9": 0}'
        assert lines[1] == '{"a": -0.0, "m": 0.1, "z": 1, "\\u00e9": NaN}'
        assert _rows_to_json(header, []) == json_by_row(header, []) == "\n"

    def test_numpy_scalars_print_as_python_ones(self):
        for x, y in [(np.True_, True), (np.False_, False), (np.int64(-7), -7), (np.uint8(3), 3)]:
            assert _format_value(x) == _format_value(y)
            assert _rows_to_json(("v",), [(x,)]) == _rows_to_json(("v",), [(y,)])
        assert _rows_to_json(("b", "i"), [(np.True_, np.int64(7))]) == '{"b": true, "i": 7}\n'

    def test_classify_class_column_is_the_tag_of_classify_envs(self):
        # at (pi/2, 0, 0) both Kraus weights are 1 on 124 states of the
        # 32 x 32 grid, and the normal form reads 60 of them anti-degradable
        header, rows = run_experiment(ExperimentConfig("classify", params=(0.5, 0.0, 0.0)))
        etas = bloch_sphere_grid(32, 32)[0]
        v = canonical_unitary((np.pi / 2, 0.0, 0.0))
        cls = classify_envs(v, etas)
        assert header[2:] == ("index", "class") and len(rows) == 1024
        assert [r[3] for r in rows] == [cl.tag.value for cl in cls]
        assert [r[2] for r in rows] == [cl.index for cl in cls]
        deg = degenerate_weights(v, etas)
        tags = np.array([r[3] for r in rows])
        assert deg.sum() == 124 and (tags[deg] == "anti-degradable").sum() == 60


def test_readme_synopsis_matches_parser():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    documented = set(re.findall(r"--[a-z][a-z-]*", block))
    options = {o for a in build_parser()._actions for o in a.option_strings
               if o.startswith("--")} - {"--help"}
    assert documented == options


class TestExperimentTables:
    def test_a3_has_six_families(self):
        header, rows = run_experiment(ExperimentConfig("a3", grid=3))
        assert header == ("t", "curve_label", "coherent_info")
        labels = {r[1] for r in rows}
        assert labels == {"s", "p1", "p2", "q1", "q2", "r"}
        # the paired edge families trace the same curves
        by = {(r[1], round(r[0], 6)): r[2] for r in rows}
        for t in (0.0, 0.5, 1.0):
            assert by[("p1", t)] == pytest.approx(by[("p2", t)], abs=1e-9)
            assert by[("q1", t)] == pytest.approx(by[("q2", t)], abs=1e-9)

    def test_experiment_names_in_cli_order(self):
        assert EXPERIMENTS == ("a1", "a2", "a3", "b1", "b2", "eh_swap", "region_scan",
                               "classify", "qhtens", "jammer")

    @pytest.mark.parametrize("name", [n for n in EXPERIMENTS if "grid" in COMMANDS[n].reads])
    def test_grid_validation(self, name):
        # a row count needs two rows; the generic separable helper's sphere needs three
        with pytest.raises(ValueError, match="grid"):
            run_experiment(ExperimentConfig(name, grid=1))
        if name == "qhtens":
            with pytest.raises(ValueError, match="grid"):
                run_experiment(ExperimentConfig(name, grid=2))
        else:
            run_experiment(ExperimentConfig(name, grid=2))

    def test_b2_theta_optimization_window(self):
        # the optimized theta family stays positive well inside (0, 1);
        # the achievable value shrinks toward the endpoints
        mid, _ = b2_best_over_theta(0.5)
        low, _ = b2_best_over_theta(0.05)
        assert mid > 1e-3
        assert 0 < low < mid


#: SHA-256 of ``--no-timestamp`` CSVs as the per-row (unstacked) tables wrote
#: them.  The header holds the package version, so a version bump moves them.
PINNED_CSV = {
    "a3 --grid 9": "548e4def4c36783cf8dfb2c1f7b7fea8d4fc5f7302ae249060546cc1ff2078ea",
    "b2 --grid 9": "b606b3a95883e008493bc6dacffa6aabfbbe56970dd37bbf6e361df151ccef4c",
    "region_scan --grid 5": "f396a5f2b3ad602565bb607df7a9ecd82853050803817a380426ad0df88990d3",
    "region_scan --grid 9": "b4f8ef0afd4b125e57c2199afa166f8d85e2e96db181bc93424b07c9099cc192",
    "region_scan --grid 17": "77aa63aef94b0d2e6391ba3f755ad0d67982b209e68675eea8c7b34a93c616f6",
    "classify --grid 8 --params 0.3,0.2,0.1":
        "3f4c5e2c3ad9c9f25f924038c2e17cc126c3558bee7175d0662b0496fa89d3dd",
    # the generic separable helper: skip-mask, scored cells and the joint simplex
    "qhtens --params 0.3,0.2,0.1":
        "7c20233992e1a742a90176eabeba090b8ebc7d6b93fd49ac72034429223e5a14",
    # the jammer's value path: L exact, the argmax from its sign
    "jammer": "a8baa6f1e50bbd697def4f8b9ebe503b6c33d4441b77660772248e7053092943",
    "jammer --params 0.1,0.05,0.02":
        "991a766485be30fa4c4069457163f2d8ee4b2b0bb29f8271727eeab4f2d07228",
    "jammer --params 0.3,0.2,0.1":
        "ee971ce821aeb20c0207c672863e23fb5c9bd5c5021837555c9f59032a72df94",
}


@pytest.mark.parametrize("args", list(PINNED_CSV))
def test_pinned_csv_bytes(args, tmp_path):
    path = tmp_path / "out.csv"
    assert main([*args.split(), "--no-timestamp", "--out", str(path)]) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV[args]


def family_gate(label, t):
    return canonical_unitary(dict(A3_FAMILIES)[label](float(t))).matrix


class TestStackedCurveRows:
    """Every row of a stacked curve table equals, bit for bit, the lone call
    at its point and the one-pair Kronecker-product computation."""

    @staticmethod
    def rows(name, **kw):
        return run_experiment(ExperimentConfig(name, grid=9, **kw))[1]

    @staticmethod
    def by_kron(w, v, theta=None):
        return np.float64(two_copy_by_kron(w, v, theta))

    def test_a1(self):
        for g, t, val in self.rows("a1", params=(0.0, 0.3)):
            assert same_bits(val, a1_curve(float(g), t))
            w, v = family_gate("s", t), swap_power(float(g)).matrix
            assert same_bits(val, self.by_kron(w, v))
            assert same_bits(val, two_copy_curve(w, v))

    def test_a2_a3_b1(self):
        sqrt_swap = canonical_unitary((np.pi / 4,) * 3).matrix
        for t, _, val in self.rows("a2"):
            assert same_bits(val, a2_curve(float(t)))
            assert same_bits(val, self.by_kron(SWAP, family_gate("r", t)))
        for t, label, val in self.rows("a3"):
            assert same_bits(val, a3_curve(label, float(t)))
            assert same_bits(val, self.by_kron(family_gate(label, t), sqrt_swap))
        for t, _, val in self.rows("b1"):
            assert same_bits(val, b1_curve(float(t)))
            g = family_gate("p1", t)
            assert same_bits(val, self.by_kron(g, g))

    def test_b2(self):
        rows = self.rows("b2")
        assert len(rows) == 27
        for t, theta, val in rows:
            assert same_bits(val, b2_curve(float(t), theta))
            g = family_gate("q2", t)
            assert same_bits(val, self.by_kron(g, g, theta))

    def test_stacks_keep_their_shape(self):
        ts = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        vals = b1_curve(ts)
        assert vals.shape == (2, 3)
        assert same_bits(vals[1, 2], b1_curve(1.0))
