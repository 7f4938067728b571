import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from reference import read_beam_matrix, reference_channel

from beamest import cli, montecarlo
from beamest._output import csv_text
from beamest.cli import ConfigError, load_config, main, parse_config
from beamest.estimator import (
    EstimatorConfig,
    run_estimation,
    trace_line,
    trace_record,
    write_trace_records,
)
from beamest.montecarlo import ExperimentConfig, noise_stream


def run_cli(*args):
    return main([str(a) for a in args])


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# Range keys that are NaN, infinite or expand to too many points, with the
# error each must exit 2 with before a grid is built.
BAD_RANGES = [
    pytest.param("0, inf, 1", "key 'et_db_max' must be finite", id="max-inf"),
    pytest.param("0, 1e400, 1", "key 'et_db_max' must be finite", id="max-1e400"),
    pytest.param("-inf, 0, 1", "key 'et_db_min' must be finite", id="min-inf"),
    pytest.param("0, 10, nan", "key 'et_db_step' must be finite", id="step-nan"),
    pytest.param("0, 1e12, 1", "more than 1000000 energy points", id="1e12-points"),
    pytest.param("-1e308, 1e308, 1", "more than 1000000 energy points", id="span-overflows"),
]


def range_keys(values):
    """``et_db_min/max/step`` config lines from ``"min, max, step"``."""
    return "".join(f"{key} = {value}\n" for key, value in
                   zip(("et_db_min", "et_db_max", "et_db_step"), values.split(", ")))


class TestConfigParsing:
    def test_scalars_lists_comments(self):
        cfg = parse_config("""
            # comment
            n = 27
            k = 3          # trailing comment
            variants = overlapped, non_overlapped
            n0 = 1.5
            bound = true
            var_alpha = auto
        """)
        assert cfg["n"] == 27 and cfg["k"] == 3
        assert cfg["variants"] == ["overlapped", "non_overlapped"]
        assert cfg["n0"] == 1.5
        assert cfg["bound"] is True
        assert cfg["var_alpha"] == "auto"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("antennas = 27")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n = 3\nn = 9")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n 27")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("n = ")

    @pytest.mark.parametrize("preset", ["fig3", "fig4", "table1"])
    def test_shipped_presets_parse(self, preset):
        name, cfg = load_config(preset)
        assert name == f"preset:{preset}"
        assert cfg

    @pytest.mark.parametrize("preset", ["fig3", "fig4"])
    def test_sweep_presets_build_valid_experiments(self, preset):
        # validate geometry/grid keys without paying for the full trial budget
        from beamest.montecarlo import ExperimentConfig
        from beamest.cli import _alpha_variance, _energy_grid, _variants

        _, cfg = load_config(preset)
        experiment = ExperimentConfig(
            n=cfg["n"], k=cfg["k"], et_db=_energy_grid(cfg, "sweep"),
            trials=cfg["trials"], master_seed=cfg["seed"], n0=cfg["n0"],
            var_alpha=_alpha_variance(cfg), variants=_variants(cfg))
        assert experiment.trials == 10_000
        assert len(experiment.et_db) >= 8

    def test_table1_preset_declares_all_cells(self):
        _, cfg = load_config("table1")
        assert cfg["outputs"] == "slots"
        assert cfg["k_values"] == [3, 7]
        assert cfg["n_values_k3"] == [3, 9, 27, 81]
        assert cfg["n_values_k7"] == [7, 49, 343, 2401]

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            load_config("no_such_config_anywhere")


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "definitely not = a config\n")
        assert run_cli("sweep", "--config", path, "--out", tmp_path) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run_cli("sweep", "--config", tmp_path / "nope.cfg", "--out", tmp_path) == 2
        assert "error:" in capsys.readouterr().err

    def test_incomplete_config_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 27\n")  # sweep needs more
        assert run_cli("sweep", "--config", path, "--out", tmp_path) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize("seed", ["inf", "1.5"])
    def test_non_integer_seed_exits_2(self, tmp_path, capsys, command, seed):
        # int() would overflow on inf and silently truncate 1.5
        path = write_cfg(tmp_path, f"n = 9\nk = 3\ntrials = 2\net_db = 6\nseed = {seed}\n")
        assert run_cli(command, "--config", path, "--out", tmp_path / "s", "--quiet") == 2
        assert f"{command}: key 'seed' must be int, got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "s" / f"{command}_manifest.json").exists()

    @pytest.mark.parametrize("command, geometry", [
        ("sweep", f"n = {7 ** 300}\nk = 7\n"), ("bound", f"n = {3 ** 330}\nk = 3\n"),
        ("trace", f"n = {7 ** 300}\nk = 7\n")], ids=["sweep", "bound", "trace"])
    def test_geometry_past_the_float_range_exits_2(self, tmp_path, capsys, command, geometry):
        # the design's power constants, and the default prior n^2, overflow
        path = write_cfg(tmp_path, geometry + "trials = 2\net_db = 10\nbound = true\n")
        out = tmp_path / "huge"
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err == ("error: n: antenna count is too large: the design's "
                                           "power constants overflow a float\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    def test_grid_past_int64_exits_2(self, tmp_path, capsys, command):
        # 3**40 passes the float range, but numpy's integers(n) takes no n past int64
        path = write_cfg(tmp_path, f"n = {3 ** 40}\nk = 3\ntrials = 2\net_db = 10\n")
        out = tmp_path / "huge"
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err == (
            f"error: n: antenna count {3 ** 40} is too large: grid indices are int64, "
            "so n must be below 2**63\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize("key", ["n0", "var_alpha"])
    def test_nan_noise_or_prior_exits_2(self, tmp_path, capsys, command, key):
        path = write_cfg(tmp_path, f"n = 9\nk = 3\ntrials = 2\net_db = 6\n{key} = nan\n")
        assert run_cli(command, "--config", path, "--out", tmp_path / "x", "--quiet") == 2
        assert f"{key} is NaN or infinite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "bound", "trace"])
    @pytest.mark.parametrize("value, message", [
        ("1, 2", "key 'n0' must be float, got [1, 2]"),
        ("true", "key 'n0' must be float, got True"),
        ("abc", "key 'n0' must be float, got 'abc'"),
        ("1" + "0" * 400, "key 'n0' is too large")],
        ids=["list", "bool", "text", "huge-integer"])
    def test_non_number_noise_exits_2(self, tmp_path, capsys, command, value, message):
        # float() of a list raised a TypeError traceback and of a huge integer
        # an OverflowError one, of true gave 1.0, and of abc named no key
        path = write_cfg(tmp_path, f"n = 9\nk = 3\ntrials = 2\net_db = 6\nn0 = {value}\n")
        out = tmp_path / "n0"
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        assert f"{command}: {message}" in capsys.readouterr().err
        assert not (out / f"{command}_manifest.json").exists()

    @pytest.mark.parametrize("command", ["sweep", "bound"])
    @pytest.mark.parametrize("value, shown", [("true", "True"), ("3, abc", "'abc'")],
                             ids=["bool", "text"])
    def test_non_number_energy_exits_2(self, tmp_path, capsys, command, value, shown):
        # float() of true swept 1.0 dB, and of abc named no key
        path = write_cfg(tmp_path, f"n = 9\nk = 3\ntrials = 2\net_db = {value}\n")
        out = tmp_path / "et"
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        assert f"{command}: key 'et_db' must be float, got {shown}" in capsys.readouterr().err
        assert not (out / f"{command}_manifest.json").exists()

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    def test_duplicate_variants_exit_2(self, tmp_path, capsys, command):
        # the variant ran twice into one file, and the manifest counted both runs
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 2\net_db = 6\n"
                                   "variants = overlapped, overlapped\n")
        out = tmp_path / "dup"
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        assert "variants must not repeat" in capsys.readouterr().err
        assert not (out / f"{command}_manifest.json").exists()

    @pytest.mark.parametrize("command, text, key, shown", [
        ("bound", "n = 27.5, 81\nk = 3, 3\net_db = 10\n", "n", "27.5"),
        ("bound", "n = 27, 81\nk = 3, 3.0\net_db = 10\n", "k", "3.0"),
        ("bound", "n = 27, true\nk = 3, 3\net_db = 10\n", "n", "True"),
        ("sweep", "outputs = slots\nk_values = 3.7, 7\nn_values_k3 = 9\n", "k_values", "3.7"),
        ("sweep", "outputs = slots\nk_values = 3\nn_values_k3 = 9, 27.0\n", "n_values_k3",
         "27.0"),
        ("sweep", "outputs = slots\nk_values = 3\nn_values_k3 = 9, false\n", "n_values_k3",
         "False")],
        ids=["bound-n-float", "bound-k-float", "bound-n-bool", "k-values-float",
             "n-values-float", "n-values-bool"])
    def test_non_integer_list_entry_exits_2(self, tmp_path, capsys, command, text, key, shown):
        # int() truncated 27.5 and 3.7, and the slot table wrote a 27.0 row
        out = tmp_path / "lists"
        assert run_cli(command, "--config", write_cfg(tmp_path, text), "--out", out,
                       "--quiet") == 2
        assert f"{command}: key {key!r} must list integers, got {shown}" in capsys.readouterr().err
        assert not out.exists() or not any(out.glob("*.csv"))

    @pytest.mark.parametrize("text, key", [
        ("k_values = 3\nn_values_k4 = 16\n", "n_values_k4"),
        ("k_values = 3\nn_values_k3 = 9\nn_values_k4 = 16\n", "n_values_k4"),
        ("k_values = 3\nn_values_k3 = 9\nn_values_k03 = 9\n", "n_values_k03"),
        ("k_values = 3\nn_values_k3 = 9\nn_values_kx = 9\n", "n_values_kx")],
        ids=["unlisted-only", "unlisted", "padded", "not-integer"])
    def test_n_values_key_of_no_listed_k_exits_2(self, tmp_path, capsys, text, key):
        # the slot table ignored these keys and exited 0
        out = tmp_path / "slots"
        path = write_cfg(tmp_path, "outputs = slots\n" + text)
        assert run_cli("sweep", "--config", path, "--out", out, "--quiet") == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists() or not any(out.glob("*.csv"))
        with pytest.raises(ConfigError, match=key):
            cli._slot_table_csv(parse_config(path.read_text()))

    def test_n_values_key_of_no_integer_k_rejected_by_any_command(self):
        # a suffix that is no integer is an unknown key, slot table or not
        with pytest.raises(ConfigError, match="unknown config key 'n_values_k3x'"):
            parse_config("n = 9\nk = 3\nn_values_k3x = 9\n")

    @pytest.mark.parametrize("text, key", [
        ("outputs = slots\nk_values = 3, 3\nn_values_k3 = 9\n", "k_values"),
        ("outputs = slots\nk_values = 3\nn_values_k3 = 9, 9\n", "n_values_k3"),
        ("outputs = slots, slots\nk_values = 3\nn_values_k3 = 9\n", "outputs"),
        ("outputs = slots, pcef\nk_values = 3, 7\nn_values_k3 = 9\nn_values_k7 = 7, 49, 7\n"
         "n = 9\nk = 3\ntrials = 2\net_db = 6\n", "n_values_k7")],
        ids=["k-values", "n-values", "outputs", "n-values-with-pcef"])
    def test_repeated_list_entry_exits_2(self, tmp_path, capsys, text, key):
        # the slot table wrote a repeated row twice and exited 0, and a
        # repeated output family was reported as a missing key 'n'
        out = tmp_path / "repeats"
        assert run_cli("sweep", "--config", write_cfg(tmp_path, text), "--out", out,
                       "--quiet") == 2
        assert f"sweep: key {key!r} must not repeat entries" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bound_repeated_pair_exits_2(self, tmp_path, capsys):
        # bound_k3_n27.csv was written once and listed twice in the manifest
        out = tmp_path / "pairs"
        path = write_cfg(tmp_path, "n = 27, 9, 27\nk = 3, 3, 3\net_db = 10\n")
        assert run_cli("bound", "--config", path, "--out", out, "--quiet") == 2
        assert ("bound: keys 'n' and 'k' must not repeat an (n, k) pair, got "
                "[(27, 3), (9, 3), (27, 3)]" in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    @pytest.mark.parametrize("grid, named, shown", [
        ("et_db = 10, 10\n", "key 'et_db'", "10.0 after 10.0"),
        ("et_db = 12, 10\n", "key 'et_db'", "10.0 after 12.0"),
        ("et_db = 0, 20, 10\n", "key 'et_db'", "10.0 after 20.0"),
        # past 2**52 steps from zero, lo + i * step rounds onto its neighbour
        (range_keys("-1e17, -99999999999999900, 1"),
         "keys 'et_db_min', 'et_db_max' and 'et_db_step'", "-1e+17 after -1e+17")],
        ids=["repeated", "falling", "falling-last", "range-rounds"])
    def test_energy_grid_not_increasing_exits_2(self, tmp_path, capsys, command, grid,
                                                named, shown):
        # bound wrote a repeated energy's row twice and a falling grid's rows unsorted
        out = tmp_path / "grid"
        path = write_cfg(tmp_path, "n = 27\nk = 3\ntrials = 2\n" + grid)
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        assert (f"{command}: {named} must give strictly increasing energies, got {shown}"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("n, k, m", [(3 ** 20, 3, 2), (7 ** 12, 7, 3)],
                             ids=["3^20", "7^12"])
    def test_codebook_past_the_bank_cap_exits_2(self, tmp_path, capsys, monkeypatch, n, k, m):
        # the leftmost bank's profiles asked for 52 GiB (3^20) and 309 GiB
        # (7^12) after pattern_matrix.csv was written; no bank may be built
        def no_bank(*args):
            raise AssertionError("a bank was built")
        monkeypatch.setattr(cli, "leftmost_path", no_bank)
        out = tmp_path / "cb"
        path = write_cfg(tmp_path, f"n = {n}\nk = {k}\n")
        assert run_cli("codebook", "--config", path, "--out", out, "--quiet") == 2
        assert f"codebook: n = {n} needs a bank of {m} beams" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        # the largest geometry the presets list, n = 2401 with up to 7 beams
        # per end, stays within the cap
        assert 7 * 2401 <= cli.MAX_BANK_ENTRIES

    @pytest.mark.parametrize("command", ["codebook", "sweep", "bound", "trace"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 2\net_db = 6\n")
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "a file, not a directory\n"

    def test_unknown_command_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("paint", "--config", "fig3")
        assert excinfo.value.code == 2


class TestCodebookCommand:
    def test_small_overlapped_codebook(self, tmp_path):
        path = write_cfg(tmp_path, "n = 27\nk = 3\n")
        out = tmp_path / "cb"
        assert run_cli("codebook", "--config", path, "--out", out, "--quiet") == 0
        stage_files = sorted(out.glob("stage_*_beams.txt"))
        assert len(stage_files) == 3
        for i, stage_file in enumerate(stage_files, start=1):
            matrix, stage, gain = read_beam_matrix(stage_file)
            assert matrix.shape == (27, 2)
            assert stage == i
            assert gain > 0
        pattern = np.loadtxt(out / "pattern_matrix.csv", delimiter=",")
        assert pattern.shape == (2, 3)
        report = (out / "gain_flatness.csv").read_text().strip().split("\n")
        assert report[0].startswith("stage,beam,")
        assert len(report) == 1 + 3 * 2  # three stages, two beams each
        header = report[0].split(",")
        for line in report[1:]:
            fields = dict(zip(header, line.split(",")))
            assert float(fields["max_in_range_error"]) < 1e-9
            assert float(fields["max_out_of_range_gain"]) < 1e-9

    def test_larger_k_codebook(self, tmp_path):
        path = write_cfg(tmp_path, "n = 49\nk = 7\n")
        out = tmp_path / "cb7"
        assert run_cli("codebook", "--config", path, "--out", out, "--quiet") == 0
        stage_files = sorted(out.glob("stage_*_beams.txt"))
        assert len(stage_files) == 2
        matrix, _, _ = read_beam_matrix(stage_files[0])
        assert matrix.shape == (49, 3)

    def test_manifest_lists_every_output_once(self, tmp_path):
        path = write_cfg(tmp_path, "n = 9\nk = 3\n")
        out = tmp_path / "cb9"
        assert run_cli("codebook", "--config", path, "--out", out, "--quiet") == 0
        manifest = json.loads((out / "codebook_manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"codebook_manifest.json"}
        assert sorted(manifest["outputs"]) == sorted(emitted)
        assert len(manifest["outputs"]) == len(set(manifest["outputs"]))


SWEEP_CFG = """
n = 9
k = 3
trials = 60
et_db = 5, 15
seed = 21
outputs = pcef, alpha_error
bound = true
"""


class TestSweepCommand:
    def test_output_families(self, tmp_path):
        path = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "sw"
        assert run_cli("sweep", "--config", path, "--out", out, "--quiet") == 0
        names = {p.name for p in out.iterdir()}
        assert {"overlapped_pcef.csv", "non_overlapped_pcef.csv", "bound.csv",
                "overlapped_mmse_all_stages_error.csv",
                "overlapped_final_stage_only_error.csv",
                "non_overlapped_mmse_all_stages_error.csv",
                "non_overlapped_final_stage_only_error.csv",
                "sweep_manifest.json"} == names
        rows = (out / "overlapped_pcef.csv").read_text().strip().split("\n")
        assert len(rows) == 3
        for row in rows[1:]:
            pcef = float(row.split(",")[1])
            assert 0.0 <= pcef <= 1.0

    def test_slot_table_preset(self, tmp_path):
        out = tmp_path / "slots"
        assert run_cli("sweep", "--config", "table1", "--out", out, "--quiet") == 0
        table = (out / "slot_counts.csv").read_text().strip().split("\n")
        assert table == [
            "k,n,overlapped,non_overlapped",
            "3,3,4,9", "3,9,8,18", "3,27,12,27", "3,81,16,36",
            "7,7,9,49", "7,49,18,98", "7,343,27,147", "7,2401,36,196",
        ]

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        path = write_cfg(tmp_path, SWEEP_CFG)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run_cli("sweep", "--config", path, "--out", out1, "--workers", 1,
                       "--quiet") == 0
        assert run_cli("sweep", "--config", path, "--out", out2, "--workers", 2,
                       "--quiet") == 0
        for name in ("overlapped_pcef.csv", "non_overlapped_pcef.csv", "bound.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_non_positive_workers_exit_2(self, tmp_path, capsys, workers):
        path = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", path, "--out", out, "--workers", workers) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_results(self, tmp_path):
        path = write_cfg(tmp_path, SWEEP_CFG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("sweep", "--config", path, "--out", out1, "--quiet") == 0
        assert run_cli("sweep", "--config", path, "--out", out2, "--seed", 999,
                       "--quiet") == 0
        assert ((out1 / "overlapped_pcef.csv").read_bytes()
                != (out2 / "overlapped_pcef.csv").read_bytes())
        # the echoed config carries the override, so the echo alone reproduces
        manifest = json.loads((out2 / "sweep_manifest.json").read_text())
        assert manifest["config"]["seed"] == 999
        assert manifest["seed_override"] == 999

    def test_manifest_records_environment_and_throughput(self, tmp_path):
        path = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "m"
        assert run_cli("sweep", "--config", path, "--out", out, "--quiet") == 0
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "usable_cpus"}
        assert env["numpy"] == np.__version__
        assert isinstance(env["usable_cpus"], int) and env["usable_cpus"] >= 1
        # 60 trials x 2 energy points x 2 variants
        assert manifest["estimation_runs"] == 240
        assert manifest["runs_per_s"] > 0
        assert "sweep_manifest.json" not in manifest["outputs"]

    def test_manifest_records_scipy_as_null_when_not_loaded(self, tmp_path):
        # no command loads scipy, so a sweep in a fresh interpreter with scipy
        # blocked succeeds and its manifest carries no scipy entry; this test
        # process has loaded scipy for the tests' own oracles
        path = write_cfg(tmp_path, SWEEP_CFG)
        out = tmp_path / "fresh"
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.modules['scipy'] = None; import beamest.cli; "
                "sys.exit(beamest.cli.main(sys.argv[1:]))")
        done = subprocess.run(
            [sys.executable, "-c", code, "sweep", "--config", str(path),
             "--out", str(out), "--quiet"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120)
        assert done.returncode == 0, done.stderr
        env = json.loads((out / "sweep_manifest.json").read_text())["environment"]
        assert env.get("scipy") is None
        assert set(env) == {"python", "numpy", "usable_cpus"}

    def test_import_loads_no_random_module(self):
        # numpy.random loads at the first seeded stream, not with the package,
        # so commands that draw nothing start without it; numpy 1.x imports
        # numpy.random with numpy itself, so only modules beyond those count
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, numpy\n"
                "def loaded(): return {m for m in sys.modules if m.startswith('numpy.random')}\n"
                "before = loaded()\n"
                "import beamest, beamest.cli\n"
                "print(sorted(loaded() - before))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_non_finite_gains_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 4\net_db = 10\nvar_alpha = inf\n")
        with np.errstate(invalid="ignore"):
            assert run_cli("sweep", "--config", path, "--out", tmp_path / "x", "--quiet") == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SWEEP_CFG)
        assert run_cli("sweep", "--config", path, "--out", tmp_path / "neg", "--seed", -1,
                       "--quiet") == 2
        assert "master seed must be nonnegative, got -1" in capsys.readouterr().err

    def test_too_many_trials_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 4294967297\net_db = 10\n")
        assert run_cli("sweep", "--config", path, "--out", tmp_path / "big", "--quiet") == 2
        assert "at most 2**32" in capsys.readouterr().err

    def test_infinite_energy_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 5\net_db = 10, 4000\n")
        assert run_cli("sweep", "--config", path, "--out", tmp_path / "e", "--quiet") == 2
        assert "4000.0 dB" in capsys.readouterr().err

    def test_zero_power_exits_2(self, tmp_path, capsys):
        # -4000 dB underflows the pilot energy, and so the power, to zero
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 5\net_db = -4000, 10\n")
        assert run_cli("sweep", "--config", path, "--out", tmp_path / "z", "--quiet") == 2
        assert "power constant must be positive, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", BAD_RANGES)
    def test_bad_energy_range_exits_2(self, tmp_path, capsys, grid, message):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 5\n" + range_keys(grid))
        assert run_cli("sweep", "--config", path, "--out", tmp_path / "r", "--quiet") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value, shown", [("no", "'no'"), ("1", "1")], ids=["no", "one"])
    def test_non_boolean_bound_exits_2(self, tmp_path, capsys, value, shown):
        # any non-empty value was truthy, so bound = no wrote bound.csv
        path = write_cfg(tmp_path, f"n = 9\nk = 3\ntrials = 2\net_db = 6\nbound = {value}\n")
        out = tmp_path / "b"
        assert run_cli("sweep", "--config", path, "--out", out, "--quiet") == 2
        assert f"sweep: key 'bound' must be bool, got {shown}" in capsys.readouterr().err
        assert not any(out.glob("*.csv"))

    def test_successive_calls_write_their_own_manifests(self, tmp_path):
        # one parser serves every call in a process; no parsed value may
        # carry over from one call into the next
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 3\net_db = 0, 10\nseed = 4\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("sweep", "--config", path, "--out", first, "--seed", 11, "--quiet") == 0
        assert run_cli("sweep", "--config", path, "--out", second) == 0
        manifests = [json.loads((out / "sweep_manifest.json").read_text())
                     for out in (first, second)]
        assert [m["seed_override"] for m in manifests] == [11, None]
        assert [m["config"]["seed"] for m in manifests] == [11, 4]
        assert [m["outputs"] for m in manifests] == [["overlapped_pcef.csv",
                                                      "non_overlapped_pcef.csv"]] * 2
        assert (first / "overlapped_pcef.csv").read_text() != \
            (second / "overlapped_pcef.csv").read_text()
        assert cli._parser.cache_info().currsize == 1

    def test_manifest_echo_reproduces_run(self, tmp_path):
        path = write_cfg(tmp_path, SWEEP_CFG)
        out1 = tmp_path / "orig"
        assert run_cli("sweep", "--config", path, "--out", out1, "--quiet") == 0
        manifest = json.loads((out1 / "sweep_manifest.json").read_text())
        lines = []
        for key, value in manifest["config"].items():
            rendered = ", ".join(str(v) for v in value) if isinstance(value, list) else value
            lines.append(f"{key} = {rendered}")
        replay_cfg = write_cfg(tmp_path, "\n".join(lines) + "\n", name="replay.cfg")
        out2 = tmp_path / "replay"
        assert run_cli("sweep", "--config", replay_cfg, "--out", out2, "--quiet") == 0
        for name in ("overlapped_pcef.csv", "non_overlapped_pcef.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestBoundCommand:
    def test_zero_power_row_and_tail(self, tmp_path):
        path = write_cfg(tmp_path, "n = 27\nk = 3\net_db = -inf, 10, 20, 30, 40\n")
        out = tmp_path / "bd"
        assert run_cli("bound", "--config", path, "--out", out, "--quiet") == 0
        rows = (out / "bound.csv").read_text().strip().split("\n")[1:]
        first = rows[0].split(",")
        assert float(first[1]) == 1.0 and first[4] == "1"
        tail = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(x >= y for x, y in zip(tail, tail[1:]))

    def test_two_geometries_side_by_side(self, tmp_path):
        path = write_cfg(tmp_path, "n = 27, 343\nk = 3, 7\net_db = 10, 20, 30\n")
        out = tmp_path / "bd2"
        assert run_cli("bound", "--config", path, "--out", out, "--quiet") == 0
        a = (out / "bound_k3_n27.csv").read_text()
        b = (out / "bound_k7_n343.csv").read_text()
        assert a != b
        assert a.startswith("et_db,bound")

    def test_infinite_energy_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 27\nk = 3\net_db = 10, 4000\n")
        assert run_cli("bound", "--config", path, "--out", tmp_path / "e", "--quiet") == 2
        assert "4000.0 dB" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", BAD_RANGES)
    def test_bad_energy_range_exits_2(self, tmp_path, capsys, grid, message):
        path = write_cfg(tmp_path, "n = 27\nk = 3\n" + range_keys(grid))
        assert run_cli("bound", "--config", path, "--out", tmp_path / "r", "--quiet") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("n0 = 0", "noise variance must be positive, got 0.0"),
        ("var_alpha = -4", "gain prior variance must be nonnegative, got -4.0")])
    def test_impossible_noise_or_prior_exits_2(self, tmp_path, capsys, line, message):
        path = write_cfg(tmp_path, f"n = 27\nk = 3\net_db = 10, 20\n{line}\n")
        out = tmp_path / "bad"
        assert run_cli("bound", "--config", path, "--out", out, "--quiet") == 2
        assert message in capsys.readouterr().err
        assert not (out / "bound.csv").exists()

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_prior_past_the_closed_form_exits_2(self, tmp_path, capsys, command):
        # it once wrote per_stage 4.0; a sweep now stops before any data file
        path = write_cfg(tmp_path, "n = 27\nk = 3\ntrials = 2\net_db = 10, 20\nbound = true\n"
                                   "outputs = slots, pcef, alpha_error\nk_values = 3\n"
                                   "n_values_k3 = 9\nvar_alpha = 1e308\n")
        out = tmp_path / "big"
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        # the sweep's own gain estimates overflow too, which its config rejects first
        message = {"bound": "is too large for the closed-form bound",
                   "sweep": "takes the gain estimate out of float range at 10.0 dB"}[command]
        assert f"var_alpha: gain prior variance 1e+308 {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_rejected_geometry_leaves_no_file(self, tmp_path, capsys):
        # the second geometry's prior is past the closed form: every geometry
        # is checked before the first one's file is written
        path = write_cfg(tmp_path, "n = 2401, 27\nk = 7, 3\net_db = 40\nvar_alpha = 7.9e156\n")
        out = tmp_path / "two"
        assert run_cli("bound", "--config", path, "--out", out, "--quiet") == 2
        assert ("var_alpha: gain prior variance 7.9e+156 is too large for the closed-form bound"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []
        # each geometry alone: the first is written, the second is rejected
        for n, k, code in ((2401, 7, 0), (27, 3, 2)):
            path = write_cfg(tmp_path, f"n = {n}\nk = {k}\net_db = 40\nvar_alpha = 7.9e156\n")
            assert run_cli("bound", "--config", path, "--out", tmp_path / f"n{n}",
                           "--quiet") == code

    def test_large_prior_within_the_closed_form(self, tmp_path):
        path = write_cfg(tmp_path, "n = 27\nk = 3\net_db = 0, 10, 20\nvar_alpha = 1e100\n")
        out = tmp_path / "large"
        assert run_cli("bound", "--config", path, "--out", out, "--quiet") == 0
        rows = [row.split(",") for row in (out / "bound.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)

    def test_mismatched_pairs_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 27, 343\nk = 3\net_db = 10\n")
        assert run_cli("bound", "--config", path, "--out", tmp_path) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_files_and_fields(self, tmp_path):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 5\net_db = 20\nseed = 2\n")
        out = tmp_path / "tr"
        assert run_cli("trace", "--config", path, "--out", out, "--quiet") == 0
        for variant in ("overlapped", "non_overlapped"):
            lines = (out / f"traces_{variant}.jsonl").read_text().strip().split("\n")
            assert len(lines) == 5
            record = json.loads(lines[0])
            assert {"trial", "seed", "theta", "phi", "alpha", "selections",
                    "theta_hat", "phi_hat", "alpha_hat", "correct"} <= set(record)
            complex(record["alpha"])  # parses back
            assert isinstance(record["correct"], bool)

    def test_each_variant_draws_each_channel_once(self, tmp_path, monkeypatch):
        # both variants trace the same channels: each block of trials is drawn
        # once, in trial order, and traced by every variant before the next
        # block is drawn
        drawn, written = [], []
        draw, line = montecarlo._draw_block, cli.trace_line

        def counting(experiment, trials):
            drawn.append(trials)
            return draw(experiment, trials)

        def recording(record):
            written.append((len(drawn), record["trial"]))
            return line(record)

        monkeypatch.setattr(montecarlo, "_draw_block", counting)
        monkeypatch.setattr(cli, "trace_line", recording)
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 600\net_db = 20\n")
        assert run_cli("trace", "--config", path, "--out", tmp_path / "t", "--quiet") == 0
        assert drawn == [range(0, 256), range(256, 512), range(512, 600)]
        # each variant writes a block's records before the next is drawn
        blocks = [1] * 256 + [2] * 256 + [3] * 88
        expected = [(block, trial) for first in range(0, 600, 256)
                    for _ in range(2) for block, trial in
                    zip(blocks[first:first + 256], range(first, min(first + 256, 600)))]
        assert written == expected

    @pytest.mark.parametrize("geometry", ["n = 27\nk = 3\ntrials = 600\net_db = 14\n",
                                          "n = 343\nk = 7\ntrials = 300\net_db = 20\n"],
                             ids=["n27", "n343-k7"])
    def test_blocks_equal_per_trial_runs(self, tmp_path, geometry):
        # trial by trial, over block edges, the line one run_estimation on
        # the reference channel and the trial's noise stream gives
        path = write_cfg(tmp_path, geometry + "seed = 5\n")
        out = tmp_path / "blocks"
        assert run_cli("trace", "--config", path, "--out", out, "--quiet") == 0
        cfg = cli.parse_config(path.read_text())
        experiment = ExperimentConfig(n=cfg["n"], k=cfg["k"], et_db=(cfg["et_db"],),
                                      trials=cfg["trials"], master_seed=5)
        channels = [reference_channel(experiment, trial) for trial in range(cfg["trials"])]
        for variant, p_t in experiment.powers.items():
            ecfg = EstimatorConfig(n=experiment.n, k=experiment.k, p_t=float(p_t[0]), n0=1.0,
                                   var_alpha=experiment.alpha_variance, variant=variant)
            lines = (out / f"traces_{variant}.jsonl").read_text().splitlines(keepends=True)
            expected = [trace_line(trace_record(
                run_estimation(channel, ecfg,
                               np.random.default_rng(noise_stream(experiment, trial, variant))),
                channel, trial=trial, seed=5)) for trial, channel in enumerate(channels)]
            assert len(lines) == len(expected)
            for trial, (got, want) in enumerate(zip(lines, expected)):
                assert got == want, (variant, trial)
            # both outcomes occur, so the picks after a miss are checked too
            assert 0 < sum('"correct": false' in line for line in lines) < len(lines)

    def test_memory_does_not_grow_with_trials(self, tmp_path):
        # each record is written as it is made; one variant at the fig3
        # geometry, since every variant streams through the same generator
        def peak(trials):
            path = write_cfg(tmp_path, f"n = 27\nk = 3\ntrials = {trials}\net_db = 20\n"
                                       "variants = overlapped\n", name=f"t{trials}.cfg")
            tracemalloc.start()
            try:
                assert run_cli("trace", "--config", path, "--out", tmp_path / str(trials),
                               "--quiet") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50)  # warm the caches so neither measurement pays for them
        small, large = peak(500), peak(5000)
        assert large < 1.2 * small, (small, large)

    def test_manifest_records_environment_only(self, tmp_path):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 2\net_db = 20\n")
        out = tmp_path / "tm"
        assert run_cli("trace", "--config", path, "--out", out, "--quiet") == 0
        manifest = json.loads((out / "trace_manifest.json").read_text())
        assert set(manifest["environment"]) == {"python", "numpy", "usable_cpus"}
        assert "estimation_runs" not in manifest

    def test_seed_flag_overrides(self, tmp_path):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 4\net_db = 6\nseed = 2\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("trace", "--config", path, "--out", out1, "--quiet") == 0
        assert run_cli("trace", "--config", path, "--out", out2, "--seed", 3,
                       "--quiet") == 0
        assert ((out1 / "traces_overlapped.jsonl").read_bytes()
                != (out2 / "traces_overlapped.jsonl").read_bytes())

    def test_infinite_energy_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 2\net_db = 4000\n")
        assert run_cli("trace", "--config", path, "--out", tmp_path / "e", "--quiet") == 2
        assert "4000.0 dB" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "n = 9\nk = 3\ntrials = 2\net_db = 6\nseed = -3\n")
        assert run_cli("trace", "--config", path, "--out", tmp_path / "n", "--quiet") == 2
        assert "master seed must be nonnegative, got -3" in capsys.readouterr().err


class TestGainRange:
    """A prior or noise level whose gain estimates leave the float range is
    rejected where the experiment is built, before any file is written."""

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize("line, message", [
        ("var_alpha = 1e308", "var_alpha: gain prior variance 1e+308 takes the gain estimate "
                              "out of float range at 10.0 dB"),
        # at 10 dB the factor var_alpha * sqrt(p_t) and the divisor are
        # finite, yet the factor times the selected values overflows
        ("var_alpha = 1e250", "var_alpha: gain prior variance 1e+250 takes the gain estimate "
                              "out of float range at 10.0 dB"),
        ("n0 = 1e-320", "n0: noise variance 1e-320 leaves the gain estimate's divisor "
                        "var_alpha * p_t + n0 subnormal at 10.0 dB")],
        ids=["var_alpha", "var_alpha-product", "n0"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, line, message):
        path = write_cfg(tmp_path, "n = 27\nk = 3\ntrials = 20\net_db = 10\n"
                                   f"outputs = pcef, alpha_error\n{line}\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # every gain is 0 at var_alpha = 0, so its relative errors are 0/0 = nan,
    # which must raise no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["sweep", "trace"])
    def test_large_and_zero_priors_run(self, tmp_path, command):
        for prior in ("1e100", "0"):
            path = write_cfg(tmp_path, "n = 27\nk = 3\ntrials = 20\net_db = 10\n"
                                       f"outputs = alpha_error\nvar_alpha = {prior}\n")
            out = tmp_path / prior
            assert run_cli(command, "--config", path, "--out", out, "--quiet") == 0
            if command == "sweep":
                text = (out / "overlapped_mmse_all_stages_error.csv").read_text()
                values = [float(x) for row in text.splitlines()[1:] for x in row.split(",")[1:]]
                assert all(map(math.isnan if prior == "0" else math.isfinite, values))
            else:
                text = (out / "traces_overlapped.jsonl").read_text()
                gains = [(complex(r["alpha"]), complex(r["alpha_hat"]))
                         for r in map(json.loads, text.splitlines())]
                assert all(map(np.isfinite, np.ravel(gains)))
                assert (np.ravel(gains) == 0).all() == (prior == "0")


# Small runs of every command, each writing every kind of file it can.
WRITER_RUNS = {
    "sweep": "n = 9\nk = 3\ntrials = 3\net_db = 0, 10\nseed = 4\nbound = true\n"
             "outputs = pcef, alpha_error, slots\nk_values = 3\nn_values_k3 = 3, 9\n",
    "bound": "n = 9, 27\nk = 3, 3\net_db = 0, 10\n",
    "trace": "n = 9\nk = 3\ntrials = 4\net_db = 6\n",
    "codebook": "n = 9\nk = 3\n",
}


class TestCsvText:
    """The one table writer against the per-field formatting each file had:
    ``repr`` of a float, ``str`` of an int, ``str(int(...))`` of a bool."""

    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1, 1e16, -2.5e-300,
              1.7976931348623157e308]
    INTS = [0, -3, 7, 12, 2**32, 2**62, -(2**63), 5, 9, 11]
    BOOLS = [True, False, False, True, True, False, True, False, False, True]

    def _per_field(self, floats, ints, bools):
        rows = [",".join([repr(f), str(i), str(int(b))]) for f, i, b in zip(floats, ints, bools)]
        return "\n".join(["f,i,b", *rows]) + "\n"

    def test_lists_arrays_and_numpy_scalars(self):
        expected = self._per_field(self.FLOATS, self.INTS, self.BOOLS)
        columns = (self.FLOATS, self.INTS, self.BOOLS)
        assert csv_text("f,i,b", columns) == expected
        assert csv_text("f,i,b", [np.array(c) for c in columns]) == expected
        # numpy 2's repr of a scalar is np.float64(...), never written
        scalars = [list(np.array(c)) for c in columns]
        assert type(scalars[0][0]) is np.float64
        assert csv_text("f,i,b", scalars) == expected

    def test_mixed_and_large_python_numbers(self):
        # each field by its own type; an int beyond int64 stays exact
        assert csv_text("x", ([1, 1.0, 10**20, False, np.float32(0.1)],)) == (
            "x\n1\n1.0\n100000000000000000000\n0\n" + repr(float(np.float32(0.1))) + "\n")

    def test_no_rows_and_unequal_columns(self):
        assert csv_text("a,b", ([], [])) == "a,b\n"
        assert csv_text("a,b", ()) == "a,b\n"
        with pytest.raises(ValueError):
            csv_text("a,b", ([1.0, 2.0], [1.0]))


class TestOutputFiles:
    """Every file the package writes replaces whatever was at its path."""

    def _run(self, tmp_path, command, out):
        path = write_cfg(tmp_path, WRITER_RUNS[command], name=f"{command}.cfg")
        assert run_cli(command, "--config", path, "--out", out, "--quiet") == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        return {name: (out / name).read_bytes() for name in manifest["outputs"]}

    @pytest.mark.parametrize("command", sorted(WRITER_RUNS))
    def test_shorter_output_over_longer_files(self, tmp_path, command):
        fresh = self._run(tmp_path, command, tmp_path / "fresh")
        out = tmp_path / "over"
        out.mkdir()
        stale = "stale line\n" * 10_000
        for name in [*fresh, f"{command}_manifest.json"]:
            (out / name).write_text(stale)
            os.chmod(out / name, 0o640)
        before = {name: os.stat(out / name).st_ino for name in fresh}
        assert self._run(tmp_path, command, out) == fresh  # the manifest parsed whole
        for name in fresh:
            info = os.stat(out / name)
            assert (info.st_ino, info.st_mode & 0o777) == (before[name], 0o640)

    def test_trace_records_over_longer_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text("stale line\n" * 10_000)
        write_trace_records(path, [_full_record(1)])
        assert path.read_text() == _full_line(1)

    def test_records_cut_short_leave_what_was_written(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text("stale line\n" * 10_000)

        def records():
            yield _full_record(0)
            yield _full_record(1)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_trace_records(path, records())
        assert path.read_text() == _full_line(0) + _full_line(1)

    def test_symlinked_output_is_written_through(self, tmp_path):
        fresh = self._run(tmp_path, "sweep", tmp_path / "fresh")
        target = tmp_path / "elsewhere" / "kept.csv"
        target.parent.mkdir()
        target.write_text("stale line\n" * 10_000)
        out = tmp_path / "linked"
        out.mkdir()
        (out / "bound.csv").symlink_to(target)
        (out / "slot_counts.csv").symlink_to(os.devnull)
        assert self._run(tmp_path, "sweep", out) == {**fresh, "slot_counts.csv": b""}
        assert (out / "bound.csv").is_symlink()
        assert target.read_bytes() == fresh["bound.csv"]

    def test_second_sweep_into_one_out_matches_a_fresh_one(self, tmp_path):
        out = tmp_path / "twice"
        first = self._run(tmp_path, "sweep", out)
        assert self._run(tmp_path, "sweep", out) == first
        assert self._run(tmp_path, "sweep", tmp_path / "fresh") == first


def _full_record(trial):
    """A trace record with every field :func:`trace_record` writes."""
    return {"trial": trial, "seed": 4, "theta": 5, "phi": 7, "alpha": "1.5-0.25j",
            "selections": [[1, 2], [2, 1]], "theta_hat": 5, "phi_hat": 7,
            "alpha_hat": "1.48125-0.246875j", "correct": True}


def _full_line(trial):
    """:func:`_full_record`'s JSON line, written out."""
    return ('{"alpha": "1.5-0.25j", "alpha_hat": "1.48125-0.246875j", "correct": true, '
            '"phi": 7, "phi_hat": 7, "seed": 4, "selections": [[1, 2], [2, 1]], '
            f'"theta": 5, "theta_hat": 5, "trial": {trial}}}\n')


# A small run of each command and the first data file it writes.
FIRST_OUTPUTS = {
    "bound": ("n = 9\nk = 3\net_db = 0, 10\n", "bound.csv"),
    "sweep": ("n = 9\nk = 3\ntrials = 2\net_db = 0, 10\n", "overlapped_pcef.csv"),
    "trace": ("n = 9\nk = 3\ntrials = 2\net_db = 6\n", "traces_overlapped.jsonl"),
    "codebook": ("n = 9\nk = 3\n", "pattern_matrix.csv"),
}


class TestUnwritableOutputs:
    """An output path inside ``--out`` that cannot be written exits 2 and names it."""

    def _run(self, tmp_path, command, out):
        path = write_cfg(tmp_path, FIRST_OUTPUTS[command][0])
        return run_cli(command, "--config", path, "--out", out, "--quiet")

    @pytest.mark.parametrize("command", sorted(FIRST_OUTPUTS))
    def test_directory_at_a_data_file_exits_2(self, tmp_path, capsys, command):
        blocked = tmp_path / "out" / FIRST_OUTPUTS[command][1]
        blocked.mkdir(parents=True)
        assert self._run(tmp_path, command, blocked.parent) == 2
        assert capsys.readouterr().err == (f"error: cannot write '{blocked}': "
                                           f"{os.strerror(errno.EISDIR)}\n")

    @pytest.mark.parametrize("command", sorted(FIRST_OUTPUTS))
    def test_directory_at_the_manifest_exits_2(self, tmp_path, capsys, command):
        blocked = tmp_path / "out" / f"{command}_manifest.json"
        blocked.mkdir(parents=True)
        assert self._run(tmp_path, command, blocked.parent) == 2
        assert capsys.readouterr().err == (f"error: cannot write '{blocked}': "
                                           f"{os.strerror(errno.EISDIR)}\n")
        assert (blocked.parent / FIRST_OUTPUTS[command][1]).is_file()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_the_file(self, tmp_path, capsys):
        # opening succeeds and the flush fails, so the error carries no path
        # of its own
        out = tmp_path / "out"
        out.mkdir()
        (out / "bound.csv").symlink_to("/dev/full")
        assert self._run(tmp_path, "bound", out) == 2
        assert capsys.readouterr().err == (f"error: cannot write '{out / 'bound.csv'}': "
                                           f"{os.strerror(errno.ENOSPC)}\n")
