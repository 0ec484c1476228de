import csv
import json

import pytest

from tomebench.cli import main

from test_viz import parse_p3

BASE = [
    "--latent", "8x8", "--steps", "3", "--seed", "0",
]

# Settings stored under another name than the key a user writes; errors name the key.
KEY_OF_SETTING = {"guidance_scale": "guidance"}


def run_cli(args, capsys=None):
    code = main(args)
    return code


@pytest.fixture
def no_compute(monkeypatch):
    """Fail any test that builds a U-Net or draws a partition."""
    def refuse(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr("tomebench.runner.init_unet", refuse)
    monkeypatch.setattr("tomebench.cli.make_partition", refuse)


class TestRun:
    def test_writes_report_and_timing(self, tmp_path):
        out = tmp_path / "r1"
        code = main(["run", *BASE, "--ratio", "0.5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["ratio"] == 0.5
        assert report["flops"]["merged_total"] < report["flops"]["baseline_total"]
        assert report["errors"]["rel_l2"] > 0
        timing = json.loads((out / "timing.json").read_text())
        assert timing["wall_time_total_s"] > 0

    def test_merged_token_counts_in_report(self, tmp_path):
        out = tmp_path / "r2"
        assert main(["run", *BASE, "--ratio", "0.5", "--min-tokens", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        blocks = report["tokens"]["per_block"]
        for step_counts in report["tokens"]["merged_per_step"]:
            for count, block in zip(step_counts, blocks):
                assert count == block["n_tokens"] - block["n_tokens"] // 2
        for block in report["flops"]["merged"]["per_block"]:
            n = block["n_tokens"]
            assert block["merged_token_count"] == n - n // 2

    def test_no_compare_baseline(self, tmp_path):
        out = tmp_path / "r3"
        assert main(["run", *BASE, "--ratio", "0.5", "--no-compare-baseline",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["errors"] is None

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r4"
        assert main(["run", *BASE, "--ratio", "0.5", "--format", "csv", "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        assert len(rows) == 1
        assert float(rows[0]["ratio"]) == 0.5

    def test_prune_flag(self, tmp_path):
        merge_out, prune_out = tmp_path / "m", tmp_path / "p"
        assert main(["run", *BASE, "--ratio", "0.5", "--out", str(merge_out)]) == 0
        assert main(["run", *BASE, "--ratio", "0.5", "--prune", "--out", str(prune_out)]) == 0
        merge_report = json.loads((merge_out / "report.json").read_text())
        prune_report = json.loads((prune_out / "report.json").read_text())
        assert prune_report["config"]["prune"] is True
        assert prune_report["errors"]["rel_l2"] != merge_report["errors"]["rel_l2"]

    def test_viz_partition_flag(self, tmp_path):
        out = tmp_path / "r5"
        assert main(["run", *BASE, "--ratio", "0.5", "--viz-partition", "--out", str(out)]) == 0
        assert (out / "partition_b0.ppm").exists()
        assert (out / "partition_b1.ppm").exists()
        assert (out / "merge_map_step0.ppm").exists()
        edges = (out / "merge_edges_step0.txt").read_text().strip().splitlines()
        assert len(edges) == 32  # floor(0.5 * 64)
        assert all(len(line.split()) == 2 for line in edges)

    def test_min_tokens_top_flag_equals_config_file(self, tmp_path):
        cfg = tmp_path / "top.cfg"
        cfg.write_text("latent = 8x8\nsteps = 2\nmin_tokens = top\n")
        out_flag, out_file = tmp_path / "flag", tmp_path / "file"
        assert main(["run", "--latent", "8x8", "--steps", "2", "--min-tokens", "top",
                     "--out", str(out_flag)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_file)]) == 0
        assert (out_flag / "report.json").read_bytes() == (out_file / "report.json").read_bytes()


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", *BASE, "--ratio", "0.5", "--partition", "rand2x2"]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


class TestConfigFileRoundTrip:
    def test_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "latent = 8x8\nsteps = 3\nseed = 0\nratio = 0.5\npartition = rand2x2\n"
        )
        out_file, out_flags = tmp_path / "ff", tmp_path / "fl"
        assert main(["run", "--config", str(cfg), "--out", str(out_file)]) == 0
        assert main(["run", *BASE, "--ratio", "0.5", "--partition", "rand2x2",
                     "--out", str(out_flags)]) == 0
        assert (out_file / "report.json").read_bytes() == (out_flags / "report.json").read_bytes()

    def test_flags_win_over_file(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("latent = 8x8\nsteps = 3\nratio = 0.1\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--ratio", "0.5", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["ratio"] == 0.5


class TestExitCodes:
    def test_config_error_names_field(self, tmp_path, capsys):
        code = main(["run", "--latent", "9x9", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "divisible" in capsys.readouterr().err

    def test_ratio_capacity_error(self, tmp_path, capsys):
        code = main(["run", *BASE, "--ratio", "0.6", "--partition", "alt",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "feasible ratio" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("latent = 8x8\nwat = 1\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize("line,setting", [
        ("heads = 0", "heads"),
        ("weight_seed = -1", "weight_seed"),
        ("guidance = nan", "guidance_scale"),
        ("guidance = inf", "guidance_scale"),
        ("apply = ,", "apply"),
        ("partition = rand:0.01\nmin_tokens = 1", "partition"),  # 0 of 16 dst on 4x4
        ("partition = rand:0.995\nratio = 0.01", "partition"),  # 64 of 64 dst on 8x8, r = 0
        ("num_scales = 1000000", "num_scales"),
        ("ratio_start = 0.5\nratio_end = 0.99\npartition = alt", "ratio_end"),
    ])
    def test_bad_model_fields_exit_1_before_compute(self, tmp_path, capsys, line, setting):
        key = KEY_OF_SETTING.get(setting, setting)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"latent = 8x8\nsteps = 1\n{line}\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: field '{key}':")
        assert setting == key or setting not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,field", [
        ("run --ratio abc", "ratio"),
        ("run --format xml", "format"),
        ("run --steps 2.5", "steps"),
        ("run --min-tokens 0x4", "min_tokens"),
        ("sweep --seed a,b", "seed"),
        ("sweep --seed ,", "seed"),  # an axis that names no value
        ("sweep --ratio 0.2,x", "ratio"),
        ("sweep --ratio 0.5:0.1:0.1", "ratio"),  # an empty range
        ("sweep --ratio 0:inf:0.1", "ratio"),  # an unbounded range
        ("sweep --partition rand2x2,bogus", "partition"),
        # 0 of 64 dst on the rendered top grid, at a ratio that merges no block
        ("run --ratio 0 --partition rand:0.001 --viz-partition", "partition"),
    ])
    def test_bad_flags_exit_1_before_compute(self, tmp_path, capsys, no_compute, argv, field):
        out = tmp_path / "x"
        command, *flags = argv.split()
        assert main([command, "--latent", "8x8", "--steps", "1", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: field '{field}':")
        assert not out.exists()

    @pytest.mark.parametrize("flags,field", [
        ("--seed x", "seed"),
        ("--seed -1", "seed"),
        ("--batch 0", "batch"),
        ("--latent 8", "latent"),
    ])
    def test_bad_viz_flags_exit_1_before_compute(self, tmp_path, capsys, no_compute, flags,
                                                 field):
        out = tmp_path / "x"
        argv = ["viz", "--partition", "alt", "--latent", "8x8", *flags.split(), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: field '{field}':")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_unreadable_config_exits_1_before_compute(self, tmp_path, capsys, no_compute,
                                                       kind):
        cfg = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
               "non-utf8": tmp_path / "latin1.cfg"}[kind]
        if kind == "non-utf8":
            cfg.write_bytes(b"latent = 8x8\n# caf\xe9\n")
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: field 'config':")
        assert not out.exists()

    def test_io_error_is_runtime(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["run", *BASE, "--ratio", "0.5", "--out", str(blocker / "sub")])
        assert code == 2


class TestSweep:
    def test_ratio_sweep_errors_increase(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--latent", "16x16", "--steps", "4", "--seed", "0",
            "--ratio", "0.1:0.6:0.1", "--apply", "self,cross,mlp", "--min-tokens", "1",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 6
        ratios = [float(r["ratio"]) for r in rows]
        assert ratios == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        errs = [float(r["rel_l2"]) for r in rows]
        assert all(b > a for a, b in zip(errs, errs[1:]))
        speedups = [float(r["speedup_estimate"]) for r in rows]
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))
        assert (out / "point_000" / "report.json").exists()

    def test_partition_and_seed_axes(self, tmp_path):
        out = tmp_path / "sweep2"
        code = main([
            "sweep", "--latent", "8x8", "--steps", "2",
            "--partition", "alt,rand2x2", "--seed", "0,1", "--ratio", "0.4",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 4
        assert {r["partition"] for r in rows} == {"alt", "rand2x2"}
        assert {r["seed"] for r in rows} == {"0", "1"}


class TestViz:
    def test_partition_rendering(self, tmp_path):
        out = tmp_path / "viz"
        code = main(["viz", "--partition", "strided:2x2", "--latent", "8x8",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("*.ppm"))
        assert len(files) == 1
        pixels = parse_p3(files[0].read_bytes())
        white = (pixels == 255).all(axis=2)
        assert white.sum() == 16

    def test_bad_partition_syntax(self, capsys):
        assert main(["viz", "--partition", "bogus", "--latent", "8x8"]) == 1
        assert "bogus" in capsys.readouterr().err
