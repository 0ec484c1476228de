import pytest

from tomebench.config import (
    ConfigError,
    HarnessConfig,
    ToMeConfig,
    config_dict,
    config_digest,
    harness_from_mapping,
    load_config_file,
)
from tomebench.partition import PartitionScheme
from tomebench.runner import build_spec, resolve, validate_capacity


class TestDefaults:
    def test_policy_defaults(self):
        tome = ToMeConfig()
        assert tome.ratio == 0.5
        assert tome.partition == PartitionScheme.rand_tile(2, 2)
        assert tome.partition.batch_fix is True
        assert tome.apply_self and not tome.apply_cross and not tome.apply_mlp
        assert tome.min_tokens is None
        assert not tome.prune and not tome.share_guidance_edges

    def test_harness_defaults(self):
        harness = HarnessConfig()
        assert harness.latent == (32, 32)
        assert harness.steps == 50
        assert harness.guidance_scale == 7.5
        assert config_dict(harness)["min_tokens"] == 1024  # top scale only
        assert harness.scale_dims() == ((32, 32), (16, 16), (8, 8))

    def test_schedule_endpoints(self):
        assert ToMeConfig(ratio=0.5).schedule_endpoints() == (0.5, 0.5)
        assert ToMeConfig(ratio=0.5, ratio_start=0.7).schedule_endpoints() == (0.7, 0.5)
        assert ToMeConfig(ratio=0.5, ratio_end=0.3).schedule_endpoints() == (0.5, 0.3)


class TestValidation:
    def test_ratio_range(self):
        with pytest.raises(ConfigError):
            ToMeConfig(ratio=1.0)
        with pytest.raises(ConfigError):
            ToMeConfig(ratio_start=-0.1)

    def test_latent_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            HarnessConfig(latent=(10, 10), num_scales=3)

    def test_heads_divide_channels(self):
        with pytest.raises(ConfigError):
            HarnessConfig(channels=30, heads=4)

    @pytest.mark.parametrize("key,text,setting", [
        ("heads", "0", "heads"),
        ("heads", "-4", "heads"),
        ("weight_seed", "-1", "weight_seed"),
        ("weight_seed", str(2**64), "weight_seed"),
        ("guidance", "nan", "guidance_scale"),
        ("guidance", "inf", "guidance_scale"),
        ("guidance", "-inf", "guidance_scale"),
        ("apply", ",", "apply"),
        ("partition", "rand:0.0004", "partition"),  # 0 of 1024 dst on 32x32
        ("num_scales", "1000000", "num_scales"),
        ("latent", f"{2**32}x{2**31}", "latent"),  # 2^63 tokens: past any 64-bit index
        ("blocks_per_scale", "1025", "blocks_per_scale"),
    ])
    def test_runtime_holes_are_config_errors(self, key, text, setting):
        """The error names the key as written, not the setting it feeds (guidance_scale)."""
        with pytest.raises(ConfigError) as excinfo:
            resolve(harness_from_mapping({key: text}))
        assert excinfo.value.field == key
        assert str(excinfo.value).startswith(f"field '{key}': ")
        assert setting == key or setting not in str(excinfo.value)

    def test_blocks_per_scale_bound_is_inclusive(self):
        harness = harness_from_mapping({"blocks_per_scale": "1024"})
        resolve(harness)
        assert len(build_spec(harness).block_dims()) == 3 * 1024

    def test_capacity_bound_in_message(self):
        harness = HarnessConfig(latent=(8, 8), num_scales=2, channels=16,
                                tome=ToMeConfig(ratio=0.6, partition=PartitionScheme.alternating()))
        with pytest.raises(ConfigError, match="feasible ratio is 0.5"):
            validate_capacity(harness)

    @pytest.mark.parametrize("tome,side", [
        (ToMeConfig(partition=PartitionScheme.random(0.01), min_tokens=1),
         "0 of the 16 tokens of the 4x4"),
        (ToMeConfig(ratio=0.001, partition=PartitionScheme.random(0.999)),  # r = 0
         "256 of the 256 tokens of the 16x16"),
    ])
    def test_empty_partition_side(self, tome, side):
        with pytest.raises(ConfigError, match=f"field 'partition'.* {side} grid"):
            validate_capacity(HarnessConfig(latent=(16, 16), tome=tome))

    def test_capacity_ok_with_rand2x2(self):
        harness = HarnessConfig(latent=(8, 8), num_scales=2, channels=16,
                                tome=ToMeConfig(ratio=0.6))
        validate_capacity(harness)


class TestMapping:
    def test_full_mapping(self):
        mapping = {
            "ratio": "0.4", "ratio_start": "0.7", "ratio_end": "0.3",
            "partition": "strided:2x4", "batch_fix": "false",
            "apply": "self,mlp", "min_tokens": "256", "seed": "9",
            "steps": "12", "latent": "16x16", "out": "outdir",
            "format": "csv", "channels": "32", "heads": "2",
            "prompt_tokens": "6", "num_scales": "2", "blocks_per_scale": "3",
            "weight_seed": "77", "guidance": "5.0", "prune": "true",
        }
        harness = harness_from_mapping(mapping)
        tome = harness.tome
        assert tome.ratio == 0.4
        assert tome.schedule_endpoints() == (0.7, 0.3)
        assert tome.partition == PartitionScheme.strided(2, 4, batch_fix=False)
        assert tome.apply_self and tome.apply_mlp and not tome.apply_cross
        assert tome.min_tokens == 256 and tome.seed == 9 and tome.prune
        assert harness.latent == (16, 16) and harness.steps == 12
        assert harness.out_dir == "outdir" and harness.report_format == "csv"
        assert harness.channels == 32 and harness.heads == 2
        assert harness.blocks_per_scale == 3 and harness.weight_seed == 77
        assert harness.guidance_scale == 5.0

    def test_min_tokens_top(self):
        harness = harness_from_mapping({"min_tokens": "top"})
        assert harness.tome.min_tokens is None

    def test_batch_fix_order_independent(self):
        a = harness_from_mapping({"partition": "rand:0.25", "batch_fix": "false"})
        b = harness_from_mapping({"batch_fix": "false", "partition": "rand:0.25"})
        assert a.tome.partition == b.tome.partition

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            harness_from_mapping({"bogus": "1"})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="'steps'"):
            harness_from_mapping({"steps": "many"})
        with pytest.raises(ConfigError, match="'apply'"):
            harness_from_mapping({"apply": "self,attn"})
        with pytest.raises(ConfigError, match="'latent'"):
            harness_from_mapping({"latent": "32"})


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# benchmark configuration\n"
            "ratio = 0.5\n"
            "partition = rand2x2   # default scheme\n"
            "\n"
            "latent = 16x16\n"
            "min-tokens = top\n"
        )
        mapping = load_config_file(path)
        assert mapping == {"ratio": "0.5", "partition": "rand2x2",
                           "latent": "16x16", "min_tokens": "top"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("ratio 0.5\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(path)


class TestDigest:
    def test_stable(self):
        a = config_dict(HarnessConfig())
        b = config_dict(HarnessConfig())
        assert config_digest(a) == config_digest(b)

    def test_sensitive_to_changes(self):
        base = config_digest(config_dict(HarnessConfig()))
        changed = config_digest(config_dict(HarnessConfig(steps=49)))
        assert base != changed
