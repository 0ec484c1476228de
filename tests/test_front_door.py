"""Property tests for the configuration front door: any user-supplied text is
either accepted or refused with a ConfigError that names its field."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tomebench import cli
from tomebench.config import ConfigError, harness_from_mapping
from tomebench.runner import execute_run, resolve

ACCEPTED_KEYS = (
    "latent", "channels", "heads", "prompt_tokens", "num_scales", "blocks_per_scale",
    "weight_seed", "steps", "guidance", "ratio", "ratio_start", "ratio_end", "partition",
    "batch_fix", "apply", "min_tokens", "seed", "prune", "share_guidance_edges", "out",
    "format", "compare_baseline", "viz_partition",
)
BOUNDARY_VALUES = (
    "0", "-1", "nan", "1e400", "18446744073709551616", "top", "1000000", "0x4",
    "rand:0.995", "strided:1x1", ",",
)
VALUE_FLAGS = (
    "--ratio", "--partition", "--seed", "--ratio-start", "--ratio-end", "--apply",
    "--min-tokens", "--steps", "--latent", "--out", "--format",
)
SWEEP_AXES = ("--ratio", "--partition", "--seed")

values = st.one_of(st.sampled_from(BOUNDARY_VALUES), st.text(max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.one_of(st.sampled_from(ACCEPTED_KEYS), st.text(max_size=8)),
                       values, max_size=6))
def test_any_mapping_resolves_or_names_its_field(mapping):
    try:
        resolve(harness_from_mapping(mapping))
    except ConfigError as exc:
        assert exc.field in ACCEPTED_KEYS or exc.field in mapping
        assert str(exc).startswith(f"field '{exc.field}': ")


def test_any_flag_value_exits_0_or_1(monkeypatch, capsys):
    canned = execute_run(harness_from_mapping({"latent": "8x8", "steps": "1"}))

    def fake_execute_run(harness, *args):
        resolve(harness)
        return canned

    def fake_run_sweep(points, out_dir):
        return [resolve(point) for point in points]

    def fake_write_run_artifacts(output, out_dir):
        resolve(output.harness)
        return {"report": Path(out_dir) / "report.json"}

    monkeypatch.setattr(cli, "execute_run", fake_execute_run)
    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    monkeypatch.setattr(cli, "write_run_artifacts", fake_write_run_artifacts)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.tuples(st.just("run"), st.sampled_from(VALUE_FLAGS)),
                     st.tuples(st.just("sweep"), st.sampled_from(SWEEP_AXES))),
           values)
    def check(command_flag, text):
        command, flag = command_flag
        code = cli.main([command, "--latent", "8x8", "--steps", "1", f"{flag}={text}"])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        if code == 1:
            assert err.startswith("configuration error: field '"), err

    check()



RATIOS = st.floats(0.0, 0.99).map(str)
PARTITIONS = st.one_of(
    st.sampled_from(("alt", "rand2x2")),
    st.builds("strided:{}x{}".format, st.integers(1, 3), st.integers(1, 3)),
    st.builds("randtile:{}x{}".format, st.integers(1, 3), st.integers(1, 3)),
    st.floats(0.01, 0.99).map("rand:{}".format),
)


@st.composite
def tiny_configs(draw):
    """Raw settings of a model small enough to denoise in a few milliseconds.

    Geometry, partition, policy and schedule are all drawn, so most mappings
    break some rule and `resolve` refuses them.
    """
    heads = draw(st.sampled_from((1, 2, 4)))
    height, width = (draw(st.sampled_from((1, 2, 3, 4, 6, 8))) for _ in range(2))
    components = draw(st.lists(st.sampled_from(("self", "cross", "mlp")), min_size=1,
                               unique=True))
    mapping = {
        "latent": f"{height}x{width}",
        "steps": str(draw(st.integers(1, 2))),
        "heads": str(heads),
        "channels": str(heads * draw(st.sampled_from((1, 2, 4)))),
        "num_scales": str(draw(st.integers(1, 3))),
        "blocks_per_scale": str(draw(st.integers(1, 2))),
        "prompt_tokens": str(draw(st.integers(1, 3))),
        "partition": draw(PARTITIONS),
        "batch_fix": str(draw(st.booleans())),
        "apply": ",".join(components),
        "min_tokens": draw(st.one_of(st.just("top"), st.integers(1, 65).map(str))),
        "prune": str(draw(st.booleans())),
        "share_guidance_edges": str(draw(st.booleans())),
        "seed": str(draw(st.integers(0, 3))),
    }
    endpoints = dict.fromkeys(("ratio", "ratio_start", "ratio_end"), RATIOS)
    mapping.update(draw(st.fixed_dictionaries({}, optional=endpoints)))
    return mapping


@settings(max_examples=50, deadline=None)
@given(tiny_configs())
def test_every_accepted_tiny_config_runs_to_completion(mapping):
    try:
        harness = harness_from_mapping(mapping)
        resolve(harness)
    except ConfigError:
        return  # refused before any compute: the front door did its job
    execute_run(harness)
