import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from manifest_fuzz import near

from pgmatch.cli import _load_grid, _resolve, build_parser, main
from pgmatch.config import PG_MODES, REWARD_MODES, ModelConfig, parse_config_file

DEFAULTS = ModelConfig().to_dict()


class TestModelConfig:
    def test_defaults_match_stated_hyperparameters(self):
        cfg = ModelConfig()
        assert cfg.n_actions == 100
        assert cfg.lam == 20.0
        assert cfg.beta == 0.5
        assert cfg.temperature == 1.0
        assert cfg.margin == 0.2
        assert cfg.heads == 1
        assert cfg.pg_mode == "compound"
        assert cfg.reward_mode == "r1+ap"

    def test_roundtrip(self):
        cfg = ModelConfig(lam=10.0, heads=2, pg_mode="discrete")
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(KeyError, match="lambda_value.*valid keys.*lam"):
            ModelConfig().set("lambda_value", "3")

    def test_string_coercion(self):
        cfg = ModelConfig()
        cfg.set("lam", "12.5")
        cfg.set("heads", "2")
        cfg.set("loss_decode", "false")
        cfg.set("pg_mode", "off")
        assert cfg.lam == 12.5 and cfg.heads == 2
        assert cfg.loss_decode is False and cfg.pg_mode == "off"
        with pytest.raises(ValueError, match="bool"):
            cfg.set("loss_triplet", "maybe")

    @pytest.mark.parametrize("key,value", [
        ("heads", 1.0), ("gcn_layers", 1.0), ("hidden", 64.0), ("hidden", True), ("seed", None),
        ("lam", True), ("lam", [20.0]), ("tied_affinity", 1), ("pg_mode", 3), ("pg_mode", None)])
    def test_non_string_value_must_fit_the_field(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            ModelConfig().set(key, value)
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            ModelConfig.from_dict({key: value})

    def test_fitting_values_are_kept(self):
        cfg = ModelConfig().set("lam", 10).set("beta", 0.25).set("hidden", 32)
        cfg.set("tied_affinity", True).set("pg_mode", "off")
        assert (cfg.lam, cfg.beta, cfg.hidden) == (10, 0.25, 32)
        assert cfg.tied_affinity is True and cfg.pg_mode == "off"

    @pytest.mark.parametrize("key,text", [("heads", "two"), ("lam", "1,5")])
    def test_unparsable_number_names_the_key(self, key, text):
        with pytest.raises(ValueError, match=f"config key '{key}'.*{text}"):
            ModelConfig().set(key, text)

    def test_validation(self):
        with pytest.raises(ValueError, match="pg_mode"):
            ModelConfig(pg_mode="sometimes").validate()
        with pytest.raises(ValueError, match="heads"):
            ModelConfig(heads=3).validate()
        with pytest.raises(ValueError, match="batch_size"):
            ModelConfig(batch_size=1).validate()
        with pytest.raises(ValueError, match="lam"):
            ModelConfig(lam=0.0).validate()
        no_task_losses = dict(loss_triplet=False, loss_instance=False, loss_decode=False)
        with pytest.raises(ValueError, match="no loss term"):
            ModelConfig(pg_mode="off", **no_task_losses).validate()
        ModelConfig(pg_mode="discrete", **no_task_losses).validate()

    @pytest.mark.parametrize("key", ["lam", "temperature", "margin", "beta", "lr",
                                     "lr_after_drop"])
    def test_nan_breaks_the_float_rules(self, key):
        with pytest.raises(ValueError):
            ModelConfig().replaced(**{key: float("nan")})

    def test_replaced_does_not_mutate(self):
        base = ModelConfig()
        other = base.replaced(lam=5.0, seed=3)
        assert base.lam == 20.0 and other.lam == 5.0 and other.seed == 3


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlam = 12.0\n\npg_mode = discrete # trailing\n")
        values = parse_config_file(path)
        assert values == {"lam": "12.0", "pg_mode": "discrete"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam: 12\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(path)

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam = 12.0\nheads = 2\n")
        cfg = _resolve(build_parser().parse_args(
            ["train", "--out", str(tmp_path / "run"), "--config", str(path), "--lambda", "30.0"]))
        assert cfg.lam == 30.0      # flag wins
        assert cfg.heads == 2       # file beats default
        assert cfg.margin == 0.2    # default


@st.composite
def damaged_config(draw) -> bytes:
    """Config text as hand edits leave it: field names and junk keys, each
    field's value or a near one, lines without '=', and raw bytes."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("field", "junk key", "no equals", "raw")))
        if kind == "raw":
            lines.append(draw(st.binary(max_size=12)))
            continue
        key = draw(st.sampled_from(sorted(DEFAULTS)))
        value = draw(st.sampled_from([DEFAULTS[key]] + near(DEFAULTS[key])))
        if kind == "junk key":
            key = draw(st.sampled_from([key.upper(), key + "x", key[:-1], f"{key}.{key}"])
                       | st.text(max_size=8))
        line = f"{key} {value}" if kind == "no equals" else f"{key} = {value}"
        lines.append(line.encode("utf-8", "surrogatepass"))
    return b"\n".join(lines)


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=damaged_config())
    def test_train_exits_1_and_names_the_config_file(self, tmp_path, text):
        # cmd_train resolves the config before it reads the (missing) dataset
        cfg, data, out = tmp_path / "run.cfg", tmp_path / "nodata", tmp_path / "out"
        cfg.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", "--data", str(data), "--out", str(out), "--config", str(cfg)])
        err = err.getvalue()
        assert code == 1 and "internal error" not in err and not out.exists()
        if str(cfg) not in err:
            assert str(data) in err
            ModelConfig.from_dict(parse_config_file(cfg))


def _valid_configs():
    by_type = {"int": st.integers(1, 10**6), "float": st.floats(1e-9, 1e9),
               "bool": st.booleans()}
    special = {"heads": st.sampled_from((1, 2)), "n_actions": st.integers(2, 10**6),
               "batch_size": st.integers(2, 10**6), "seed": st.integers(-2**63, 2**63),
               "lr_drop_epoch": st.integers(-10, 10**6), "beta": st.floats(0, 1e9),
               "pg_mode": st.sampled_from(PG_MODES), "reward_mode": st.sampled_from(REWARD_MODES)}
    fields = {**{f.name: by_type.get(f.type) for f in dataclasses.fields(ModelConfig)}, **special}

    def valid(values):
        try:
            ModelConfig(**values).validate()
        except ValueError:
            return False
        return True

    return st.fixed_dictionaries(fields).filter(valid).map(lambda v: ModelConfig(**v))


class TestConfigRoundTrip:
    """Any valid config comes back unchanged from each outside form."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cfg=_valid_configs())
    def test_config_file_set_items_and_grid_entry(self, tmp_path, cfg):
        values = cfg.to_dict()
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        train = ["train", "--out", str(tmp_path / "run")]
        from_file = _resolve(build_parser().parse_args(train + ["--config", str(path)]))
        assert from_file.to_dict() == values
        sets = [arg for k, v in values.items() for arg in ("--set", f"{k}={v}")]
        assert _resolve(build_parser().parse_args(train + sets)).to_dict() == values
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"name": "cell", "overrides": values}]))
        [(name, overrides)] = _load_grid(str(grid), ModelConfig())
        assert ModelConfig().replaced(**overrides).to_dict() == values
