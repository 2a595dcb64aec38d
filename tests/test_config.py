import pytest

from pgmatch.config import ModelConfig, parse_config_file, resolve_config


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
        cfg = resolve_config(parse_config_file(path), {"lam": 30.0})
        assert cfg.lam == 30.0      # flag wins
        assert cfg.heads == 2       # file beats default
        assert cfg.margin == 0.2    # default
