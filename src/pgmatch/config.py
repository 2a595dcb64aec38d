"""Run configuration: one dataclass holding every hyperparameter and
ablation switch, serializable to/from plain ``key = value`` text."""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

PG_MODES = ("off", "discrete", "continuous", "compound")
REWARD_MODES = ("r1", "ap", "r1+ap")


@dataclass
class ModelConfig:
    # dimensions
    feature_dim: int = 64       # region feature size (d)
    word_dim: int = 32          # word embedding size (e)
    hidden: int = 64            # policy GRU hidden size
    embed_dim: int = 64         # common embedding space
    decoder_dim: int = 32       # decoder channels
    gcn_layers: int = 1
    tied_affinity: bool = False

    # action space and PG
    n_actions: int = 100        # labels 0..n inclusive -> n+1 logits
    lam: float = 20.0           # attention scale multiplier
    beta: float = 0.5           # baseline coefficient (0 disables)
    temperature: float = 1.0    # Gumbel-softmax temperature
    heads: int = 1              # attention heads (1 or 2)
    pg_mode: str = "compound"   # off | discrete | continuous | compound
    reward_mode: str = "r1+ap"  # r1 | ap | r1+ap
    pg_batch_mean: bool = True  # False recovers the plain batch-sum form

    # loss switches
    margin: float = 0.2
    loss_triplet: bool = True
    loss_instance: bool = True
    loss_decode: bool = True

    # optimization; desk-scale defaults (the full-scale recipe of
    # lr 4e-4 -> 4e-5, batch 128 stays reachable through these fields)
    batch_size: int = 16
    epochs: int = 50
    lr: float = 1e-3
    lr_drop_epoch: int = 35     # epochs after this one run at lr_after_drop
    lr_after_drop: float = 1e-4
    init_scale: float = 0.05
    decoder_init_scale: float = 0.2
    seed: int = 0

    def validate(self):
        # the float rules are written so that NaN breaks them too
        if self.pg_mode not in PG_MODES:
            raise ValueError(f"pg_mode must be one of {PG_MODES}, got {self.pg_mode!r}")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"reward_mode must be one of {REWARD_MODES}, got {self.reward_mode!r}")
        if self.heads not in (1, 2):
            raise ValueError(f"heads must be 1 or 2, got {self.heads}")
        if self.n_actions < 2:
            raise ValueError(f"n_actions must be >= 2, got {self.n_actions}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not self.margin > 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("feature_dim", "word_dim", "hidden", "embed_dim", "decoder_dim", "gcn_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (self.lr > 0 and self.lr_after_drop > 0):
            raise ValueError("learning rates must be positive")
        if self.pg_mode == "off" and not (self.loss_triplet or self.loss_instance
                                          or self.loss_decode):
            raise ValueError("no loss term is enabled; nothing to train")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "ModelConfig":
        cfg = cls()
        for key, value in values.items():
            cfg.set(key, value)
        return cfg.validate()

    def set(self, key: str, value):
        """Assign one field, coercing from string form; unknown keys list
        the valid ones. Any other value must already fit the field (an int
        field takes an int, a float field an int or a float, never a bool);
        otherwise ``ValueError`` names the key."""
        if key not in _FIELD_TYPES:
            raise KeyError(f"unknown config key {key!r}; "
                           f"valid keys: {', '.join(sorted(_FIELD_TYPES))}")
        ftype = _FIELD_TYPES[key]
        if isinstance(value, str):
            value = _coerce(key, value, ftype)
        elif not _FITS[ftype][0](value):
            raise ValueError(f"config key {key!r}: expected {_FITS[ftype][1]}, got {value!r}")
        setattr(self, key, value)
        return self

    def replaced(self, /, **overrides) -> "ModelConfig":
        return ModelConfig.from_dict({**self.to_dict(), **overrides})


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
# field type -> (whether a non-string value fits it, what fits it)
_FITS = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: False, "a string"),
}


def _coerce(key: str, text: str, ftype: str):
    text = text.strip()
    if ftype == "bool":
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {key!r}: cannot parse {text!r} as bool")
    if ftype in ("int", "float"):
        try:
            return int(text) if ftype == "int" else float(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: cannot parse {text!r} as {ftype}") from None
    return text


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored.
    Each line's key and value must give a valid config when set on the
    defaults; ``ValueError`` names the file and the line otherwise."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            ModelConfig().set(key, value).validate()
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
        out[key] = value
    return out
