"""Full matching model: both modality encoders, one attention policy per
branch, projections into the common embedding space, the shared instance
classifier and the shared text decoder. Also owns the checkpoint format
(same raw-matrix layout as datasets, one file per parameter, committed
by replacing ``checkpoint.json``)."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .attention import PolicyParams, draw_noise, fuse, neutral_trace, policy_rollout
from .autodiff import ParamSource, Tensor, constant, l2_normalize, matmul
from .config import ModelConfig
from .data import DatasetError, _is_int, read_json, read_matrix, write_matrix
from .distributions import ActionSpace
from .encoders import embed_words, gcn_reason, region_affinity, region_batch
from .losses import DecoderParams


class CheckpointError(ValueError):
    """A checkpoint directory is missing a file or does not match the model
    its manifest describes."""


class MatchingModel:
    def __init__(self, config: ModelConfig, vocab_size: int, num_instances: int,
                 rng: np.random.Generator | ParamSource):
        """``rng`` draws a new model's parameters, always in the same order;
        a ``ParamSource`` of stored arrays builds a saved model from them
        (``load_checkpoint``, ``TrainResult.rebuild``), which must hold
        exactly this model's parameter names (``ValueError`` otherwise)."""
        config.validate()
        self.config = config
        self.vocab_size = vocab_size
        self.num_instances = num_instances
        self.space = ActionSpace(n=config.n_actions, temperature=config.temperature)
        c, s = config, config.init_scale
        src = ParamSource.of(rng)
        square = (c.feature_dim, c.feature_dim)

        self.w_aff_a = src.weight("w_aff_a", square, s)
        self.w_aff_b = self.w_aff_a if c.tied_affinity else src.weight("w_aff_b", square, s)
        self.w_gcn = [src.weight(f"w_gcn.{i}", square, s) for i in range(c.gcn_layers)]
        self.word_table = src.weight("word_table", (vocab_size, c.word_dim), s)
        self.img_policy = PolicyParams.init(c.feature_dim, c.hidden, self.space,
                                            src.scope("img"), heads=c.heads, scale=s)
        self.txt_policy = PolicyParams.init(c.word_dim, c.hidden, self.space,
                                            src.scope("txt"), heads=c.heads, scale=s)
        self.proj_img = src.weight("proj_img", (c.feature_dim, c.embed_dim), s)
        self.proj_txt = src.weight("proj_txt", (c.word_dim, c.embed_dim), s)
        self.classifier = src.weight("classifier", (c.embed_dim, num_instances), s)
        self.decoder = DecoderParams.init(vocab_size, c.embed_dim, c.decoder_dim,
                                          src.scope("decoder"), scale=c.decoder_init_scale)
        if extra := src.unused():
            raise ValueError(f"unknown parameters {extra}")
        self._named = src.named

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> dict:
        """Every parameter by name (``img.gru.w_xz``), in creation order;
        a tied ``w_aff_b`` is ``w_aff_a`` and not listed again."""
        return dict(self._named)

    def parameters(self) -> list:
        return list(self._named.values())

    def trainable_parameters(self) -> list:
        """Parameters reached by the configured loss graph. The optimizer
        must see exactly these: anything else never receives a gradient
        (adam treats a missing grad as an error by contract)."""
        cfg = self.config
        named = self.named_parameters()
        task_losses = cfg.loss_triplet or cfg.loss_instance or cfg.loss_decode

        def drop(predicate):
            for name in [n for n in named if predicate(n)]:
                named.pop(name)

        if cfg.pg_mode == "off":
            drop(lambda n: ".gru." in n or ".w_mu." in n or ".w_std." in n)
        elif cfg.pg_mode == "discrete":
            # attention is the squashed mean; the sigma head dangles
            drop(lambda n: ".w_std." in n)
        if not cfg.loss_decode:
            drop(lambda n: n.startswith("decoder."))
        if not cfg.loss_instance:
            drop(lambda n: n == "classifier")
        if not task_losses:
            # only the PG losses remain; they stop at the policy inputs
            drop(lambda n: ".fusion_gru." in n or n.startswith("proj_"))
        return list(named.values())

    def state_arrays(self) -> dict:
        return {name: t.values.copy() for name, t in self.named_parameters().items()}

    # -- forward ------------------------------------------------------------
    #
    # Inputs are batch-major: (B, T, d) regions and (B, N) token ids, one
    # row of the returned (B, embed_dim) embeddings per instance. A single
    # (T, d) region set or (N,) token sequence is the batch B = 1.

    def encode_image(self, regions: np.ndarray) -> Tensor:
        """GCN-reasoned region features, (B, T, d)."""
        feats = constant(region_batch(regions))
        relation = region_affinity(feats, self.w_aff_a, self.w_aff_b)
        out = feats
        for w in self.w_gcn:
            out = gcn_reason(out, relation, w)
        return out

    def encode_text(self, tokens) -> Tensor:
        """Word embeddings, (B, N, word_dim)."""
        return embed_words(np.atleast_2d(tokens), self.word_table)

    def draw_noise(self, rng: np.random.Generator, batch: int, lengths) -> list:
        """Rollout noise for ``batch`` instances and one branch per entry of
        ``lengths``, in the fixed draw order of ``attention.draw_noise``."""
        if self.config.pg_mode == "off":
            return [None] * len(lengths)
        return draw_noise(rng, batch, lengths, self.config.heads, self.space.num_labels,
                          self.config.pg_mode)

    def _rollout(self, features, policy: PolicyParams, noise, mode: str):
        if self.config.pg_mode == "off":
            return neutral_trace(features.shape[1], self.config.lam)
        return policy_rollout(features, policy, self.space, noise, mode, self.config.pg_mode)

    def embed_image(self, regions: np.ndarray, noise, mode: str = "stochastic"):
        features = self.encode_image(regions)
        trace = self._rollout(features, self.img_policy, noise, mode)
        fused = fuse(features, trace, self.config.lam, self.img_policy.fusion_gru)
        return l2_normalize(matmul(fused, self.proj_img)), trace

    def embed_text(self, tokens, noise, mode: str = "stochastic"):
        features = self.encode_text(tokens)
        trace = self._rollout(features, self.txt_policy, noise, mode)
        fused = fuse(features, trace, self.config.lam, self.txt_policy.fusion_gru)
        return l2_normalize(matmul(fused, self.proj_txt)), trace

    # -- checkpoints ----------------------------------------------------------

    def save_checkpoint(self, outdir):
        """Write the checkpoint into ``outdir``; replacing its
        ``checkpoint.json`` commits it. Each parameter goes to
        ``<name>-<hash>.bin``, the hash being the first 16 hex digits of
        the sha256 of its values, so a file that the manifest on disk names
        is never rewritten with other bytes. Every file is written to a
        ``.tmp`` file and moved into place with ``os.replace``.

        After the commit, or after a save that fails part-way, one prune
        deletes every ``.bin`` and ``.tmp`` file that the manifest on disk
        does not name, and ``outdir`` itself if this save created it and
        nothing was committed. A killed save leaves the previous checkpoint
        loadable, plus files that the next save's prune deletes."""
        manifest = {
            "format": "pgmatch-checkpoint-v1",
            "config": self.config.to_dict(),
            "vocab_size": self.vocab_size,
            "num_instances": self.num_instances,
            "params": {},
        }
        created = not os.path.isdir(outdir)
        os.makedirs(outdir, exist_ok=True)
        try:
            for name, t in self.named_parameters().items():
                arr = np.ascontiguousarray(t.values)
                fname = f"{name.replace('.', '_')}-{hashlib.sha256(arr).hexdigest()[:16]}.bin"
                tmp = os.path.join(outdir, fname + ".tmp")
                write_matrix(tmp, arr.reshape(1, -1))
                os.replace(tmp, os.path.join(outdir, fname))
                manifest["params"][name] = {"file": fname, "shape": list(arr.shape)}
            tmp = os.path.join(outdir, "checkpoint.json.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, sort_keys=True, indent=2)
                fh.write("\n")
            os.replace(tmp, os.path.join(outdir, "checkpoint.json"))
        finally:
            _prune(outdir, created)

    @classmethod
    def load_checkpoint(cls, path) -> "MatchingModel":
        """Rebuild a model from ``save_checkpoint`` output. A missing or
        malformed file raises ``CheckpointError`` naming the file and the
        field."""
        manifest_file = os.path.join(path, "checkpoint.json")

        def fail(message):
            raise CheckpointError(f"{manifest_file}: {message}") from None

        manifest = read_json(manifest_file, CheckpointError)
        if not isinstance(manifest, dict):
            fail("expected a JSON object")
        if manifest.get("format") != "pgmatch-checkpoint-v1":
            fail(f"field 'format' is {manifest.get('format')!r}, expected 'pgmatch-checkpoint-v1'")
        for key in ("config", "vocab_size", "num_instances", "params"):
            if key not in manifest:
                fail(f"missing field {key!r}")
        if not isinstance(manifest["params"], dict):
            fail("field 'params' is not an object")
        try:
            config = ModelConfig.from_dict(manifest["config"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            fail(f"field 'config': {exc.args[0]}")
        for key in ("vocab_size", "num_instances"):
            if not _is_int(manifest[key]) or manifest[key] < 1:
                fail(f"field {key!r} is {manifest[key]!r}, expected a positive integer")
        arrays = {}
        for name, info in manifest["params"].items():
            bin_file, shape = _param_entry(path, name, info, fail)
            try:
                flat = read_matrix(bin_file)
            except (OSError, DatasetError) as exc:
                reason = exc.strerror if isinstance(exc, OSError) else exc
                raise CheckpointError(f"{bin_file}: cannot read params.{name} ({reason})") from None
            if flat.size != math.prod(shape):
                raise CheckpointError(f"{bin_file}: {flat.size} values do not fill "
                                      f"params.{name}.shape {list(shape)}")
            arrays[name] = flat.reshape(shape)
        try:
            return cls(config, manifest["vocab_size"], manifest["num_instances"],
                       ParamSource(stored=arrays))
        except ValueError as exc:
            fail(f"field 'params': {exc}")


def _param_entry(path, name, info, fail) -> tuple:
    """The file and the shape one ``params`` entry of a manifest names:
    a plain file name inside the checkpoint directory and a list of
    non-negative integers, or ``fail`` naming the field."""
    if not isinstance(info, dict) or "file" not in info or "shape" not in info:
        fail(f"field 'params.{name}' needs a file name and a shape")
    fname, shape = info["file"], info["shape"]
    if (not isinstance(fname, str) or fname in ("", ".", "..") or "\0" in fname
            or os.path.basename(fname) != fname):
        fail(f"field 'params.{name}.file' is {fname!r}, expected a file name inside {path}")
    if not isinstance(shape, list) or not all(_is_int(n) and n >= 0 for n in shape):
        fail(f"field 'params.{name}.shape' is {shape!r}, expected a list of non-negative integers")
    return os.path.join(path, fname), tuple(shape)


def _prune(outdir, created):
    """Delete every ``.bin`` and ``.tmp`` file in ``outdir`` that its
    ``checkpoint.json`` does not name (all of them if it names none), and
    ``outdir`` if ``created`` and it holds no ``checkpoint.json``."""
    manifest_file = os.path.join(outdir, "checkpoint.json")
    try:
        with open(manifest_file, "r", encoding="utf-8") as fh:
            keep = {info["file"] for info in json.load(fh)["params"].values()}
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        keep = set()
    for name in os.listdir(outdir):
        if name.endswith((".bin", ".tmp")) and name not in keep:
            os.remove(os.path.join(outdir, name))
    if created and not os.path.exists(manifest_file):
        os.rmdir(outdir)
