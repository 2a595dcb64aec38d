"""Full matching model: both modality encoders, one attention policy per
branch, projections into the common embedding space, the shared instance
classifier and the shared text decoder. Also owns the checkpoint format
(same raw-matrix layout as datasets, one file holding every parameter,
committed by replacing ``checkpoint.json``)."""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .attention import PolicyParams, draw_noise, fuse, neutral_trace, policy_rollout
from .autodiff import ParamSource, Tensor, l2_normalize, matmul
from .config import ModelConfig
from .data import DatasetError, _is_int, read_json, read_matrix, write_matrix
from .distributions import ActionSpace
from .encoders import embed_words, gcn, region_batch
from .losses import DecoderParams


class CheckpointError(ValueError):
    """A checkpoint directory is missing a file or does not match the model
    its manifest describes."""


class MatchingModel:
    def __init__(self, config: ModelConfig, vocab_size: int, num_instances: int,
                 rng: np.random.Generator | ParamSource):
        """``rng`` draws a new model's parameters, always in the same order;
        a ``ParamSource`` of a ``flat`` vector builds a saved model from it
        (``load_checkpoint``, ``TrainResult.rebuild``), which must hold
        exactly this model's values (``ValueError`` otherwise). Either way
        the parameters are consecutive views of ``flat``."""
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
        self._named = src.named
        self.flat = src.pack()

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

    # -- forward ------------------------------------------------------------
    #
    # Inputs are batch-major: (B, T, d) regions and (B, N) token ids, one
    # row of the returned (B, embed_dim) embeddings per instance. A single
    # (T, d) region set or (N,) token sequence is the batch B = 1.

    def encode_image(self, regions: np.ndarray) -> Tensor:
        """GCN-reasoned region features, (B, T, d)."""
        return gcn(region_batch(regions), self.w_aff_a, self.w_aff_b, self.w_gcn)

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
        ``checkpoint.json`` commits it. ``flat``, which holds every
        parameter in ``named_parameters`` order, goes into one (1, total)
        matrix file named
        ``params-<first 16 hex digits of the sha256 of its values>.bin``, so
        the file the manifest on disk names is never rewritten with other
        bytes. Both files go through a ``.tmp`` file and ``os.replace``.

        After the commit, or after a save that fails part-way, one prune
        deletes every ``.bin`` and ``.tmp`` file but the one the manifest on
        disk names, and ``outdir`` itself if this save created it and
        committed nothing. A killed save leaves the previous checkpoint
        loadable, plus files that the next save's prune deletes."""
        import hashlib  # here, so that importing pgmatch does not load libcrypto

        named = self.named_parameters()
        flat = self.flat.reshape(1, -1)
        fname = f"params-{hashlib.sha256(flat).hexdigest()[:16]}.bin"
        manifest = {"format": "pgmatch-checkpoint-v2", "config": self.config.to_dict(),
                    "vocab_size": self.vocab_size, "num_instances": self.num_instances,
                    "file": fname, "params": [[n, list(t.shape)] for n, t in named.items()]}
        created = not os.path.isdir(outdir)
        os.makedirs(outdir, exist_ok=True)
        try:
            tmp = os.path.join(outdir, fname + ".tmp")
            write_matrix(tmp, flat)
            os.replace(tmp, os.path.join(outdir, fname))
            tmp = os.path.join(outdir, "checkpoint.json.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, sort_keys=True, indent=2)
                fh.write("\n")
            os.replace(tmp, os.path.join(outdir, "checkpoint.json"))
        finally:
            _prune(outdir, created)

    @classmethod
    def load_checkpoint(cls, path) -> "MatchingModel":
        """Rebuild a model from ``save_checkpoint`` output: its parameters
        are consecutive views of the one array its ``file`` is read into.
        ``params`` must equal the ``[name, shape]`` list the config builds.
        A missing or malformed file raises ``CheckpointError`` naming the
        file and the field."""
        manifest_file = os.path.join(path, "checkpoint.json")

        def fail(message, file=manifest_file):
            raise CheckpointError(f"{file}: {message}") from None

        manifest = read_json(manifest_file, CheckpointError)
        if not isinstance(manifest, dict):
            fail("expected a JSON object")
        if manifest.get("format") != "pgmatch-checkpoint-v2":
            fail(f"field 'format' is {manifest.get('format')!r}, expected 'pgmatch-checkpoint-v2'")
        for key in ("config", "vocab_size", "num_instances", "file", "params"):
            if key not in manifest:
                fail(f"missing field {key!r}")
        try:
            config = ModelConfig.from_dict(manifest["config"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            fail(f"field 'config': {exc.args[0]}")
        for key in ("vocab_size", "num_instances"):
            if not _is_int(manifest[key]) or manifest[key] < 1:
                fail(f"field {key!r} is {manifest[key]!r}, expected a positive integer")
        fname, params = manifest["file"], manifest["params"]
        if (not isinstance(fname, str) or fname in ("", ".", "..") or "\0" in fname
                or os.path.basename(fname) != fname):
            fail(f"field 'file' is {fname!r}, expected a file name inside {path}")
        if not isinstance(params, list):
            fail("field 'params' is not a list")
        bin_file = os.path.join(path, fname)
        try:
            src = ParamSource(flat=read_matrix(bin_file).reshape(-1))
        except (OSError, DatasetError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            fail(f"cannot read the file that field 'file' names ({reason})", bin_file)
        try:
            model = cls(config, manifest["vocab_size"], manifest["num_instances"], src)
        except ValueError as exc:  # the file's values do not fill the parameters
            model, problem = None, exc
        built = [[name, list(t.shape)] for name, t in src.named.items()]
        # a vector that ran out built the list up to the parameter before that
        listed = params[:len(built)] if src.end[0] > src.flat.size else params
        if listed != built:
            end = object()
            i, got, want = next((i, a, b) for i, (a, b) in enumerate(
                itertools.zip_longest(listed, built, fillvalue=end)) if a != b)
            got, want = ("the end of the list" if e is end else repr(e) for e in (got, want))
            fail(f"field 'params' differs from the model's [name, shape] list at "
                 f"'params[{i}]': it is {got}, expected {want}")
        if model is None:
            fail(problem, bin_file)
        return model


def _prune(outdir, created):
    """Delete every ``.bin`` and ``.tmp`` file in ``outdir`` but the
    ``file`` its ``checkpoint.json`` names, and ``outdir`` if ``created``
    and it holds no ``checkpoint.json``."""
    manifest_file = os.path.join(outdir, "checkpoint.json")
    try:
        with open(manifest_file, "r", encoding="utf-8") as fh:
            keep = json.load(fh)["file"]
    except (OSError, ValueError, LookupError, TypeError):
        keep = None
    for name in os.listdir(outdir):
        if name.endswith((".bin", ".tmp")) and name != keep:
            os.remove(os.path.join(outdir, name))
    if created and not os.path.exists(manifest_file):
        os.rmdir(outdir)
