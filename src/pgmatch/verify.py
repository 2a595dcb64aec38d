"""Self-contained verification suites: gradient checks, distribution
statistics, ranking-metric oracles, and a bandit sanity run for the
policy-gradient estimator. Each check carries its tolerance; the CLI and
the acceptance tests both run these."""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import attention
from . import autodiff as ad
from .attention import (
    ACTION_MODES,
    ROLLOUT_MODES,
    SIGMA_FLOOR,
    AttentionTrace,
    PolicyParams,
    RolloutNoise,
    draw_noise,
    fuse,
    policy_rollout,
)
from .config import ModelConfig
from .data import Instance
from .distributions import ActionSpace, categorical_sample
from .encoders import GruParams, gcn
from .losses import (
    DecoderParams,
    continuous_pg_loss,
    discrete_pg_loss,
    instance_loss,
    text_decoding_loss,
    total_loss,
    triplet_loss,
)
from .model import MatchingModel
from .rewards import diagonal_ranks, pg_baseline
from .training import _batch_losses

GRAD_TOL = 1e-4
GRAD_EPS = 1e-5
FREQ_TOL = 0.01
QUAD_TOL = 1e-6
BANDIT_REL_TOL = 0.05
BANDIT_ARMS = np.array([1.0, 0.5, 0.0])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(results, name, fn):
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    results.append(CheckResult(name, passed, detail, time.perf_counter() - start))


# ---------------------------------------------------------------------------
# gradcheck suite
# ---------------------------------------------------------------------------


def _weighted(t, weights):
    """The sum of ``t``'s entries times the constant ``weights`` (of
    ``t``'s size), one record."""
    w = np.reshape(weights, t.shape)
    return ad.record_op("weighted", (t,), np.asarray(np.sum(t.values * w)), lambda g: (g * w,))


def _sum_of_squares(t):
    """The sum of the squares of ``t``'s entries, one record."""
    v = t.values
    return ad.record_op("sum_of_squares", (t,), np.asarray(np.sum(v * v)),
                        lambda g: (2.0 * g * v,))


def _on(loss, *shapes):
    """A case of ``loss`` on standard-normal inputs of ``shapes``."""
    return lambda rng: (loss, tuple(ad.Tensor(rng.standard_normal(shape)) for shape in shapes))


def _scaled(f):
    """``f`` times -1.5, so that its adjoint is not 1."""
    return lambda *t: _weighted(f(*t), -1.5)


def _squared_product(p, q):
    return _sum_of_squares(ad.matmul(p, q))


def _decode_loss(rng):
    """The text-decoding loss of two rows of three target tokens (with
    repeats) as a function of the embeddings and every decoder weight."""
    decoder = DecoderParams.init(5, 4, 3, rng, scale=0.5)
    targets = np.array([[1, 4, 1], [0, 2, 2]])

    def loss(embeddings, *tensors):
        return text_decoding_loss(embeddings, targets, decoder)

    return loss, (ad.Tensor(rng.standard_normal((2, 4))),) + tuple(decoder.tensors())


def _triplet_loss(rng):
    """Two rows of the 5 x 5 gallery get a diagonal 3 higher, so both
    directions have active and inactive hinges."""
    sim = rng.standard_normal((5, 5))
    sim[[1, 3], [1, 3]] += 3.0
    return _scaled(lambda t: triplet_loss(t, margin=0.5)), (ad.Tensor(sim),)


def _pg_loss(rng):
    """Both sum columns of a packed (3, 2 + 2) output, one of them over the
    batch mean, added by the loss total."""
    adv = rng.standard_normal(3)

    def pg(packed):
        trace = AttentionTrace(packed, 2)
        return total_loss(pg_discrete_image=discrete_pg_loss(trace, adv),
                          pg_continuous_text=continuous_pg_loss(trace, -adv,
                                                                batch_mean=False)).total

    return _scaled(pg), (ad.Tensor(rng.standard_normal((3, 4))),)


def _rollout_loss(action_mode, rng):
    """A weighted sum of the attention weights and both log-prob sums of
    a three-step stochastic rollout over two rows, with frozen noise, as a
    function of the features, the policy GRU's weights and both head
    weights. A drawn label is piecewise constant in the logits, so where
    the rollout draws one the attention columns get weight 0: finite
    differences see none of the straight-through gradient, which
    ``reparam.derivatives`` checks in closed form."""
    space = ActionSpace(n=4)
    params = PolicyParams.init(3, 3, space, rng, scale=0.5)
    noise = draw_noise(np.random.default_rng(11), 2, [3], 1, space.num_labels, action_mode)[0]
    weights = rng.standard_normal((2, 3 + 2))
    if action_mode != "continuous":
        weights[:, :3] = 0.0

    def loss(features, *tensors):
        return _weighted(policy_rollout(features, params, space, noise, "stochastic",
                                        action_mode).weights, weights)

    args = ((ad.Tensor(rng.standard_normal((2, 3, 3))),) + tuple(params.gru.tensors())
            + (params.w_mu[0], params.w_std[0]))
    return loss, args


def _fuse_loss(batch, steps, rng):
    """The squared fusion output of ``steps`` steps over ``batch`` rows,
    as a function of the features, the attention weights and the fusion
    GRU's weights."""
    gru = GruParams.init(3, 3, rng, scale=0.5)

    def loss(features, weights, *tensors):
        return _sum_of_squares(fuse(features, AttentionTrace(weights, steps), 2.0, gru))

    return loss, (ad.Tensor(rng.standard_normal((batch, steps, 3))),
                  ad.Tensor(rng.random((batch, steps)))) + tuple(gru.tensors())


def _gcn_loss(batch, layers, tied, rng):
    """The squared GCN output over ``batch`` sets of 4 regions, as a
    function of the affinity weights (one with ``tied``) and of each
    layer's weight."""
    regions = rng.standard_normal((batch, 4, 3))
    weights = [ad.Tensor(0.3 * rng.standard_normal((3, 3))) for _ in range(2 - tied + layers)]

    def loss(w_a, *rest):
        w_b, *w_gcn = (w_a,) + rest if tied else rest
        return _sum_of_squares(gcn(regions, w_a, w_b, w_gcn))

    return loss, tuple(weights)


# Every op case by name: a function of the case's own generator that
# returns the loss and its inputs. The loss head's records are scaled.
_OP_CASES = {
    "transpose": _on(lambda t: _sum_of_squares(ad.transpose(t)), (3, 4)),
    "l2_normalize": lambda rng: (lambda t: _weighted(ad.l2_normalize(t), np.arange(5.)),
                                 (ad.Tensor(rng.standard_normal(5) + 1.0),)),
    "matmul_2d": _on(_squared_product, (3, 4), (4, 2)),
    "matmul_batched_shared_weight": _on(_squared_product, (2, 3, 4), (4, 2)),
    "matmul_batched": _on(_squared_product, (2, 3, 4), (2, 4, 2)),
    "text_decode": _decode_loss,
    "gather_rows": _on(lambda t: _sum_of_squares(ad.gather_rows(t, [0, 2, 2, 4])), (5, 3)),
    "gather_rows_batched": _on(lambda t: _sum_of_squares(ad.gather_rows(t, [[0, 2], [2, 4]])),
                               (5, 3)),
    "triplet": _triplet_loss,
    "instance": _on(_scaled(lambda img, txt, w: instance_loss(img, txt, [2, 0, 2], w)),
                    (3, 4), (3, 4), (4, 5)),
    "pg_surrogate": _pg_loss,
    "gru_step": partial(_fuse_loss, 1, 1),
    "gru_step_batched": partial(_fuse_loss, 2, 3),
    "gcn": partial(_gcn_loss, 1, 1, False),
    "gcn_batched_two_layers": partial(_gcn_loss, 2, 2, False),
    "gcn_tied": partial(_gcn_loss, 2, 1, True),
    **{f"sample_head_{action_mode}": partial(_rollout_loss, action_mode)
       for action_mode in ("compound", "discrete", "continuous")},
}


def _composite_model_check() -> tuple[bool, str]:
    """Finite differences through the whole rollout -> fuse -> loss graph,
    on a tiny model with frozen sampling noise. The policy runs in
    ``continuous`` mode: its mean comes from the relaxed mean of
    ``softmax(l)``, which is smooth, where a drawn label would be
    piecewise constant. The fixture is conditioned so no gradient entry
    sits inside the finite-difference noise floor: tokens cover the whole
    vocabulary, lambda is small enough that the fusion GRU does not
    saturate, and the model seed leaves no nonzero entry below 2e-6."""
    config = ModelConfig(feature_dim=5, word_dim=4, hidden=5, embed_dim=5, decoder_dim=4,
                         n_actions=6, batch_size=2, epochs=1, heads=1, gcn_layers=1,
                         pg_mode="continuous", init_scale=0.4, decoder_init_scale=0.4, lam=2.0)
    dgen = np.random.default_rng(99)
    instances = [
        Instance(class_id=0, regions=dgen.standard_normal((3, 5)), tokens=np.array([0, 2, 3, 0])),
        Instance(class_id=1, regions=dgen.standard_normal((3, 5)), tokens=np.array([1, 4, 5, 1])),
    ]
    model = MatchingModel(config, 6, 2, np.random.default_rng(4))
    labels = [0, 1]

    def f(*_params):
        rng = np.random.default_rng(77)
        bundle, _ = _batch_losses(model, instances, labels, rng)
        return bundle.total

    err = ad.grad_check(f, model.parameters(), eps=GRAD_EPS)
    return err < GRAD_TOL, f"max rel err {err:.3g} (tol {GRAD_TOL})"


def gradcheck_suite() -> list[CheckResult]:
    results = []
    for name, case in _OP_CASES.items():
        def run(name=name, case=case):
            # inputs from a generator keyed by the case's name: no edit to
            # another case moves them
            fn, args = case(np.random.default_rng(zlib.crc32(name.encode())))
            err = ad.grad_check(fn, list(args), eps=GRAD_EPS)
            return err < GRAD_TOL, f"max rel err {err:.3g}"
        _check(results, f"op.{name}", run)
    _check(results, "composite.rollout_fuse_loss", _composite_model_check)
    return results


# ---------------------------------------------------------------------------
# distributions suite
# ---------------------------------------------------------------------------


def _gumbel_max_frequencies(logits, draws, seed) -> np.ndarray:
    """Winners of argmax(logits + g) over the Gumbel noise the rollouts
    draw (``draw_noise``)."""
    noise = draw_noise(np.random.default_rng(seed), draws, [1], 1, len(logits), "discrete")[0]
    winners = np.argmax(logits + noise.gumbel[:, 0, 0], axis=1)
    return np.bincount(winners, minlength=len(logits)) / draws


def _gumbel_check(logits, seed):
    logits = np.asarray(logits, dtype=np.float64)
    freqs = _gumbel_max_frequencies(logits, 100_000, seed)
    target = np.exp(logits - logits.max())
    target = target / target.sum()
    worst = float(np.abs(freqs - target).max())
    return worst < FREQ_TOL, f"max |freq - softmax| = {worst:.4f} (tol {FREQ_TOL})"


def _saturated_policy(w_mu, w_std, w_xc, b_c) -> PolicyParams:
    """A one-head policy whose GRU state at every step is exactly the
    candidate ``tanh(x W_xc + b_c)``: the update gate is saturated at 1
    (its bias is 40) and every other weight is 0. With a zero input and
    ``b_c`` = 20 every state is exactly 1.0, so the head's logits are
    ``w_mu`` and its pre-softplus std is ``w_std``."""
    inputs, hidden = w_xc.shape

    def zeros(*shape):
        return ad.constant(np.zeros(shape))

    gru = GruParams(w_xz=zeros(inputs, hidden), w_hz=zeros(hidden, hidden),
                    b_z=ad.constant(np.full(hidden, 40.0)),
                    w_xr=zeros(inputs, hidden), w_hr=zeros(hidden, hidden), b_r=zeros(hidden),
                    w_xc=ad.constant(w_xc), w_hc=zeros(hidden, hidden),
                    b_c=ad.constant(np.full(hidden, float(b_c))))
    return PolicyParams(gru=gru, w_mu=[w_mu], w_std=[w_std], fusion_gru=gru)


def _one_step_rollout(logits, pre, noise, mode="stochastic", action_mode="continuous",
                      temperature=1.0):
    """A one-step rollout as a function of (w_mu, w_std), with one row per
    Normal draw in ``noise``, and a policy that gives every row the logits
    ``logits`` (n = len(logits) - 1) and the pre-softplus std ``pre``."""
    space = ActionSpace(n=len(logits) - 1, temperature=temperature)
    features = ad.constant(np.zeros((len(noise.normal), 1, 1)))

    def rollout(w_mu, w_std):
        policy = _saturated_policy(w_mu, w_std, np.zeros((1, 1)), 20.0)
        return policy_rollout(features, policy, space, noise, mode, action_mode)

    args = (ad.Tensor(np.asarray(logits, dtype=np.float64)[None]), ad.Tensor(np.array([[pre]])))
    return rollout, args


def _quadrature_check(sigma, logits):
    """The continuous stage's log-density, read from the rollout on a grid
    of Normal draws eps, integrates to 1 over raw = mu + sigma * eps."""
    eps = np.linspace(-8.0, 8.0, 20_001)
    noise = RolloutNoise(gumbel=None, uniform=None, normal=eps.reshape(-1, 1, 1))
    rollout, args = _one_step_rollout(logits, math.log(math.expm1(sigma - SIGMA_FLOOR)), noise)
    ad.clear_tape()
    log_density = rollout(*args).weights.values[:, -1]
    ad.clear_tape()
    integral = float(np.trapezoid(np.exp(log_density), sigma * eps))
    return abs(integral - 1.0) < QUAD_TOL, f"|integral - 1| = {abs(integral - 1.0):.2e}"


def _action_map_check():
    """The Normal mean of label k is sigmoid(k / n): read from the
    deterministic discrete attention of a one-step rollout whose row k has
    the state e_k and the logits 5 e_k, so its argmax is label k."""
    n = 100
    eye = np.eye(n + 1)
    policy = _saturated_policy(ad.Tensor(5.0 * eye), ad.Tensor(np.zeros((n + 1, 1))),
                               20.0 * eye, 0.0)
    ad.clear_tape()
    trace = policy_rollout(ad.constant(eye[:, None, :]), policy, ActionSpace(n=n), None,
                           "deterministic", "discrete")
    ad.clear_tape()
    mus = trace.attention[:, 0]
    lo, hi = float(mus[0]), float(mus[n])
    expect_hi = 1.0 / (1.0 + math.exp(-1.0))
    ok = lo == 0.5 and abs(hi - expect_hi) <= 1e-15 and abs(hi - 0.7311) < 5e-5
    mono = bool(np.all(np.diff(mus) > 0))
    return ok and mono, f"mu(0)={lo}, mu(100)={hi:.6f}, strictly monotone={mono}"


def _reparam_check():
    """The head's gradient in closed form at the recorded draws, in every
    sampling mode, and by finite differences where the forward is smooth
    (``continuous``). The attention sigmoid(raw), raw = mu + sigma * eps,
    has the pathwise d raw/d mu = 1 and d raw/d sigma = eps. A drawn or
    greedy label k sets mu = sigmoid(k / n), whose gradient goes straight
    through to the relaxed mean m = sum_j (j / n) soft_j:
    d mu/d l_j = mu (1 - mu) soft_j (j / n - m) / T, with T the temperature
    of a sampled discrete stage and 1 where ``soft`` is softmax(l)."""
    eps, pre, temperature, uniform = 0.6321, 0.2, 0.7, 0.35
    logits, gumbel = np.array([0.3, -0.1, 0.4, 0.0]), np.array([0.5, -0.3, 0.1, 1.2])
    noise = RolloutNoise(gumbel=gumbel.reshape(1, 1, 1, 4), uniform=np.full((1, 1, 1), uniform),
                         normal=np.full((1, 1, 1), eps))
    labels, sigma = np.arange(4) / 3, math.log1p(math.exp(pre)) + SIGMA_FLOOR
    fd_err, diffs = 0.0, {}
    for mode, action_mode in itertools.product(ROLLOUT_MODES, ACTION_MODES):
        rollout, (w_mu, w_std) = _one_step_rollout(logits, pre, noise, mode, action_mode,
                                                   temperature)

        def att(*inputs, rollout=rollout):
            return _weighted(rollout(*inputs).weights, [1.0, 0.0, 0.0])

        if action_mode == "continuous":
            fd_err = max(fd_err, ad.grad_check(att, [w_mu, w_std], eps=GRAD_EPS))
        w_mu.requires_grad = w_std.requires_grad = True
        ad.backward(att(w_mu, w_std))
        got_std = 0.0 if w_std.grad is None else float(w_std.grad[0, 0])
        ad.clear_tape()
        stochastic, discrete = mode == "stochastic", action_mode == "discrete"
        sampled = stochastic and action_mode != "continuous"
        t = temperature if sampled else 1.0
        soft = np.exp((logits + gumbel) / t if sampled else logits)
        soft /= soft.sum()
        m = float(soft @ labels)
        k = int(np.sum(np.cumsum(soft) <= uniform)) if sampled else int(np.argmax(soft))
        mu = 1.0 / (1.0 + math.exp(-(m if action_mode == "continuous" else labels[k])))
        a = 1.0 / (1.0 + math.exp(-(mu + sigma * eps if stochastic else mu)))
        d_att = 1.0 if discrete else a * (1.0 - a)     # d att/d mu
        want_mu = d_att * mu * (1.0 - mu) * soft * (labels - m) / t
        want_std = d_att * eps / (1.0 + math.exp(-pre)) if stochastic and not discrete else 0.0
        diffs[f"{mode}/{action_mode}"] = max(
            float(np.max(np.abs(w_mu.grad[0] - want_mu) / np.abs(want_mu))),
            abs(got_std - want_std) / (abs(want_std) or 1.0))
    ok = fd_err < GRAD_TOL and max(diffs.values()) < 1e-12
    return ok, ("max rel diff to the closed form: "
                + ", ".join(f"{name} {diff:.2g}" for name, diff in diffs.items())
                + f"; fd err {fd_err:.2g}")


def _state_gradient_diff(mode, action_mode):
    """Max |diff| / max |closed form| of the head's state gradient d att/d h
    over a (2, 3) grid of random states, read from ``attention._head``'s
    backward with the log-prob adjoints 0. With the logits l = h W_mu and
    pre = h W_std, d att/d h = (d att/d mu) (d mu/d l) W_mu^T +
    (d att/d pre) W_std^T, with d mu/d l as in ``_reparam_check`` and
    d att/d pre = a (1 - a) eps sigmoid(pre) where a Normal is drawn."""
    steps, batch, hidden, n, temperature = 2, 3, 4, 3, 0.7
    rng = np.random.default_rng(17)
    hs = rng.standard_normal((steps, batch, hidden))
    w_mu, w_std = rng.standard_normal((hidden, n + 1)), 0.5 * rng.standard_normal((hidden, 1))
    gumbel = rng.gumbel(size=(batch, steps, 1, n + 1))
    uniform, normal = rng.random((batch, steps, 1)), rng.standard_normal((batch, steps, 1))
    noise = RolloutNoise(gumbel=gumbel, uniform=uniform, normal=normal)
    att, _, _, backward = attention._head(hs, ad.constant(w_mu), ad.constant(w_std),
                                          ActionSpace(n=n, temperature=temperature), noise, 0,
                                          mode, action_mode, keep=True)
    zeros = np.zeros_like(att)
    got = sum(backward(np.ones_like(att), zeros, zeros)[0])

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    stochastic = mode == "stochastic"
    sampled = stochastic and action_mode != "continuous"
    t = temperature if sampled else 1.0
    labels = np.arange(n + 1) / n
    logits = hs @ w_mu
    soft = np.exp((logits + gumbel[:, :, 0].transpose(1, 0, 2)) / t if sampled else logits)
    soft /= soft.sum(axis=-1, keepdims=True)
    m = soft @ labels[:, None]
    if action_mode == "continuous":
        mu = sigmoid(m)
    elif sampled:
        k = categorical_sample(soft.reshape(-1, n + 1), uniform[:, :, 0].T.reshape(-1))
        mu = sigmoid(k.reshape(steps, batch, 1) / n)
    else:
        mu = sigmoid(np.argmax(logits, axis=-1)[..., None] / n)
    d_mu_d_l = mu * (1.0 - mu) * soft * (labels - m) / t
    pre = hs @ w_std
    eps = normal[:, :, 0].T[..., None]
    if action_mode == "discrete":
        d_mu, d_pre = 1.0, 0.0
    else:
        sigma = np.log1p(np.exp(pre)) + SIGMA_FLOOR
        a = sigmoid(mu + sigma * eps if stochastic else mu)
        d_mu = a * (1.0 - a)
        d_pre = d_mu * eps * sigmoid(pre) if stochastic else 0.0
    want = (d_mu * d_mu_d_l) @ w_mu.T + d_pre * w_std.T
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _state_gradient_check():
    """``_state_gradient_diff`` in all six sampling modes."""
    diffs = {f"{mode}/{action_mode}": _state_gradient_diff(mode, action_mode)
             for mode, action_mode in itertools.product(ROLLOUT_MODES, ACTION_MODES)}
    return max(diffs.values()) < 1e-12, (
        "max rel diff of the state gradient to the closed form: "
        + ", ".join(f"{name} {diff:.2g}" for name, diff in diffs.items()))


def _categorical_check():
    n = 100_000
    draws = categorical_sample(np.broadcast_to([0.25, 0.75], (n, 2)),
                               np.random.default_rng(5).random(n))
    f1 = float(np.mean(draws == 1))
    d2 = categorical_sample(np.broadcast_to(np.full(100, 0.01), (n, 100)),
                            np.random.default_rng(6).random(n))
    freqs = np.bincount(d2, minlength=100) / n
    worst = float(np.abs(freqs - 0.01).max())
    ok = abs(f1 - 0.75) < FREQ_TOL and worst < 0.003
    return ok, f"p(1)={f1:.4f} (want 0.75), uniform max dev {worst:.4f}"


def distributions_suite() -> list[CheckResult]:
    results = []
    _check(results, "gumbel_max.uniform_logits", lambda: _gumbel_check([0.0, 0.0, 0.0], seed=42))
    _check(results, "gumbel_max.skewed_logits", lambda: _gumbel_check([0.5, 0.0, -0.5], seed=43))
    _check(results, "normal_density.quadrature_standard",
           lambda: _quadrature_check(1.0, [0.0, 0.0, 0.0]))
    _check(results, "normal_density.quadrature_offset",
           lambda: _quadrature_check(0.7, [0.5, 0.0, -0.5]))
    _check(results, "action_to_mu.endpoints", _action_map_check)
    _check(results, "reparam.derivatives", _reparam_check)
    _check(results, "reparam.state_gradient", _state_gradient_check)
    _check(results, "categorical.monte_carlo", _categorical_check)
    return results


# ---------------------------------------------------------------------------
# metrics suite
# ---------------------------------------------------------------------------


def _enumeration_check():
    checked = 0
    for size in range(2, 7):
        for perm in itertools.permutations(range(size)):
            row = np.array(perm, dtype=np.float64)
            # row k of the tiled gallery ranks query k of ``row``
            ranks = diagonal_ranks(np.tile(row, (size, 1)))
            for k in range(size):
                if ranks[k] != 1 + int(np.sum(row > row[k])):
                    return False, f"rank mismatch at size {size}, perm {perm}, k {k}"
                checked += 1
    return True, f"{checked} (gallery, query) cases match enumeration exactly"


def _tie_check():
    ranks = diagonal_ranks(np.tile([0.5, 0.9, 0.9, 0.1], (4, 1)))
    return np.array_equal(ranks, [3, 1, 2, 4]), "ties resolve to the lowest index"


def _baseline_check():
    b, adv = pg_baseline([1.0, 2.0, 3.0], beta=0.5)
    if not np.array_equal(b, [2.5, 2.0, 1.5]):
        return False, f"baselines {b} != [2.5, 2.0, 1.5]"
    rng = np.random.default_rng(9)
    for _ in range(50):
        r = rng.random(rng.integers(2, 12))
        _, adv1 = pg_baseline(r, beta=1.0)
        if abs(adv1.sum()) > 1e-12:
            return False, f"beta=1 advantages sum to {adv1.sum():.2e}"
    return True, "exact baselines; beta=1 advantages sum to 0 within 1e-12"


def metrics_suite() -> list[CheckResult]:
    results = []
    _check(results, "rank.enumeration_oracle", _enumeration_check)
    _check(results, "rank.tie_breaking", _tie_check)
    _check(results, "baseline.identity", _baseline_check)
    return results


# ---------------------------------------------------------------------------
# bandit suite
# ---------------------------------------------------------------------------


def _bandit_episodes(theta, rng, n, steps=1):
    """``n`` episodes of ``steps`` pulls, drawn by the rollout kernel: a
    stochastic discrete-mode rollout of a policy whose state is 1.0 at
    every step, so its logits are ``theta``, with zero Gumbel noise and
    temperature 1, so every pull is drawn from softmax(theta) itself.
    Returns the trace and each episode's mean arm reward; arm k is read
    back from its attention weight sigmoid(k / n)."""
    space = ActionSpace(n=len(BANDIT_ARMS) - 1)
    policy = _saturated_policy(theta, ad.constant(np.zeros((1, 1))), np.zeros((1, 1)), 20.0)
    noise = RolloutNoise(gumbel=np.zeros((n, steps, 1, space.num_labels)),
                         uniform=rng.random(n * steps).reshape(n, steps, 1), normal=None)
    trace = policy_rollout(ad.constant(np.zeros((n, steps, 1))), policy, space, noise,
                           "stochastic", "discrete")
    weights = 1.0 / (1.0 + np.exp(-np.arange(space.num_labels) / space.n))
    arms = np.abs(trace.attention[..., None] - weights).argmin(axis=-1)
    return trace, BANDIT_ARMS[arms].mean(axis=1)


def bandit_gradient_estimate(theta_values, samples: int = 100_000, seed: int = 0,
                             chunk: int = 500, steps: int = 1) -> np.ndarray:
    """Monte-Carlo mean of the REINFORCE gradient samples on the 3-armed
    bandit, with episodes of ``steps`` pulls rewarded by their mean arm
    reward, computed through the rollout kernel and the real loss
    machinery. Returns the estimate of the ascent direction
    d(expected reward)/d(logits)."""
    rng = np.random.default_rng(seed)
    theta = ad.Tensor(np.asarray(theta_values, dtype=np.float64)[None], requires_grad=True)
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        ad.clear_tape()
        trace, rewards = _bandit_episodes(theta, rng, n, steps)
        ad.backward(discrete_pg_loss(trace, rewards, batch_mean=False))
        done += n
    grad = theta.grad[0].copy()
    ad.clear_tape()
    return -grad / samples


def bandit_analytic_gradient(theta_values) -> np.ndarray:
    """Exact d(expected reward)/d(logits) for the softmax bandit:
    p_j * (r_j - sum_a p_a r_a)."""
    theta = np.asarray(theta_values, dtype=np.float64)
    p = np.exp(theta - theta.max())
    p /= p.sum()
    j = float(p @ BANDIT_ARMS)
    return p * (BANDIT_ARMS - j)


def _bandit_gradient_check():
    """One-pull and three-pull episodes: the mean reward of an episode has
    the same gradient as one pull's expected reward."""
    theta = np.array([0.5, 0.0, -0.5])
    exact = bandit_analytic_gradient(theta)
    worst, details = 0.0, []
    for steps in (1, 3):
        est = bandit_gradient_estimate(theta, samples=100_000, seed=12, steps=steps)
        rel = float(np.max(np.abs(est - exact) / np.abs(exact)))
        worst = max(worst, rel)
        details.append(f"T={steps}: est {np.round(est, 4)}, max rel {rel:.3f}")
    return worst < BANDIT_REL_TOL, f"exact {np.round(exact, 4)}; " + "; ".join(details)


def bandit_optimize(steps: int = 2000, batch: int = 8, lr: float = 0.05,
                    seed: int = 0, target: float = 0.95):
    """REINFORCE + Adam on the bandit; returns (best-arm prob, step reached)."""
    rng = np.random.default_rng(seed)
    theta = ad.Tensor(np.zeros((1, 3)), requires_grad=True)
    opt = ad.Adam([theta], lr=lr)
    for step in range(1, steps + 1):
        ad.clear_tape()
        trace, rewards = _bandit_episodes(theta, rng, batch)
        ad.backward(discrete_pg_loss(trace, rewards))
        opt.step()
        p = np.exp(theta.values[0] - theta.values.max())
        p /= p.sum()
        if p[0] > target:
            ad.clear_tape()
            return float(p[0]), step
    ad.clear_tape()
    return float(p[0]), steps


def _bandit_convergence_check():
    prob, step = bandit_optimize(steps=2000, seed=21)
    return prob > 0.95, f"best-arm probability {prob:.4f} after {step} steps"


def bandit_suite() -> list[CheckResult]:
    results = []
    _check(results, "bandit.gradient_unbiasedness", _bandit_gradient_check)
    _check(results, "bandit.convergence", _bandit_convergence_check)
    return results


SUITES = {
    "gradcheck": gradcheck_suite,
    "distributions": distributions_suite,
    "metrics": metrics_suite,
    "bandit": bandit_suite,
}


def run_suites(names) -> list[CheckResult]:
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}, all")
        results.extend(SUITES[name]())
    return results
