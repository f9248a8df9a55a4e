"""The RL controller surrogate: training, deployment, quantized inference.

The controller maps (current subtask, observation) to action logits every
step, exactly the role of STEVE-1 / RT-1 / Octo in the paper's platforms.  It
is trained by imitation of the environment's oracle action distribution, so
its logits inherit the stage-dependent sharpness (picky during critical
execution, near-uniform during exploration) that the entropy-based voltage
scaling exploits.
"""

from __future__ import annotations

import math

import numpy as np

from ..env.actions import NUM_ACTIONS
from ..env.observations import OBSERVATION_DIM
from ..env.subtasks import ALL_SUBTASKS, SubtaskRegistry
from ..env.tasks import TaskSuite
from ..env.world import EmbodiedWorld, WorldConfig
from ..nn import Embedding, GptTransformer, Linear, Module, Tensor, no_grad
from ..nn.functional import layer_norm, relu, softmax
from ..quant import (
    CALIBRATION_STACK_LANES,
    BatchedKernel,
    Calibrator,
    FloatKernel,
    GemmHooks,
    INT8,
    KernelContext,
    KernelPlan,
    QuantizedLinear,
    QuantSpec,
)
from ..train import AdamW, clip_grad_norm
from .configs import ControllerConfig

__all__ = [
    "ControllerNetwork",
    "DeployedController",
    "build_controller_dataset",
    "train_controller",
    "controller_agreement",
]

_LN_EPS = 1e-5


# ----------------------------------------------------------------------
# Trainable network
# ----------------------------------------------------------------------
class ControllerNetwork(Module):
    """GPT-style policy over a short token sequence (subtask prompt + observation)."""

    def __init__(self, config: ControllerConfig,
                 num_subtasks: int | None = None,
                 observation_dim: int = OBSERVATION_DIM,
                 num_actions: int = NUM_ACTIONS):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.num_subtasks = num_subtasks or len(ALL_SUBTASKS)
        self.observation_dim = observation_dim
        self.num_actions = num_actions
        self.subtask_embed = Embedding(self.num_subtasks, config.dim, rng=rng)
        self.obs_proj = Linear(observation_dim, config.dim * config.num_obs_tokens, rng=rng)
        self.transformer = GptTransformer(
            config.num_layers, config.dim, config.num_heads, config.mlp_dim, rng, causal=False)
        self.policy_head = Linear(config.dim, num_actions, rng=rng)

    def forward(self, subtask_ids: np.ndarray, observations: np.ndarray) -> Tensor:
        subtask_ids = np.asarray(subtask_ids, dtype=np.int64)
        batch = subtask_ids.shape[0]
        prompt = self.subtask_embed(subtask_ids).reshape(batch, 1, self.config.dim)
        obs_tokens = self.obs_proj(Tensor(observations)).reshape(
            batch, self.config.num_obs_tokens, self.config.dim)
        tokens = Tensor.concatenate([prompt, obs_tokens], axis=1)
        hidden = self.transformer(tokens)
        pooled = hidden.mean(axis=1)
        return self.policy_head(pooled)


# ----------------------------------------------------------------------
# Dataset generation (oracle imitation)
# ----------------------------------------------------------------------
def build_controller_dataset(suite: TaskSuite, registry: SubtaskRegistry,
                             num_episodes: int = 40,
                             world_config: WorldConfig | None = None,
                             seed: int = 7,
                             id_registry: SubtaskRegistry | None = None,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll out the oracle policy and record (subtask id, observation, oracle probs).

    ``registry`` drives the world simulation; ``id_registry`` supplies the
    subtask *embedding ids* the controller is conditioned on.  It defaults
    to the frozen ``ALL_SUBTASKS`` union (the id space of every Table-10
    controller checkpoint); scenario controllers pass their scenario's own
    registry so the embedding table matches the suite.
    """
    id_registry = id_registry or ALL_SUBTASKS
    rng = np.random.default_rng(seed)
    subtask_ids: list[int] = []
    observations: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    task_list = suite.tasks()
    for episode in range(num_episodes):
        task = task_list[episode % len(task_list)]
        world = EmbodiedWorld(task, registry, world_config or WorldConfig(),
                              np.random.default_rng(seed * 1000 + episode))
        for subtask in task.plan:
            world.set_subtask(subtask)
            while True:
                probs = world.oracle_distribution()
                subtask_ids.append(id_registry.token_id(subtask))
                observations.append(world.observation())
                targets.append(probs)
                action = rng.choice(probs.size, p=probs)
                result = world.step(action)
                if result.subtask_completed or world.subtask_budget_exhausted() \
                        or world.task_budget_exhausted():
                    break
            if world.task_budget_exhausted():
                break
    return (np.asarray(subtask_ids, dtype=np.int64),
            np.asarray(observations, dtype=np.float64),
            np.asarray(targets, dtype=np.float64))


def _soft_cross_entropy(logits: Tensor, target_probs: np.ndarray) -> Tensor:
    log_probs = logits - logits.exp().sum(axis=-1, keepdims=True).log()
    return (log_probs * Tensor(target_probs)).sum() * (-1.0 / logits.shape[0])


def train_controller(config: ControllerConfig, suite: TaskSuite, registry: SubtaskRegistry,
                     num_episodes: int = 40, epochs: int = 12, lr: float = 2e-3,
                     batch_size: int = 64, verbose: bool = False,
                     id_registry: SubtaskRegistry | None = None) -> ControllerNetwork:
    """Imitation-train a controller on oracle rollouts of a benchmark suite.

    ``id_registry`` sizes the subtask embedding table and supplies its ids
    (default: the frozen ``ALL_SUBTASKS`` union; scenario controllers pass
    their scenario's registry).
    """
    subtask_ids, observations, targets = build_controller_dataset(
        suite, registry, num_episodes=num_episodes, seed=config.seed,
        id_registry=id_registry)
    network = ControllerNetwork(
        config, num_subtasks=len(id_registry) if id_registry is not None else None)
    optimizer = AdamW(network.parameters(), lr=lr, weight_decay=1e-4)
    rng = np.random.default_rng(config.seed + 1)

    network.train()
    n = subtask_ids.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            optimizer.zero_grad()
            logits = network(subtask_ids[batch], observations[batch])
            loss = _soft_cross_entropy(logits, targets[batch])
            loss.backward()
            clip_grad_norm(network.parameters(), 1.0)
            optimizer.step()
            losses.append(loss.item())
        if verbose and (epoch + 1) % 4 == 0:  # pragma: no cover - logging only
            print(f"controller epoch {epoch + 1}: loss={np.mean(losses):.4f}")
    network.eval()
    return network


def controller_agreement(network: ControllerNetwork, suite: TaskSuite,
                         registry: SubtaskRegistry, num_samples: int = 400,
                         seed: int = 99) -> float:
    """Fraction of sampled states where argmax(policy) is an oracle-acceptable action."""
    subtask_ids, observations, targets = build_controller_dataset(
        suite, registry, num_episodes=6, seed=seed)
    if subtask_ids.shape[0] > num_samples:
        subtask_ids = subtask_ids[:num_samples]
        observations = observations[:num_samples]
        targets = targets[:num_samples]
    with no_grad():
        logits = network(subtask_ids, observations).data
    chosen = np.argmax(logits, axis=-1)
    acceptable = targets[np.arange(chosen.size), chosen] >= 0.08
    return float(np.mean(acceptable))


# ----------------------------------------------------------------------
# Quantized deployment
# ----------------------------------------------------------------------
class DeployedController:
    """INT8 controller inference with fault-injection / anomaly-clearance hooks.

    Every environment step runs one forward pass, and every forward runs as
    a stack of lanes — one lane per trial — through the fused kernel
    runtime (:class:`~repro.quant.BatchedKernel`); a single step is a stack
    of one.  The rollout loop of
    :class:`~repro.agents.executor.MissionExecutor` builds one fused kernel
    context (:meth:`kernel_context`) per trial and passes it to
    :meth:`act_logits_batch`, so pre-resolved scales are shared across all
    steps of the trial.
    """

    def __init__(self, network: ControllerNetwork, spec: QuantSpec = INT8,
                 calibration_samples: tuple[np.ndarray, np.ndarray] | None = None,
                 calibration_suite: TaskSuite | None = None,
                 calibration_registry: SubtaskRegistry | None = None,
                 id_registry: SubtaskRegistry | None = None):
        self.config = network.config
        self.spec = spec
        self.num_actions = network.num_actions
        self._extract_weights(network)
        self.calibrator = Calibrator(spec)
        self._quantized: dict[str, QuantizedLinear] = {}
        self._plan: KernelPlan | None = None
        self._plan_shared = False
        self._activation_probe: dict[str, np.ndarray] | None = None
        if calibration_samples is None:
            if calibration_suite is None or calibration_registry is None:
                raise ValueError(
                    "provide calibration_samples or a calibration suite + registry")
            ids, obs, _ = build_controller_dataset(
                calibration_suite, calibration_registry, num_episodes=6,
                seed=self.config.seed + 17, id_registry=id_registry)
            calibration_samples = (ids[:600], obs[:600])
        self.calibrate(*calibration_samples)

    # ------------------------------------------------------------------
    def _extract_weights(self, network: ControllerNetwork) -> None:
        self.subtask_embed = network.subtask_embed.weight.data.copy()
        self._float_weights: dict[str, np.ndarray] = {
            "obs_proj": network.obs_proj.weight.data.copy(),
            "policy_head": network.policy_head.weight.data.copy(),
        }
        self._biases: dict[str, np.ndarray | None] = {
            "obs_proj": network.obs_proj.bias.data.copy(),
            "policy_head": network.policy_head.bias.data.copy(),
        }
        self._norms: list[dict[str, np.ndarray]] = []
        for index, block in enumerate(network.transformer.blocks):
            prefix = f"layer{index}"
            self._float_weights[f"{prefix}.q"] = block.attn.q_proj.weight.data.copy()
            self._float_weights[f"{prefix}.k"] = block.attn.k_proj.weight.data.copy()
            self._float_weights[f"{prefix}.v"] = block.attn.v_proj.weight.data.copy()
            self._float_weights[f"{prefix}.o"] = block.attn.o_proj.weight.data.copy()
            self._float_weights[f"{prefix}.fc1"] = block.mlp.fc1.weight.data.copy()
            self._float_weights[f"{prefix}.fc2"] = block.mlp.fc2.weight.data.copy()
            self._biases[f"{prefix}.q"] = None
            self._biases[f"{prefix}.k"] = None
            self._biases[f"{prefix}.v"] = None
            self._biases[f"{prefix}.o"] = None
            self._biases[f"{prefix}.fc1"] = block.mlp.fc1.bias.data.copy()
            self._biases[f"{prefix}.fc2"] = block.mlp.fc2.bias.data.copy()
            self._norms.append({
                "attn_gamma": block.attn_norm.gamma.data.copy(),
                "attn_beta": block.attn_norm.beta.data.copy(),
                "mlp_gamma": block.mlp_norm.gamma.data.copy(),
                "mlp_beta": block.mlp_norm.beta.data.copy(),
            })
        self.final_norm = {
            "gamma": network.transformer.final_norm.gamma.data.copy(),
            "beta": network.transformer.final_norm.beta.data.copy(),
        }
        # Per layer: the Q/K/V group, o, fc1, fc2, the prefix.
        self._layer_names = [
            ((f"layer{i}.q", f"layer{i}.k", f"layer{i}.v"), f"layer{i}.o",
             f"layer{i}.fc1", f"layer{i}.fc2", f"layer{i}")
            for i in range(len(self._norms))]

    def component_names(self) -> list[str]:
        return list(self._float_weights)

    # ------------------------------------------------------------------
    def _attention_stack(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         n: int, seq: int) -> np.ndarray:
        """Bidirectional attention of ``n`` row-stacked lanes of ``seq`` rows.

        Lanes never mix: the lane axis is a pure batch axis of the stacked
        matmuls, so every 2-D GEMM slice, the score scaling, and the row-wise
        softmax equal a stack of one bit for bit.
        """
        dim = q.shape[-1]
        heads = self.config.num_heads
        head_dim = dim // heads
        q = q.reshape(n, seq, heads, head_dim).transpose(0, 2, 1, 3)
        k = k.reshape(n, seq, heads, head_dim).transpose(0, 2, 1, 3)
        v = v.reshape(n, seq, heads, head_dim).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(head_dim)
        weights = softmax(scores, axis=-1)
        return (weights @ v).transpose(0, 2, 1, 3).reshape(n * seq, dim)

    def _forward_stack(self, subtask_ids, observations: np.ndarray,
                       kernel) -> np.ndarray:
        """``(n, actions)`` logits of ``n`` lanes: the one controller forward.

        ``subtask_ids`` holds one subtask id per lane and ``observations``
        the ``(n, obs_dim)`` stack of their observations.  The lanes'
        activations are row-stacked — ``1 + num_obs_tokens`` rows each — so
        every projection runs as a single quantize + INT GEMM for the whole
        stack through ``kernel`` (a :class:`~repro.quant.BatchedKernel`, or
        a :class:`~repro.quant.FloatKernel` for calibration and float
        reference), Q/K/V fused, and attention and mean-pooling, which mix
        rows only within a lane, run over a lane axis.  Per-lane stages
        execute in component order (``obs_proj``, ``q``/``k``/``v``/``o``,
        ``fc1``/``fc2``, ``policy_head``), so each lane's output — logits,
        stats, injected flips — equals a stack of one bit for bit, and a
        fault targeted at one lane never perturbs its siblings.  With
        :attr:`_activation_probe` set, the pre-norm residuals are recorded
        there (:meth:`capture_activations`).
        """
        cfg = self.config
        n = observations.shape[0]
        seq = 1 + cfg.num_obs_tokens
        ones = [1] * n
        rows = [seq] * n
        obs_tokens = kernel.qgemm("obs_proj", observations, ones)
        x = np.empty((n, seq, cfg.dim))
        x[:, 0] = self.subtask_embed.take(subtask_ids, axis=0)
        x[:, 1:] = obs_tokens.reshape(n, cfg.num_obs_tokens, cfg.dim)
        x = x.reshape(n * seq, cfg.dim)
        probe = self._activation_probe
        for norms, (qkv, o, fc1, fc2, prefix) in zip(self._norms,
                                                     self._layer_names):
            h = layer_norm(x, norms["attn_gamma"], norms["attn_beta"], eps=_LN_EPS)
            q, k, v = kernel.qgemm_multi(qkv, h, rows)
            x = x + kernel.qgemm(o, self._attention_stack(q, k, v, n, seq), rows)
            if probe is not None:
                probe[f"{prefix}.pre_mlp_norm"] = x.copy()
            h2 = layer_norm(x, norms["mlp_gamma"], norms["mlp_beta"], eps=_LN_EPS)
            x = x + kernel.qgemm(fc2, relu(kernel.qgemm(fc1, h2, rows)), rows)
            if probe is not None:
                probe[f"{prefix}.pre_attn_norm"] = x.copy()
        x = layer_norm(x, self.final_norm["gamma"], self.final_norm["beta"],
                       eps=_LN_EPS)
        # Each lane's ``mean(axis=0)``: the sequence axis is reduced in the
        # same order, then divided by the same count.
        pooled = np.add.reduce(x.reshape(n, seq, cfg.dim), axis=1)
        pooled /= seq
        logits = kernel.qgemm("policy_head", pooled, ones)
        kernel.release_inputs()
        return logits

    # ------------------------------------------------------------------
    # Kernel contexts
    # ------------------------------------------------------------------
    def _float_kernel(self, observer: Calibrator | None = None) -> FloatKernel:
        return FloatKernel(self._float_weights.__getitem__, self._biases.get,
                           observer=observer)

    def kernel_plan(self) -> KernelPlan:
        """The shared, immutable plan all of this controller's contexts reuse.

        Built once per calibration and handed to every :meth:`kernel_context`
        call, so per-trial context construction is O(components) instead of
        O(weights).
        """
        if not self._quantized:
            raise RuntimeError("controller has not been calibrated/quantized")
        if self._plan is None:
            self._plan = KernelPlan(self._quantized, spec=self.spec)
        return self._plan

    def adopt_plan(self, plan: KernelPlan) -> None:
        """Replace the cached plan with an externally shared (shm) one.

        Content-hash-verified against this controller's own checkpoint, so
        adoption changes where the arrays live, never a result.
        """
        if not self._quantized:
            raise RuntimeError("controller has not been calibrated/quantized")
        expected = KernelPlan.hash_layers(self._quantized, self.spec)
        if plan.content_hash != expected:
            raise ValueError(
                f"plan hash {plan.content_hash[:12]} does not match this "
                f"controller's checkpoint ({expected[:12]})")
        self._plan = plan
        self._plan_shared = plan.shared

    def plan_provenance(self) -> str:
        """Where trial contexts get their plan: ``shm``, ``hit`` or ``miss``."""
        if self._plan is None:
            return "miss"
        return "shm" if self._plan_shared else "hit"

    def kernel_context(self, hooks: GemmHooks | None = None,
                       rng: np.random.Generator | None = None) -> KernelContext:
        """A fused kernel runtime over this controller's quantized layers."""
        return KernelContext(hooks=hooks, rng=rng, plan=self.kernel_plan())

    # ------------------------------------------------------------------
    def calibrate(self, subtask_ids: np.ndarray, observations: np.ndarray) -> None:
        """Profile activations in float lane stacks, then quantize.

        The samples run in sample order, at most
        :data:`~repro.quant.CALIBRATION_STACK_LANES` per stack.  A
        :class:`~repro.quant.FloatKernel` lane stack computes each sample's
        tensors bit for bit as that sample alone (row-stacking them into one
        float GEMM would not), so the profiled scales and anomaly bounds
        equal one-sample calibration's.
        """
        observer = Calibrator(self.spec)
        kernel = self._float_kernel(observer)
        for start in range(0, len(subtask_ids), CALIBRATION_STACK_LANES):
            stop = start + CALIBRATION_STACK_LANES
            self._forward_stack(subtask_ids[start:stop],
                                observations[start:stop], kernel)
        self.calibrator = observer
        self._quantized = {}
        self._plan = None
        self._plan_shared = False
        for name, weight in self._float_weights.items():
            self._quantized[name] = QuantizedLinear(
                name=name,
                weight=weight,
                bias=self._biases[name],
                x_params=observer.input_params(name),
                spec=self.spec,
                output_bound=observer.output_bound(name),
            )

    def output_bounds(self) -> dict[str, float]:
        return {name: self.calibrator.output_bound(name) for name in self._float_weights}

    # ------------------------------------------------------------------
    def act_logits(self, subtask_id: int, observation: np.ndarray,
                   quantized: bool = True,
                   context: KernelContext | None = None) -> np.ndarray:
        """Action logits for one step: a stack of one lane.

        ``context`` is the lane's kernel context (one per trial, reused for
        every step, or ``kernel_context(hooks)`` for a faulty step); a fresh
        hook-free one when omitted.  ``quantized=False`` runs the float
        reference.
        """
        if not quantized:
            kernel = self._float_kernel()
        else:
            kernel = (context or self.kernel_context()).kernel
        return self._forward_stack([subtask_id], observation[None, :], kernel)[0]

    def act_logits_batch(self, requests: list[tuple[int, np.ndarray]],
                         contexts: list[KernelContext]) -> np.ndarray:
        """``(lanes, actions)`` logits as one stacked kernel pass per projection.

        ``requests`` holds one ``(subtask_id, observation)`` per lane and
        ``contexts`` the lane's own per-trial kernel context (its hooks and
        injector RNG stream); see :meth:`_forward_stack`.
        """
        if len(requests) != len(contexts):
            raise ValueError("need one kernel context per request")
        subtask_ids, observations = zip(*requests)
        return self._forward_stack(
            list(subtask_ids), np.array(observations, dtype=np.float64),
            BatchedKernel.of(contexts))

    def capture_activations(self, subtask_id: int, observation: np.ndarray,
                            quantized: bool = True,
                            context: KernelContext | None = None
                            ) -> dict[str, np.ndarray]:
        """Pre-normalization residual activations (for the Fig. 5 i-l study)."""
        self._activation_probe = {}
        try:
            self.act_logits(subtask_id, observation, quantized=quantized,
                            context=context)
            return dict(self._activation_probe)
        finally:
            self._activation_probe = None

    @property
    def macs_per_step(self) -> int:
        """INT8 MACs of one controller invocation (one environment step)."""
        seq = 1 + self.config.num_obs_tokens
        total = 0
        for name, weight in self._float_weights.items():
            rows = 1 if name in ("obs_proj", "policy_head") else seq
            total += rows * weight.shape[0] * weight.shape[1]
        total += 2 * seq * seq * self.config.dim * self.config.num_layers
        return total
