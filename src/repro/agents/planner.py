"""The LLM planner surrogate: training, weight extraction, quantized deployment.

Three stages mirror the real platform:

1. :class:`PlannerNetwork` — a small LLaMA-style causal language model trained
   in float (numpy autograd) to emit the ground-truth subtask sequence for a
   task prompt.  Its residual stream carries *systematic activation outliers*
   (a few channels scaled up at initialization and preserved by training),
   reproducing the LLM phenomenon at the heart of the paper's model-level
   findings.
2. :class:`PlannerWeights` — the deployment-ready float weights: RMSNorm gains
   folded into the adjacent projections so the residual stream can be rotated
   (weight-rotation-enhanced planning) without changing the function.
3. :class:`DeployedPlanner` — static INT8 per-tensor quantization of every
   GEMM, executed through :mod:`repro.quant` with fault-injection and
   anomaly-clearance hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.rotation import rotate_reader, rotate_writer
from ..env.tasks import TaskSuite
from ..nn import Embedding, Linear, LlamaTransformer, Module, Tensor, no_grad
from ..nn.functional import rms_norm, silu, softmax
from ..quant import (
    CALIBRATION_STACK_LANES,
    BatchedKernel,
    Calibrator,
    FloatKernel,
    GemmHooks,
    INT8,
    KernelContext,
    KernelPlan,
    KVCache,
    QuantSpec,
    QuantizedLinear,
)
from ..train import AdamW, clip_grad_norm
from .configs import PlannerConfig
from .vocabulary import PlannerVocabulary, build_vocabulary

__all__ = [
    "PlannerNetwork",
    "PlannerWeights",
    "DeployedPlanner",
    "build_planner_dataset",
    "train_planner",
    "plan_accuracy",
]

_NORM_EPS = 1e-6


# ----------------------------------------------------------------------
# Trainable network
# ----------------------------------------------------------------------
class PlannerNetwork(Module):
    """LLaMA-style causal LM over the planner vocabulary."""

    def __init__(self, config: PlannerConfig, vocab_size: int):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.vocab_size = vocab_size
        self.embed = Embedding(vocab_size, config.dim, rng=rng)
        self.transformer = LlamaTransformer(
            config.num_layers, config.dim, config.num_heads, config.mlp_dim, rng, causal=True)
        self.head = Linear(config.dim, vocab_size, bias=False, rng=rng)
        self.outlier_channel_indices = self._install_outliers(rng)

    def _install_outliers(self, rng: np.random.Generator) -> np.ndarray:
        """Scale a fixed set of residual channels in every writer projection.

        The same channels are boosted in every layer (systematic outliers);
        training starts from — and, with a modest learning rate, stays near —
        this outlier-dominated structure, so the deployed activations show the
        distribution of paper Fig. 5(i).
        """
        cfg = self.config
        channels = rng.choice(cfg.dim, size=cfg.outlier_channels, replace=False)
        for block in self.transformer.blocks:
            block.attn.o_proj.weight.data[:, channels] *= cfg.outlier_scale
            block.mlp.down.weight.data[:, channels] *= cfg.outlier_scale
        return np.sort(channels)

    def forward(self, tokens: np.ndarray) -> Tensor:
        x = self.embed(np.asarray(tokens, dtype=np.int64))
        x = self.transformer(x)
        return self.head(x)


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def build_planner_dataset(suite: TaskSuite, vocab: PlannerVocabulary,
                          max_length: int) -> tuple[np.ndarray, np.ndarray]:
    """(tokens, loss_mask) for every (task, progress) replanning situation.

    Each example is ``[BOS, TASK, PROGRESS, SEP, remaining plan ..., EOS]``
    padded to ``max_length``; the loss mask selects the completion positions
    (plan tokens and EOS) so the prompt is never penalized.
    """
    sequences: list[list[int]] = []
    masks: list[list[bool]] = []
    for task in suite.tasks():
        for progress in range(len(task.plan)):
            prompt = vocab.encode_prompt(task.name, progress)
            completion = vocab.encode_plan(list(task.plan[progress:]))
            sequence = prompt + completion
            mask = [False] * len(prompt) + [True] * len(completion)
            if len(sequence) > max_length:
                sequence = sequence[:max_length]
                mask = mask[:max_length]
            pad = max_length - len(sequence)
            sequences.append(sequence + [vocab.pad] * pad)
            masks.append(mask + [False] * pad)
    return np.asarray(sequences, dtype=np.int64), np.asarray(masks, dtype=bool)


def _masked_lm_loss(logits: Tensor, tokens: np.ndarray, mask: np.ndarray) -> Tensor:
    """Next-token cross entropy restricted to masked (completion) positions."""
    targets = tokens[:, 1:]
    target_mask = mask[:, 1:]
    vocab = logits.shape[-1]
    flat_logits = logits[:, :-1, :].reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    flat_mask = target_mask.reshape(-1)
    selected = np.nonzero(flat_mask)[0]
    picked_logits = flat_logits[selected]
    picked_targets = flat_targets[selected]
    log_probs = picked_logits - picked_logits.exp().sum(axis=-1, keepdims=True).log()
    one_hot = np.zeros((selected.size, vocab))
    one_hot[np.arange(selected.size), picked_targets] = 1.0
    return (log_probs * Tensor(one_hot)).sum() * (-1.0 / max(selected.size, 1))


def train_planner(config: PlannerConfig, suite: TaskSuite,
                  vocab: PlannerVocabulary | None = None,
                  epochs: int = 260, lr: float = 3e-3, batch_size: int = 16,
                  verbose: bool = False) -> tuple[PlannerNetwork, PlannerVocabulary]:
    """Train a planner to reproduce the ground-truth plans of a suite."""
    vocab = vocab or build_vocabulary()
    max_length = config.max_plan_length + 6
    tokens, mask = build_planner_dataset(suite, vocab, max_length)
    network = PlannerNetwork(config, vocab.size)
    optimizer = AdamW(network.parameters(), lr=lr, weight_decay=1e-4)
    rng = np.random.default_rng(config.seed + 1)

    network.train()
    n = tokens.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            optimizer.zero_grad()
            logits = network(tokens[batch])
            loss = _masked_lm_loss(logits, tokens[batch], mask[batch])
            loss.backward()
            clip_grad_norm(network.parameters(), 1.0)
            optimizer.step()
            losses.append(loss.item())
        if verbose and (epoch + 1) % 20 == 0:  # pragma: no cover - logging only
            print(f"planner epoch {epoch + 1}: loss={np.mean(losses):.4f}")
    network.eval()
    return network, vocab


def _greedy_decode(network: PlannerNetwork, vocab: PlannerVocabulary, task_name: str,
                   progress: int, max_new_tokens: int) -> list[int]:
    tokens = list(vocab.encode_prompt(task_name, progress))
    with no_grad():
        for _ in range(max_new_tokens):
            logits = network(np.asarray([tokens])).data[0, -1]
            next_token = int(np.argmax(logits))
            tokens.append(next_token)
            if next_token == vocab.eos:
                break
    return tokens[len(vocab.encode_prompt(task_name, progress)):]


def plan_accuracy(network: PlannerNetwork, suite: TaskSuite,
                  vocab: PlannerVocabulary) -> float:
    """Fraction of (task, progress) prompts whose greedy plan matches the recipe."""
    total = 0
    correct = 0
    for task in suite.tasks():
        for progress in range(len(task.plan)):
            expected = list(task.plan[progress:])
            decoded = _greedy_decode(network, vocab, task.name, progress,
                                     max_new_tokens=len(expected) + 2)
            produced = vocab.decode_plan(decoded)
            total += 1
            correct += int(produced == expected)
    return correct / max(total, 1)


# ----------------------------------------------------------------------
# Deployment-ready weights (gamma-folded, rotatable)
# ----------------------------------------------------------------------
@dataclass
class PlannerWeights:
    """Float weights of the planner in deployment form.

    RMSNorm gains are already folded into the residual readers (Q, K, V, Gate,
    Up, head), so every normalization in the deployed graph is a plain
    gain-free RMSNorm and the residual stream can be rotated consistently.
    """

    config: PlannerConfig
    vocab_size: int
    embed: np.ndarray
    layers: list[dict[str, np.ndarray]]
    head: np.ndarray
    rotated: bool = False
    rotation: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.config.dim

    def component_names(self) -> list[str]:
        names = []
        for index in range(len(self.layers)):
            for key in ("q", "k", "v", "o", "gate", "up", "down"):
                names.append(f"layer{index}.{key}")
        names.append("head")
        return names

    def apply_rotation(self, rotation: np.ndarray) -> "PlannerWeights":
        """Return a rotated copy (weight-rotation-enhanced planning)."""
        if rotation.shape != (self.dim, self.dim):
            raise ValueError("rotation must be (dim, dim)")
        if not np.allclose(rotation @ rotation.T, np.eye(self.dim), atol=1e-8):
            raise ValueError("rotation must be orthonormal")
        layers = []
        for layer in self.layers:
            layers.append({
                "q": rotate_reader(layer["q"], rotation),
                "k": rotate_reader(layer["k"], rotation),
                "v": rotate_reader(layer["v"], rotation),
                "o": rotate_writer(layer["o"], rotation),
                "gate": rotate_reader(layer["gate"], rotation),
                "up": rotate_reader(layer["up"], rotation),
                "down": rotate_writer(layer["down"], rotation),
            })
        return PlannerWeights(
            config=self.config,
            vocab_size=self.vocab_size,
            embed=self.embed @ rotation,
            layers=layers,
            head=rotate_reader(self.head, rotation),
            rotated=True,
            rotation=rotation.copy(),
        )


def extract_planner_weights(network: PlannerNetwork) -> PlannerWeights:
    """Fold norm gains and collect the float weights of a trained planner."""
    layers: list[dict[str, np.ndarray]] = []
    for block in network.transformer.blocks:
        attn_gamma = block.attn_norm.gamma.data
        mlp_gamma = block.mlp_norm.gamma.data
        layers.append({
            "q": np.diag(attn_gamma) @ block.attn.q_proj.weight.data,
            "k": np.diag(attn_gamma) @ block.attn.k_proj.weight.data,
            "v": np.diag(attn_gamma) @ block.attn.v_proj.weight.data,
            "o": block.attn.o_proj.weight.data.copy(),
            "gate": np.diag(mlp_gamma) @ block.mlp.gate.weight.data,
            "up": np.diag(mlp_gamma) @ block.mlp.up.weight.data,
            "down": block.mlp.down.weight.data.copy(),
        })
    final_gamma = network.transformer.final_norm.gamma.data
    return PlannerWeights(
        config=network.config,
        vocab_size=network.vocab_size,
        embed=network.embed.weight.data.copy(),
        layers=layers,
        head=np.diag(final_gamma) @ network.head.weight.data,
    )


# ----------------------------------------------------------------------
# Quantized deployment
# ----------------------------------------------------------------------
def _unit_rms_norm(x: np.ndarray, gain: np.ndarray | None = None) -> np.ndarray:
    return rms_norm(x, np.ones(x.shape[-1]) if gain is None else gain, eps=_NORM_EPS)


class DeployedPlanner:
    """INT8 planner inference with fault-injection / anomaly-clearance hooks.

    Every decode runs as a stack of lanes — one lane per prompt, stepping
    together — through the fused kernel runtime
    (:class:`repro.quant.BatchedKernel`); a single prompt is a stack of one.
    Decoding is **KV-cached** by default: per-layer key/value projections
    are cached so each decode step executes GEMMs only for the newly
    produced tokens (O(L) total work per plan instead of O(L²) prefix
    recompute).  ``use_cache=False`` restores full-prefix recompute;
    fault-free, both paths produce identical tokens, logits, and (logical)
    MAC counts.
    """

    def __init__(self, weights: PlannerWeights, vocab: PlannerVocabulary,
                 suite: TaskSuite, spec: QuantSpec = INT8,
                 calibrate: bool = True):
        self.weights = weights
        self.vocab = vocab
        self.suite = suite
        self.spec = spec
        self.config = weights.config
        self.calibrator = Calibrator(spec)
        self._quantized: dict[str, QuantizedLinear] = {}
        self._plan: KernelPlan | None = None
        self._plan_shared = False
        self._activation_probe: dict[str, np.ndarray] | None = None
        self._norm_gain = np.ones(weights.config.dim)
        self._mask_cache: dict[tuple[int, int, int], np.ndarray] = {}
        # Per layer: the Q/K/V group, o, the Gate/Up group, down, the prefix.
        self._layer_names = [
            ((f"layer{i}.q", f"layer{i}.k", f"layer{i}.v"), f"layer{i}.o",
             (f"layer{i}.gate", f"layer{i}.up"), f"layer{i}.down", f"layer{i}")
            for i in range(len(weights.layers))]
        if calibrate:
            self.calibrate()

    # ------------------------------------------------------------------
    # Forward pass (shared between float calibration and quantized inference)
    # ------------------------------------------------------------------
    def _attention_stack(self, q: np.ndarray, ks: np.ndarray, vs: np.ndarray,
                         start: int) -> np.ndarray:
        """Per-lane causal attention of new query rows over each lane's prefix.

        ``q`` is the lane-major row stack of every lane's new positions
        (``start..``); ``ks`` / ``vs`` are ``(lanes, total, dim)`` blocks of
        the full (cached + new) prefix.  numpy's batched matmul runs one 2-D
        GEMM per (lane, head) slice and every other op is elementwise or
        row-wise, so lanes never mix: each lane's rows equal a stack of one.
        """
        lanes, total = ks.shape[0], ks.shape[1]
        n_new = q.shape[0] // lanes
        dim = q.shape[1]
        heads = self.config.num_heads
        head_dim = dim // heads
        q = q.reshape(lanes, n_new, heads, head_dim).transpose(0, 2, 1, 3)
        k = ks.reshape(lanes, total, heads, head_dim).transpose(0, 2, 1, 3)
        v = vs.reshape(lanes, total, heads, head_dim).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(head_dim)
        mask = self._mask_cache.get((n_new, total, start))
        if mask is None:
            mask = np.where(
                np.arange(total)[None, :] > start + np.arange(n_new)[:, None],
                -1e9, 0.0)
            self._mask_cache[(n_new, total, start)] = mask
        weights = softmax(scores + mask, axis=-1)
        context = weights @ v
        return context.transpose(0, 2, 1, 3).reshape(lanes * n_new, dim)

    def _forward_stack(self, tokens: np.ndarray, cache: KVCache,
                       kernel) -> np.ndarray:
        """One decoder step over a lane stack; returns ``(lanes, vocab)`` logits.

        ``tokens`` is ``(lanes, n_new)``: every lane's tokens at positions
        ``cache.length..``, whose K/V the cache holds before them
        (``cache.length == 0`` is a full forward).  The lanes' rows are
        stacked into one activation matrix and every projection runs as one
        stacked (and Q/K/V- / Gate/Up-fused) GEMM through ``kernel``, a
        :class:`~repro.quant.BatchedKernel` or a
        :class:`~repro.quant.FloatKernel` (calibration / float reference).
        GEMM MACs are recorded for the full logical context length, so
        accounting is identical whether or not the prefix was cached.  With
        :attr:`_activation_probe` set, the pre-norm residuals are recorded
        there (:meth:`capture_activations`).
        """
        lanes, n_new = tokens.shape
        total = cache.length + n_new
        x = self.weights.embed[tokens.reshape(-1)]
        rows = [n_new] * lanes
        logical = [total] * lanes
        probe = self._activation_probe
        gain = self._norm_gain
        for index, (qkv, o, gate_up, down, prefix) in enumerate(self._layer_names):
            h = _unit_rms_norm(x, gain)
            q, k, v = kernel.qgemm_multi(qkv, h, rows, logical)
            cache.append(index, k, v)
            attn = self._attention_stack(q, cache.keys(index, total),
                                         cache.values(index, total),
                                         cache.length)
            x = x + kernel.qgemm(o, attn, rows, logical)
            if probe is not None:
                probe[f"{prefix}.pre_mlp_norm"] = x.copy()
            h2 = _unit_rms_norm(x, gain)
            gate, up = kernel.qgemm_multi(gate_up, h2, rows, logical)
            x = x + kernel.qgemm(down, silu(gate) * up, rows, logical)
            if probe is not None:
                probe[f"{prefix}.pre_attn_norm"] = x.copy()
        cache.advance(n_new)
        x = _unit_rms_norm(x, gain)
        ones = [1] * lanes
        return kernel.qgemm("head", x[n_new - 1::n_new], ones, ones)

    def _float_weight(self, name: str) -> np.ndarray:
        if name == "head":
            return self.weights.head
        layer_name, component = name.split(".")
        index = int(layer_name.removeprefix("layer"))
        return self.weights.layers[index][component]

    # ------------------------------------------------------------------
    # Kernel contexts
    # ------------------------------------------------------------------
    def kernel_plan(self) -> KernelPlan:
        """The shared, immutable plan all of this planner's contexts reuse.

        Built once per calibration (layer flattening, float weight copies)
        and handed to every :meth:`kernel_context` call, so per-trial context
        construction is O(components) instead of O(weights).
        """
        if not self._quantized:
            raise RuntimeError("planner has not been calibrated/quantized")
        if self._plan is None:
            self._plan = KernelPlan(self._quantized, spec=self.spec)
        return self._plan

    def adopt_plan(self, plan: KernelPlan) -> None:
        """Replace the cached plan with an externally shared (shm) one.

        The plan must be bit-identical to this planner's own — enforced by
        content hash — so adopting changes where the arrays live, never a
        result.  Kernel caches built over the old plan are dropped.
        """
        if not self._quantized:
            raise RuntimeError("planner has not been calibrated/quantized")
        expected = KernelPlan.hash_layers(self._quantized, self.spec)
        if plan.content_hash != expected:
            raise ValueError(
                f"plan hash {plan.content_hash[:12]} does not match this "
                f"planner's checkpoint ({expected[:12]})")
        self._plan = plan
        self._plan_shared = plan.shared

    def plan_provenance(self) -> str:
        """Where trial contexts get their plan: ``shm``, ``hit`` or ``miss``."""
        if self._plan is None:
            return "miss"
        return "shm" if self._plan_shared else "hit"

    def kernel_context(self, hooks: GemmHooks | None = None,
                       rng: np.random.Generator | None = None) -> KernelContext:
        """A fused kernel runtime over this planner's quantized layers."""
        return KernelContext(hooks=hooks, rng=rng, plan=self.kernel_plan())

    def _prompts(self, requests: list[tuple[str, int]]) -> np.ndarray:
        """``(lanes, 4)`` prompt tokens, ``[BOS, TASK, PROGRESS, SEP]`` per lane."""
        return np.array([self.vocab.encode_prompt(task_name, progress)
                         for task_name, progress in requests], dtype=np.int64)

    # ------------------------------------------------------------------
    # Calibration / quantization
    # ------------------------------------------------------------------
    def calibrate(self) -> None:
        """Profile activations over every (task, progress) prompt, then quantize.

        Calibration decodes without the KV cache, the prompts in suite order
        and in float lane stacks of at most
        :data:`~repro.quant.CALIBRATION_STACK_LANES`: the observer must see
        the exact full-prefix tensors the reference pipeline produced, and a
        :class:`~repro.quant.FloatKernel` lane stack computes each prompt's
        tensors bit for bit as that prompt alone, so the profiled scales and
        anomaly bounds stay bit-identical across kernel generations.
        """
        observer = Calibrator(self.spec)
        kernel = FloatKernel(self._float_weight, observer=observer)
        prompts = [(task.name, progress) for task in self.suite.tasks()
                   for progress in range(len(task.plan))]
        for start in range(0, len(prompts), CALIBRATION_STACK_LANES):
            self._decode_stack(prompts[start:start + CALIBRATION_STACK_LANES],
                               kernel, None, max_new_tokens=None,
                               use_cache=False)
        self.calibrator = observer
        self._quantized = {}
        self._plan = None
        self._plan_shared = False
        for name in self.weights.component_names():
            self._quantized[name] = QuantizedLinear(
                name=name,
                weight=self._float_weight(name),
                bias=None,
                x_params=observer.input_params(name),
                spec=self.spec,
                output_bound=observer.output_bound(name),
            )

    def output_bounds(self) -> dict[str, float]:
        """Profiled per-component anomaly bounds (float domain)."""
        return {name: self.calibrator.output_bound(name)
                for name in self.weights.component_names()}

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _decode_stack(self, requests: list[tuple[str, int]], kernel,
                      contexts: list[KernelContext] | None,
                      max_new_tokens: int | None, use_cache: bool = True,
                      collect_logits: bool = False
                      ) -> list[tuple[list[int], list[np.ndarray]]]:
        """Greedy-decode a lane stack: the one decode driver.

        Lanes step together — prompts share one length, so every step's
        geometry is uniform — and a lane drops out of the stack when it
        emits EOS: the cache compacts to the surviving lanes, and a quantized
        kernel is rebuilt over their ``contexts``.  A float kernel
        (``contexts`` is ``None``) keeps no per-lane state, so it runs the
        surviving lanes as it is.
        """
        limit = max_new_tokens or self.config.max_plan_length + 1
        prompts = self._prompts(requests)
        lanes, total = prompts.shape
        seqs = np.empty((lanes, total + limit), dtype=np.int64)
        seqs[:, :total] = prompts
        cache = KVCache(len(self.weights.layers), total + limit,
                        self.config.dim, lanes=lanes)
        generated: list[list[int]] = [[] for _ in range(lanes)]
        logits_of: list[list[np.ndarray]] = [[] for _ in range(lanes)]
        live = list(range(lanes))
        eos = self.vocab.eos
        for _ in range(limit):
            if not use_cache:
                cache.reset()
            logits = self._forward_stack(seqs[:, cache.length:total], cache,
                                         kernel)
            kernel.release_inputs()
            chosen = np.argmax(logits, axis=1)
            seqs[:, total] = chosen
            total += 1
            tokens = chosen.tolist()
            for lane, token in zip(live, tokens):
                generated[lane].append(token)
            if collect_logits:
                for lane, row in zip(live, logits):
                    logits_of[lane].append(np.array(row, dtype=np.float64))
            if eos in tokens:
                keep = [i for i, token in enumerate(tokens) if token != eos]
                if not keep:
                    break
                live = [live[i] for i in keep]
                seqs = seqs[keep]
                cache.compact(keep)
                if contexts is not None:
                    contexts = [contexts[i] for i in keep]
                    kernel = BatchedKernel.of(contexts)
        return list(zip(generated, logits_of))

    def decode_tokens_batch(self, requests: list[tuple[str, int]],
                            quantized: bool = True, use_cache: bool = True,
                            collect_logits: bool = False,
                            max_new_tokens: int | None = None,
                            contexts: list[KernelContext] | None = None,
                            ) -> list[tuple[list[int], list[np.ndarray]]]:
        """Greedy-decode several ``(task_name, progress)`` prompts as one stack.

        The raw interface behind :meth:`plan_batch`: completion tokens and,
        with ``collect_logits``, every step's logits per prompt.  All prompts
        step together through :class:`~repro.quant.BatchedKernel` — one
        quantize + one stacked GEMM per projection per step — while each
        prompt keeps its own kernel context (``contexts``, one per prompt:
        its hooks, injector RNG stream and stats; hook-free fresh ones when
        omitted) and the :class:`KVCache` holds every lane.  A prompt drops
        out of the stack when it emits EOS.  Results are bit-identical to
        decoding each prompt alone — tokens, logits, and every stats object,
        fault-free and under injection, cached or not (the batched
        equivalence tests assert all of it).
        ``quantized=False`` decodes the prompts as one float lane stack
        (:class:`~repro.quant.FloatKernel`), bit-identical to decoding each
        prompt alone in float.
        """
        requests = list(requests)
        if not requests:
            return []
        if not quantized:
            return self._decode_stack(requests, FloatKernel(self._float_weight),
                                      None, max_new_tokens, use_cache,
                                      collect_logits)
        if contexts is None:
            contexts = [self.kernel_context() for _ in requests]
        else:
            contexts = list(contexts)
            if len(contexts) != len(requests):
                raise ValueError(
                    f"{len(contexts)} contexts for {len(requests)} prompts")
        return self._decode_stack(requests, BatchedKernel.of(contexts),
                                  contexts, max_new_tokens, use_cache,
                                  collect_logits)

    def plan_batch(self, requests: list[tuple[str, int]],
                   quantized: bool = True, use_cache: bool = True,
                   contexts: list[KernelContext] | None = None
                   ) -> list[list[str]]:
        """One subtask plan per ``(task, progress)`` prompt, decoded as one stack.

        Bit-identical to per-prompt :meth:`plan` calls with the matching
        contexts — see :meth:`decode_tokens_batch`.
        """
        decoded = self.decode_tokens_batch(requests, quantized=quantized,
                                           use_cache=use_cache,
                                           contexts=contexts)
        return [self.vocab.decode_plan(tokens) for tokens, _ in decoded]

    def plan(self, task_name: str, progress: int = 0,
             quantized: bool = True, use_cache: bool = True,
             context: KernelContext | None = None) -> list[str]:
        """Produce a subtask plan for a task at the given completion progress.

        A stack of one through :meth:`plan_batch`.  ``use_cache`` selects
        KV-cached incremental decoding (the default) or full-prefix
        recompute; ``context`` is the prompt's kernel context (one per trial,
        or ``kernel_context(hooks)`` for a faulty decode); a fresh hook-free
        one when omitted.
        """
        return self.plan_batch(
            [(task_name, progress)], quantized=quantized, use_cache=use_cache,
            contexts=None if context is None else [context])[0]

    def logits(self, task_name: str, progress: int = 0,
               quantized: bool = True,
               context: KernelContext | None = None) -> np.ndarray:
        """Logits of the first completion token (used by resilience probes).

        ``context`` is the prompt's kernel context, a fresh hook-free one
        when omitted; ``quantized=False`` runs the float reference.
        """
        if not quantized:
            kernel = FloatKernel(self._float_weight)
        else:
            kernel = (context or self.kernel_context()).kernel
        prompt = self._prompts([(task_name, progress)])
        cache = KVCache(len(self.weights.layers), prompt.shape[1],
                        self.config.dim)
        logits = self._forward_stack(prompt, cache, kernel)[0]
        kernel.release_inputs()
        return logits

    # ------------------------------------------------------------------
    # Introspection used by the characterization experiments
    # ------------------------------------------------------------------
    def capture_activations(self, task_name: str, progress: int = 0,
                            quantized: bool = True,
                            context: KernelContext | None = None
                            ) -> dict[str, np.ndarray]:
        """Capture pre-normalization residual activations during one forward."""
        self._activation_probe = {}
        try:
            self.logits(task_name, progress, quantized=quantized,
                        context=context)
            return dict(self._activation_probe)
        finally:
            self._activation_probe = None

    def macs_per_decode_step(self, context_length: int) -> int:
        """INT8 MACs of one decode step at a given context length."""
        cfg = self.config
        per_token = 0
        for layer in self.weights.layers:
            for weight in layer.values():
                per_token += weight.shape[0] * weight.shape[1]
        head = self.weights.head.shape[0] * self.weights.head.shape[1]
        attention = 2 * context_length * cfg.dim  # QK^T and PV per token
        return context_length * per_token + head + context_length * attention
