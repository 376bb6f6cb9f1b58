"""Training loop (mini-batch Adagrad on the logistic loss), ranking metrics
(AUC with midrank tie handling, logloss), and the finite-difference gradient
checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embedding import EncodedBatch
from .ingest import ConfigError, LabeledExample, check_config_types, read_config
from .models import (BatchTrace, Gradients, ModelParams, Variant, backward, encode_batch,
                     forward_batch, init_model, loss, loss_from_logits, pre_activations)
from .numerics import Array, adagrad_step, adagrad_step_rows, make_rng
from .schema import AUX_GROUPS, GroupSchema, InputError, Vocabulary
from .toy import make_toy_problem


class MetricUndefinedError(InputError):
    """A metric has no defined value for this input (e.g. single-class AUC)."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults are the reference operating point
    (batch 128, dropout 0.5, K=10, FC 512/256, attention width 128).

    ``embedding_l2`` (default 2.0) is the strength lambda of the
    frequency-scaled L2 penalty on embedding rows (see ``embedding_penalty``):
    each step adds ``lambda / (2 n_j) * ||e_j||^2`` for every row j the batch
    touches, where n_j is the row's count in the vocabulary (its occurrences
    on target ads of the log the vocabulary was built from). Rare features
    (user and ad ids) are held near zero unless the data keep pulling them
    away; 0 turns the penalty off. The default was chosen on validation AUC.

    There is no precision setting: ``train`` builds a fresh model in float32
    (parameters, activations, gradients and Adagrad state), and a warm start
    keeps the dtype of the model it starts from. The pCTR, the loss and the
    metrics are float64 either way.
    """

    variant: str = "dstn-i"
    batch_size: int = 128
    epochs: int = 3
    learning_rate: float = 0.01
    dropout: float = 0.5
    embedding_dim: int = 10
    fc_dims: tuple[int, ...] = (512, 256)
    attention_dim: int = 128
    embedding_l2: float = 2.0
    seed: int = 0
    ablate: str | None = None  # keep only this auxiliary group

    def __post_init__(self):
        check_config_types(self)
        for name in ("batch_size", "epochs", "embedding_dim", "attention_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if min(self.fc_dims, default=0) < 1:
            raise ConfigError(f"fc_dims must be one or more widths >= 1, got {self.fc_dims!r}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if not self.embedding_l2 >= 0.0:
            raise ConfigError(f"embedding_l2 must be >= 0, got {self.embedding_l2!r}")
        if self.ablate and self.ablate not in AUX_GROUPS:
            raise ConfigError(f"unknown auxiliary group {self.ablate!r}")

    @classmethod
    def from_json(cls, path, **overrides) -> "TrainConfig":
        data = read_config(cls, path, **overrides)
        if isinstance(data.get("fc_dims"), list):
            data["fc_dims"] = tuple(data["fc_dims"])
        return cls(**data)


@dataclass
class EvalReport:
    auc: float
    logloss: float
    n: int
    variant: str

    def format_line(self) -> str:
        return f"auc={self.auc:.6f} logloss={self.logloss:.6f} n={self.n}"

    def kv_text(self) -> str:
        return (f"auc={self.auc!r}\nlogloss={self.logloss!r}\nn={self.n}\n"
                f"variant={self.variant}\n")


def embedding_row_scales(vocab: Vocabulary, strength: float) -> Array:
    """Per-row penalty coefficients lambda / n_j (n_j floored at 1, so an
    OOV row, which never occurs in the build stream, gets the full lambda)."""
    return strength / np.maximum(np.asarray(vocab.target_counts, dtype=np.float64), 1.0)


def embedding_penalty(model: ModelParams, rows: Array, row_scales: Array) -> tuple[float, Array]:
    """Frequency-scaled L2 on the embedding rows a batch touches, after DIN's
    mini-batch aware regularizer (Zhou et al. 2018): the value
    ``sum_j row_scales[j] / 2 * ||e_j||^2`` over ``rows`` and its gradient,
    one row per entry of ``rows``, in the table's dtype."""
    e = model.tensors["emb.E"][rows]
    scale = row_scales[rows].astype(e.dtype, copy=False)[:, None]
    return 0.5 * float((scale * e * e).sum()), scale * e


def train(config: TrainConfig, train_examples: EncodedBatch | Sequence[LabeledExample],
          val_examples: EncodedBatch | Sequence[LabeledExample],
          schemas: dict[str, GroupSchema], vocab: Vocabulary,
          initial: ModelParams | None = None) -> tuple[ModelParams, list[dict]]:
    """Mini-batch Adagrad training; deterministic given the config seed.

    Shuffles per epoch, evaluates on the validation stream after each epoch,
    and returns the checkpoint with the best validation AUC (the final one if
    no validation stream is given). The streams are encoded batches, or
    examples encoded once on entry; ``config.ablate`` empties every other
    auxiliary group of both. Passing ``initial`` warm-starts from an
    existing checkpoint (periodic refresh); the vocabulary must be the one the
    initial model was trained with. A fresh model is float32; a warm start
    trains in the initial model's dtype.
    """
    if not train_examples:
        raise InputError("empty training stream")
    rng = make_rng(config.seed)
    if initial is not None:
        if len(initial.tensors["emb.E"]) != vocab.size:
            raise ValueError("warm-start model does not match the vocabulary")
        model = initial.clone()
    else:
        model = init_model(Variant(config.variant), schemas, vocab.size, rng,
                           k=config.embedding_dim, fc_dims=config.fc_dims,
                           attention_dim=config.attention_dim, dropout_p=config.dropout,
                           dtype=np.float32)
    accum = {name: np.zeros_like(arr) for name, arr in model.tensors.items()}
    row_scales = embedding_row_scales(vocab, config.embedding_l2)
    train_set = encode_batch(model, train_examples)
    val_set = encode_batch(model, val_examples)
    if config.ablate:
        train_set, val_set = train_set.ablate(config.ablate), val_set.ablate(config.ablate)

    best: ModelParams | None = None
    best_auc = -np.inf
    history: list[dict] = []
    n = len(train_set)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = train_set.take(perm[lo : lo + config.batch_size])
            batch_loss = _train_step(model, batch, rng, accum, row_scales, config.learning_rate,
                                     epoch, lo // config.batch_size)
            total_loss += batch_loss * len(batch)
        entry = {"epoch": epoch, "train_loss": total_loss / n}
        if len(val_set):
            report = evaluate(model, val_set)
            entry["val_auc"] = report.auc
            entry["val_logloss"] = report.logloss
            if report.auc > best_auc:
                best_auc, best = report.auc, model.clone()
        history.append(entry)
    return (best if best is not None else model), history


@np.errstate(over="ignore", invalid="ignore")  # _check_finite reports a non-finite step
def _train_step(model: ModelParams, batch: EncodedBatch, rng: np.random.Generator,
                accum: dict[str, Array], row_scales: Array, lr: float, epoch: int,
                step: int) -> float:
    """One Adagrad step on a batch; returns the batch-mean loss. The step's
    trace is dropped once backward and the loss have read it, before the
    penalty and the optimizer, and its gradients are this frame's locals,
    freed when it returns, before the next batch's forward."""
    _, trace = forward_batch(model, batch, mode="train", rng=rng)
    grads = backward(model, trace)
    batch_loss = loss_from_logits(trace.logit, batch.labels)
    del trace
    grads.emb_grads += embedding_penalty(model, grads.emb_rows, row_scales)[1]
    _check_finite(model, epoch, step, batch_loss, grads)
    for name, arr in model.tensors.items():
        if name == "emb.E":
            adagrad_step_rows(arr, grads.emb_rows, grads.emb_grads, accum[name], lr)
        else:
            adagrad_step(arr, grads.dense[name], accum[name], lr)
    return batch_loss


class NonFiniteError(FloatingPointError):
    """Training met a non-finite batch loss or gradient."""


def _check_finite(model: ModelParams, epoch: int, batch: int, batch_loss: float,
                  grads: Gradients) -> None:
    """Raise on a non-finite batch loss, else on the first tensor, in
    ``model.tensors`` order, whose gradient is not finite."""
    if not np.isfinite(batch_loss):
        raise NonFiniteError(f"epoch {epoch}, batch {batch}: non-finite loss")
    for name in model.tensors:
        grad = grads.emb_grads if name == "emb.E" else grads.dense[name]
        if not np.isfinite(grad).all():
            raise NonFiniteError(f"epoch {epoch}, batch {batch}: non-finite gradient of {name}")


def predict(model: ModelParams, examples: EncodedBatch | Sequence[LabeledExample],
            batch_size: int = 256, collect_attention: bool = False
            ) -> tuple[np.ndarray, list[tuple[int, str, int, float]]]:
    """Eval-mode scores for a stream (encoded, or examples encoded once on
    entry); optionally the per-ad attention weights as (example ordinal,
    group, ad ordinal, weight) rows. The stream is scored ``batch_size``
    rows at a time, and each batch's trace is dropped before the next
    batch's forward, so at most that many rows of activations are held.
    ``batch_size`` must be at least 1."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
    examples = encode_batch(model, examples)
    n = len(examples)
    scores = np.empty(n)
    attn: list[tuple[int, str, int, float]] = []
    for lo in range(0, n, batch_size):
        batch = examples.take(np.arange(lo, min(lo + batch_size, n)))
        pctr, trace = forward_batch(model, batch, mode="eval")
        scores[lo : lo + len(batch)] = pctr
        if collect_attention and model.variant in (Variant.DSTN_S, Variant.DSTN_I):
            rows = []  # a group's ads are in example order, each example's contiguous
            for group, t in trace.aux.items():
                first = np.searchsorted(t.row_idx, t.row_idx)  # each ad's example's first ad
                rows += zip((t.row_idx + lo).tolist(), [group] * len(first),
                            (np.arange(len(first)) - first).tolist(), t.alpha.tolist())
            attn += sorted(rows, key=lambda row: row[0])  # stable: groups keep trace order
        del trace
    return scores, attn


def evaluate(model: ModelParams, examples: EncodedBatch | Sequence[LabeledExample]
             ) -> EvalReport:
    examples = encode_batch(model, examples)
    scores, _ = predict(model, examples)
    labels = examples.labels
    return EvalReport(auc=auc(scores, labels), logloss=logloss_eval(scores, labels),
                      n=len(examples), variant=model.variant.value)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Computed by rank-sum with midranks; the test suite holds this equal to
    brute-force pair counting.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("labels must be 0 or 1")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs at least one positive and one negative")
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    run_start = np.concatenate([[True], sorted_s[1:] != sorted_s[:-1]])
    run_id = np.cumsum(run_start) - 1
    counts = np.bincount(run_id)
    last = np.cumsum(counts)
    first = last - counts + 1
    midranks = (first + last) / 2.0
    ranks = np.empty_like(s)
    ranks[order] = midranks[run_id]
    pos_rank_sum = ranks[np.asarray(y) == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss_eval(scores, labels) -> float:
    """Average logistic loss for evaluation; scores are clamped to
    [1e-12, 1 - 1e-12] so degenerate predictions stay finite."""
    p = np.clip(np.asarray(scores, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return loss(p, labels)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    variant: str
    tolerance: float
    max_rel_err: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e <= self.tolerance for e in self.max_rel_err.values())

    def format_lines(self) -> list[str]:
        lines = [f"{name}: max_rel_err={err:.3e} "
                 f"{'ok' if err <= self.tolerance else 'FAIL'}"
                 for name, err in sorted(self.max_rel_err.items())]
        lines.append(f"{self.variant}: {'PASS' if self.passed else 'FAIL'} "
                     f"(tolerance {self.tolerance:g})")
        return lines


_FD_STEP = 1e-5  # central-difference step of grad_check
# grad_check's shrunk problem: examples, embedding width K, FC widths, attention width
_GC_EXAMPLES, _GC_K, _GC_FC_DIMS, _GC_ATTENTION_DIM = 10, 3, (8, 4), 4


def _kink_distance(model: ModelParams, trace: BatchTrace) -> float:
    """Distance from the nearest ReLU kink anywhere in the forward pass.

    Central differences are invalid if a pre-activation sits within the step
    of zero, so the checker re-seeds until the batch is clear of kinks.
    """
    return min((float(np.abs(pre).min()) for pre in pre_activations(model, trace) if pre.size),
               default=np.inf)


def grad_check(variant, tolerance: float = 1e-4, seed: int = 0) -> GradCheckReport:
    """Compare the analytic gradient of the training objective (batch-mean
    loss plus the embedding penalty at the default strength) against
    entrywise central finite differences on a shrunk random model; dropout is
    disabled for the check."""
    variant = Variant(variant)
    for attempt in range(64):
        trial_seed = seed + 1000 * attempt
        schemas, vocab, examples = make_toy_problem(seed=trial_seed, n_examples=_GC_EXAMPLES)
        model = init_model(variant, schemas, vocab.size, make_rng(trial_seed + 1), k=_GC_K,
                           fc_dims=_GC_FC_DIMS, attention_dim=_GC_ATTENTION_DIM,
                           dropout_p=0.0)
        batch = encode_batch(model, examples)
        pctr, trace = forward_batch(model, batch, mode="train")
        if _kink_distance(model, trace) > 100 * _FD_STEP:
            break
    labels = batch.labels
    grads = backward(model, trace)
    row_scales = embedding_row_scales(vocab, TrainConfig.embedding_l2)

    def batch_loss() -> float:
        p, _ = forward_batch(model, batch, mode="eval")
        return loss(p, labels) + embedding_penalty(model, grads.emb_rows, row_scales)[0]

    analytic: dict[str, np.ndarray] = dict(grads.dense)
    emb_dense = np.zeros_like(model.tensors["emb.E"])
    emb_dense[grads.emb_rows] = (grads.emb_grads
                                 + embedding_penalty(model, grads.emb_rows, row_scales)[1])
    analytic["emb.E"] = emb_dense

    report = GradCheckReport(variant=variant.value, tolerance=tolerance)
    for name, arr in model.tensors.items():
        fd = np.zeros_like(arr)
        for ix in np.ndindex(arr.shape):
            orig = arr[ix]
            arr[ix] = orig + _FD_STEP
            up = batch_loss()
            arr[ix] = orig - _FD_STEP
            down = batch_loss()
            arr[ix] = orig
            fd[ix] = (up - down) / (2.0 * _FD_STEP)
        a = analytic[name]
        # The floor keeps structurally-zero gradients (e.g. the softmax score
        # bias, which is shift-invariant) from dividing roundoff by roundoff.
        scale = max(np.abs(a).max(initial=0.0), np.abs(fd).max(initial=0.0), 1e-8)
        report.max_rel_err[name] = float(np.abs(a - fd).max() / scale)
    return report
