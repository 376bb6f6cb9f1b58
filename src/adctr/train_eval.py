"""Training loop (mini-batch Adagrad on the logistic loss), ranking metrics
(AUC with midrank tie handling, logloss), auxiliary-data improvement metrics,
the single-group ablation harness, and the finite-difference gradient checker.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embedding import EncodedBatch
from .ingest import LabeledExample
from .models import (BatchTrace, Gradients, ModelParams, Variant, backward, encode_batch,
                     forward_batch, init_model, loss, loss_from_logits)
from .numerics import AdagradState, Array, adagrad_step, adagrad_step_rows, make_rng
from .schema import AUX_GROUPS, GroupSchema, Vocabulary
from .toy import make_toy_problem


class MetricUndefinedError(ValueError):
    """A metric has no defined value for this input (e.g. single-class AUC)."""

    def __init__(self, message: str, abs_imp: float | None = None):
        super().__init__(message)
        self.abs_imp = abs_imp


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
    """

    variant: str = "dstn-i"
    batch_size: int = 128
    epochs: int = 3
    learning_rate: float = 0.01
    adagrad_eps: float = 1e-8
    dropout: float = 0.5
    embedding_dim: int = 10
    fc_dims: tuple[int, ...] = (512, 256)
    attention_dim: int = 128
    embedding_l2: float = 2.0
    seed: int = 0
    patience: int = 0  # 0 disables early stopping
    ablate: str | None = None  # keep only this auxiliary group

    @classmethod
    def from_json(cls, path, **overrides) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(overrides)
        if "fc_dims" in data:
            data["fc_dims"] = tuple(data["fc_dims"])
        return cls(**data)


@dataclass
class EvalReport:
    auc: float
    logloss: float
    n: int
    variant: str = ""

    def format_line(self) -> str:
        return f"auc={self.auc:.6f} logloss={self.logloss:.6f} n={self.n}"

    def kv_text(self) -> str:
        lines = [f"auc={self.auc!r}", f"logloss={self.logloss!r}", f"n={self.n}"]
        if self.variant:
            lines.append(f"variant={self.variant}")
        return "\n".join(lines) + "\n"


def ablate_examples(examples: Sequence[LabeledExample], keep_group: str) -> list[LabeledExample]:
    """Copies with every auxiliary group except keep_group emptied."""
    if keep_group not in AUX_GROUPS:
        raise ValueError(f"unknown auxiliary group {keep_group!r}")
    swaps = {g: () for g in AUX_GROUPS if g != keep_group}
    return [dataclasses.replace(ex, **swaps) for ex in examples]


def embedding_row_scales(vocab: Vocabulary, strength: float) -> Array:
    """Per-row penalty coefficients lambda / n_j (n_j floored at 1, so an
    OOV row, which never occurs in the build stream, gets the full lambda)."""
    return strength / np.maximum(np.asarray(vocab.target_counts, dtype=np.float64), 1.0)


def embedding_penalty(model: ModelParams, rows: Array, row_scales: Array) -> tuple[float, Array]:
    """Frequency-scaled L2 on the embedding rows a batch touches, after DIN's
    mini-batch aware regularizer (Zhou et al. 2018): the value
    ``sum_j row_scales[j] / 2 * ||e_j||^2`` over ``rows`` and its gradient,
    one row per entry of ``rows``."""
    e = model.embedding.e[rows]
    scale = row_scales[rows][:, None]
    return 0.5 * float((scale * e * e).sum()), scale * e


def train(config: TrainConfig, train_examples: Sequence[LabeledExample],
          val_examples: Sequence[LabeledExample], schemas: dict[str, GroupSchema],
          vocab: Vocabulary, initial: ModelParams | None = None) -> tuple[ModelParams, list[dict]]:
    """Mini-batch Adagrad training; deterministic given the config seed.

    Shuffles per epoch, evaluates on the validation stream after each epoch,
    and returns the checkpoint with the best validation AUC (the final one if
    no validation stream is given). Passing ``initial`` warm-starts from an
    existing checkpoint (periodic refresh); the vocabulary must be the one the
    initial model was trained with.
    """
    if not train_examples:
        raise ValueError("empty training stream")
    if config.ablate:
        train_examples = ablate_examples(train_examples, config.ablate)
        val_examples = ablate_examples(val_examples, config.ablate)
    rng = make_rng(config.seed)
    if initial is not None:
        if initial.embedding.n != vocab.size:
            raise ValueError("warm-start model does not match the vocabulary")
        model = initial.clone()
    else:
        model = init_model(Variant(config.variant), schemas, vocab.size, rng,
                           k=config.embedding_dim, fc_dims=config.fc_dims,
                           attention_dim=config.attention_dim, dropout_p=config.dropout)
    states = {name: AdagradState(lr=config.learning_rate, eps=config.adagrad_eps)
              for name in model.tensors()}
    row_scales = embedding_row_scales(vocab, config.embedding_l2)
    train_set = encode_batch(model, train_examples)
    val_set = encode_batch(model, val_examples) if val_examples else None

    best: ModelParams | None = None
    best_auc = -np.inf
    best_epoch = -1
    history: list[dict] = []
    n = len(train_set)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = train_set.take(perm[lo : lo + config.batch_size])
            _, trace = forward_batch(model, batch, mode="train", rng=rng)
            grads = backward(model, trace)
            grads.emb_grads += embedding_penalty(model, grads.emb_rows, row_scales)[1]
            batch_loss = loss_from_logits(trace.logit, batch.labels)
            _check_finite(model, epoch, lo // config.batch_size, batch_loss, grads)
            total_loss += batch_loss * len(batch)
            for name, arr in model.tensors().items():
                if name == "emb.E":
                    adagrad_step_rows(arr, grads.emb_rows, grads.emb_grads, states[name])
                else:
                    adagrad_step(arr, grads.dense[name], states[name])
        entry = {"epoch": epoch, "train_loss": total_loss / n}
        if val_set is not None:
            report = evaluate(model, val_set)
            entry["val_auc"] = report.auc
            entry["val_logloss"] = report.logloss
            if report.auc > best_auc:
                best_auc, best, best_epoch = report.auc, model.clone(), epoch
        history.append(entry)
        if val_set is not None and config.patience and epoch - best_epoch >= config.patience:
            break
    return (best if best is not None else model), history


class NonFiniteError(FloatingPointError):
    """Training met a non-finite batch loss or gradient."""


def _check_finite(model: ModelParams, epoch: int, batch: int, batch_loss: float,
                  grads: Gradients) -> None:
    """Raise on a non-finite batch loss, else on the first tensor, in
    ``model.tensors()`` order, whose gradient is not finite."""
    if not np.isfinite(batch_loss):
        raise NonFiniteError(f"epoch {epoch}, batch {batch}: non-finite loss")
    for name in model.tensors():
        grad = grads.emb_grads if name == "emb.E" else grads.dense[name]
        if not np.isfinite(grad).all():
            raise NonFiniteError(f"epoch {epoch}, batch {batch}: non-finite gradient of {name}")


def predict(model: ModelParams, examples: EncodedBatch | Sequence[LabeledExample],
            batch_size: int = 1024, collect_attention: bool = False
            ) -> tuple[np.ndarray, list[tuple[int, str, int, float]]]:
    """Eval-mode scores for a stream (encoded, or examples encoded once on
    entry); optionally the per-ad attention weights as (example ordinal,
    group, ad ordinal, weight) rows."""
    examples = encode_batch(model, examples)
    n = len(examples)
    scores = np.empty(n)
    attn: list[tuple[int, str, int, float]] = []
    for lo in range(0, n, batch_size):
        batch = examples if n <= batch_size else examples.take(
            np.arange(lo, min(lo + batch_size, n)))
        pctr, trace = forward_batch(model, batch, mode="eval")
        scores[lo : lo + len(batch)] = pctr
        if collect_attention and model.variant in (Variant.DSTN_S, Variant.DSTN_I):
            for i in range(len(batch)):
                for group, weights in trace.attention_weights(i).items():
                    attn.extend((lo + i, group, j, w) for j, w in enumerate(weights))
    return scores, attn


def evaluate(model: ModelParams, examples: EncodedBatch | Sequence[LabeledExample],
             batch_size: int = 1024) -> EvalReport:
    examples = encode_batch(model, examples)
    scores, _ = predict(model, examples, batch_size=batch_size)
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


def improvement_metrics(auc_variant: float, auc_dnn: float,
                        avg_aux_count: float) -> tuple[float, float]:
    """(AbsImp, NlzImp): absolute AUC gain over the plain-DNN baseline, and
    that gain normalized per auxiliary ad."""
    abs_imp = auc_variant - auc_dnn
    if avg_aux_count <= 0:
        raise MetricUndefinedError("NlzImp needs a positive average ad count",
                                   abs_imp=abs_imp)
    return abs_imp, abs_imp / avg_aux_count


def average_aux_count(examples: Sequence[LabeledExample], group: str) -> float:
    if group not in AUX_GROUPS:
        raise ValueError(f"unknown auxiliary group {group!r}")
    if not examples:
        return 0.0
    return float(np.mean([len(getattr(ex, group)) for ex in examples]))


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


def _kink_distance(trace: BatchTrace) -> float:
    """Distance from the nearest ReLU kink anywhere in the forward pass.

    Central differences are invalid if a pre-activation sits within the step
    of zero, so the checker re-seeds until the batch is clear of kinks.
    """
    dist = np.inf
    for pre in trace.pres:
        dist = min(dist, float(np.abs(pre).min()))
    for t in trace.aux.values():
        if t.pre is not None and t.pre.size:
            dist = min(dist, float(np.abs(t.pre).min()))
    return dist


def grad_check(variant, tolerance: float = 1e-4, seed: int = 0, n_examples: int = 10,
               k: int = 3, fc_dims: tuple[int, ...] = (8, 4), attention_dim: int = 4,
               fd_step: float = 1e-5) -> GradCheckReport:
    """Compare the analytic gradient of the training objective (batch-mean
    loss plus the embedding penalty at the default strength) against
    entrywise central finite differences on a shrunk random model; dropout is
    disabled for the check."""
    variant = Variant(variant)
    for attempt in range(64):
        trial_seed = seed + 1000 * attempt
        schemas, vocab, examples = make_toy_problem(seed=trial_seed, n_examples=n_examples)
        model = init_model(variant, schemas, vocab.size, make_rng(trial_seed + 1), k=k,
                           fc_dims=fc_dims, attention_dim=attention_dim, dropout_p=0.0)
        batch = encode_batch(model, examples)
        pctr, trace = forward_batch(model, batch, mode="train")
        if _kink_distance(trace) > 100 * fd_step:
            break
    labels = batch.labels
    grads = backward(model, trace)
    row_scales = embedding_row_scales(vocab, TrainConfig.embedding_l2)

    def batch_loss() -> float:
        p, _ = forward_batch(model, batch, mode="eval")
        return loss(p, labels) + embedding_penalty(model, grads.emb_rows, row_scales)[0]

    analytic: dict[str, np.ndarray] = dict(grads.dense)
    emb_dense = np.zeros_like(model.embedding.e)
    emb_dense[grads.emb_rows] = (grads.emb_grads
                                 + embedding_penalty(model, grads.emb_rows, row_scales)[1])
    analytic["emb.E"] = emb_dense

    report = GradCheckReport(variant=variant.value, tolerance=tolerance)
    for name, arr in model.tensors().items():
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + fd_step
            up = batch_loss()
            arr[ix] = orig - fd_step
            down = batch_loss()
            arr[ix] = orig
            fd[ix] = (up - down) / (2.0 * fd_step)
            it.iternext()
        a = analytic[name]
        # The floor keeps structurally-zero gradients (e.g. the softmax score
        # bias, which is shift-invariant) from dividing roundoff by roundoff.
        scale = max(np.abs(a).max(initial=0.0), np.abs(fd).max(initial=0.0), 1e-8)
        report.max_rel_err[name] = float(np.abs(a - fd).max() / scale)
    return report
