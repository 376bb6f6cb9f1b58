"""The layer boundaries the traced run wraps, and the per-layer metrics
computed from the recorded spans.

Layers are the package's modules. ``cli`` (argument parsing) and ``toy``
(test data) are not timed. Private helpers are wrapped only where a layer has
no public entry (aggregation: ``_pad_aux``, ``_aggregate``,
``_aggregate_backward``).

A "step" is one ``forward_batch`` call; training-only metrics (backward,
scatter, Adagrad) are per ``backward`` call. A metric whose layer does no
work in a workload reads 0.
"""

from __future__ import annotations

from common import E2E, benchmark_metrics, summarize
from tracer import SpanIndex, Tracer

# name -> unit, in report order, as BENCHMARK.json lists them.
PER_LAYER = benchmark_metrics("per_layer")

# Per-layer metrics measured outside the spans (store state, client-side
# waits, traced end-to-end values); the worker supplies them, and one a
# workload does not measure reads 0.
OUTSIDE_SPANS = ("session.users_retained", "session.users_live_frac",
                 "serving.queue_wait_ms.light", "serving.queue_wait_ms.heavy",
                 "loadgen.late_ms.tail") + tuple(f"traced.{name}" for name in E2E)

_ADAGRAD_STREAMS = 5  # float64 streams per element: read param, grad, accum; write accum, param


def install(tracer: Tracer) -> None:
    """Wrap every timed boundary of the package (imported modules only)."""
    from adctr import embedding, ingest, models, numerics, schema, serving, session, train_eval

    fn = tracer.patch_function
    fn(schema, "build_vocabulary", "schema.build_vocabulary")
    fn(schema, "encode_instance", "schema.encode_instance")
    fn(ingest, "parse_log_line", "ingest.parse_log_line")
    fn(ingest, "parse_ad", "ingest.parse_ad")
    fn(embedding, "embed_matrix", "embedding.embed_matrix")
    acc = embedding.RowGradAccumulator
    tracer.patch_method(acc, "__init__", "embedding.grad_buffer",
                        count_of=lambda a, r: a[1])
    tracer.patch_method(acc, "scatter_matrix", "embedding.scatter_matrix")
    tracer.patch_method(acc, "finalize", "embedding.finalize",
                        count_of=lambda a, r: len(r[0]))
    fn(models, "forward_batch", "models.forward_batch", count_of=lambda a, r: len(a[1]))
    fn(models, "backward", "models.backward")
    fn(models, "_pad_aux", "models._pad_aux")
    fn(models, "_aggregate", "models._aggregate")
    fn(models, "_aggregate_backward", "models._aggregate_backward")
    fn(numerics, "adagrad_step", "numerics.adagrad_step",
       count_of=lambda a, r: _ADAGRAD_STREAMS * 8 * a[1].size)
    fn(numerics, "adagrad_step_rows", "numerics.adagrad_step_rows",
       count_of=lambda a, r: _ADAGRAD_STREAMS * 8 * a[2].size)
    fn(numerics, "load_tensors", "numerics.load_tensors")
    fn(train_eval, "train", "train_eval.train")
    fn(train_eval, "evaluate", "train_eval.evaluate")
    fn(train_eval, "predict", "train_eval.predict")
    tracer.patch_method(session.SessionStore, "record_event", "session.record_event")
    tracer.patch_method(session.SessionStore, "get_history", "session.get_history")
    tracer.patch_method(serving.ModelScorer, "score", "serving.score",
                        count_of=lambda a, r: len(a[1]))
    fn(serving, "rank_request", "serving.rank_request")
    tracer.patch_method(serving.AdServer, "rank", "serving.AdServer.rank",
                        request_of=lambda a: a[1].request_id)
    tracer.patch_method(serving.AdServer, "record", "serving.AdServer.record")
    fn(serving, "replay_session", "serving.replay_session")
    fn(serving, "parse_events", "serving.parse_events")
    tracer.patch_method(serving.RankProtocolServer, "handle_line", "serving.handle_line",
                        request_of=lambda a: a[1])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def _train_steps_ms(ix: SpanIndex) -> list[float]:
    """Training-step durations: the gap between consecutive training
    forwards inside one ``train`` call, skipping gaps that hold validation."""
    out = []
    for run in ix.named("train_eval.train"):
        kids = [k for k in ix.children.get(run.id, [])
                if k.name in ("models.forward_batch", "train_eval.evaluate")]
        for a, b in zip(kids, kids[1:]):
            if a.name == b.name == "models.forward_batch":
                out.append((b.start - a.start) * 1e3)
    return out


def compute(ix: SpanIndex, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric; ``extra`` supplies those measured outside
    spans (store state, client-side waits, traced end-to-end values)."""
    fwd = ix.named("models.forward_batch")
    bwd = ix.named("models.backward")
    n_fwd, n_bwd = len(fwd), len(bwd)
    parse_ad = ix.named("ingest.parse_ad")
    encodes = ix.named("schema.encode_instance")
    encode_misses = sum(1 for s in encodes if ix.parent_name(s) == "ingest.parse_ad")
    # A RANK line is one request; in-process replay has no lines, only ranks.
    requests = len(ix.named("serving.handle_line")) or len(ix.named("serving.AdServer.rank"))
    buffers = ix.named("embedding.grad_buffer")
    steps = summarize(_train_steps_ms(ix))
    # Scoring the test split: predict calls made directly, not by validation.
    scoring = [s for s in ix.named("train_eval.predict") if s.parent is None]
    scoring_batches = sum(len(ix.children.get(s.id, [])) for s in scoring)
    rounds: list[list] = [[], []]
    for req in ix.named("serving.rank_request"):
        scores = [c for c in ix.children.get(req.id, []) if c.name == "serving.score"]
        for r, span in enumerate(scores[:2]):
            rounds[r].append(span)
    handle = summarize([s.duration * 1e3 for s in ix.named("serving.handle_line")])

    m = {
        "ingest.parse_us_per_line":
            _mean(s.duration for s in ix.named("ingest.parse_log_line")) * 1e6,
        "ingest.ad_cache_hit_ratio":
            1.0 - encode_misses / len(parse_ad) if parse_ad else 0.0,
        "schema.vocab_build_s": _mean(s.duration for s in ix.named("schema.build_vocabulary")),
        "schema.encode_us_per_ad": _mean(s.duration for s in encodes) * 1e6,
        "schema.encodes_per_request":
            _per(sum(1 for s in encodes if s.request is not None), requests),
        "embedding.gather_ms_per_step": _per(ix.total_self("embedding.embed_matrix"), n_fwd) * 1e3,
        "embedding.scatter_ms_per_step":
            _per(ix.total_self("embedding.scatter_matrix") + ix.total_self("embedding.finalize"),
                 n_bwd) * 1e3,
        "embedding.grad_buffer_ms_per_step":
            _per(ix.total_self("embedding.grad_buffer"), n_bwd) * 1e3,
        "embedding.touched_row_frac":
            _per(sum(s.count for s in ix.named("embedding.finalize")),
                 sum(s.count for s in buffers)),
        "models.pad_aux_ms_per_step": _per(ix.total_self("models._pad_aux"), n_fwd) * 1e3,
        "models.aggregate_fwd_ms_per_step": _per(ix.total_self("models._aggregate"), n_fwd) * 1e3,
        "models.aggregate_bwd_ms_per_step":
            _per(ix.total_self("models._aggregate_backward"), n_bwd) * 1e3,
        "models.fc_fwd_ms_per_step": _per(ix.total_self("models.forward_batch"), n_fwd) * 1e3,
        "models.fc_bwd_ms_per_step": _per(ix.total_self("models.backward"), n_bwd) * 1e3,
        "models.forward_rows_per_call": _per(sum(s.count for s in fwd), n_fwd),
        "numerics.adagrad_ms_per_step":
            _per(ix.total("numerics.adagrad_step") + ix.total("numerics.adagrad_step_rows"),
                 n_bwd) * 1e3,
        "numerics.adagrad_bytes_per_step":
            _per(sum(s.count for s in ix.named("numerics.adagrad_step"))
                 + sum(s.count for s in ix.named("numerics.adagrad_step_rows")), n_bwd),
        "numerics.ckpt_load_s": _mean(s.duration for s in ix.named("numerics.load_tensors")),
        "train_eval.step_ms.p50": steps["p50"] if steps["n"] else 0.0,
        "train_eval.step_ms.tail": steps["tail"] if steps["n"] else 0.0,
        "train_eval.validation_s":
            _per(sum(s.duration for s in ix.named("train_eval.evaluate")
                     if ix.parent_name(s) == "train_eval.train"),
                 len(ix.named("train_eval.train"))),
        "train_eval.predict_ms_per_batch":
            _per(sum(s.duration for s in scoring), scoring_batches) * 1e3,
        "session.record_us": _mean(s.duration for s in ix.named("session.record_event")) * 1e6,
        "session.get_history_us":
            _mean(s.duration for s in ix.named("session.get_history")) * 1e6,
        "serving.round1_ms": _mean(s.duration for s in rounds[0]) * 1e3,
        "serving.round2_ms": _mean(s.duration for s in rounds[1]) * 1e3,
        "serving.forwards_per_request.round1": _mean(s.count for s in rounds[0]),
        "serving.forwards_per_request.round2": _mean(s.count for s in rounds[1]),
        "serving.rank_self_ms":
            _mean(ix.self_time(s) for s in ix.named("serving.rank_request")) * 1e3,
        "serving.replay_self_s":
            _mean(ix.self_time(s) for s in ix.named("serving.replay_session")),
        "serving.parse_events_s": _mean(s.duration for s in ix.named("serving.parse_events")),
        "serving.handle_line_ms": handle["p50"] if handle["n"] else 0.0,
    }
    for name in OUTSIDE_SPANS:
        m[name] = extra.get(name, 0.0)
    unknown = [name for name in PER_LAYER if name not in m]
    if unknown:
        raise KeyError(f"BENCHMARK.json names per-layer metrics nobody computes: {unknown}")
    return {name: float(m[name]) for name in PER_LAYER}
