"""Tests of the benchmark itself: span wrappers, the serving oracle, and each
workload end to end at a tiny size."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import layers  # noqa: E402
import oracle  # noqa: E402
from tracer import Span, SpanIndex, Tracer  # noqa: E402


@pytest.fixture()
def toy_model():
    from adctr.models import Variant, init_model
    from adctr.numerics import make_rng
    from adctr.toy import make_toy_problem

    schemas, vocab, examples = make_toy_problem(seed=3, n_examples=9)
    model = init_model(Variant.DSTN_I, schemas, vocab.size, make_rng(4), k=3,
                       fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    return model, examples


def test_install_records_one_span_per_wrapped_call(toy_model):
    from adctr import models, serving, train_eval

    model, examples = toy_model
    originals = (models.forward_batch, serving.forward_batch, train_eval.predict)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert serving.forward_batch is models.forward_batch is not originals[0]
        train_eval.predict(model, examples, batch_size=4)  # 3 batches
        models.forward_batch(model, examples[:2])
    finally:
        tracer.uninstall()
    assert (models.forward_batch, serving.forward_batch, train_eval.predict) == originals

    ix = SpanIndex(tracer.spans)
    assert len(ix.named("train_eval.predict")) == 1
    fwd = ix.named("models.forward_batch")
    assert len(fwd) == 4
    assert [s.count for s in fwd] == [4, 4, 1, 2]
    # target plus three auxiliary groups per DSTN-I forward
    assert len(ix.named("embedding.embed_matrix")) == 4 * 4
    assert len(ix.named("models._aggregate")) == 3 * 4
    assert sum(ix.parent_name(s) == "train_eval.predict" for s in fwd) == 3


def test_self_time_subtracts_direct_children():
    spans = [Span(1, "outer", 0.0, 10.0, None, "r", 0),
             Span(2, "inner", 1.0, 4.0, 1, "r", 0),
             Span(3, "inner", 5.0, 6.0, 1, "r", 0),
             Span(4, "leaf", 1.5, 2.0, 2, "r", 0)]
    ix = SpanIndex(spans)
    assert ix.self_time(spans[0]) == pytest.approx(6.0)
    assert ix.self_time(spans[1]) == pytest.approx(2.5)
    assert ix.total_self("inner") == pytest.approx(3.5)


def _request(model, examples, n=6, slots=4):
    from adctr.serving import ModelScorer, RankRequest, rank_request
    from adctr.session import SessionStore

    ex = examples[0]
    store = SessionStore()
    for i, ad in enumerate(reversed(ex.clicked)):
        store.record_event(ex.user_id, ad, True, 100 + i)
    for i, ad in enumerate(reversed(ex.unclicked)):
        store.record_event(ex.user_id, ad, False, 100 + i)
    cands = tuple(e.target for e in examples[:n])
    got = rank_request(ModelScorer(model), store,
                       RankRequest("r", ex.user_id, 200, cands, slots=slots))
    position = {c.raw: j for j, c in enumerate(cands)}
    actual = [(position[r.ad.raw], r.pctr, r.round) for r in got.ranked]
    expected = oracle.expected_ranking(model, ex.user_id, 200, cands, slots,
                                       store.get_history(ex.user_id, 200))
    return expected, actual


def test_oracle_accepts_the_server_and_rejects_a_perturbed_score(toy_model):
    model, examples = toy_model
    expected, actual = _request(model, examples)
    assert len(actual) == 4
    assert oracle.compare(expected, actual, oracle.REPLAY_TOL) is None

    perturbed = list(actual)
    i, p, r = perturbed[2]
    perturbed[2] = (i, p + 1e-9, r)
    assert "pctr" in oracle.compare(expected, perturbed, oracle.REPLAY_TOL)
    assert oracle.compare(expected, actual[:3], oracle.REPLAY_TOL).startswith("count")
    swapped = [actual[0], actual[2], actual[1], actual[3]]
    if abs(actual[1][1] - actual[2][1]) > oracle.REPLAY_TOL:
        assert oracle.compare(expected, swapped, oracle.REPLAY_TOL) is not None


def test_history_model_retires_the_clicked_impression():
    hist = oracle.HistoryModel()
    for ts, ad in enumerate("abcdefg"):
        hist.record("u", ad, ad, False, ts)
    hist.record("u", "g", "g", True, 10)
    clicked, unclicked = hist.at("u", 10)
    assert clicked == ("g",)
    assert unclicked == ("f", "e", "d", "c")  # cap of 5 kept c..g, the click retired g
    assert hist.at("u", 10 + oracle.WINDOW_SECONDS) == ((), ())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["train-dstn-i", "serve-replay", "serve-rank"])
def test_workload_runs_end_to_end_at_tiny_size(workload):
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(workload, trace)
        assert out.returncode == 0, out.stderr
        line = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, out.stdout
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in bench[key]]
        for m in bench[key]:
            value = line["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert np.isfinite(value["value"])
            if trace == 0:
                assert value["value"] > 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    out = _run("serve-replay", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
