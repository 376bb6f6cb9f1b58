"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

The criteria that need a trained model share one full-scale synthetic run
(100k/10k/10k examples, default configs, pinned seed); everything else runs
on small randomized inputs against independent oracles.
"""

import time

import numpy as np
import pytest

import adctr.session as session_mod
from adctr.cli import main
from adctr.embedding import encode_examples
from adctr.ingest import SyntheticConfig, generate_synthetic, iter_group_records, parse_log_line
from adctr.models import Variant, forward_batch, init_model
from adctr.numerics import make_rng
from adctr.schema import AUX_GROUPS, build_vocabulary
from adctr.serving import RankRequest, ad_display_id, rank_request
from adctr.session import SessionStore
from adctr.toy import make_toy_problem
from adctr.train_eval import TrainConfig, auc, evaluate, grad_check, logloss_eval, train
from oracles import StubScorer, average_aux_count, improvement_metrics

SEED = 7  # pinned: data generation and every training run below


def report(criterion, detail):
    print(f"[criterion {criterion:2d}] PASS: {detail}")


@pytest.fixture(scope="module")
def big_run():
    """Criterion-4 workload: default dataset, default training, four variants.
    Each split is encoded once: with every auxiliary group for the DSTN
    variants, and target-only for the DNN, as ``models.encode_batch`` would."""
    t0 = time.time()
    dataset = generate_synthetic(SyntheticConfig(seed=SEED))
    vocab = build_vocabulary(iter_group_records(dataset.train), dataset.schemas)
    cache = {}
    splits = {"all": [], "target": []}
    for lines in (dataset.train, dataset.validation, dataset.test):
        examples = [parse_log_line(l, dataset.schemas, vocab, i + 1, cache)
                    for i, l in enumerate(lines)]
        splits["all"].append(encode_examples(examples, dataset.schemas))
        splits["target"].append(encode_examples(examples, dataset.schemas, groups=()))
    aucs = {}
    for variant in ("dnn", "dstn-p", "dstn-s", "dstn-i"):
        tr, va, te = splits["target" if variant == "dnn" else "all"]
        model, _ = train(TrainConfig(variant=variant, seed=SEED), tr, va,
                         dataset.schemas, vocab)
        aucs[variant] = evaluate(model, te).auc
    elapsed = time.time() - t0
    tr, va, te = splits["all"]
    return {"dataset": dataset, "vocab": vocab, "train": tr, "val": va, "test": te,
            "aucs": aucs, "elapsed": elapsed}


def test_01_paper_scale_results_substituted():
    # The published absolute AUC/Logloss numbers come from proprietary
    # datasets with tens of millions of rows and are not reproducible at desk
    # scale. This suite substitutes a seeded synthetic benchmark with known
    # click structure (criteria 4 and 5) plus exact oracles for every
    # operation (criteria 2, 3, 6-10).
    cfg = SyntheticConfig()
    assert cfg.n_train == 100_000 and cfg.n_val == 10_000 and cfg.n_test == 10_000
    report(1, "paper-scale reproduction replaced by the synthetic property suite")


def test_02_gradient_correctness_all_variants():
    t0 = time.time()
    worst = {}
    for variant in Variant:
        result = grad_check(variant.value, tolerance=1e-4, seed=SEED)
        assert result.passed, f"{variant.value}: {result.format_lines()}"
        worst[variant.value] = max(result.max_rel_err.values())
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    report(2, "max rel err per variant: "
              + ", ".join(f"{v}={e:.2e}" for v, e in worst.items())
              + f"; {elapsed:.1f}s")


def test_03_interactive_with_zero_head_reduces_to_pooling():
    schemas, vocab, examples = make_toy_problem(seed=SEED, n_examples=1000)
    model_p = init_model(Variant.DSTN_P, schemas, vocab.size, make_rng(SEED + 1),
                         k=4, fc_dims=(16, 8), attention_dim=4, dropout_p=0.0)
    model_i = init_model(Variant.DSTN_I, schemas, vocab.size, make_rng(SEED + 1),
                         k=4, fc_dims=(16, 8), attention_dim=4, dropout_p=0.0)
    for group in AUX_GROUPS:
        model_i.tensors[f"attn.{group}.h"][...] = 0.0
        model_i.tensors[f"attn.{group}.btc2"][...] = 0.0
    p_out, _ = forward_batch(model_p, examples)
    i_out, _ = forward_batch(model_i, examples)
    gap = float(np.abs(p_out - i_out).max())
    assert gap <= 1e-12
    report(3, f"max |DSTN-I(h=0) - DSTN-P| = {gap:.2e} over 1000 examples")


def test_04_variant_ordering_on_synthetic_benchmark(big_run):
    aucs, elapsed = big_run["aucs"], big_run["elapsed"]
    assert elapsed < 600.0, f"full run took {elapsed:.0f}s"
    assert aucs["dstn-i"] >= aucs["dstn-s"] >= aucs["dstn-p"] >= aucs["dnn"] + 0.01, aucs
    assert aucs["dstn-i"] - aucs["dnn"] >= 0.02, aucs
    report(4, "test AUC " + " >= ".join(f"{v}:{aucs[v]:.4f}"
                                        for v in ("dstn-i", "dstn-s", "dstn-p", "dnn"))
              + f"; {elapsed:.0f}s")


def test_05_single_group_ablations(big_run):
    dataset, vocab = big_run["dataset"], big_run["vocab"]
    tr, va, te = big_run["train"], big_run["val"], big_run["test"]
    auc_dnn = big_run["aucs"]["dnn"]
    # Train and evaluate every group before asserting, so a failure shows all three.
    results = {}
    for group in AUX_GROUPS:
        model, _ = train(TrainConfig(variant="dstn-i", seed=SEED, ablate=group),
                         tr, va, dataset.schemas, vocab)
        rep = evaluate(model, te.ablate(group))
        results[group] = (rep.auc,) + improvement_metrics(rep.auc, auc_dnn,
                                                          average_aux_count(te, group))
    details = f"dnn AUC={auc_dnn:.4f}; " + "; ".join(
        f"{group}: AUC={a:.4f} AbsImp={abs_imp:.4f} NlzImp={nlz_imp:.4f}"
        for group, (a, abs_imp, nlz_imp) in results.items())
    not_better = [group for group, (_, abs_imp, _) in results.items() if not abs_imp > 0]
    assert not not_better, f"AbsImp <= 0 for {not_better}: {details}"
    assert results["clicked"][2] > results["unclicked"][2], details
    report(5, details)


def test_06_auc_equals_bruteforce_pair_counting():
    rng = make_rng(SEED)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        # mix continuous scores with heavy ties
        if rng.random() < 0.5:
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
        else:
            scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        brute = float(((pos > neg).sum() + 0.5 * (pos == neg).sum())
                      / (pos.shape[0] * neg.shape[1]))
        worst = max(worst, abs(auc(scores, labels) - brute))
    assert worst <= 1e-12
    report(6, f"max |fast - brute force| = {worst:.2e} over 500 instances")


def test_07_logloss_spot_values():
    a = logloss_eval([0.5], [1])
    b = logloss_eval([0.9, 0.1], [1, 0])
    assert a == pytest.approx(0.693147, abs=1e-6)
    assert b == pytest.approx(0.105361, abs=1e-6)
    report(7, f"logloss(0.5|1)={a:.6f}, logloss([0.9|1, 0.1|0])={b:.6f}")


def test_08_session_store_matches_bruteforce():
    rng = make_rng(SEED)
    store = SessionStore()
    events = []

    class Ad:
        def __init__(self, key):
            self.key = key

        def identity(self):
            return self.key

    horizon = 3 * session_mod.WINDOW_SECONDS
    for seq in range(10_000):
        user = f"u{int(rng.integers(0, 100))}"
        ad = Ad(f"ad{seq}")
        clicked = bool(rng.random() < 0.3)
        ts = int(rng.integers(0, horizon))
        events.append((user, ad, clicked, ts))
        store.record_event(user, ad, clicked, ts)

    now = int(2.2 * session_mod.WINDOW_SECONDS)
    checked = 0
    for u in range(100):
        user = f"u{u}"
        clicked, unclicked = store.get_history(user, now)
        for got, want_clicked in ((clicked, True), (unclicked, False)):
            lists = []
            for seq, (uid, ad, clk, ts) in enumerate(events):
                if uid != user or clk != want_clicked:
                    continue
                lists.append((ts, seq, ad))
                lists.sort(key=lambda e: (e[0], e[1]))
                if len(lists) > session_mod.CAPACITY:
                    lists.pop(0)
            want = [ad.key for ts, _, ad in reversed(lists)
                    if ts > now - session_mod.WINDOW_SECONDS]
            assert [a.key for a in got] == want
            assert len(got) <= session_mod.CAPACITY
            checked += 1
    report(8, f"{checked} user/list histories equal brute-force filter/sort/truncate")


def test_09_serving_protocol_shape(tiny_dataset):
    _, _, train_examples, *_ = tiny_dataset
    rng = make_rng(SEED)
    targets = [ex.target for ex in train_examples]
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        picks = rng.choice(len(targets), size=n, replace=False)
        candidates = tuple(targets[int(i)] for i in picks)
        fixed = {ad_display_id(c): float(rng.random()) for c in candidates}
        scorer = StubScorer(lambda ad: fixed[ad_display_id(ad)])
        slots = int(rng.integers(1, 6))
        req = RankRequest("r", f"u{checked}", 10, candidates, slots=slots)
        n_dedup = len(req.candidates)
        res = rank_request(scorer, SessionStore(), req)
        assert scorer.forward_count == n_dedup + (n_dedup - 1)
        assert res.ranked[0].round == 1
        expected = sorted(req.candidates, key=lambda c: -fixed[ad_display_id(c)])
        expected = [ad_display_id(c) for c in expected[: min(slots, n_dedup)]]
        assert [ad_display_id(r.ad) for r in res.ranked] == expected
        checked += 1
    report(9, f"{checked} requests: forwards = n + (n-1), winner first, "
              "stub ranking equals single-round top-slots")


def test_10_train_eval_determinism(tmp_path):
    import json

    data = tmp_path / "data"
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n_users": 40, "n_ads": 80, "n_train": 2000,
                                   "n_val": 400, "n_test": 400, "seed": SEED}),
                       encoding="utf-8")
    assert main(["gen-data", "--config", str(gen_cfg), "--out", str(data)]) == 0

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 2, "fc_dims": [32, 16],
                                     "embedding_dim": 6, "attention_dim": 8,
                                     "seed": SEED}), encoding="utf-8")
    ckpts, reports = [], []
    for run in ("a", "b"):
        ckpt = tmp_path / f"model_{run}.ckpt"
        rep = tmp_path / f"report_{run}.kv"
        assert main(["train", "--variant", "dstn-i", "--config", str(train_cfg),
                     "--train", str(data / "train.tsv"), "--val", str(data / "val.tsv"),
                     "--out", str(ckpt)]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--test", str(data / "test.tsv"),
                     "--report", str(rep)]) == 0
        ckpts.append(ckpt.read_bytes())
        reports.append(rep.read_bytes())
    assert ckpts[0] == ckpts[1], "checkpoints differ between identical runs"
    assert reports[0] == reports[1], "eval reports differ between identical runs"
    report(10, f"byte-identical checkpoint ({len(ckpts[0])} bytes) and report")
