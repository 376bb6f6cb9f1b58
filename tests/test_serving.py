import collections
import os
import re
import socket
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr import models, serving
from adctr.embedding import AdColumns, embed_matrix
from adctr.ingest import LabeledExample, ParseError, parse_ad
from adctr.models import Variant, forward_batch, init_model
from adctr.numerics import make_rng
from adctr.serving import (AdServer, ModelScorer, RankProtocolServer, RankRequest,
                           ad_display_id, parse_events, rank_request, replay_session,
                           write_results)
from adctr.schema import FieldKind, FieldSchema, GroupSchema, SchemaError
from adctr.session import SessionStore
from oracles import (StubRows, StubScorer, astype, oov, reference_handle_line,
                     request_candidate, score_alone)


def zeroed_model(schemas, vocab, variant="dstn-i"):
    model = init_model(Variant(variant), schemas, vocab.size, make_rng(0), k=4,
                       fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    for arr in model.tensors.values():
        arr[...] = 0.0
    return model


def stub_by_ad_id(scores):
    return StubScorer(lambda ad: scores[ad_display_id(ad)])


@pytest.fixture()
def env(tiny_dataset):
    ds, vocab, train, *_ = tiny_dataset
    return ds, vocab, train


def count_scored_rows(monkeypatch) -> list[int]:
    """The rows of each ``ModelScorer.score`` call made from now on."""
    calls: list[int] = []
    score = ModelScorer.score

    def counting(self, rows, contextual):
        calls.append(len(rows))
        return score(self, rows, contextual)

    monkeypatch.setattr(ModelScorer, "score", counting)
    return calls


def rank_over_socket(host: str, port: int, user_id: str, now: int, slots: int,
                     ad_ids) -> str:
    """One-shot client for the RANK protocol."""
    with socket.create_connection((host, port)) as conn:
        conn.sendall(f"RANK {user_id} {now} {slots} {','.join(ad_ids)}\n".encode("utf-8"))
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = conn.recv(4096)
            if not chunk:
                break
            buf += chunk
    return buf.decode("utf-8").rstrip("\n")


class TestScoreBatch:
    def test_zero_params_score_half(self, env):
        ds, vocab, train = env
        scorer = ModelScorer(zeroed_model(ds.schemas, vocab))
        ex = train[0]
        rows = scorer.prepare([train[i].target for i in range(4)], ex.clicked, ex.unclicked)
        scores = scorer.score(rows, rows.take([0]))
        assert scores == [0.5] * 4

    def test_order_independence(self, env):
        ds, vocab, train = env
        model = init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(3), k=4,
                           fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
        scorer = ModelScorer(model)
        ex = train[0]
        candidates = [train[i].target for i in range(5)]
        forward_order = scorer.score(scorer.prepare(candidates, ex.clicked, ex.unclicked), None)
        reversed_order = scorer.score(
            scorer.prepare(candidates[::-1], ex.clicked, ex.unclicked), None)
        np.testing.assert_allclose(forward_order, reversed_order[::-1], rtol=1e-12)


class TestRankRequest:
    def test_single_candidate_scored_in_round_one_only(self, env, monkeypatch):
        ds, vocab, train = env
        scorer = ModelScorer(zeroed_model(ds.schemas, vocab))
        scored = count_scored_rows(monkeypatch)
        req = RankRequest("r1", "u", 100, (train[0].target,), slots=4)
        res = rank_request(scorer, SessionStore(), req)
        assert len(res.ranked) == 1
        assert res.ranked[0].round == 1
        assert sum(scored) == 1

    def test_five_candidates_four_slots(self, env):
        ds, vocab, train = env
        candidates = tuple(train[i].target for i in range(5))
        scores = {ad_display_id(c): 0.1 * (i + 1) for i, c in enumerate(candidates)}
        scorer = stub_by_ad_id(scores)
        res = rank_request(scorer, SessionStore(),
                           RankRequest("r", "u", 50, candidates, slots=4))
        assert len(res.ranked) == 4
        assert res.ranked[0].round == 1
        assert all(r.round == 2 for r in res.ranked[1:])
        assert scorer.forward_count == 5 + 4

    def test_stub_ranking_equals_single_round_top_slots(self, env):
        ds, vocab, train = env
        rng = make_rng(5)
        candidates = tuple(train[i].target for i in range(6))
        scores = {ad_display_id(c): float(rng.random()) for c in candidates}
        res = rank_request(stub_by_ad_id(scores), SessionStore(),
                           RankRequest("r", "u", 50, candidates, slots=4))
        expected = sorted(candidates, key=lambda c: -scores[ad_display_id(c)])[:4]
        assert [ad_display_id(r.ad) for r in res.ranked] == [ad_display_id(c) for c in expected]

    def test_ties_broken_by_candidate_ordinal(self, env):
        ds, vocab, train = env
        candidates = tuple(train[i].target for i in range(3))
        res = rank_request(StubScorer(lambda ad: 0.7), SessionStore(),
                           RankRequest("r", "u", 1, candidates, slots=3))
        assert [ad_display_id(r.ad) for r in res.ranked] == [ad_display_id(c) for c in candidates]

    def test_round_two_sees_winner_as_context(self, env):
        # The winner's identity must raise every round-2 score it contexts.
        ds, vocab, train = env

        class ContextAware(StubScorer):
            def score(self, rows, contextual):
                self.forward_count += len(rows)
                bump = 0.2 if contextual else 0.0
                return [0.5 + bump - 0.01 * i for i in range(len(rows))]

        scorer = ContextAware(None)
        candidates = tuple(train[i].target for i in range(3))
        res = rank_request(scorer, SessionStore(), RankRequest("r", "u", 1, candidates, slots=3))
        assert res.ranked[0].pctr == pytest.approx(0.5)       # round 1, no context
        assert res.ranked[1].pctr == pytest.approx(0.7)       # round 2, context bump
        assert scorer.forward_count == 3 + 2

    def test_request_validation(self, env):
        ds, vocab, train = env
        with pytest.raises(ValueError):
            RankRequest("r", "u", 1, (), slots=4)
        with pytest.raises(ValueError):
            RankRequest("r", "u", 1, (train[0].target,), slots=0)

    def test_duplicate_candidates_deduplicated(self, env):
        ds, vocab, train = env
        req = RankRequest("r", "u", 1, (train[0].target, train[0].target, train[1].target))
        assert len(req.candidates) == 2


def expected_ranking(model, candidates, clicked, unclicked, slots):
    """(candidate index, pCTR, round) rows, every candidate scored alone."""
    round1 = [score_alone(model, c, (), clicked, unclicked) for c in candidates]
    win = max(range(len(candidates)), key=lambda i: (round1[i], -i))
    rest = [i for i in range(len(candidates)) if i != win]
    round2 = {i: score_alone(model, candidates[i], (candidates[win],), clicked, unclicked)
              for i in rest}
    order = sorted(rest, key=lambda i: -round2[i])  # stable: ties keep candidate order
    return [(win, round1[win], 1)] + [(i, round2[i], 2) for i in order[: slots - 1]]


class TestModelScorer:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_two_rounds_match_scoring_each_candidate_alone(self, env, monkeypatch, variant):
        ds, vocab, train = env
        scored = count_scored_rows(monkeypatch)
        model = init_model(variant, ds.schemas, vocab.size, make_rng(40), k=4,
                           fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
        model.tensors["emb.E"] *= 100.0
        rng = make_rng(41)
        for trial in range(12):
            n = 1 if trial == 0 else int(rng.integers(2, 9))
            picks = rng.choice(len(train), size=n + 1, replace=False)
            candidates = tuple(train[int(i)].target for i in picks[:n])
            history = train[int(picks[n])]
            clicked, unclicked = [(history.clicked, history.unclicked), ((), ()),
                                  (history.clicked, ()), ((), history.unclicked)][trial % 4]
            store = SessionStore()
            for ts, ad in enumerate(reversed(clicked)):
                store.record_event("u", ad, True, 100 + ts)
            for ts, ad in enumerate(reversed(unclicked)):
                store.record_event("u", ad, False, 100 + ts)
            slots = n + int(rng.integers(0, 2)) if trial % 3 == 0 else int(rng.integers(1, 5))
            req = RankRequest("r", "u", 200, candidates, slots=slots)
            scorer = ModelScorer(model)
            scored.clear()
            got = rank_request(scorer, store, req)
            stored = store.get_history("u", 200)
            assert stored == (tuple(clicked), tuple(unclicked))
            position = {c.raw: j for j, c in enumerate(req.candidates)}
            actual = [(position[r.ad.raw], r.pctr, r.round) for r in got.ranked]
            expected = expected_ranking(model, req.candidates, *stored, slots)
            assert [(i, r) for i, _, r in actual] == [(i, r) for i, _, r in expected]
            assert np.abs(np.array([p for _, p, _ in actual])
                          - [p for _, p, _ in expected]).max() <= 1e-12
            assert sum(scored) == 2 * len(req.candidates) - 1

    def test_each_result_reports_the_rows_of_each_round(self, env, monkeypatch):
        ds, vocab, train = env
        scorer = ModelScorer(init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(43),
                                        k=4, fc_dims=(8, 4), attention_dim=4, dropout_p=0.0))
        scored = count_scored_rows(monkeypatch)
        for n in range(1, 9):
            scored.clear()
            req = RankRequest("r", "u", 10, tuple(ex.target for ex in train[:n]), slots=2)
            res = rank_request(scorer, SessionStore(), req)
            assert [rows for _, rows in res.rounds] == scored == ([n, n - 1] if n > 1 else [1])
            assert all(seconds > 0.0 for seconds, _ in res.rounds)

    def test_round_one_is_timed_from_prepare_and_round_two_is_its_score_alone(self, env):
        ds, vocab, train = env

        class SlowPrepare(StubScorer):
            def prepare(self, candidates, clicked, unclicked):
                time.sleep(0.05)
                return StubRows(candidates)

        candidates = tuple(ex.target for ex in train[:3])
        res = rank_request(SlowPrepare(lambda ad: 0.5), SessionStore(),
                           RankRequest("r", "u", 1, candidates, slots=3))
        (first, _), (second, _) = res.rounds
        assert first >= 0.05 > second

    @pytest.mark.parametrize("variant", [Variant.DSTN_P, Variant.DSTN_S, Variant.DSTN_I])
    def test_round_two_reads_the_winner_by_field_name(self, env, variant):
        # Round 2's contextual ad is the winner's text parsed under the
        # contextual schema, as a logged contextual ad would be.
        ds, vocab, train = env
        model = init_model(variant, ds.schemas, vocab.size, make_rng(44), k=4,
                           fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
        model.tensors["emb.E"] *= 100.0
        history = next(ex for ex in train if ex.clicked and ex.unclicked)
        store = SessionStore()
        for clicked, ads in ((True, history.clicked), (False, history.unclicked)):
            for ts, ad in enumerate(reversed(ads)):
                store.record_event("u", ad, clicked, 100 + ts)
        candidates = tuple(ex.target for ex in train[:5])
        got = rank_request(ModelScorer(model), store,
                           RankRequest("r", "u", 200, candidates, slots=5))
        text = ";".join(f"{n}={','.join(v)}" for n, v in got.ranked[0].ad.raw
                        if n not in ("user_id", "age"))
        winner = parse_ad(text, ds.schemas["contextual"], vocab)
        clicked, unclicked = store.get_history("u", 200)
        examples = [LabeledExample(label=0, timestamp=200, user_id="u", target=r.ad,
                                   contextual=(winner,), clicked=clicked, unclicked=unclicked)
                    for r in got.ranked[1:]]
        expected, _ = forward_batch(model, examples)
        assert len(expected) == 4
        assert np.abs(np.array([r.pctr for r in got.ranked[1:]]) - expected).max() <= 1e-12

    def test_serving_builds_no_examples_and_calls_no_batch_forward(self, env, monkeypatch):
        ds, vocab, train = env

        def refuse(*args, **kwargs):
            raise AssertionError("forward_batch called while serving")

        monkeypatch.setattr(models, "forward_batch", refuse)
        monkeypatch.setattr(serving, "forward_batch", refuse)
        assert not hasattr(serving, "LabeledExample")
        model = init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(42), k=4,
                           fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
        ex = train[0]
        store = SessionStore()
        store.record_event("u", ex.clicked[0] if ex.clicked else train[1].target, True, 1)
        res = rank_request(ModelScorer(model), store,
                           RankRequest("r", "u", 5, tuple(t.target for t in train[:4])))
        assert len(res.ranked) == 4


class TestAdServer:
    def test_concurrent_records_and_ranks_for_one_user(self, env):
        import sys
        import threading

        ds, vocab, train = env

        class Ad:
            def __init__(self, ts):
                self.ts = ts

            def identity(self):
                return self.ts

        class SortedHistory(StubScorer):
            """Checks every history a request reads: newest first, capped."""

            def prepare(self, candidates, clicked, unclicked):
                stamps = [ad.ts for ad in unclicked]
                assert clicked == () and len(stamps) <= 5
                assert stamps == sorted(stamps, reverse=True)
                return StubRows(candidates)

        server = AdServer(SortedHistory(lambda ad: 0.5), SessionStore())
        candidates = tuple(train[i].target for i in range(3))
        n_threads, per_thread = 4, 100
        errors = []

        def worker(t):
            try:
                for i in range(per_thread):
                    ts = 1000 + n_threads * i + t  # distinct across threads
                    server.record("u", Ad(ts), False, ts)
                    res = server.rank(RankRequest("r", "u", ts, candidates, slots=3))
                    assert len(res.ranked) == 3
            except Exception as exc:  # surface failures from worker threads
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to interleave the store's steps
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        last = 1000 + n_threads * per_thread - 1
        clicked, unclicked = server.store.get_history("u", now=last)
        assert clicked == ()
        assert [a.ts for a in unclicked] == list(range(last, last - 5, -1))


class TestProtocolShape:
    def test_forward_count_is_2n_minus_1(self, env):
        ds, vocab, train = env
        rng = make_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            candidates = tuple(train[int(i)].target
                               for i in rng.choice(len(train), size=n, replace=False))
            scorer = StubScorer(lambda ad: float(rng.random()))
            req = RankRequest("r", "u", 10, candidates, slots=int(rng.integers(1, 5)))
            res = rank_request(scorer, SessionStore(), req)
            assert scorer.forward_count == 2 * len(req.candidates) - 1
            assert res.ranked[0].round == 1

    def test_scaling_scores_preserves_choice(self, env):
        ds, vocab, train = env
        candidates = tuple(train[i].target for i in range(5))
        base = {ad_display_id(c): 0.05 + 0.11 * i for i, c in enumerate(candidates)}
        res1 = rank_request(stub_by_ad_id(base), SessionStore(),
                            RankRequest("r", "u", 1, candidates, slots=3))
        scaled = {k: 3.7 * v for k, v in base.items()}
        res2 = rank_request(stub_by_ad_id(scaled), SessionStore(),
                            RankRequest("r", "u", 1, candidates, slots=3))
        assert [ad_display_id(r.ad) for r in res1.ranked] == \
               [ad_display_id(r.ad) for r in res2.ranked]


def _ad_fields(ex):
    """Aux-group serialization of an example's target ad."""
    return ";".join(f"{n}={','.join(v)}" for n, v in ex.target.raw
                    if n not in ("user_id", "age"))


def _cand_fields(ex):
    """REQ candidate serialization: target fields minus the injected user_id."""
    return ";".join(f"{n}={','.join(v)}" for n, v in ex.target.raw if n != "user_id")


class TestReplay:
    def _events_file(self, tmp_path, ds, train, lines):
        path = tmp_path / "events.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_request_sees_prior_events(self, tmp_path, env):
        ds, vocab, train = env
        ad = _ad_fields(train[0])
        lines = [f"IMP\t100\tu1\t{ad}",
                 f"CLICK\t150\tu1\t{ad}",
                 f"REQ\t200\tu1\tr1\t2\t{_cand_fields(train[1])}|{_cand_fields(train[2])}"]
        events = parse_events(self._events_file(tmp_path, ds, train, lines), ds.schemas, vocab)
        store = SessionStore()
        scorer = ModelScorer(zeroed_model(ds.schemas, vocab))
        results = replay_session(scorer, store, events)
        assert len(results) == 1
        clicked, unclicked = store.get_history("u1", now=200)
        assert len(clicked) == 1 and len(unclicked) == 0  # click retired the impression

    def test_visibility_lag_hides_fresh_events(self, tmp_path, env):
        ds, vocab, train = env
        ad = _ad_fields(train[0])
        lines = [f"IMP\t100\tu1\t{ad}",
                 f"REQ\t105\tu1\tr1\t2\t{_cand_fields(train[1])}"]
        events = parse_events(self._events_file(tmp_path, ds, train, lines), ds.schemas, vocab)

        seen = []

        class Spy(StubScorer):
            def prepare(self, candidates, clicked, unclicked):
                seen.append((len(clicked), len(unclicked)))
                return StubRows(candidates)

        replay_session(Spy(lambda ad: 0.5), SessionStore(), events, lag_seconds=10)
        assert seen == [(0, 0)]  # event at ts=100 invisible at ts=105 under lag 10

        seen.clear()
        replay_session(Spy(lambda ad: 0.5), SessionStore(), events, lag_seconds=5)
        assert seen == [(0, 1)]  # visible once the lag has elapsed

    def test_lag_orders_events_by_time_across_users(self, tmp_path, env):
        # B's impression at 50 is due at 60 under lag 10, although A's later
        # impression (due at 110) comes first in the file.
        ds, vocab, train = env
        ad = _ad_fields(train[0])
        lines = [f"IMP\t100\tuA\t{ad}",
                 f"IMP\t50\tuB\t{ad}",
                 f"REQ\t60\tuB\tr1\t2\t{_cand_fields(train[1])}"]
        events = parse_events(self._events_file(tmp_path, ds, train, lines), ds.schemas, vocab)
        seen = []

        class Spy(StubScorer):
            def prepare(self, candidates, clicked, unclicked):
                seen.append((len(clicked), len(unclicked)))
                return StubRows(candidates)

        store = SessionStore()
        replay_session(Spy(lambda ad: 0.5), store, events, lag_seconds=10)
        assert seen == [(0, 1)]
        assert len(store.get_history("uA", now=200)[1]) == 1  # recorded after the last request

    @pytest.mark.parametrize("line, what", [
        ("IMP\tsoon\tu1\t{ad}", "timestamp"),
        ("IMP\t-5\tu1\t{ad}", "timestamp"),
        ("CLICK\t+95\tu1\t{ad}", "timestamp"),
        ("REQ\t1.5\tu1\tr1\t2\t{cand}", "timestamp"),
        ("REQ\t-5\tu1\tr1\t2\t{cand}", "timestamp"),
        ("REQ\t100\tu1\tr1\t-2\t{cand}", "slots"),
        ("REQ\t100\tu1\tr1\tfour\t{cand}", "slots"),
        ("REQ\t100\tu1\tr1\t0\t{cand}", "slots"),
    ])
    def test_bad_numbers_are_parse_errors_with_line_numbers(self, tmp_path, env, line, what):
        ds, vocab, train = env
        lines = [f"IMP\t90\tu1\t{_ad_fields(train[0])}",
                 line.format(ad=_ad_fields(train[0]), cand=_cand_fields(train[1]))]
        path = self._events_file(tmp_path, ds, train, lines)
        with pytest.raises(ParseError, match=f"line 2: bad {what}") as info:
            parse_events(path, ds.schemas, vocab)
        assert info.value.line_number == 2

    @pytest.mark.parametrize("line, message", [
        ("IMP\t100\tu1\tsrc=organic;title=t;x0=v", "missing required univalent field 'ad_id'"),
        ("CLICK\t100\tu1\tad_id=a;src=organic;title=t", "missing required univalent field 'x0'"),
        ("REQ\t100\tu1\tr1\t2\t{cand}|age=old;ad_id=a;src=s;title=t;x0=v",
         "numerical field 'age': bad value 'old'"),
        ("REQ\t100\tu1\tr1\t2\tad_id=a;src=s;title=t;x0=v", "missing required numerical"),
    ])
    def test_encode_errors_are_parse_errors_with_line_numbers(self, tmp_path, env, line,
                                                              message):
        ds, vocab, train = env
        lines = [f"IMP\t90\tu1\t{_ad_fields(train[0])}", line.format(cand=_cand_fields(train[1]))]
        path = self._events_file(tmp_path, ds, train, lines)
        with pytest.raises(ParseError, match=f"line 2: {message}") as info:
            parse_events(path, ds.schemas, vocab)
        assert info.value.line_number == 2

    def test_a_byte_that_is_not_utf8_is_a_parse_error_naming_the_line(self, tmp_path, env):
        ds, vocab, train = env
        ad = _ad_fields(train[0])
        path = tmp_path / "events.tsv"
        fancy = ad.replace("title=", "title=caf\u00e9 ", 1)
        path.write_bytes(f"IMP\t90\tu1\t{ad}\nIMP\t91\tu1\t{fancy}\n".encode())
        events = parse_events(path, ds.schemas, vocab)
        assert events[1].ad.raw_dict()["title"][0].startswith("caf\u00e9 ")  # UTF-8 reads
        path.write_bytes(f"IMP\t90\tu1\t{ad}\n".encode() + b"IMP\t91\tu1\t\xff"
                         + ad.encode() + b"\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: character 11 is "
                                             "not UTF-8 text$") as info:
            parse_events(path, ds.schemas, vocab)
        assert info.value.line_number == 2

    def test_unknown_candidate_field_is_a_parse_error_naming_the_line(self, tmp_path, env):
        ds, vocab, train = env
        lines = [f"IMP\t90\tu1\t{_ad_fields(train[0])}",
                 f"REQ\t100\tu1\tr1\t2\t{_cand_fields(train[1])}|{_cand_fields(train[2])};tilte=zz"]
        path = self._events_file(tmp_path, ds, train, lines)
        with pytest.raises(ParseError, match=r"line 2: unknown field\(s\) \['tilte'\]") as info:
            parse_events(path, ds.schemas, vocab)
        assert info.value.line_number == 2

    def test_a_candidate_that_names_a_user_id_is_a_parse_error_naming_the_line(self, tmp_path,
                                                                              env):
        # The request's user is the candidates' user; a candidate cannot name another.
        ds, vocab, train = env
        cand = _cand_fields(train[1])
        lines = [f"REQ\t100\tu1\tr1\t2\t{cand}",
                 f"REQ\t110\tu1\tr2\t2\t{cand}|user_id=u999;{cand}"]
        path = self._events_file(tmp_path, ds, train, lines)
        with pytest.raises(ParseError, match="line 2: a REQ candidate has a user_id: the "
                                             "request fills it in") as info:
            parse_events(path, ds.schemas, vocab)
        assert info.value.line_number == 2

    def test_non_monotone_user_timestamps_rejected(self, tmp_path, env):
        ds, vocab, train = env
        ad = _ad_fields(train[0])
        lines = [f"IMP\t200\tu1\t{ad}", f"IMP\t100\tu1\t{ad}"]
        events = parse_events(self._events_file(tmp_path, ds, train, lines), ds.schemas, vocab)
        with pytest.raises(ValueError):
            replay_session(StubScorer(lambda ad: 0.5), SessionStore(), events)

    def test_empty_log(self):
        store = SessionStore()
        assert replay_session(StubScorer(lambda ad: 0.5), store, []) == []
        assert store.user_ids() == []

    def test_results_tsv_format(self, tmp_path, env):
        ds, vocab, train = env
        lines = [f"REQ\t100\tu1\tr9\t2\t{_cand_fields(train[1])}|{_cand_fields(train[2])}"]
        events = parse_events(self._events_file(tmp_path, ds, train, lines), ds.schemas, vocab)
        results = replay_session(StubScorer(lambda ad: 0.25), SessionStore(), events)
        out = tmp_path / "results.tsv"
        write_results(out, results)
        rows = [l.split("\t") for l in out.read_text().splitlines()]
        assert [r[0] for r in rows] == ["r9", "r9"]
        assert [r[1] for r in rows] == ["0", "1"]
        assert rows[0][3] == "1" and rows[1][3] == "2"
        assert rows[0][4] == "0.250000"


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
_NUMBER = st.sampled_from(["100", "0", "-5", "2", "1.5", "soon", ""]) | _TEXT
_FIELD = st.builds("{}={}".format,
                   st.sampled_from(["ad_id", "src", "title", "x0", "user_id", "age", "bogus"]),
                   st.sampled_from(["a1", "30", "old", "", "1e400", "nan", "x,y"]) | _TEXT)
_AD = st.lists(_FIELD | _TEXT, max_size=6).map(";".join)
_LINE = st.one_of(
    st.tuples(st.sampled_from(["IMP", "CLICK"]), _NUMBER, _TEXT, _AD),
    st.tuples(st.just("REQ"), _NUMBER, _TEXT, _TEXT, _NUMBER,
              st.lists(_AD, min_size=1, max_size=3).map("|".join)),
    st.lists(st.sampled_from(["IMP", "CLICK", "REQ"]) | _NUMBER | _AD, max_size=7),
).map("\t".join)
_EVENT_LOG = st.lists(_LINE, max_size=6).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=_EVENT_LOG)
def test_any_event_log_parses_or_names_its_line(tiny_dataset, tmp_path_factory, text):
    ds, vocab, *_ = tiny_dataset
    path = tmp_path_factory.getbasetemp() / "fuzz_events.tsv"
    path.write_text(text, encoding="utf-8")
    n_lines = len(path.read_text(encoding="utf-8").split("\n"))
    try:
        parse_events(path, ds.schemas, vocab)
    except (ParseError, SchemaError) as exc:
        named = re.search(r"line (\d+)", str(exc))
        assert named is not None, exc
        assert 1 <= int(named.group(1)) <= n_lines, exc


BROKEN_ADS = ("a0061", "a0062")  # catalog ads that do not encode: a bad age, no src


def rank_catalog(train) -> dict:
    """Every target ad of the examples, without its user_id, plus BROKEN_ADS."""
    catalog = {ad_display_id(ex.target): {n: v for n, v in ex.target.raw if n != "user_id"}
               for ex in train}
    assert not set(BROKEN_ADS) & catalog.keys()
    good = catalog[min(catalog)]
    catalog["a0061"] = {**good, "ad_id": ("a0061",), "age": ("old",)}
    catalog["a0062"] = {n: v for n, v in {**good, "ad_id": ("a0062",)}.items() if n != "src"}
    return catalog


def kept_targets(server) -> dict:
    """The catalog rows the server's scorer keeps, by ad_id."""
    return server.ad_server.scorer.targets.index


def history_store(train) -> SessionStore:
    """u1 with clicked and unclicked history, u2 with unclicked only."""
    ex = next(ex for ex in train if ex.clicked and ex.unclicked)
    store = SessionStore()
    for ts, ad in enumerate(ex.clicked, start=1):
        store.record_event("u1", ad, True, ts)
    for ts, ad in enumerate(ex.unclicked, start=1):
        store.record_event("u1", ad, False, ts)
        store.record_event("u2", ad, False, ts)
    return store


@pytest.fixture(scope="module")
def rank_protocol(tiny_dataset):
    """A RANK server (not listening) over ``rank_catalog`` with a DSTN-I
    model whose scores differ from ad to ad, and the ids of the ads that
    encode."""
    ds, vocab, train, *_ = tiny_dataset
    model = init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(45), k=4,
                       fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    model.tensors["emb.E"] *= 100.0
    catalog = rank_catalog(train)
    server = RankProtocolServer(AdServer(ModelScorer(model), history_store(train)), catalog,
                                ds.schemas["target"], vocab)
    return server, sorted(ad for ad in catalog if ad not in BROKEN_ADS)


_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                     max_size=8)
_AD_ID = st.integers(0, 70).map("a{:04d}".format) | _LINE_TEXT
_RANK_LINE = st.one_of(
    _LINE_TEXT,
    st.builds("RANK {} {} {} {}".format, _LINE_TEXT, _NUMBER.filter(lambda t: "\n" not in t),
              _NUMBER.filter(lambda t: "\n" not in t),
              st.lists(_AD_ID, min_size=1, max_size=4).map(",".join)),
    st.lists(st.sampled_from(["RANK", "u1", "5", "2", "a0001,a0002", ""]) | _LINE_TEXT,
             max_size=6).map(" ".join),
)


# Mostly well-formed: known, unknown, broken and repeated ids, users with
# and without history and an empty one, slots from 1 to past the candidates.
_VALID_RANK_LINE = st.builds(
    "RANK {} {} {} {}".format, st.sampled_from(["u1", "u2", "u3", ""]),
    st.sampled_from(["5", "40", "86400"]), st.integers(1, 10).map(str),
    st.lists(st.integers(0, 63).map("a{:04d}".format), min_size=1, max_size=10).map(",".join))


@settings(max_examples=300, deadline=None)
@given(line=_RANK_LINE)
def test_any_rank_line_gets_one_reply_and_the_server_keeps_serving(rank_protocol, line):
    server, ad_ids = rank_protocol
    reply = server.handle_line(line)
    assert "\n" not in reply and reply.startswith(("OK ", "ERR ")), reply
    assert server.handle_line(f"RANK u 5 2 {ad_ids[0]},{ad_ids[1]}").startswith("OK ")


@settings(max_examples=400, deadline=None)
@given(line=_RANK_LINE | _VALID_RANK_LINE)
def test_rank_reply_equals_encoding_each_candidate_on_its_own(rank_protocol, line):
    server, _ = rank_protocol
    assert server.handle_line(line) == reference_handle_line(server, line)


def test_rank_replies_from_cached_rows_equal_the_reference_and_vary(rank_protocol):
    server, ad_ids = rank_protocol
    rng = make_rng(47)
    replies = set()
    for i in range(60):
        picks = [ad_ids[int(j)] for j in rng.choice(len(ad_ids), size=8, replace=False)]
        line = f"RANK u{i % 3 + 1} 40 {i % 9 + 1} {','.join(picks)}"
        reply = server.handle_line(line)
        assert reply.startswith("OK ") and reply == reference_handle_line(server, line)
        replies.add(reply[3:].split(" ")[0].split(":")[1])
    assert len(replies) > 30  # the winners' pCTRs differ: the check is not made on ties


@pytest.mark.parametrize("now, slots, reply", [
    ("-5", "2", "ERR bad now '-5'"),
    ("1_000", "2", "ERR bad now '1_000'"),
    ("\u0665", "2", "ERR bad now '\u0665'"),
    ("+5", "2", "ERR bad now '+5'"),
    ("5", "-2", "ERR bad slots '-2'"),
    ("5", "1_0", "ERR bad slots '1_0'"),
    ("5", "\u0662", "ERR bad slots '\u0662'"),
    ("5", "0", "ERR slots must be >= 1"),
])
def test_now_and_slots_are_ascii_digits(rank_protocol, now, slots, reply):
    server, ad_ids = rank_protocol
    assert server.handle_line(f"RANK u1 {now} {slots} {ad_ids[0]}") == reply
    # the candidates are still checked first
    assert server.handle_line(f"RANK u1 {now} {slots} nosuch") == "ERR unknown ad nosuch"


def test_each_catalog_ad_is_encoded_once(env, monkeypatch):
    ds, vocab, train = env
    encoded = collections.Counter()
    original = serving.encode_instance

    def counting(record, *args, **kwargs):
        encoded[record["ad_id"][0]] += 1
        return original(record, *args, **kwargs)

    monkeypatch.setattr(serving, "encode_instance", counting)
    catalog = rank_catalog(train)
    server = RankProtocolServer(AdServer(ModelScorer(zeroed_model(ds.schemas, vocab)),
                                         SessionStore()), catalog, ds.schemas["target"], vocab)
    good = sorted(ad for ad in catalog if ad not in BROKEN_ADS)
    rng = make_rng(48)
    lines = [f"RANK u{i % 7} 40 4 "
             + ",".join(good[int(j)] for j in rng.choice(len(good), size=8, replace=False))
             for i in range(200)]
    for line in lines:
        assert server.handle_line(line).startswith("OK ")
        assert len(kept_targets(server)) <= len(catalog)
    assert max(encoded.values()) == 1
    assert len(encoded) == len(kept_targets(server)) > len(good) // 2

    cached = len(kept_targets(server))
    for ad_id, error in (("a0061", "numerical field 'age': bad value 'old'"),
                         ("a0062", "missing required univalent field 'src'")):
        for _ in range(3):
            assert server.handle_line(f"RANK u1 40 4 {good[0]},{ad_id}") == f"ERR {error}"
        assert encoded[ad_id] == 3
    assert len(kept_targets(server)) == cached

    # A scorer for another model keeps rows of its own: each ad it is asked
    # for is encoded once more, and only once.
    before = collections.Counter(encoded)
    server.ad_server.scorer = ModelScorer(zeroed_model(ds.schemas, vocab, "dstn-p"))
    for line in lines:
        assert server.handle_line(line).startswith("OK ")
    assert len(kept_targets(server)) == cached
    assert encoded - before == collections.Counter(kept_targets(server).keys())


def test_concurrent_requests_share_the_catalog_rows(env, monkeypatch):
    import sys
    import threading

    ds, vocab, train = env
    encoded = collections.Counter()
    original = serving.encode_instance
    monkeypatch.setattr(serving, "encode_instance",
                        lambda record, *a: encoded.update(record["ad_id"]) or original(record, *a))
    model = init_model(Variant.DSTN_P, ds.schemas, vocab.size, make_rng(49), k=4,
                       fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    model.tensors["emb.E"] *= 100.0
    catalog = rank_catalog(train)
    server = RankProtocolServer(AdServer(ModelScorer(model), history_store(train)), catalog,
                                ds.schemas["target"], vocab)
    good = sorted(ad for ad in catalog if ad not in BROKEN_ADS)
    rng = make_rng(50)
    lines = [[f"RANK u{t % 3 + 1} 40 3 "
              + ",".join(good[int(j)] for j in rng.choice(len(good), size=8, replace=False))
              for _ in range(40)] for t in range(4)]
    replies: dict[str, str] = {}
    errors = []

    def worker(mine):
        try:
            for line in mine:
                replies[line] = server.handle_line(line)
        except Exception as exc:  # surface failures from worker threads
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(mine,)) for mine in lines]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave the encodes
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert max(encoded.values()) == 1 and len(encoded) == len(kept_targets(server))
    for line, reply in replies.items():
        assert reply.startswith("OK ") and reply == reference_handle_line(server, line)


def test_concurrent_ranks_write_no_scorer_attribute(env):
    import sys

    ds, vocab, train = env
    model = init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(51), k=4,
                       fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    scorer = ModelScorer(model)
    server = RankProtocolServer(AdServer(scorer, history_store(train)), rank_catalog(train),
                                ds.schemas["target"], vocab)
    before = dict(vars(scorer))
    good = sorted(ad for ad in server.rows.catalog if ad not in BROKEN_ADS)
    rng = make_rng(52)
    lines = [[f"RANK u{t % 3 + 1} 40 3 "
              + ",".join(good[int(j)] for j in rng.choice(len(good), size=8, replace=False))
              for _ in range(40)] for t in range(4)]
    replies: list[str] = []
    threads = [threading.Thread(target=lambda mine: replies.extend(map(server.handle_line, mine)),
                                args=(mine,)) for mine in lines]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave the requests
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(replies) == 160 and all(reply.startswith("OK ") for reply in replies)
    assert len(kept_targets(server)) > 0  # the kept rows grew in place
    assert vars(scorer).keys() == before.keys()
    assert all(vars(scorer)[name] is value for name, value in before.items())


def test_the_first_field_that_fails_in_schema_order_names_the_error(env):
    # With age before user_id, a bad age is reported before an empty user.
    ds, vocab, train = env
    fields = {f.name: f for f in ds.schemas["target"].fields}
    names = ("age", "user_id") + tuple(n for n in fields if n not in ("age", "user_id"))
    target = GroupSchema("target", tuple(fields[n] for n in names))
    server = RankProtocolServer(AdServer(ModelScorer(zeroed_model(ds.schemas, vocab)),
                                         SessionStore()), rank_catalog(train), target, vocab)
    good = min(server.rows.catalog)
    for line in (f"RANK  40 4 {good},a0061", f"RANK  40 4 a0061,{good}", f"RANK  40 4 {good}",
                 "RANK u1 40 4 a0062", f"RANK u1 40 4 a0061,{good}", "RANK  40 4 a0062"):
        assert server.handle_line(line) == reference_handle_line(server, line)
    assert server.handle_line("RANK  40 4 a0061") == "ERR numerical field 'age': bad value 'old'"


def test_target_schema_without_user_id_serves_the_ads_own_rows(env):
    # No user_id field: no bag to fill in, and an empty user is no error.
    ds, vocab, train = env
    target = GroupSchema("target", tuple(f for f in ds.schemas["target"].fields
                                         if f.name != "user_id"))
    model = init_model(Variant.DSTN_I, {**ds.schemas, "target": target}, vocab.size,
                       make_rng(51), k=4, fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    model.tensors["emb.E"] *= 100.0
    server = RankProtocolServer(AdServer(ModelScorer(model), history_store(train)),
                                rank_catalog(train), target, vocab)
    good = sorted(ad for ad in server.rows.catalog if ad not in BROKEN_ADS)
    rng = make_rng(52)
    winners = set()
    for i in range(40):
        picks = [good[int(j)] for j in rng.choice(len(good), size=8, replace=False)]
        line = f"RANK {('u1', 'u2', '')[i % 3]} 40 {i % 9 + 1} {','.join(picks)}"
        reply = server.handle_line(line)
        assert reply.startswith("OK ") and reply == reference_handle_line(server, line)
        winners.add(reply[3:].split(" ")[0])
    assert len(winners) > 20
    for line in (f"RANK u1 40 4 {good[0]},a0061", f"RANK  40 4 a0062,{good[0]}"):
        assert server.handle_line(line).startswith("ERR ")
        assert server.handle_line(line) == reference_handle_line(server, line)
    server.stop()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_multivalent_user_id_segment_is_its_bag_summed_as_embedding_sums_it(env, dtype):
    # A one-index bag is read as its table row; a bag of none or of several
    # (the user_id's bigrams here) is embedded.
    ds, vocab, train = env
    target = GroupSchema("target", tuple(
        FieldSchema(f.name, FieldKind.MULTIVALENT) if f.name == "user_id" else f
        for f in ds.schemas["target"].fields))
    model = init_model(Variant.DSTN_I, {**ds.schemas, "target": target}, vocab.size,
                       make_rng(55), k=4, fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    server = RankProtocolServer(AdServer(ModelScorer(astype(model, dtype)), history_store(train)),
                                rank_catalog(train), target, vocab)
    rows, scorer = server.rows, server.ad_server.scorer
    picks = tuple(sorted(ad for ad in rows.catalog if ad not in BROKEN_ADS)[:5])
    user_field, bags = target.field_names.index("user_id"), set()
    for user in ("u0037", "u1", "u", ""):
        cands = tuple(request_candidate(rows.catalog[ad], user, target, vocab) for ad in picks)
        bags.add(len(cands[0].indices[user_field]))
        fresh = embed_matrix(AdColumns.from_instances(cands, target), scorer.model.tensors["emb.E"])
        assert np.array_equal(rows.embedded(scorer, user, picks), fresh)  # bit for bit
    assert bags == {0, 1, 4}
    server.stop()


@pytest.fixture
def catalog_server(env):
    """Builds RANK servers (not listening) over ``rank_catalog`` and
    ``history_store`` with a model whose scores differ from ad to ad, each
    with the ids of the ads that encode; closes their sockets after the test."""
    ds, vocab, train = env
    servers = []

    def build(variant="dstn-i", dtype=np.float64, seed=53):
        model = init_model(Variant(variant), ds.schemas, vocab.size, make_rng(seed), k=4,
                           fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
        model.tensors["emb.E"] *= 100.0
        servers.append(RankProtocolServer(
            AdServer(ModelScorer(astype(model, dtype)), history_store(train)),
            rank_catalog(train), ds.schemas["target"], vocab))
        return servers[-1], sorted(ad for ad in servers[-1].rows.catalog
                                   if ad not in BROKEN_ADS)

    yield build
    for server in servers:
        server.stop()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("variant", list(Variant))
def test_kept_rows_score_as_embedding_every_ad_afresh(env, catalog_server, variant, dtype):
    ds, vocab, train = env
    server, good = catalog_server(variant, dtype)
    rows, scorer = server.rows, server.ad_server.scorer
    target = ds.schemas["target"]
    unseen = oov(vocab, "user_id")
    assert vocab.lookup("user_id", "u1") == unseen != vocab.lookup("user_id", "u0037")
    rng = make_rng(54)
    named, pctrs = set(), []
    for i in range(30):
        # u1 and u2 have history and read the out-of-vocabulary user row; u0037 neither
        user = ("u1", "u2", "u0037")[i % 3]
        picks = rng.choice(len(good), size=i % 8 + 1, replace=False)
        picks = tuple(good[int(j)] for j in picks)
        got = rows.embedded(scorer, user, picks)
        cands = tuple(request_candidate(rows.catalog[ad], user, target, vocab) for ad in picks)
        table = scorer.model.tensors["emb.E"]
        fresh = embed_matrix(AdColumns.from_instances(cands, target), table)
        assert got.dtype == dtype and np.array_equal(got, fresh)  # bit for bit
        served = server.ad_server.rank(RankRequest("-", user, 40, picks, slots=4, rows=got))
        afresh = server.ad_server.rank(RankRequest("-", user, 40, cands, slots=4))
        assert [(r.pctr, r.round) for r in served.ranked] == \
            [(r.pctr, r.round) for r in afresh.ranked]
        assert [r.ad for r in served.ranked] == [picks[cands.index(r.ad)] for r in afresh.ranked]
        pctrs += [r.pctr for r in served.ranked]
        named.update(picks)
        # bounded: one row per distinct ad named, in the catalog and in each history group
        assert len(scorer.targets.index) == len(named)
    clicked, unclicked = (set(h) for h in server.ad_server.store.get_history("u1", 40))
    _, unclicked_u2 = server.ad_server.store.get_history("u2", 40)
    history = {"clicked": clicked, "unclicked": unclicked | set(unclicked_u2)}
    for group, kept in scorer.history.items():
        assert len(kept.index) == len(history[group]) and set(kept.index) == history[group]
    assert scorer.history or variant in ("lr", "dnn")
    assert max(pctrs) - min(pctrs) > 0.01  # the check is not made on constant scores


def test_a_request_naming_an_ad_that_does_not_encode_keeps_none_of_its_new_rows(catalog_server):
    server, good = catalog_server()
    assert server.handle_line(f"RANK u1 40 4 {good[0]},{good[1]}").startswith("OK ")
    for ad_id, error in (("a0061", "numerical field 'age': bad value 'old'"),
                         ("a0062", "missing required univalent field 'src'")):
        for i in range(3):  # refused on every request, named between new ads
            line = f"RANK u1 40 4 {good[0]},{good[2 + i]},{ad_id},{good[5 + i]}"
            assert server.handle_line(line) == f"ERR {error}"
            assert reference_handle_line(server, line) == f"ERR {error}"
    assert set(kept_targets(server)) == {good[0], good[1]}


def test_a_new_scorer_serves_the_changed_model(env):
    ds, vocab, train = env
    model = init_model(Variant.DSTN_S, ds.schemas, vocab.size, make_rng(55), k=4,
                       fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    model.tensors["emb.E"] *= 100.0
    catalog = rank_catalog(train)
    good = sorted(ad for ad in catalog if ad not in BROKEN_ADS)
    lines = [f"RANK u{i % 2 + 1} 40 3 {','.join(good[i : i + 6])}" for i in range(10)]
    old = RankProtocolServer(AdServer(ModelScorer(model), history_store(train)), catalog,
                             ds.schemas["target"], vocab)
    before = [old.handle_line(line) for line in lines]
    old.stop()
    model.tensors["emb.E"] *= -0.5  # every row the old scorer and server keep is stale now
    new = RankProtocolServer(AdServer(ModelScorer(model), history_store(train)), catalog,
                             ds.schemas["target"], vocab)
    try:
        assert kept_targets(new) == {}
        assert all(kept.index == {} for kept in new.ad_server.scorer.history.values())
        after = [new.handle_line(line) for line in lines]
        assert after == [reference_handle_line(new, line) for line in lines]
    finally:
        new.stop()
    assert sum(a != b for a, b in zip(after, before)) > len(lines) // 2


def test_a_scorer_swapped_into_a_live_server_serves_with_its_own_models_rows(catalog_server):
    server, good = catalog_server(seed=57)
    lines = [f"RANK u{i % 2 + 1} 40 3 {','.join(good[i : i + 6])}" for i in range(10)]
    before = [server.handle_line(line) for line in lines]  # the first model's rows are kept
    fresh, _ = catalog_server(seed=58)
    server.ad_server.scorer = ModelScorer(fresh.ad_server.scorer.model)
    after = [server.handle_line(line) for line in lines]
    assert after == [fresh.handle_line(line) for line in lines]
    assert after == [reference_handle_line(server, line) for line in lines]
    assert sum(a != b for a, b in zip(after, before)) > len(lines) // 2


def test_a_request_in_flight_at_a_scorer_swap_is_served_by_one_model(catalog_server,
                                                                     monkeypatch):
    server, good = catalog_server(seed=57)
    fresh, _ = catalog_server(seed=58)
    lines = [f"RANK u{i % 2 + 1} 40 3 {','.join(good[i : i + 6])}" for i in range(10)]
    old_replies = [server.handle_line(line) for line in lines]
    new_replies = [fresh.handle_line(line) for line in lines]
    old_scorer, new_scorer = server.ad_server.scorer, ModelScorer(fresh.ad_server.scorer.model)
    embedded = server.rows.embedded

    def embed_then_swap(scorer, user_id, ad_ids):
        rows = embedded(scorer, user_id, ad_ids)
        server.ad_server.scorer = new_scorer
        return rows

    for line, old, new in zip(lines, old_replies, new_replies):
        server.ad_server.scorer = old_scorer
        monkeypatch.setattr(server.rows, "embedded", embed_then_swap)
        assert server.handle_line(line) == old  # swapped after the embed: still the old model
        monkeypatch.undo()
        assert server.handle_line(line) == new  # the next request reads the new scorer
    assert sum(a != b for a, b in zip(old_replies, new_replies)) > len(lines) // 2


def test_two_threads_naming_new_ads_at_once_get_the_same_reply(catalog_server):
    import sys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave the first uses
    try:
        for trial in range(8):
            server, good = catalog_server(seed=56 + trial)
            line = f"RANK u1 40 4 {','.join(good[trial * 6 : trial * 6 + 8])}"
            barrier = threading.Barrier(2)
            replies = []

            def worker():
                barrier.wait()
                replies.append(server.handle_line(line))

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert len(replies) == 2 and replies[0] == replies[1]
            assert replies[0].startswith("OK ")
            assert replies[0] == reference_handle_line(server, line)
            assert len(kept_targets(server)) == 8
    finally:
        sys.setswitchinterval(interval)


def test_catalog_line_with_an_unknown_field_is_refused_naming_the_line(tmp_path, env):
    ds, vocab, train = env
    path = tmp_path / "catalog.tsv"
    lines = [f"{ad_display_id(ex.target)}\t{_cand_fields(ex)}" for ex in train[:2]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert serving.load_catalog(path, ds.schemas["target"]) == {
        ad_display_id(ex.target): {n: v for n, v in ex.target.raw if n != "user_id"}
        for ex in train[:2]}
    path.write_text(f"{lines[0]}\n{lines[1]};tilte=zz\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 2: unknown field\(s\) \['tilte'\]") as info:
        serving.load_catalog(path, ds.schemas["target"])
    assert info.value.line_number == 2


def test_catalog_ad_with_a_user_id_is_refused(tmp_path, env):
    ds, vocab, train = env
    path = tmp_path / "catalog.tsv"
    ad_id = ad_display_id(train[1].target)
    path.write_text(f"{ad_display_id(train[0].target)}\t{_cand_fields(train[0])}\n"
                    f"{ad_id}\t{_cand_fields(train[1])};user_id=u9\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line 2: catalog ad '{ad_id}' has a user_id") as info:
        serving.load_catalog(path, ds.schemas["target"])
    assert info.value.line_number == 2
    record = {n: v for n, v in train[0].target.raw}
    with pytest.raises(ValueError, match="has a user_id"):
        RankProtocolServer(AdServer(ModelScorer(zeroed_model(ds.schemas, vocab)),
                                    SessionStore()),
                           {ad_display_id(train[0].target): record}, ds.schemas["target"], vocab)


def test_catalog_line_with_a_byte_that_is_not_utf8_is_refused_naming_the_line(tmp_path, env):
    ds, vocab, train = env
    path = tmp_path / "catalog.tsv"
    ids = [ad_display_id(ex.target) for ex in train[:2]]
    fields = [_cand_fields(ex) for ex in train[:2]]
    fancy = fields[1].replace("title=", "title=caf\u00e9 ", 1)
    path.write_bytes(f"{ids[0]}\t{fields[0]}\n{ids[1]}\t{fancy}\n".encode())
    catalog = serving.load_catalog(path, ds.schemas["target"])
    assert catalog[ids[1]]["title"][0].startswith("caf\u00e9 ")  # UTF-8 beyond ASCII reads
    path.write_bytes(f"{ids[0]}\t{fields[0]}\n".encode()
                     + f"{ids[1]}\t{fields[1]}".encode().replace(b"title=", b"title=\xff", 1)
                     + b"\n")
    at = len(ids[1]) + 1 + fields[1].index("title=") + 7
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: character {at} is "
                                         "not UTF-8 text$") as info:
        serving.load_catalog(path, ds.schemas["target"])
    assert info.value.line_number == 2


@pytest.mark.parametrize("second, message", [
    ("a0001\t{1}", "line 2: catalog key 'a0001' is not the ad's ad_id '{id1}'"),
    ("{id0}\t{1}", "line 2: repeated catalog key '{id0}'"),
    ("{id1}\tage=30;src=s;title=t;x0=v", "line 2: catalog key '{id1}' is not the ad's ad_id ''"),
])
def test_catalog_keys_are_the_ads_own_unique_ids(tmp_path, env, second, message):
    ds, vocab, train = env
    ids = [ad_display_id(ex.target) for ex in train[:2]]
    assert ids[0] != ids[1] and "a0001" not in ids
    fields = [_cand_fields(ex) for ex in train[:2]]
    path = tmp_path / "catalog.tsv"
    path.write_text(f"{ids[0]}\t{fields[0]}\n{second.format(*fields, id0=ids[0], id1=ids[1])}\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(message.format(id0=ids[0], id1=ids[1]))):
        serving.load_catalog(path, ds.schemas["target"])


class TestWireProtocol:
    def test_rank_round_trip(self, env):
        ds, vocab, train = env
        catalog = {}
        for ex in train[:4]:
            rec = {n: v for n, v in ex.target.raw if n not in ("user_id",)}
            catalog[ad_display_id(ex.target)] = rec
        scorer = ModelScorer(zeroed_model(ds.schemas, vocab))
        server = RankProtocolServer(AdServer(scorer, SessionStore()), catalog,
                                    ds.schemas["target"], vocab)
        server.start()
        try:
            host, port = server.address
            ad_ids = sorted(catalog)[:3]
            reply = rank_over_socket(host, port, "u1", 500, 2, ad_ids)
        finally:
            server.stop()
        assert reply.startswith("OK ")
        entries = reply[3:].split(" ")
        assert len(entries) == 2
        ad_id, pctr, rnd = entries[0].split(":")
        assert ad_id in catalog and rnd == "1"
        assert float(pctr) == pytest.approx(0.5)

    def test_pipelined_lines_get_replies_and_socket_has_nodelay(self, env, monkeypatch):
        ds, vocab, train = env
        catalog = {ad_display_id(ex.target): {n: v for n, v in ex.target.raw if n != "user_id"}
                   for ex in train[:4]}
        scorer = ModelScorer(zeroed_model(ds.schemas, vocab))
        server = RankProtocolServer(AdServer(scorer, SessionStore()), catalog,
                                    ds.schemas["target"], vocab)
        handler = server._server.RequestHandlerClass
        original_setup = handler.setup
        nodelay = []

        def setup(self):
            original_setup(self)
            nodelay.append(self.request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(handler, "setup", setup)
        ad_ids = sorted(catalog)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10) as conn:
                conn.sendall(f"RANK u1 500 2 {ad_ids[0]},{ad_ids[1]}\n"
                             f"RANK u2 501 1 {ad_ids[2]}\n".encode("utf-8"))
                buf = b""
                while buf.count(b"\n") < 2:
                    chunk = conn.recv(4096)
                    assert chunk, "server closed the connection early"
                    buf += chunk
        finally:
            server.stop()
        first, second = buf.decode("utf-8").splitlines()
        assert first.startswith("OK ") and len(first[3:].split(" ")) == 2
        assert second == f"OK {ad_ids[2]}:0.500000:1"
        assert nodelay and all(nodelay)

    def _limits_server(self, env):
        ds, vocab, train = env
        catalog = {ad_display_id(ex.target): {n: v for n, v in ex.target.raw if n != "user_id"}
                   for ex in train[:4]}
        scorer = ModelScorer(zeroed_model(ds.schemas, vocab))
        return RankProtocolServer(AdServer(scorer, SessionStore()), catalog,
                                  ds.schemas["target"], vocab), sorted(catalog)

    def test_over_long_line_is_refused_and_the_connection_closed(self, env, monkeypatch):
        monkeypatch.setattr(serving, "MAX_LINE_BYTES", 48)
        server, ad_ids = self._limits_server(env)
        ok_line = f"RANK u1 500 1 {ad_ids[0]}\n"
        assert len(ok_line) <= 48
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10) as conn:
                conn.sendall(ok_line.encode("utf-8") + b"RANK u1 500 1 " + b"x" * 100
                             + b"\n" + ok_line.encode("utf-8"))
                buf = b""
                while chunk := conn.recv(4096):
                    buf += chunk
        finally:
            server.stop()
        replies = buf.decode("utf-8").splitlines()
        assert len(replies) == 2  # nothing is read after the over-long line
        assert replies[0] == f"OK {ad_ids[0]}:0.500000:1"
        assert replies[1] == "ERR line too long: over 48 bytes"

    def test_connection_over_the_cap_is_refused_and_closed(self, env, monkeypatch):
        monkeypatch.setattr(serving, "MAX_CONNECTIONS", 1)
        server, ad_ids = self._limits_server(env)
        line = f"RANK u1 500 1 {ad_ids[0]}\n".encode("utf-8")
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10) as first:
                first.sendall(line)
                assert first.makefile("rb").readline().startswith(b"OK ")  # admitted
                with socket.create_connection(server.address, timeout=10) as second:
                    buf = b""
                    while chunk := second.recv(4096):
                        buf += chunk
                assert buf == b"ERR too many connections\n"
                first.sendall(line)  # the admitted connection is still served
                assert first.makefile("rb").readline().startswith(b"OK ")
        finally:
            server.stop()

    def test_idle_connection_is_closed_and_its_slot_freed(self, env, monkeypatch):
        monkeypatch.setattr(serving, "IDLE_TIMEOUT_SECONDS", 0.2)
        monkeypatch.setattr(serving, "MAX_CONNECTIONS", 1)
        server, ad_ids = self._limits_server(env)
        line = f"RANK u1 500 1 {ad_ids[0]}\n".encode("utf-8")
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10) as idle:
                idle.sendall(line)
                assert idle.makefile("rb").readline().startswith(b"OK ")
                started = time.monotonic()
                assert idle.recv(4096) == b""  # closed by the server, no reply
                assert 0.1 < time.monotonic() - started < 5
            # The slot is freed just after the close; a new connection gets it.
            for attempt in range(50):
                with socket.create_connection(server.address, timeout=10) as conn:
                    conn.sendall(line)
                    reply = conn.makefile("rb").readline()
                if reply != b"ERR too many connections\n":
                    break
                time.sleep(0.05)
            assert reply.startswith(b"OK ")
        finally:
            server.stop()

    def test_failed_handler_thread_start_frees_its_slot(self, env, monkeypatch):
        monkeypatch.setattr(serving, "MAX_CONNECTIONS", 1)
        server, ad_ids = self._limits_server(env)
        original = socketserver.ThreadingMixIn.process_request
        starts = []

        def fails_once(self, request, client_address):
            starts.append(client_address)
            if len(starts) == 1:
                raise RuntimeError("can't start new thread")
            return original(self, request, client_address)

        monkeypatch.setattr(socketserver.ThreadingMixIn, "process_request", fails_once)
        monkeypatch.setattr(server._server, "handle_error", lambda *args: None)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10) as failed:
                assert failed.recv(4096) == b""  # closed without a reply
            with socket.create_connection(server.address, timeout=10) as conn:
                conn.sendall(f"RANK u1 500 1 {ad_ids[0]}\n".encode("utf-8"))
                reply = conn.makefile("rb").readline()
        finally:
            server.stop()
        assert len(starts) == 2 and reply == f"OK {ad_ids[0]}:0.500000:1\n".encode("utf-8")

    def test_stop_without_start_returns_and_closes_the_socket(self, env):
        server, _ = self._limits_server(env)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert server._server.socket.fileno() == -1

    def test_too_many_candidates_is_a_named_error(self, env, monkeypatch):
        monkeypatch.setattr(serving, "MAX_CANDIDATES", 2)
        server, ad_ids = self._limits_server(env)
        assert server.handle_line(f"RANK u 5 2 {','.join(ad_ids[:3])}") == \
            "ERR too many candidates: 3 > 2"
        assert server.handle_line(f"RANK u 5 2 {','.join(ad_ids[:2])}").startswith("OK ")

    def test_undecodable_line_gets_an_error_reply(self, env):
        server, ad_ids = self._limits_server(env)
        server.start()
        try:
            with socket.create_connection(server.address, timeout=10) as conn:
                conn.sendall(b"RANK u 5 1 \xff\xfe\n" + f"RANK u 5 1 {ad_ids[0]}\n".encode())
                buf = b""
                while buf.count(b"\n") < 2:
                    chunk = conn.recv(4096)
                    assert chunk, "server closed the connection early"
                    buf += chunk
        finally:
            server.stop()
        bad, good = buf.decode("utf-8").splitlines()
        assert bad.startswith("ERR unknown ad") and good.startswith("OK ")

    def test_malformed_and_unknown(self, env):
        ds, vocab, train = env
        scorer = ModelScorer(zeroed_model(ds.schemas, vocab))
        server = RankProtocolServer(AdServer(scorer, SessionStore()), {},
                                    ds.schemas["target"], vocab)
        assert server.handle_line("HELLO").startswith("ERR")
        assert server.handle_line("RANK u 5 2 nosuch").startswith("ERR unknown ad")


# perfbench/rank_server.py's start-up and one request, in a fresh interpreter.
RANK_SERVER_START = """
import sys
from adctr import models, schema, serving, session
ckpt, snapshot, catalog, line = sys.argv[1:]
schemas = schema.load_schemas(f"{ckpt}.schema.tsv")
vocab = schema.Vocabulary.load(f"{ckpt}.vocab.tsv")
model, _ = models.load_model(ckpt, schemas)
store = session.SessionStore.restore(snapshot, schemas, vocab)
server = serving.RankProtocolServer(serving.AdServer(serving.ModelScorer(model), store),
                                    serving.load_catalog(catalog, schemas["target"]),
                                    schemas["target"], vocab)
print(server.handle_line(line))
print(" ".join(sorted(name for name in sys.modules if "hashlib" in name)))
"""


def test_a_rank_server_takes_no_hash_and_loads_no_openssl(rank_server_files):
    files = rank_server_files
    line = files["requests.tsv"].read_text(encoding="utf-8").splitlines()[0]
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", RANK_SERVER_START, str(files["model.ckpt"]),
                          str(files["snapshot.tsv"]), str(files["catalog.tsv"]), line],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out[0].startswith("OK ") and len(out) == 2
    assert out[1] == ""  # neither hashlib nor OpenSSL's _hashlib
