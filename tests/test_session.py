import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr.ingest import ParseError, serialize_ad
from adctr.numerics import make_rng
from adctr.session import CAPACITY, SWEEP_PER_RECORD, WINDOW_SECONDS, SessionStore


class Ad:
    """Minimal history payload with an identity, like an encoded ad."""

    def __init__(self, ad_id):
        self.ad_id = ad_id

    def identity(self):
        return self.ad_id

    def __repr__(self):
        return f"Ad({self.ad_id})"


class TestRecordEvent:
    def test_six_clicks_keep_five_most_recent(self):
        store = SessionStore()
        for i in range(6):
            store.record_event("u", Ad(f"a{i}"), clicked=True, ts=100 + i)
        clicked, _ = store.get_history("u", now=200)
        assert [a.ad_id for a in clicked] == ["a5", "a4", "a3", "a2", "a1"]

    def test_first_event_creates_user(self):
        store = SessionStore()
        store.record_event("new", Ad("x"), clicked=False, ts=5)
        clicked, unclicked = store.get_history("new", now=10)
        assert clicked == ()
        assert [a.ad_id for a in unclicked] == ["x"]

    def test_out_of_order_insert_keeps_ts_order(self):
        store = SessionStore()
        for ts in (50, 10, 30):
            store.record_event("u", Ad(f"t{ts}"), clicked=True, ts=ts)
        clicked, _ = store.get_history("u", now=100)
        assert [a.ad_id for a in clicked] == ["t50", "t30", "t10"]

    def test_out_of_order_with_capacity_evicts_oldest(self):
        store = SessionStore()
        for ts in (60, 20, 40, 80, 100):
            store.record_event("u", Ad(f"t{ts}"), clicked=True, ts=ts)
        store.record_event("u", Ad("t30"), clicked=True, ts=30)  # older than head
        clicked, _ = store.get_history("u", now=200)
        assert len(clicked) == CAPACITY
        assert [a.ad_id for a in clicked] == ["t100", "t80", "t60", "t40", "t30"]

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            SessionStore().record_event("u", Ad("x"), clicked=True, ts=-1)


class TestClickReconciliation:
    def test_click_retires_matching_impression(self):
        store = SessionStore()
        store.record_event("u", Ad("promo"), clicked=False, ts=10)
        store.record_event("u", Ad("promo"), clicked=True, ts=20)
        clicked, unclicked = store.get_history("u", now=30)
        assert [a.ad_id for a in clicked] == ["promo"]
        assert unclicked == ()

    def test_click_without_matching_impression(self):
        store = SessionStore()
        store.record_event("u", Ad("other"), clicked=False, ts=10)
        store.record_event("u", Ad("promo"), clicked=True, ts=20)
        _, unclicked = store.get_history("u", now=30)
        assert [a.ad_id for a in unclicked] == ["other"]

    def test_only_most_recent_matching_impression_retired(self):
        store = SessionStore()
        store.record_event("u", Ad("promo"), clicked=False, ts=10)
        store.record_event("u", Ad("promo"), clicked=False, ts=15)
        store.record_event("u", Ad("promo"), clicked=True, ts=20)
        _, unclicked = store.get_history("u", now=30)
        assert len(unclicked) == 1 and unclicked[0].ad_id == "promo"


class TestGetHistory:
    def test_unknown_user(self):
        assert SessionStore().get_history("ghost", now=1) == ((), ())

    def test_window_boundary_excludes_three_day_old_click(self):
        store = SessionStore()
        store.record_event("u", Ad("old"), clicked=True, ts=0)
        clicked, _ = store.get_history("u", now=WINDOW_SECONDS + 1)
        assert clicked == ()

    def test_recent_click_included(self):
        store = SessionStore()
        store.record_event("u", Ad("fresh"), clicked=True, ts=100)
        clicked, _ = store.get_history("u", now=200)
        assert [a.ad_id for a in clicked] == ["fresh"]

    def test_read_your_writes(self):
        store = SessionStore()
        store.record_event("u", Ad("now"), clicked=False, ts=42)
        _, unclicked = store.get_history("u", now=42)
        assert [a.ad_id for a in unclicked] == ["now"]


def brute_force_history(events, user_id, now, capacity=CAPACITY, window=WINDOW_SECONDS):
    """Filter/sort/truncate the raw per-user event log, newest first.

    Capacity applies in arrival order (each event may evict the then-oldest
    entry), after which the read-side window filter drops expired entries.
    """
    lists = {True: [], False: []}
    for seq, (uid, ad, clicked, ts) in enumerate(events):
        if uid != user_id:
            continue
        entries = lists[clicked]
        entries.append((ts, seq, ad))
        entries.sort(key=lambda e: (e[0], e[1]))
        if len(entries) > capacity:
            entries.pop(0)
    out = []
    for clicked in (True, False):
        kept = [ad for ts, _, ad in lists[clicked] if ts > now - window]
        out.append(tuple(reversed(kept)))
    return tuple(out)


class TestOracleEquivalence:
    def test_random_event_stream_matches_brute_force(self):
        rng = make_rng(77)
        store = SessionStore()
        events = []
        n_users = 30
        for seq in range(4000):
            user = f"u{int(rng.integers(0, n_users))}"
            ad = Ad(f"ad{seq}")  # unique ads: reconciliation never triggers
            clicked = bool(rng.random() < 0.3)
            ts = int(rng.integers(0, 3 * WINDOW_SECONDS))
            events.append((user, ad, clicked, ts))
            store.record_event(user, ad, clicked, ts)
        now = int(2.5 * WINDOW_SECONDS)
        for u in range(n_users):
            user = f"u{u}"
            got = store.get_history(user, now)
            want = brute_force_history(events, user, now)
            assert [a.ad_id for a in got[0]] == [a.ad_id for a in want[0]]
            assert [a.ad_id for a in got[1]] == [a.ad_id for a in want[1]]
            assert len(got[0]) <= CAPACITY and len(got[1]) <= CAPACITY


# Times on a quarter-window grid, so that timestamp ties and entries exactly
# at the window edge come up often.
_UNIT = WINDOW_SECONDS // 4
_USERS = st.sampled_from(["a", "b", "c"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("record"), _USERS, st.booleans(), st.integers(0, 12).map(_UNIT.__mul__)),
    st.tuples(st.just("read"), _USERS, st.integers(0, 4).map(_UNIT.__mul__)),
), max_size=60)


class TestPropertyBased:
    @settings(max_examples=200, deadline=None)
    @given(_OPS)
    def test_reads_match_brute_force_and_purged_users_go(self, ops):
        # The read clock only moves forward: a purge is not undone by an
        # earlier `now`, so the brute force holds only for monotone reads.
        store = SessionStore()
        events, purged = [], set()
        now = 0
        for op in ops:
            if op[0] == "record":
                _, user, clicked, ts = op
                ad = Ad(f"ad{len(events)}")  # unique ads: reconciliation never triggers
                events.append((user, ad, clicked, ts))
                store.record_event(user, ad, clicked, ts)
                purged.discard(user)
            else:
                _, user, step = op
                now += step
                got = store.get_history(user, now)
                want = brute_force_history(events, user, now)
                assert [[a.ad_id for a in g] for g in got] == \
                       [[a.ad_id for a in w] for w in want]
                if got == ((), ()):
                    purged.add(user)
            assert purged.isdisjoint(store.user_ids())


class TestSweep:
    def test_users_silent_past_the_window_go_and_reads_stay_the_same(self):
        rng = make_rng(91)
        store = SessionStore()
        events = []

        def record(user, ts):
            ad = Ad(f"ad{len(events)}")  # unique ads: reconciliation never triggers
            clicked = bool(rng.random() < 0.3)
            events.append((user, ad, clicked, ts))
            before = len(store.user_ids())
            store.record_event(user, ad, clicked, ts)
            # a record adds at most its own user and drops at most SWEEP_PER_RECORD
            assert before - SWEEP_PER_RECORD <= len(store.user_ids()) <= before + 1

        silent = [f"s{i:02d}" for i in range(40)]  # only events, never a read
        active = [f"a{i}" for i in range(5)]
        for i, user in enumerate(silent):
            record(user, 10 * i)
            record(user, 10 * i + 5)
        assert store.user_ids() == sorted(silent)
        now, step = 400, WINDOW_SECONDS // 40
        for _ in range(300):  # seven and a half windows
            now += step
            record(active[int(rng.integers(0, len(active)))], now)
            user = active[int(rng.integers(0, len(active)))]
            got = store.get_history(user, now)
            want = brute_force_history(events, user, now)
            assert [[a.ad_id for a in g] for g in got] == [[a.ad_id for a in w] for w in want]
        assert set(store.user_ids()) <= set(active)
        for user in silent + active:
            got = store.get_history(user, now)
            want = brute_force_history(events, user, now)
            assert [[a.ad_id for a in g] for g in got] == [[a.ad_id for a in w] for w in want]
            assert user in active or got == ((), ())

    def test_a_user_is_kept_while_any_read_could_still_see_it(self):
        store = SessionStore()
        store.record_event("old", Ad("x"), clicked=False, ts=10)
        store.get_history("other", now=100)
        # Events far past the window, but no read has asked for a later time.
        for i in range(10):
            store.record_event("new", Ad(f"y{i}"), clicked=False, ts=10 * WINDOW_SECONDS + i)
        assert store.user_ids() == ["new", "old"]
        assert [a.ad_id for a in store.get_history("old", now=100)[1]] == ["x"]
        store.get_history("new", now=10 * WINDOW_SECONDS)
        store.record_event("new", Ad("z"), clicked=False, ts=10 * WINDOW_SECONDS + 20)
        assert store.user_ids() == ["new"]


class TestConcurrency:
    def test_parallel_writers_per_user(self):
        import threading

        store = SessionStore()
        errors = []

        def writer(uid):
            try:
                for i in range(300):
                    store.record_event(f"u{uid}", Ad(f"{uid}-{i}"), clicked=(i % 3 == 0),
                                       ts=1000 + i)
                    store.get_history(f"u{uid}", now=1000 + i)
            except Exception as exc:  # surface failures from worker threads
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(u,)) for u in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for u in range(8):
            clicked, unclicked = store.get_history(f"u{u}", now=1299)
            assert len(clicked) == CAPACITY and len(unclicked) == CAPACITY


    def test_concurrent_first_events_for_one_user_are_all_kept(self):
        import threading
        import time
        from collections import OrderedDict

        class SlowUsers(OrderedDict):
            def get(self, *args):
                found = super().get(*args)
                time.sleep(0.01)  # widen the gap between finding no history and adding one
                return found

        store = SessionStore()
        store._users = SlowUsers()
        barrier = threading.Barrier(4)

        def first_event(t):
            barrier.wait(timeout=10)
            store.record_event("new", Ad(f"a{t}"), clicked=False, ts=100 + t)

        threads = [threading.Thread(target=first_event, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        _, unclicked = store.get_history("new", now=200)
        assert [a.ad_id for a in unclicked] == ["a3", "a2", "a1", "a0"]


class TestSnapshot:
    def test_round_trip(self, tmp_path, tiny_dataset):
        ds, vocab, train, *_ = tiny_dataset
        store = SessionStore()
        ts = 1000
        for ex in train[:40]:
            for ad in ex.clicked[:1]:
                store.record_event(ex.user_id, ad, clicked=True, ts=ts)
                ts += 1
            for ad in ex.unclicked[:1]:
                store.record_event(ex.user_id, ad, clicked=False, ts=ts)
                ts += 1
        path = tmp_path / "sessions.tsv"
        store.snapshot(path)
        restored = SessionStore.restore(path, ds.schemas, vocab)
        for user in store.user_ids():
            a = store.get_history(user, now=ts)
            b = restored.get_history(user, now=ts)
            assert [x.raw for x in a[0]] == [x.raw for x in b[0]]
            assert [x.raw for x in a[1]] == [x.raw for x in b[1]]

    def _store(self, tiny_dataset):
        ds, vocab, train, *_ = tiny_dataset
        store = SessionStore()
        clicked = [ad for ex in train for ad in ex.clicked]
        unclicked = [ad for ex in train for ad in ex.unclicked]
        store.record_event("gone", clicked[0], clicked=True, ts=10)
        store.record_event("gone", unclicked[0], clicked=False, ts=20)
        store.record_event("kept", clicked[1], clicked=True, ts=30)
        store.record_event("kept", unclicked[1], clicked=False, ts=WINDOW_SECONDS + 100)
        return ds, vocab, store

    def test_snapshot_after_eviction_equals_one_before(self, tmp_path, tiny_dataset):
        ds, vocab, store = self._store(tiny_dataset)
        now = WINDOW_SECONDS + 50  # "gone" has expired entirely; "kept" keeps one entry
        assert store.get_history("kept", now)[0] == ()
        store.snapshot(tmp_path / "before.tsv")
        assert store.get_history("gone", now) == ((), ())
        assert store.user_ids() == ["kept"]
        store.snapshot(tmp_path / "after.tsv")
        before = (tmp_path / "before.tsv").read_text().splitlines()
        after = (tmp_path / "after.tsv").read_text().splitlines()
        assert after == [line for line in before if not line.startswith("gone\t")]
        restored = [SessionStore.restore(tmp_path / f"{name}.tsv", ds.schemas, vocab)
                    for name in ("before", "after")]
        for user in ("gone", "kept"):
            a, b = (r.get_history(user, now) for r in restored)
            assert [[x.raw for x in g] for g in a] == [[x.raw for x in g] for g in b]

    def test_restore_refuses_a_byte_that_is_not_utf8_naming_the_line(self, tmp_path,
                                                                    tiny_dataset):
        ds, vocab, train, *_ = tiny_dataset
        ad = serialize_ad(next(ad for ex in train for ad in ex.clicked))
        path = tmp_path / "sessions.tsv"
        fancy = ad.replace("title=", "title=caf\u00e9 ", 1)
        path.write_bytes(f"u\tclk\t1\t{ad}\nu\tclk\t2\t{fancy}\n".encode())
        clicked, _ = SessionStore.restore(path, ds.schemas, vocab).get_history("u", 2)
        titles = [a.raw_dict()["title"][0] for a in clicked]
        assert any(t.startswith("caf\u00e9 ") for t in titles)  # UTF-8 beyond ASCII reads
        path.write_bytes(f"u\tclk\t1\t{ad}\n".encode() + b"u\tclk\t2\t\xff" + ad.encode()
                         + b"\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: character 9 is "
                                             "not UTF-8 text$") as info:
            SessionStore.restore(path, ds.schemas, vocab)
        assert info.value.line_number == 2

    @pytest.mark.parametrize("fields, message", [
        (("u", "clk", "5"), "needs 4 columns"),
        (("u", "click", "5", "{ad}"), "bad tag 'click'"),
        (("u", "clk", "soon", "{ad}"), "bad timestamp 'soon'"),
        (("u", "unclk", "-5", "{ad}"), "bad timestamp '-5'"),
        (("u", "clk", "5", "nosuch=1"), "unknown field"),
        (("u", "unclk", "5", "src=s;title=t;x0=v"), "missing required univalent field 'ad_id'"),
    ])
    def test_restore_names_the_bad_line(self, tmp_path, tiny_dataset, fields, message):
        ds, vocab, train, *_ = tiny_dataset
        ad = serialize_ad(next(ad for ex in train for ad in ex.clicked))
        good = f"u\tclk\t1\t{ad}"
        path = tmp_path / "sessions.tsv"
        path.write_text(good + "\n" + "\t".join(fields).format(ad=ad) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 2: .*{message}") as info:
            SessionStore.restore(path, ds.schemas, vocab)
        assert info.value.line_number == 2
