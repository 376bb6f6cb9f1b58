import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adctr import embedding
from adctr.embedding import (AdColumns, EmbeddedAds, RowGradAccumulator, embed_matrix,
                             encode_examples, group_dim)
from adctr.ingest import LabeledExample
from adctr.models import INIT_SCALE, Variant, backward, forward_batch, init_model
from adctr.numerics import ContractViolation, make_rng, segment_sum
from adctr.schema import (AUX_GROUPS, EncodedInstance, FieldKind, FieldSchema, GroupSchema,
                          build_vocabulary, encode_instance)
from adctr.toy import toy_schemas
from oracles import (embed_gradient_scatter, embed_instance, oov, reference_ablate,
                     scatter_oracle)

SCHEMA = GroupSchema("clicked", (FieldSchema("ad_id", FieldKind.UNIVALENT),
                                 FieldSchema("title", FieldKind.MULTIVALENT),
                                 FieldSchema("src", FieldKind.UNIVALENT)))


def make_instance(indices, raw=()):
    return EncodedInstance(group="clicked", indices=indices, raw=raw)


@pytest.fixture()
def table():
    return make_rng(0).uniform(-INIT_SCALE, INIT_SCALE, size=(12, 10))


class TestEmbedInstance:
    def test_univalent_segment_is_row_copy(self, table):
        inst = make_instance(((3,), (), (5,)))
        emb = embed_instance(inst, table, SCHEMA)
        np.testing.assert_array_equal(emb.vector[:10], table[3])
        np.testing.assert_array_equal(emb.vector[20:], table[5])

    def test_multivalent_segment_is_row_sum(self, table):
        inst = make_instance(((3,), (1, 7), (5,)))
        emb = embed_instance(inst, table, SCHEMA)
        np.testing.assert_allclose(emb.vector[10:20], table[1] + table[7])

    def test_output_dim_is_k_times_field_count(self, table):
        inst = make_instance(((3,), (1,), (5,)))
        assert embed_instance(inst, table, SCHEMA).vector.shape == (30,)
        assert group_dim(SCHEMA, 10) == 30

    def test_empty_bag_gives_zero_segment(self, table):
        inst = make_instance(((3,), (), (5,)))
        emb = embed_instance(inst, table, SCHEMA)
        np.testing.assert_array_equal(emb.vector[10:20], np.zeros(10))

    def test_duplicate_indices_count_multiplicity(self, table):
        inst = make_instance(((3,), (1, 1), (5,)))
        emb = embed_instance(inst, table, SCHEMA)
        np.testing.assert_allclose(emb.vector[10:20], 2 * table[1])

    def test_linear_in_table(self, table):
        inst = make_instance(((3,), (1, 7), (5,)))
        base = embed_instance(inst, table, SCHEMA).vector
        scaled = embed_instance(inst, 2.5 * table, SCHEMA).vector
        np.testing.assert_allclose(scaled, 2.5 * base)

    def test_out_of_range_index(self, table):
        with pytest.raises(ContractViolation):
            embed_instance(make_instance(((12,), (), (5,))), table, SCHEMA)


class TestScatter:
    def test_univalent_adjoint_of_copy(self):
        inst = make_instance(((3,), (), (5,)))
        upstream = np.arange(30.0)
        rows = embed_gradient_scatter(inst, upstream)
        assert rows[0][0] == 3
        np.testing.assert_array_equal(rows[0][1], upstream[:10])

    def test_multivalent_adjoint_of_sum(self):
        inst = make_instance(((3,), (1, 7), (5,)))
        upstream = np.arange(30.0)
        rows = dict()
        for r, g in embed_gradient_scatter(inst, upstream):
            rows.setdefault(r, []).append(g)
        np.testing.assert_array_equal(rows[1][0], upstream[10:20])
        np.testing.assert_array_equal(rows[7][0], upstream[10:20])

    def test_empty_bag_contributes_nothing(self):
        inst = make_instance(((3,), (), (5,)))
        touched = {r for r, _ in embed_gradient_scatter(inst, np.ones(30))}
        assert touched == {3, 5}

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            embed_gradient_scatter(make_instance(((3,), (), (5,))), np.ones(31))

    def test_scatter_is_exact_adjoint(self, table):
        # d/dE <u, embed(inst)> via scatter must match finite differences.
        rng = make_rng(3)
        inst = make_instance(((3,), (1, 7, 1), (5,)))
        u = rng.normal(size=30)

        analytic = np.zeros_like(table)
        for row, grad in embed_gradient_scatter(inst, u):
            analytic[row] += grad

        h = 1e-6
        fd = np.zeros_like(table)
        for i in range(table.shape[0]):
            for j in range(table.shape[1]):
                orig = table[i, j]
                table[i, j] = orig + h
                up = float(u @ embed_instance(inst, table, SCHEMA).vector)
                table[i, j] = orig - h
                down = float(u @ embed_instance(inst, table, SCHEMA).vector)
                table[i, j] = orig
                fd[i, j] = (up - down) / (2 * h)
        err = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert err <= 1e-6


class TestBatchedPaths:
    def test_embed_matrix_matches_per_instance(self, table):
        rng = make_rng(5)
        instances = []
        for _ in range(17):
            bag = tuple(int(i) for i in rng.integers(0, 12, size=rng.integers(0, 4)))
            instances.append(make_instance(((int(rng.integers(0, 12)),), bag,
                                            (int(rng.integers(0, 12)),))))
        batched = embed_matrix(AdColumns.from_instances(instances, SCHEMA), table)
        for i, inst in enumerate(instances):
            np.testing.assert_allclose(batched[i], embed_instance(inst, table, SCHEMA).vector)

    def test_accumulator_matches_per_instance_scatter(self, table):
        rng = make_rng(6)
        instances = [make_instance(((1,), (2, 2, 9), (5,))),
                     make_instance(((1,), (), (7,)))]
        upstream = rng.normal(size=(2, 30))
        acc = RowGradAccumulator(*table.shape, table.dtype)
        acc.scatter_matrix(AdColumns.from_instances(instances, SCHEMA), upstream)
        rows, grads = acc.finalize()

        expected = np.zeros_like(table)
        for inst, up in zip(instances, upstream):
            for r, g in embed_gradient_scatter(inst, up):
                expected[r] += g
        dense = np.zeros_like(table)
        dense[rows] = grads
        np.testing.assert_allclose(dense, expected)
        assert set(rows.tolist()) == {1, 2, 5, 7, 9}


@pytest.fixture()
def edge_batch():
    """Examples with an empty multivalent bag, OOV rows, a row repeated in
    one bag, one instance repeated within a group and across groups, rows
    shared by the target and auxiliary groups, and no contextual ads at all."""
    schemas = toy_schemas()
    # bigrams ab, bc, ca, ab, b<space>, ...: "ab" twice in one bag, and a bag
    # long enough that a different summation order would change the last bits
    seen = {"aid": ("a1",), "ttl": ("abcab pack my box with five dozen liquor jugs",)}
    bare = {"aid": ("a2",), "ttl": ()}
    unseen = {"aid": ("zz",), "ttl": ("qq",)}
    vocab = build_vocabulary([("target", {"uid": ("u1",), "aff": ("1.0",), **seen}),
                              ("clicked", bare)], schemas)

    def enc(record, group):
        return encode_instance(record, schemas[group], vocab)

    t_seen = enc({"uid": ("u1",), "aff": ("0.2",), **seen}, "target")
    t_oov = enc({"uid": ("u9",), "aff": ("3.0",), **bare}, "target")
    c_seen, c_bare, c_new = enc(seen, "clicked"), enc(bare, "clicked"), enc(unseen, "clicked")
    u_seen, u_new = enc(seen, "unclicked"), enc(unseen, "unclicked")
    examples = [
        LabeledExample(1, 0, "u1", t_seen, contextual=(), clicked=(c_seen, c_seen, c_bare),
                       unclicked=(u_new,)),
        LabeledExample(0, 1, "u9", t_oov, contextual=(), clicked=(), unclicked=(u_seen, u_new)),
        LabeledExample(0, 2, "u1", t_seen, contextual=(), clicked=(c_new, c_seen), unclicked=()),
    ]
    assert oov(vocab, "uid") in t_oov.indices[0] and oov(vocab, "aid") in c_new.indices[0]
    return schemas, vocab, examples


def _ads(examples, group):
    if group == "target":
        return [ex.target for ex in examples]
    return [ad for ex in examples for ad in getattr(ex, group)]


class TestEncodedPath:
    def test_gather_equals_per_instance_oracle_exactly(self, edge_batch):
        schemas, vocab, examples = edge_batch
        table = make_rng(12).uniform(-INIT_SCALE, INIT_SCALE, size=(vocab.size, 3))
        batch = encode_examples(examples, schemas, AUX_GROUPS)
        assert len(batch.aux["contextual"][1]) == 0
        for group in ("target",) + AUX_GROUPS:
            cols = batch.target if group == "target" else batch.columns(group)[1]
            got = embed_matrix(cols, table)
            ads = _ads(examples, group)
            want = np.array([embed_instance(a, table, schemas[group]).vector for a in ads])
            assert got.shape == (len(ads), group_dim(schemas[group], 3))
            assert got.tobytes() == want.reshape(got.shape).tobytes(), group

    def test_scatter_equals_per_instance_oracle_exactly(self, edge_batch):
        schemas, vocab, examples = edge_batch
        batch = encode_examples(examples, schemas, AUX_GROUPS)
        rng = make_rng(13)
        acc = RowGradAccumulator(vocab.size, 3, np.float64)
        terms = []
        for group in AUX_GROUPS + ("target",):  # the order backward scatters in
            cols = batch.target if group == "target" else batch.columns(group)[1]
            upstream = rng.normal(size=(len(cols), group_dim(schemas[group], 3)))
            acc.scatter_matrix(cols, upstream)
            terms.append((_ads(examples, group), upstream))
        rows, grads = acc.finalize()
        want_rows, want_grads = scatter_oracle(terms, vocab.size, 3)
        np.testing.assert_array_equal(rows, want_rows)
        assert grads.tobytes() == want_grads.tobytes()
        assert oov(vocab, "uid") in rows and oov(vocab, "ttl") in rows

    @pytest.mark.parametrize("ids", [[2, 0, 0, 1], [1], []])
    def test_take_equals_encoding_the_subset(self, edge_batch, ids):
        schemas, _, examples = edge_batch
        batch = encode_examples(examples, schemas, AUX_GROUPS)
        taken = batch.take(np.array(ids, dtype=np.int64))
        direct = encode_examples([examples[i] for i in ids], schemas, AUX_GROUPS)
        np.testing.assert_array_equal(taken.labels, direct.labels)
        pairs = [(taken.target, direct.target)]
        for group in AUX_GROUPS:
            (offsets, ads), (want_offsets, want_ads) = taken.columns(group), direct.columns(group)
            np.testing.assert_array_equal(offsets, want_offsets)
            pairs.append((ads, want_ads))
        for a, b in pairs:
            np.testing.assert_array_equal(a.offsets, b.offsets)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_an_ad_of_another_group_is_read_by_field_name(self):
        schemas = toy_schemas()  # target: uid, aff, aid, ttl; contextual: aid, ttl
        record = {"uid": ("u1",), "aff": ("1.0",), "aid": ("a3",), "ttl": ("abc",)}
        vocab = build_vocabulary([("target", record)], schemas)
        target = encode_instance(record, schemas["target"], vocab)
        as_context = encode_instance({"aid": ("a3",), "ttl": ("abc",)}, schemas["contextual"],
                                     vocab)
        cols = AdColumns.from_instances([target], schemas["contextual"])
        expected = AdColumns.from_instances([as_context], schemas["contextual"])
        np.testing.assert_array_equal(cols.offsets, expected.offsets)
        np.testing.assert_array_equal(cols.indices, expected.indices)
        with pytest.raises(ContractViolation, match="no field 'uid'"):
            AdColumns.from_instances([as_context], schemas["target"])

    def test_gather_rejects_out_of_range_index(self, table):
        with pytest.raises(ContractViolation):
            embed_matrix(AdColumns.from_instances([make_instance(((3,), (1, 12), (5,)))], SCHEMA),
                         table)


class TestDistinctAdTables:
    """An encoded split holds each group's distinct ads once; batches taken
    from it, and forwards over it, see the columns of every occurrence."""

    def test_a_repeated_ad_is_one_table_row(self, edge_batch):
        schemas, _, examples = edge_batch
        batch = encode_examples(examples, schemas, AUX_GROUPS)
        # clicked: c_seen, c_seen, c_bare | c_new, c_seen; unclicked: u_new | u_seen, u_new
        want_rows = {"contextual": [], "clicked": [0, 0, 1, 2, 0], "unclicked": [0, 1, 0]}
        for group, rows in want_rows.items():
            _, table, got_rows = batch.aux[group]
            assert got_rows.dtype == np.int32
            assert got_rows.tolist() == rows
            distinct = list(dict.fromkeys(_ads(examples, group)))
            want_table = AdColumns.from_instances(distinct, schemas[group])
            assert table.offsets.tobytes() == want_table.offsets.tobytes()
            assert table.indices.tobytes() == want_table.indices.tobytes()

    @staticmethod
    def assert_same_columns(got, want):
        """Labels, target and every group's per-ad columns, dtypes and bytes."""
        arrays = [(got.labels, want.labels), (got.target.offsets, want.target.offsets),
                  (got.target.indices, want.target.indices)]
        for group in AUX_GROUPS:
            (offsets, ads), (want_offsets, want_ads) = got.columns(group), want.columns(group)
            arrays += [(offsets, want_offsets), (ads.offsets, want_ads.offsets),
                       (ads.indices, want_ads.indices)]
        for a, b in arrays:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.integers(0, 119), max_size=40),
           keep=st.sampled_from((None,) + AUX_GROUPS))
    def test_take_equals_encoding_the_chosen_examples(self, tiny_dataset, ids, keep):
        self.check_take(tiny_dataset, ids, keep)

    @pytest.mark.parametrize("keep", [None, "clicked"])
    def test_take_of_no_ids_equals_encoding_no_examples(self, tiny_dataset, keep):
        self.check_take(tiny_dataset, [], keep)

    def check_take(self, tiny_dataset, ids, keep):
        ds, _, tr, *_ = tiny_dataset
        split = encode_examples(tr[:120], ds.schemas, AUX_GROUPS)
        examples = tr[:120]
        if keep is not None:
            split, examples = split.ablate(keep), reference_ablate(examples, keep)
        taken = split.take(np.array(ids, dtype=np.int64))
        direct = encode_examples([examples[i] for i in ids], ds.schemas, AUX_GROUPS)
        self.assert_same_columns(taken, direct)
        for group in AUX_GROUPS:  # a taken batch gathers rows over its split's own tables
            assert taken.aux[group][1] is split.aux[group][1]
            assert taken.aux[group][2].dtype == np.int32

    @pytest.mark.parametrize("variant", ["dstn-p", "dstn-s", "dstn-i"])
    def test_a_forward_over_a_split_embeds_the_rows_of_its_taken_batch(self, tiny_dataset,
                                                                        variant):
        ds, vocab, tr, *_ = tiny_dataset
        model = init_model(Variant(variant), ds.schemas, vocab.size, make_rng(8), k=3,
                           fc_dims=(6, 4), attention_dim=5, dtype=np.float32)
        split = encode_examples(tr[:90], ds.schemas, AUX_GROUPS)
        # the tables are shorter than the ads they stand for
        assert sum(len(split.aux[g][1]) for g in AUX_GROUPS) < sum(len(split.aux[g][2])
                                                                  for g in AUX_GROUPS)
        runs = [forward_batch(model, batch) for batch in (split, split.take(np.arange(90)))]
        (p_split, t_split), (p_taken, t_taken) = runs
        assert p_split.tobytes() == p_taken.tobytes()
        for group in AUX_GROUPS:
            assert t_split.aux[group].ads.tobytes() == t_taken.aux[group].ads.tobytes()
        g_split, g_taken = backward(model, t_split), backward(model, t_taken)
        assert g_split.emb_rows.tobytes() == g_taken.emb_rows.tobytes()
        assert g_split.emb_grads.tobytes() == g_taken.emb_grads.tobytes()
        assert all(g_split.dense[n].tobytes() == g_taken.dense[n].tobytes()
                   for n in g_taken.dense)


def test_kept_rows_under_a_small_cap_read_back_as_embedded_afresh(table, monkeypatch):
    # More threads than cores, a short switch interval and a cap that most
    # misses pass: every take still reads each ad's own row, bit for bit.
    import sys
    import threading

    monkeypatch.setattr(embedding, "MAX_KEPT_ROWS", 6)

    def encode(ads):
        bags = [bag for ad in ads for bag in ((ad % 12,), (ad * 5 % 12, 7))]
        return AdColumns.from_bags(2, bags)

    kept, errors = EmbeddedAds(table), []

    def reader(seed):
        rng = make_rng(seed)
        try:
            for _ in range(150):
                ads = [int(a) for a in rng.integers(0, 20, size=int(rng.integers(1, 5)))]
                got = kept.take(ads, encode)
                assert got.tobytes() == embed_matrix(encode(ads), table).tobytes()
        except Exception as exc:  # surface failures from worker threads
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert 0 < len(kept.index) <= 6


class TestFinalize:
    """``finalize`` sums one column at a time over the kept (segments, bag
    lengths), with the bits of the sum over every scatter's fully repeated
    rows."""

    @staticmethod
    def reference(scatters, k, dtype):
        """Concatenated repeats, then np.unique and one bincount over
        flattened (row, column) cells."""
        indices = np.concatenate([cols.indices for cols, _ in scatters])
        rows, slot = np.unique(indices, return_inverse=True)
        grads = np.concatenate([up.reshape(-1, k).repeat(np.diff(cols.offsets), axis=0)
                                for cols, up in scatters])
        cells = (slot * k)[:, None] + np.arange(k)
        sums = np.bincount(cells.ravel(), weights=grads.ravel(), minlength=len(rows) * k)
        return rows, sums.astype(dtype).reshape(len(rows), k)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 12), table_rows=st.integers(1, 40),
           shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 8)), min_size=1,
                           max_size=4),
           max_bag=st.sampled_from([1, 3, 400]), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_sum_over_repeated_rows(self, k, table_rows, shapes, max_bag, dtype,
                                               seed):
        rng = make_rng(seed)
        acc = RowGradAccumulator(table_rows, k, dtype)
        scatters = []
        for n_fields, n_ads in shapes:
            lens = rng.integers(0, max_bag + 1, n_ads * n_fields)  # empty bags too
            offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
            cols = AdColumns(n_fields, offsets,
                             rng.integers(0, table_rows, offsets[-1]).astype(np.int32))
            up = (rng.normal(0.0, 1.0, (n_ads, n_fields * k))
                  * 10.0 ** rng.integers(-6, 6, (n_ads, n_fields * k))).astype(dtype)
            acc.scatter_matrix(cols, up)
            if cols.indices.size:
                scatters.append((cols, up))
        rows, sums = acc.finalize()
        assert rows.dtype == np.intp and sums.dtype == dtype
        if not scatters:
            assert rows.shape == (0,) and sums.shape == (0, k)
            return
        want_rows, want_sums = self.reference(scatters, k, dtype)
        assert rows.tobytes() == want_rows.astype(np.intp).tobytes()
        assert sums.shape == want_sums.shape and sums.tobytes() == want_sums.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestNothingToSumKeepsTheTableDtype:
    """bincount returns integers when it has no terms: with no feature index
    at all, gather, scatter and the per-example sums still return floats of
    the table's dtype."""

    def test_gather_of_empty_bags_and_of_no_ads(self, dtype):
        table = np.ones((5, 3), dtype=dtype)
        empty_bags = AdColumns(2, np.zeros(5, np.int32), np.zeros(0, np.int32))  # 2 ads
        no_ads = AdColumns(2, np.zeros(1, np.int32), np.zeros(0, np.int32))
        for cols, n in ((empty_bags, 2), (no_ads, 0)):
            out = embed_matrix(cols, table)
            assert out.dtype == dtype and out.shape == (n, 6) and not out.any()
        some = AdColumns(2, np.array([0, 1, 1], np.int32), np.array([4], np.int32))
        assert embed_matrix(some, table).dtype == dtype

    def test_scatter_of_empty_bags(self, dtype):
        acc = RowGradAccumulator(5, 3, dtype)
        acc.scatter_matrix(AdColumns(2, np.zeros(3, np.int32), np.zeros(0, np.int32)),
                           np.ones((1, 6), dtype=dtype))
        rows, grads = acc.finalize()
        assert rows.shape == (0,) and grads.shape == (0, 3) and grads.dtype == dtype
        acc.scatter_matrix(AdColumns(1, np.array([0, 1], np.int32), np.array([2], np.int32)),
                           np.ones((1, 3), dtype=dtype))
        assert acc.finalize()[1].dtype == dtype

    def test_row_sums_of_a_group_empty_in_the_whole_batch(self, dtype):
        rows = np.zeros(0, np.intp)
        for values, shape in ((np.zeros((0, 3), dtype), (4, 3)), (np.zeros(0, dtype), (4,))):
            out = segment_sum(values, rows, 4)
            assert out.dtype == dtype and out.shape == shape and not out.any()
