import pytest

from adctr.ingest import SyntheticConfig, generate_synthetic, iter_group_records, parse_log_line
from adctr.schema import build_vocabulary
from adctr.toy import make_toy_problem


@pytest.fixture(scope="session")
def toy_problem():
    """(schemas, vocab, examples) — small random batch with every group populated."""
    return make_toy_problem(seed=11, n_examples=12)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small synthetic dataset with its vocabulary and encoded splits."""
    cfg = SyntheticConfig(n_users=40, n_ads=60, n_train=1500, n_val=300, n_test=300, seed=5)
    ds = generate_synthetic(cfg)
    vocab = build_vocabulary(iter_group_records(ds.train), ds.schemas)
    cache = {}

    def enc(lines):
        return [parse_log_line(l, ds.schemas, vocab, i + 1, cache) for i, l in enumerate(lines)]

    return ds, vocab, enc(ds.train), enc(ds.validation), enc(ds.test)


@pytest.fixture(scope="session")
def rank_server_files(tiny_dataset, tmp_path_factory):
    """The files a RANK server starts from, written from ``tiny_dataset``: a
    small DSTN-I checkpoint with its schema and vocabulary sidecars, a
    session snapshot of every example's history, a catalog of every target
    ad and twenty RANK lines. A dict of their paths."""
    from adctr.ingest import ad_text
    from adctr.models import Variant, init_model, save_model
    from adctr.numerics import make_rng
    from adctr.schema import save_schemas, schemas_hash
    from adctr.serving import ad_display_id
    from adctr.session import SessionStore

    ds, vocab, train, *_ = tiny_dataset
    out = tmp_path_factory.mktemp("rank_server")
    paths = {name: out / name for name in ("model.ckpt", "snapshot.tsv", "catalog.tsv",
                                           "requests.tsv")}
    ckpt = paths["model.ckpt"]
    model = init_model(Variant.DSTN_I, ds.schemas, vocab.size, make_rng(45), k=4,
                       fc_dims=(8, 4), attention_dim=4, dropout_p=0.0)
    save_model(ckpt, model, schemas_hash(ds.schemas), vocab.content_hash())
    save_schemas(ds.schemas, f"{ckpt}.schema.tsv")
    vocab.save(f"{ckpt}.vocab.tsv")

    store = SessionStore()
    for ex in train:
        for clicked, ads in ((True, ex.clicked), (False, ex.unclicked)):
            for ad in ads:
                store.record_event(ex.user_id, ad, clicked, ex.timestamp)
    store.snapshot(paths["snapshot.tsv"])
    catalog = {ad_display_id(ex.target): ad_text(p for p in ex.target.raw if p[0] != "user_id")
               for ex in train}
    paths["catalog.tsv"].write_text("".join(f"{ad_id}\t{text}\n"
                                            for ad_id, text in sorted(catalog.items())),
                                    encoding="utf-8")
    ad_ids, now = sorted(catalog), max(ex.timestamp for ex in train)
    paths["requests.tsv"].write_text(
        "".join(f"RANK {ex.user_id} {now} 4 {','.join(ad_ids[i:i + 8])}\n"
                for i, ex in enumerate(train[:20])), encoding="utf-8")
    return paths
