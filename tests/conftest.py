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
