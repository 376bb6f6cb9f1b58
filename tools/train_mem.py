"""Print what one training call costs: the most bytes a one-epoch DSTN-I
``train()`` call held at once, the bytes it still holds after returning, and
its time.

The vocabulary is built from the training log, as ``adctr train`` builds
it, and both logs are parsed once. ``train`` then runs twice with the
default ``TrainConfig`` except ``epochs=1`` (the benchmark's train-dstn-i
call), on the parsed examples: once timed, then once under ``tracemalloc``.
Both calls start from the same seed and do the same work. ``train_s`` is the
first call's wall time, one-time costs of a first call included. The second
call is traced so that those one-time allocations stay out of its figures:
``peak_bytes`` is its peak above what was held before it (the encoded
streams, the model, its Adagrad state and one batch's activations), and
``retained_bytes`` is what its result (the best model and the history)
still holds after it returns.

Usage: python3 tools/train_mem.py <train log> <val log> <schema>
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adctr.ingest import iter_group_records, read_examples  # noqa: E402
from adctr.schema import build_vocabulary, load_schemas  # noqa: E402
from adctr.train_eval import TrainConfig, train  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: train_mem.py <train log> <val log> <schema>", file=sys.stderr)
        return 2
    train_log, val_log, schema_path = argv[1:]
    schemas = load_schemas(schema_path)
    with open(train_log, "r", encoding="utf-8") as fh:
        vocab = build_vocabulary(iter_group_records(fh), schemas)
    train_ex = read_examples(train_log, schemas, vocab)
    val_ex = read_examples(val_log, schemas, vocab)
    config = TrainConfig(epochs=1)

    gc.collect()
    t0 = time.perf_counter()
    result = train(config, train_ex, val_ex, schemas, vocab)
    train_s = time.perf_counter() - t0
    del result

    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = train(config, train_ex, val_ex, schemas, vocab)
    held, peak = (b - before for b in tracemalloc.get_traced_memory())
    tracemalloc.stop()
    print(f"examples {len(train_ex)}")
    print(f"peak_bytes {peak}")
    print(f"retained_bytes {held}")
    print(f"train_s {train_s:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
