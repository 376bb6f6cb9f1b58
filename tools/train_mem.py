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

The traced call also shows where a step's peak sits. ``held_bytes`` is
what it held when its first training step began (the encoded streams, the
model and its Adagrad state), and ``<stage>_peak_bytes`` is the most it held
during any call of that stage: ``forward`` (a training forward),
``backward``, ``optimizer`` (an Adagrad step of one tensor) and
``validation`` (one epoch's ``evaluate``, whose forwards count there only).
All are bytes above what was held before the call.

Usage: python3 tools/train_mem.py <train log> <val log> <schema>
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adctr import train_eval  # noqa: E402
from adctr.ingest import iter_group_records, read_examples  # noqa: E402
from adctr.schema import build_vocabulary, load_schemas  # noqa: E402
from adctr.train_eval import TrainConfig, train  # noqa: E402

# stage -> the train_eval names whose calls it covers
STAGES = {"forward": ("forward_batch",), "backward": ("backward",),
          "optimizer": ("adagrad_step", "adagrad_step_rows"), "validation": ("evaluate",)}


class StagePeaks:
    """Traced memory per stage while ``train_eval``'s stage functions are
    wrapped: each stage's highest traced level during any of its calls, the
    level when the first training forward began, and the highest level
    overall, all above ``base``. A stage call made inside another stage's
    call counts for the outer stage only (validation's forwards). Each
    outermost call resets tracemalloc's peak after reading it into ``top``,
    which ``overall`` reads with the peak since the last reset."""

    def __init__(self):
        self.base = 0
        self.peaks = dict.fromkeys(STAGES, 0)
        self.first_step_held: int | None = None
        self.top = 0
        self.inside = False

    def wrap(self, stage: str, fn):
        def wrapped(*args, **kwargs):
            if self.inside:
                return fn(*args, **kwargs)
            held, peak = tracemalloc.get_traced_memory()
            self.top = max(self.top, peak)
            if stage == "forward" and self.first_step_held is None:
                self.first_step_held = held - self.base
            tracemalloc.reset_peak()
            self.inside = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.inside = False
                peak = tracemalloc.get_traced_memory()[1]
                self.top = max(self.top, peak)
                self.peaks[stage] = max(self.peaks[stage], peak - self.base)
        return wrapped

    def overall(self) -> int:
        return max(self.top, tracemalloc.get_traced_memory()[1]) - self.base


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
    stages = StagePeaks()
    originals = {name: getattr(train_eval, name) for names in STAGES.values() for name in names}
    for stage, names in STAGES.items():
        for name in names:
            setattr(train_eval, name, stages.wrap(stage, originals[name]))
    stages.base = tracemalloc.get_traced_memory()[0]
    try:
        result = train(config, train_ex, val_ex, schemas, vocab)
    finally:
        for name, fn in originals.items():
            setattr(train_eval, name, fn)
    peak = stages.overall()
    retained = tracemalloc.get_traced_memory()[0] - stages.base
    tracemalloc.stop()
    print(f"examples {len(train_ex)}")
    print(f"peak_bytes {peak}")
    print(f"retained_bytes {retained}")
    print(f"held_bytes {stages.first_step_held}")
    for stage, value in stages.peaks.items():
        print(f"{stage}_peak_bytes {value}")
    print(f"train_s {train_s:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
