"""Print what parsing one impression log costs: the bytes its parsed
examples hold per line, the most bytes the parse held at once per line, and
the time the parse and the vocabulary pass take.

The vocabulary is built from the log itself, as ``adctr train`` builds it
from its training file. The log is then parsed twice with one cache per
pass, as ``ingest.read_examples`` parses a file: once timed, once under
``tracemalloc``. ``bytes_per_line`` is the traced memory the parsed examples
still hold after the pass (the pass's cache is freed by then), divided by
the number of lines. ``peak_bytes_per_line`` is the traced peak during the
pass, cache included, over the same count. ``parse_s`` is the untraced
pass's wall time and ``parse_cpu_s`` its process CPU time;
``vocab_cpu_s`` is the vocabulary pass's process CPU time.

Usage: python3 tools/parse_mem.py <log> <schema>
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adctr.ingest import ParseError, iter_group_records, read_examples  # noqa: E402
from adctr.schema import build_vocabulary, load_schemas, read_lines  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: parse_mem.py <log> <schema>", file=sys.stderr)
        return 2
    log, schema_path = argv[1], argv[2]
    schemas = load_schemas(schema_path)
    cpu0 = time.process_time()
    with read_lines(log, ParseError) as lines:
        vocab = build_vocabulary(iter_group_records(text for _, text in lines), schemas)
    vocab_cpu_s = time.process_time() - cpu0

    t0, cpu0 = time.perf_counter(), time.process_time()
    examples = read_examples(log, schemas, vocab)
    parse_s, parse_cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    n = len(examples)
    del examples

    # A full collection also empties the interpreter's free lists, so the
    # traced pass neither reuses untraced objects nor counts ones freed into
    # them before it began.
    gc.collect()
    tracemalloc.start()
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    examples = read_examples(log, schemas, vocab)
    held, peak = (b - before for b in tracemalloc.get_traced_memory())
    tracemalloc.stop()
    print(f"lines {n}")
    print(f"bytes_per_line {held / max(n, 1):.0f}")
    print(f"peak_bytes_per_line {peak / max(n, 1):.0f}")
    print(f"parse_s {parse_s:.3f}")
    print(f"parse_cpu_s {parse_cpu_s:.3f}")
    print(f"vocab_cpu_s {vocab_cpu_s:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
