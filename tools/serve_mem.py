"""Print what a RANK server process holds: its resident set after each
start-up stage, its peak, and whether ``hashlib`` is loaded.

The stages are those of ``perfbench/rank_server.py``, in its order, in this
fresh process: ``start`` (the interpreter and this tool), ``numpy`` (its
import), ``adctr`` (the imports of ``adctr.models``, ``schema``, ``serving``
and ``session``), ``vocabulary`` (this tool's read of the requests, then
``load_schemas`` and ``Vocabulary.load`` of the checkpoint's sidecars),
``model`` (``load_model``), ``session`` (``SessionStore.restore`` of the
snapshot), ``catalog`` (``load_catalog``),
``scorer`` (the ``ModelScorer``, ``AdServer`` and ``RankProtocolServer``),
``first_request`` (one ``handle_line``) and ``all_requests`` (the other
lines). The server does not listen: requests go to ``handle_line`` directly,
so no socket or thread is counted. Each stage prints ``<stage>_mb``, the
resident set in MB (2**20 bytes) when it ended. ``peak_mb`` is the process's
peak resident set as ``perfbench`` reads it (``ru_maxrss``), or the highest
stage reading if that is higher; ``requests`` is the number of lines served,
and ``hashlib_loaded`` is 1 if OpenSSL's ``_hashlib`` was loaded by the end,
else 0.

Each line of the requests file is a RANK request, or ends in one after its
last tab, so the benchmark's ``requests.tsv`` can be passed as it is.

Usage: python3 tools/serve_mem.py <ckpt> <snapshot> <catalog> <rank lines>
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MB = 2 ** 20


def resident_mb() -> float:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print("usage: serve_mem.py <ckpt> <snapshot> <catalog> <rank lines>", file=sys.stderr)
        return 2
    ckpt, snapshot, catalog_path, requests_path = argv[1:]
    stages = {"start": resident_mb()}

    import numpy  # noqa: F401
    stages["numpy"] = resident_mb()

    from adctr import models, schema, serving, session
    stages["adctr"] = resident_mb()

    with schema.read_lines(requests_path, schema.InputError) as numbered:
        lines = [text.rpartition("\t")[2] for _, text in numbered if text.strip()]
    if not lines:
        print(f"serve_mem.py: {requests_path} holds no request", file=sys.stderr)
        return 2
    schemas = schema.load_schemas(f"{ckpt}.schema.tsv")
    vocab = schema.Vocabulary.load(f"{ckpt}.vocab.tsv")
    stages["vocabulary"] = resident_mb()
    model, _ = models.load_model(ckpt, schemas)
    stages["model"] = resident_mb()
    store = session.SessionStore.restore(snapshot, schemas, vocab)
    stages["session"] = resident_mb()
    catalog = serving.load_catalog(catalog_path, schemas["target"])
    stages["catalog"] = resident_mb()
    server = serving.RankProtocolServer(serving.AdServer(serving.ModelScorer(model), store),
                                        catalog, schemas["target"], vocab)
    stages["scorer"] = resident_mb()
    server.handle_line(lines[0])
    stages["first_request"] = resident_mb()
    for line in lines[1:]:
        server.handle_line(line)
    stages["all_requests"] = resident_mb()

    for stage, mb in stages.items():
        print(f"{stage}_mb {mb:.1f}")
    # The kernel's resident counters are approximate, so its recorded peak
    # can read a little below a stage's reading.
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, *stages.values())
    print(f"peak_mb {peak:.1f}")
    print(f"requests {len(lines)}")
    print(f"hashlib_loaded {int('_hashlib' in sys.modules)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
