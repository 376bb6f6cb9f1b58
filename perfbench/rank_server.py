"""Launcher for the serve-rank workload's server process.

Loads a checkpoint (with its schema and vocabulary sidecars), restores a
session snapshot, loads an ad catalog, and serves the RANK line protocol on a
free loopback port. It prints ``PORT <n>`` once listening and serves until its
standard input closes. For each line read from standard input it prints one
JSON line with the CPU time the process has used so far, so the caller can
take the server's CPU cost of a stretch of load. At exit it prints one JSON
line with its peak RSS and the session-store state at ``--now``. With
``--spans`` it records spans around the package's calls and writes them to
that file before exiting.

    python3 perfbench/rank_server.py --ckpt C --snapshot S --catalog A --now T
        [--spans F] [--cpu N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--now", type=int, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from adctr import models, schema, serving, session

    tracer = None
    if args.spans:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    schemas = schema.load_schemas(f"{args.ckpt}.schema.tsv")
    vocab = schema.Vocabulary.load(f"{args.ckpt}.vocab.tsv")
    model, _ = models.load_model(args.ckpt, schemas)
    store = session.SessionStore.restore(args.snapshot, schemas, vocab)
    catalog = serving.load_catalog(args.catalog, schemas["target"])
    server = serving.RankProtocolServer(serving.AdServer(serving.ModelScorer(model), store),
                                        catalog, schemas["target"], vocab)
    server.start()
    print(f"PORT {server.address[1]}", flush=True)
    try:
        for _ in sys.stdin:  # serve until the client closes our stdin
            print(json.dumps({"cpu_s": time.process_time()}), flush=True)
    finally:
        server.stop()
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.spans)
    users = store.user_ids()
    live = sum(1 for u in users if any(store.get_history(u, args.now)))
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "users_retained": len(users),
                      "users_live": live}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
