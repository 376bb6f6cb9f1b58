"""Command-line entry points: gen-data, train, eval, gradcheck, serve-sim."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import ingest, serving, train_eval
from .models import Variant, encode_batch, load_model, save_model
from .numerics import CheckpointError
from .schema import (InputError, Vocabulary, build_vocabulary, load_schemas, read_lines,
                     save_schemas, schemas_hash)
from .session import SessionStore

ABLATE_CHOICES = {"ctx": "contextual", "clk": "clicked", "unclk": "unclicked"}


class UsageError(Exception):
    """Options that do not go together."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="adctr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic impression log")
    p.add_argument("--config", help="SyntheticConfig JSON (defaults used if omitted)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train a variant on a log")
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    p.add_argument("--config", help="TrainConfig JSON (defaults used if omitted)")
    p.add_argument("--train", required=True, dest="train_path")
    p.add_argument("--val", required=True, dest="val_path")
    p.add_argument("--schema", help="schema file (default: schema.tsv next to --train)")
    p.add_argument("--init-ckpt", dest="init_ckpt",
                   help="warm-start from this checkpoint (reuses its schema and vocabulary)")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test log")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--test", required=True, dest="test_path")
    p.add_argument("--dump-attention", dest="dump_attention",
                   help="write per-example attention weights to this TSV")
    p.add_argument("--ablate", choices=sorted(ABLATE_CHOICES))
    p.add_argument("--report", help="key-value report path (default: <ckpt>.eval.kv)")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("serve-sim", help="replay an event log through the serving protocol")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--events", help="event log to replay")
    p.add_argument("--lag-seconds", dest="lag_seconds", type=int, default=0)
    p.add_argument("--out", help="results TSV (replay mode)")
    p.add_argument("--listen", type=int, help="serve the RANK line protocol on this port")
    p.add_argument("--catalog", help="ad catalog TSV for --listen mode")
    p.add_argument("--snapshot", help="session-store snapshot to preload")

    args = parser.parse_args(argv)
    command = {
        "gen-data": _cmd_gen_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
        "serve-sim": _cmd_serve_sim,
    }[args.command]
    try:
        return command(args)
    except (InputError, train_eval.NonFiniteError, UsageError, OSError) as exc:
        # refused input, or a file or port the system refused: one line, not a traceback
        print(f"adctr: {exc}", file=sys.stderr)
        return 2


def _cmd_gen_data(args) -> int:
    cfg = ingest.SyntheticConfig.from_json(args.config) if args.config else ingest.SyntheticConfig()
    if args.seed is not None:
        cfg = ingest.SyntheticConfig(**{**cfg.__dict__, "seed": args.seed})
    dataset = ingest.generate_synthetic(cfg)
    dataset.write(args.out)
    for name, (lines, _) in dataset.splits().items():
        ctr = sum(int(l.split("\t", 1)[0]) for l in lines) / max(len(lines), 1)
        print(f"{name}: {len(lines)} examples, ctr={ctr:.4f}")
    return 0


def _sidecars(ckpt: str) -> tuple[str, str]:
    return f"{ckpt}.schema.tsv", f"{ckpt}.vocab.tsv"


def _cmd_train(args) -> int:
    config = (train_eval.TrainConfig.from_json(args.config, variant=args.variant)
              if args.config else train_eval.TrainConfig(variant=args.variant))
    initial = None
    if args.init_ckpt:
        # Incremental refresh: keep the original feature space so embedding
        # rows stay aligned; new raw values fall back to the OOV indices.
        initial, schemas, vocab = _load_checkpoint(args.init_ckpt)
        if initial.variant.value != config.variant:
            raise UsageError(f"--init-ckpt holds a {initial.variant.value} model, "
                             f"not {config.variant}")
    else:
        schema_path = args.schema or str(Path(args.train_path).with_name("schema.tsv"))
        schemas = load_schemas(schema_path)
        with read_lines(args.train_path, ingest.ParseError) as lines:
            vocab = build_vocabulary(ingest.iter_group_records(t for _, t in lines), schemas)
    train_examples = ingest.read_examples(args.train_path, schemas, vocab)
    val_examples = ingest.read_examples(args.val_path, schemas, vocab)
    model, history = train_eval.train(config, train_examples, val_examples, schemas, vocab,
                                      initial=initial)
    for entry in history:
        line = f"epoch={entry['epoch']} train_loss={entry['train_loss']:.6f}"
        if "val_auc" in entry:
            line += f" val_auc={entry['val_auc']:.6f} val_logloss={entry['val_logloss']:.6f}"
        print(line)

    save_model(args.out, model, schemas_hash(schemas), vocab.content_hash())
    schema_side, vocab_side = _sidecars(args.out)
    save_schemas(schemas, schema_side)
    vocab.save(vocab_side)
    print(f"saved {args.out}")
    return 0


def _load_checkpoint(ckpt: str):
    schema_side, vocab_side = _sidecars(ckpt)
    schemas = load_schemas(schema_side)
    vocab = Vocabulary.load(vocab_side)
    model, header = load_model(ckpt, schemas)
    if (header.get("schema_hash") != schemas_hash(schemas)
            or header.get("vocab_hash") != vocab.content_hash()):
        raise CheckpointError(f"{ckpt}: sidecar schema/vocabulary does not match the "
                              f"checkpoint")
    if len(model.tensors["emb.E"]) != vocab.size:
        raise CheckpointError(f"{ckpt}: tensor emb.E has {len(model.tensors['emb.E'])} rows, "
                              f"the vocabulary {vocab.size}")
    return model, schemas, vocab


def _cmd_eval(args) -> int:
    model, schemas, vocab = _load_checkpoint(args.ckpt)
    batch = encode_batch(model, ingest.read_examples(args.test_path, schemas, vocab))
    if args.ablate:
        batch = batch.ablate(ABLATE_CHOICES[args.ablate])
    scores, attn = train_eval.predict(model, batch, collect_attention=bool(args.dump_attention))
    try:
        report = train_eval.EvalReport(auc=train_eval.auc(scores, batch.labels),
                                       logloss=train_eval.logloss_eval(scores, batch.labels),
                                       n=len(batch), variant=model.variant.value)
    except train_eval.MetricUndefinedError as exc:  # the test log holds one class, or none
        exc.path = args.test_path
        raise
    print(report.format_line())
    report_path = args.report or f"{args.ckpt}.eval.kv"
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.kv_text())
    if args.dump_attention:
        with open(args.dump_attention, "w", encoding="utf-8", newline="\n") as fh:
            for example_i, group, ordinal, weight in attn:
                fh.write(f"{example_i}\t{group}\t{ordinal}\t{weight!r}\n")
    return 0


def _cmd_gradcheck(args) -> int:
    report = train_eval.grad_check(args.variant, tolerance=args.tol, seed=args.seed)
    for line in report.format_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_serve_sim(args) -> int:
    model, schemas, vocab = _load_checkpoint(args.ckpt)
    store = (SessionStore.restore(args.snapshot, schemas, vocab)
             if args.snapshot else SessionStore())
    scorer = serving.ModelScorer(model)

    if args.listen is not None:
        if not args.catalog:
            raise UsageError("--listen mode needs --catalog")
        catalog = serving.load_catalog(args.catalog, schemas["target"])
        server = serving.RankProtocolServer(serving.AdServer(scorer, store), catalog,
                                            schemas["target"], vocab, port=args.listen)
        host, port = server.address
        print(f"listening on {host}:{port}")
        server.start()
        try:
            server._thread.join()
        except KeyboardInterrupt:
            server.stop()
        return 0

    if not args.events or not args.out:
        raise UsageError("replay mode needs --events and --out")
    events = serving.parse_events(args.events, schemas, vocab)
    results = serving.replay_session(scorer, store, events, lag_seconds=args.lag_seconds)
    serving.write_results(args.out, results)
    forwards = sum(n for res in results for _, n in res.rounds)
    print(f"{len(results)} requests ranked, {forwards} model forwards")
    # A request's latency is the sum of its rounds; the argmax and sort between them go untimed.
    latency = [sum(s for s, _ in res.rounds) for res in results]
    print(f"request scoring latency {_percentiles(latency)}")
    for rnd in (1, 2):
        calls = [res.rounds[rnd - 1] for res in results if len(res.rounds) >= rnd]
        line = f"round {rnd} {_percentiles([s for s, _ in calls])}"
        if calls:
            line += f" forwards/request={np.mean([n for _, n in calls]):.2f}"
        print(line)
    return 0


def _percentiles(seconds) -> str:
    if not seconds:
        return "n=0"
    p50, p99 = np.percentile(np.asarray(seconds) * 1e3, [50, 99])
    return f"n={len(seconds)} p50={p50:.3f} ms p99={p99:.3f} ms"


if __name__ == "__main__":
    sys.exit(main())
