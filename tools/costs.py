"""Print how many calls one serving request makes: the Python and C calls
(``sys.setprofile``) of a warm RANK request and of a replay request, as the
median, least and most over N requests.

A Python call is a Python frame entered (a ``call`` event); a C call is a
call of a builtin function or method, numpy's included (a ``c_call``
event). Operators (``@``, ``+``, ``x[i]``) and calls of numpy ufuncs such as
``np.maximum`` call no function object the profiler sees, so they count
as neither. The counts do not depend on the host, its load or the BLAS
thread count: two runs on the same inputs print the same numbers.

* ``rank.*``: one ``RankProtocolServer.handle_line`` of a RANK server
  started as ``perfbench/rank_server.py`` starts it (checkpoint with its
  schema and vocabulary sidecars, session snapshot, catalog), after every
  request line has been served once, so that every catalog and history row
  it names is kept. The first N lines are counted.
* ``replay.*`` (with ``--events``): one ``rank_request`` of
  ``replay_session`` over the event log, against a fresh scorer of the same
  checkpoint and an empty session store, as the serve-replay benchmark runs
  it, with its propagation lag of LAG_SECONDS. The first N requests of the
  log are counted.

Each line of the requests file is a RANK request, or ends in one after its
last tab, so the benchmark's ``requests.tsv`` can be passed as it is. Each
output line reads ``<name> <median> <least> <most>``; with ``--compare
<checkout>`` the same counts are taken on that checkout's ``src`` too, and
each line reads ``<name> <median here> <median there> <change>`` with the
change relative to the other checkout's median.

Usage: python3 tools/costs.py <ckpt> <snapshot> <catalog> <rank lines>
           [--events <log>] [-n <N>] [--compare <checkout>]
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAG_SECONDS = 10  # the serve-replay benchmark's (perfbench/inputs.py)


class CallCounter:
    """A profile function that counts the Python and C calls made inside
    each call of one function (its code object), nested calls included."""

    def __init__(self, code):
        self.code = code
        self.depth = 0
        self.python = self.c = 0
        self.samples: list[tuple[int, int]] = []  # (Python, C) per call

    def __call__(self, frame, event, arg):
        if event == "call":
            if frame.f_code is self.code:
                self.depth += 1
                if self.depth == 1:
                    self.python = self.c = 0
                    return
            if self.depth:
                self.python += 1
        elif event == "c_call":
            if self.depth:
                self.c += 1
        elif event == "return" and frame.f_code is self.code:
            self.depth -= 1
            if not self.depth:
                self.samples.append((self.python, self.c))

    def counted(self, run) -> list[tuple[int, int]]:
        """The samples of the calls made while ``run()`` runs."""
        sys.setprofile(self)
        try:
            run()
        finally:
            sys.setprofile(None)
        return self.samples


def summary(name: str, samples: list[tuple[int, int]]) -> dict[str, tuple[int, int, int]]:
    out = {f"{name}.requests": (len(samples),) * 3}
    for kind, values in (("python_calls", [s[0] for s in samples]),
                         ("c_calls", [s[1] for s in samples])):
        out[f"{name}.{kind}"] = (statistics.median_low(values), min(values), max(values))
    return out


def measure(args) -> dict[str, tuple[int, int, int]]:
    from adctr import models, schema, serving, session

    with open(args.requests, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rpartition("\t")[2] for line in fh if line.strip()]
    if not lines:
        raise SystemExit(f"costs.py: {args.requests} holds no request")
    schemas = schema.load_schemas(f"{args.ckpt}.schema.tsv")
    vocab = schema.Vocabulary.load(f"{args.ckpt}.vocab.tsv")
    model, _ = models.load_model(args.ckpt, schemas)
    store = session.SessionStore.restore(args.snapshot, schemas, vocab)
    catalog = serving.load_catalog(args.catalog, schemas["target"])
    server = serving.RankProtocolServer(serving.AdServer(serving.ModelScorer(model), store),
                                        catalog, schemas["target"], vocab)
    try:
        for line in lines:  # warm: every row a request names is kept
            server.handle_line(line)
        counter = CallCounter(serving.RankProtocolServer.handle_line.__code__)
        out = summary("rank", counter.counted(
            lambda: [server.handle_line(line) for line in lines[: args.n]]))
    finally:
        server.stop()
    if args.events:
        events = serving.parse_events(args.events, schemas, vocab)
        reqs = [i for i, ev in enumerate(events) if ev.kind == "req"][: args.n]
        if not reqs:
            raise SystemExit(f"costs.py: {args.events} holds no request")
        counter = CallCounter(serving.rank_request.__code__)
        out.update(summary("replay", counter.counted(lambda: serving.replay_session(
            serving.ModelScorer(model), session.SessionStore(), events[: reqs[-1] + 1],
            lag_seconds=LAG_SECONDS))))
    return out


def _run_on(src: Path, argv: list[str]) -> dict[str, tuple[int, ...]]:
    """This tool's counts on another source tree, in a process of its own."""
    run = subprocess.run([sys.executable, __file__, *argv, "--src", str(src)],
                         capture_output=True, text=True, timeout=600)
    if run.returncode != 0:
        raise SystemExit(f"costs.py on {src}: {run.stderr.strip()}")
    return {name: tuple(map(int, rest)) for name, *rest in map(str.split, run.stdout.splitlines())}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="costs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("ckpt")
    parser.add_argument("snapshot")
    parser.add_argument("catalog")
    parser.add_argument("requests")
    parser.add_argument("--events", help="an event log to replay")
    parser.add_argument("-n", type=int, default=200, help="requests counted (default 200)")
    parser.add_argument("--compare", type=Path, help="another checkout to count on too")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    if args.n < 1:
        parser.error("-n must be at least 1")
    if args.compare is not None:
        rest = [args.ckpt, args.snapshot, args.catalog, args.requests, "-n", str(args.n)] + (
            ["--events", args.events] if args.events else [])
        here, there = _run_on(ROOT / "src", rest), _run_on(args.compare / "src", rest)
        for name, (median, *_) in here.items():
            other = there.get(name, (0,))[0]
            change = f"{(median - other) / other:+.1%}" if other else "-"
            print(f"{name} {median} {other} {change}")
        return 0
    sys.path.insert(0, str(args.src))
    for name, (median, least, most) in measure(args).items():
        print(f"{name} {median} {least} {most}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
