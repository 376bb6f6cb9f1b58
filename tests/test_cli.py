import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from adctr.cli import main
from oracles import oov


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = {"n_users": 30, "n_ads": 40, "n_train": 600, "n_val": 150, "n_test": 150,
           "seed": 12}
    cfg_path = out / "gen.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(data_dir, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("model") / "model.ckpt"
    cfg = {"epochs": 1, "fc_dims": [16, 8], "embedding_dim": 4, "attention_dim": 4,
           "seed": 12}
    cfg_path = ckpt.parent / "train.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["train", "--variant", "dstn-i", "--config", str(cfg_path),
               "--train", str(data_dir / "train.tsv"), "--val", str(data_dir / "val.tsv"),
               "--out", str(ckpt)])
    assert rc == 0
    return ckpt


def test_gen_data_writes_splits(data_dir):
    assert (data_dir / "train.tsv").exists()
    assert (data_dir / "schema.tsv").exists()
    assert len((data_dir / "train.tsv").read_text().splitlines()) == 600


def test_train_writes_checkpoint_and_sidecars(checkpoint):
    assert checkpoint.exists()
    assert checkpoint.with_name(checkpoint.name + ".schema.tsv").exists()
    assert checkpoint.with_name(checkpoint.name + ".vocab.tsv").exists()


def test_eval_prints_report_line(data_dir, checkpoint, capsys, tmp_path):
    report = tmp_path / "report.kv"
    attn = tmp_path / "attn.tsv"
    rc = main(["eval", "--ckpt", str(checkpoint), "--test", str(data_dir / "test.tsv"),
               "--report", str(report), "--dump-attention", str(attn)])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("auc=") and "logloss=" in line and line.endswith("n=150")
    kv = dict(l.split("=", 1) for l in report.read_text().splitlines())
    assert 0.0 <= float(kv["auc"]) <= 1.0
    rows = [l.split("\t") for l in attn.read_text().splitlines()]
    assert rows, "attention dump should not be empty for dstn-i"
    assert all(r[1] in ("contextual", "clicked", "unclicked") for r in rows)
    assert all(float(r[3]) > 0 for r in rows)  # interactive weights are positive


def test_eval_with_ablation(data_dir, checkpoint, capsys, tmp_path):
    attn = tmp_path / "attn.tsv"
    rc = main(["eval", "--ckpt", str(checkpoint), "--test", str(data_dir / "test.tsv"),
               "--ablate", "clk", "--dump-attention", str(attn)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("auc=")
    groups = [line.split("\t")[1] for line in attn.read_text().splitlines()]
    assert groups and set(groups) == {"clicked"}


def test_gradcheck_cli(capsys):
    assert main(["gradcheck", "--variant", "dstn-p", "--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "fusion.W" in out


def test_serve_sim_replay(data_dir, checkpoint, tmp_path, capsys):
    # Build a tiny event log out of generated ads.
    train_line = (data_dir / "train.tsv").read_text().splitlines()[0]
    target_fields = train_line.split("\t")[3]
    ad_only = ";".join(p for p in target_fields.split(";") if not p.startswith("user_id="))
    aux_only = ";".join(p for p in ad_only.split(";") if not p.startswith("age="))
    others = []
    for line in (data_dir / "train.tsv").read_text().splitlines()[1:]:
        fields = ";".join(p for p in line.split("\t")[3].split(";")
                          if not p.startswith("user_id="))
        if fields != ad_only and fields not in others:
            others.append(fields)
    events = tmp_path / "events.tsv"
    events.write_text(
        f"IMP\t100\tu0001\t{aux_only}\n"
        f"REQ\t200\tu0001\trq1\t2\t{ad_only}|{ad_only}\n"  # duplicate -> deduped
        f"REQ\t300\tu0002\trq2\t2\t{ad_only}|{others[0]}|{others[1]}\n",
        encoding="utf-8")
    out = tmp_path / "results.tsv"
    rc = main(["serve-sim", "--ckpt", str(checkpoint), "--events", str(events),
               "--lag-seconds", "10", "--out", str(out)])
    assert rc == 0
    rows = [l.split("\t") for l in out.read_text().splitlines()]
    assert rows[0][0] == "rq1" and rows[0][3] == "1"
    assert [r[0] for r in rows] == ["rq1", "rq2", "rq2"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "2 requests ranked, 6 model forwards"  # (1) + (3 + 2)
    ms = r"p50=\d+\.\d{3} ms p99=\d+\.\d{3} ms"
    assert re.fullmatch(rf"request scoring latency n=2 {ms}", printed[1])
    assert re.fullmatch(rf"round 1 n=2 {ms} forwards/request=2\.00", printed[2])
    assert re.fullmatch(rf"round 2 n=1 {ms} forwards/request=2\.00", printed[3])


def test_serve_sim_requires_events_or_listen(checkpoint, capsys):
    assert main(["serve-sim", "--ckpt", str(checkpoint)]) == 2
    assert capsys.readouterr().err == "adctr: replay mode needs --events and --out\n"


def test_listen_mode_requires_a_catalog(checkpoint, capsys):
    assert main(["serve-sim", "--ckpt", str(checkpoint), "--listen", "0"]) == 2
    assert capsys.readouterr().err == "adctr: --listen mode needs --catalog\n"


def test_embedding_rows_must_match_the_vocabulary(data_dir, checkpoint, tmp_path, capsys):
    import shutil

    import numpy as np

    from adctr.models import load_model, save_model
    from adctr.schema import Vocabulary, load_schemas, schemas_hash

    ckpt = tmp_path / "model.ckpt"
    for suffix in ("", ".schema.tsv", ".vocab.tsv"):
        shutil.copy(f"{checkpoint}{suffix}", f"{ckpt}{suffix}")
    schemas = load_schemas(f"{ckpt}.schema.tsv")
    vocab = Vocabulary.load(f"{ckpt}.vocab.tsv")
    model, _ = load_model(ckpt, schemas)
    model.tensors["emb.E"] = np.vstack([model.tensors["emb.E"], np.zeros((1, model.k))])
    save_model(ckpt, model, schemas_hash(schemas), vocab.content_hash())  # hashes still match
    assert main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "test.tsv")]) == 2
    assert capsys.readouterr().err == (f"adctr: {ckpt}: tensor emb.E has {vocab.size + 1} rows, "
                                       f"the vocabulary {vocab.size}\n")


@pytest.mark.parametrize("key", ["schema_hash", "vocab_hash"])
def test_a_checkpoint_without_a_sidecar_hash_reads_as_a_mismatch(data_dir, checkpoint, tmp_path,
                                                                  capsys, key):
    import shutil

    from adctr.numerics import load_tensors, save_tensors

    ckpt = tmp_path / "model.ckpt"
    for suffix in (".schema.tsv", ".vocab.tsv"):
        shutil.copy(f"{checkpoint}{suffix}", f"{ckpt}{suffix}")
    header, tensors = load_tensors(checkpoint)
    del header[key]
    save_tensors(ckpt, header, tensors)
    assert main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "test.tsv")]) == 2
    assert capsys.readouterr().err == (f"adctr: {ckpt}: sidecar schema/vocabulary does not "
                                       f"match the checkpoint\n")


def test_a_cut_checkpoint_is_one_line_with_status_2(data_dir, checkpoint, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    for suffix in (".schema.tsv", ".vocab.tsv"):
        Path(f"{ckpt}{suffix}").write_bytes(Path(f"{checkpoint}{suffix}").read_bytes())
    ckpt.write_bytes(checkpoint.read_bytes()[:-8])
    assert main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "test.tsv")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"adctr: {re.escape(str(ckpt))}: truncated tensor '[\w.]+'\n", err)


def test_a_warm_start_from_another_variant_is_one_line_with_status_2(data_dir, checkpoint,
                                                                    tmp_path, capsys):
    # refused before the logs are read: the training log named here does not exist
    args = _train_args(data_dir, tmp_path, **{"--init-ckpt": str(checkpoint),
                                              "--train": str(tmp_path / "none.tsv")})
    assert main(args) == 2
    assert capsys.readouterr().err == "adctr: --init-ckpt holds a dstn-i model, not dnn\n"
    assert not (tmp_path / "model.ckpt").exists()


def test_train_then_eval_on_values_that_read_like_the_oov_marker(data_dir, tmp_path, capsys):
    from adctr.schema import Vocabulary

    lines = (data_dir / "train.tsv").read_text(encoding="utf-8").splitlines()[:60]
    for i, user in ((3, "<oov>"), (7, "\\<oov>"), (11, "<oov>")):
        cols = lines[i].split("\t")
        cols[3] = cols[3].replace(f"user_id={cols[2]};", f"user_id={user};")
        lines[i] = "\t".join(cols)
    train = tmp_path / "train.tsv"
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--variant", "lr", "--train", str(train),
                 "--val", str(data_dir / "val.tsv"), "--schema", str(data_dir / "schema.tsv"),
                 "--out", str(ckpt)]) == 0
    vocab = Vocabulary.load(f"{ckpt}.vocab.tsv")
    assert vocab.target_counts[vocab.lookup("user_id", "<oov>")] == 2
    assert vocab.target_counts[vocab.lookup("user_id", "\\<oov>")] == 1
    assert vocab.target_counts[oov(vocab, "user_id")] == 0
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "test.tsv")]) == 0
    assert capsys.readouterr().out.startswith("auc=")


@pytest.mark.parametrize("bad, message", [
    ("age=x45", "numerical field 'age': bad value 'x45'"),
    ("age=30,31", "numerical field 'age' needs exactly one value"),
    ("x0=p,q", "univalent field 'x0' needs exactly one value"),
])
def test_a_malformed_training_line_is_a_parse_error_naming_it(data_dir, tmp_path, capsys, bad,
                                                              message):
    lines = (data_dir / "train.tsv").read_text(encoding="utf-8").splitlines()[:20]
    cols = lines[6].split("\t")
    fields = dict(pair.split("=", 1) for pair in cols[3].split(";"))
    name, value = bad.split("=", 1)
    fields[name] = value
    cols[3] = ";".join(f"{n}={v}" for n, v in fields.items())
    lines[6] = "\t".join(cols)
    train = tmp_path / "train.tsv"
    train.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", "--variant", "lr", "--train", str(train),
                 "--val", str(data_dir / "val.tsv"), "--schema", str(data_dir / "schema.tsv"),
                 "--out", str(tmp_path / "model.ckpt")]) == 2
    assert capsys.readouterr().err == f"adctr: {train}: line 7: {message}\n"


def _train_args(data_dir, tmp_path, **paths):
    args = {"--variant": "dnn", "--train": str(data_dir / "train.tsv"),
            "--val": str(data_dir / "val.tsv"), "--schema": str(data_dir / "schema.tsv"),
            "--out": str(tmp_path / "model.ckpt"), **paths}
    return ["train", *(part for pair in args.items() for part in pair)]


def test_a_missing_file_is_one_line_with_status_2(data_dir, tmp_path, capsys):
    missing = tmp_path / "no-such.tsv"
    assert main(_train_args(data_dir, tmp_path, **{"--val": str(missing)})) == 2
    assert capsys.readouterr().err == (f"adctr: [Errno 2] No such file or directory: "
                                       f"'{missing}'\n")
    assert main(["eval", "--ckpt", str(tmp_path / "none.ckpt"),
                 "--test", str(data_dir / "test.tsv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("adctr: [Errno 2] No such file or directory: ")
    assert err.count("\n") == 1 and "none.ckpt.schema.tsv" in err


def test_a_bad_schema_or_vocabulary_file_is_one_line_with_status_2(data_dir, checkpoint,
                                                                   tmp_path, capsys):
    schema = tmp_path / "schema.tsv"
    schema.write_text("target\tuser_id\tunivalent\ntarget\tage\tbogus\n", encoding="utf-8")
    assert main(_train_args(data_dir, tmp_path, **{"--schema": str(schema)})) == 2
    assert capsys.readouterr().err == f"adctr: {schema}: line 2: 'bogus' is not a valid FieldKind\n"
    ckpt = tmp_path / "model.ckpt"
    for suffix in ("", ".schema.tsv"):
        (tmp_path / f"model.ckpt{suffix}").write_bytes(
            Path(f"{checkpoint}{suffix}").read_bytes())
    vocab = Path(f"{ckpt}.vocab.tsv")
    vocab.write_text("user_id\t<oov>\t0\t0\nuser_id\tu1\t5\t1\n", encoding="utf-8")
    assert main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "test.tsv")]) == 2
    assert capsys.readouterr().err == f"adctr: {vocab}: line 2: index 5 skips index 1\n"


def test_a_non_finite_training_loss_is_one_line_with_status_2(data_dir, tmp_path, capsys):
    config = tmp_path / "train.json"
    config.write_text('{"epochs": 1, "learning_rate": 1e38, "fc_dims": [8, 4]}',
                      encoding="utf-8")
    # numpy's default error state, with any warning it prints raised instead
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
        warnings.simplefilter("error")
        assert main(_train_args(data_dir, tmp_path, **{"--config": str(config)})) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"adctr: epoch 0, batch \d+: non-finite (loss|gradient of \S+)\n", err)


@pytest.mark.parametrize("config, message", [
    ('{"patience": 3}', "{path}: unknown TrainConfig key(s) ['patience']"),
    ('{"dropout": 1.5}', "dropout must be in [0, 1), got 1.5"),
    ("[1]", "{path}: expected a JSON object"),
    ('{"epochs": 1', "{path}: line 1: Expecting ',' delimiter at column 13"),
    ('{"epochs": "2"}', "epochs must be an integer, got '2'"),
    ('{"fc_dims": 5}', "fc_dims must be a list of integers, got 5"),
    ('{"learning_rate": null}', "learning_rate must be a number, got None"),
])
def test_a_train_config_the_cli_refuses_is_one_line_with_status_2(data_dir, tmp_path, capsys,
                                                                  config, message):
    path = tmp_path / "badcfg.json"
    path.write_text(config, encoding="utf-8")
    assert main(_train_args(data_dir, tmp_path, **{"--config": str(path)})) == 2
    assert capsys.readouterr().err == f"adctr: {message.format(path=path)}\n"
    assert not (tmp_path / "model.ckpt").exists()


def test_a_gen_data_config_the_cli_refuses_is_one_line_with_status_2(tmp_path, capsys):
    path = tmp_path / "gen.json"
    path.write_text('{"n_users": 0}', encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == "adctr: n_users, n_ads and n_topics must be positive\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("config, message", [
    ('{"n_users": "x"}', "n_users must be an integer, got 'x'"),
    ('{"base_ctr": true}', "base_ctr must be a number, got True"),
    ('{"seed": ' + "9" * 5000 + "}", "{path}: a number has too many digits to read"),
], ids=["string", "bool", "5000-digits"])
def test_a_gen_data_config_value_of_the_wrong_type_is_one_line_with_status_2(
        tmp_path, capsys, config, message):
    path = tmp_path / "gen.json"
    path.write_text(config, encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"adctr: {message.format(path=path)}\n"
    assert not (tmp_path / "data").exists()


def test_a_timestamp_past_python_s_digit_limit_is_one_line_naming_file_and_line(
        data_dir, tmp_path, capsys):
    lines = _log_bytes(data_dir, "val.tsv", 20).decode("utf-8").splitlines()
    label, _, rest = lines[11].split("\t", 2)
    lines[11] = "\t".join([label, "7" * 5000, rest])
    val = tmp_path / "val.tsv"
    val.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    assert main(_train_args(data_dir, tmp_path, **{"--val": str(val)})) == 2
    assert capsys.readouterr().err == (f"adctr: {val}: line 12: timestamp has 5000 digits, "
                                       "too many to read\n")


def _log_bytes(data_dir, split, n):
    return b"".join(line + b"\n" for line in (data_dir / split).read_bytes().splitlines()[:n])


@pytest.mark.parametrize("split", ["--train", "--val"])
def test_a_byte_that_is_not_utf8_in_a_log_is_one_line_naming_it(data_dir, tmp_path, capsys,
                                                                split):
    logs = {s: _log_bytes(data_dir, f"{s[2:]}.tsv", 40).splitlines(keepends=True)
            for s in ("--train", "--val")}
    line = logs[split][30]
    at = line.index(b"title=") + 6
    logs[split][30] = line[:at] + b"\xff" + line[at:]
    paths = {s: tmp_path / f"{s[2:]}.tsv" for s in logs}
    for s, lines in logs.items():
        paths[s].write_bytes(b"".join(lines))
    assert main(_train_args(data_dir, tmp_path, **{s: str(p) for s, p in paths.items()})) == 2
    assert capsys.readouterr().err == (f"adctr: {paths[split]}: line 31: character {at + 1} is not "
                                       "UTF-8 text\n")


def test_a_crlf_copy_of_a_log_trains_the_same_bytes(data_dir, tmp_path):
    out = {}
    for ending in (b"\n", b"\r\n"):
        run = tmp_path / ("crlf" if ending == b"\r\n" else "lf")
        run.mkdir()
        paths = {}
        for split in ("train", "val"):
            paths[f"--{split}"] = str(run / f"{split}.tsv")
            text = _log_bytes(data_dir, f"{split}.tsv", 150)
            (run / f"{split}.tsv").write_bytes(text.replace(b"\n", ending))
        assert main(_train_args(data_dir, run, **paths)) == 0
        out[ending] = [Path(f"{run / 'model.ckpt'}{suffix}").read_bytes()
                       for suffix in ("", ".vocab.tsv")]
    assert out[b"\n"] == out[b"\r\n"]


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_a_config_file_that_is_not_utf8_is_one_line_naming_file_and_line(data_dir, tmp_path,
                                                                         capsys, command):
    path = tmp_path / "config.json"
    path.write_bytes(b'{\n  "seed": 3,\n  "note\xff": 1\n}\n')
    args = (_train_args(data_dir, tmp_path, **{"--config": str(path)}) if command == "train"
            else ["gen-data", "--config", str(path), "--out", str(tmp_path / "data")])
    assert main(args) == 2
    assert capsys.readouterr().err == f"adctr: {path}: line 3: character 8 is not UTF-8 text\n"
    assert not (tmp_path / "data").exists() and not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("bad, line, message", [
    ("--val", "1\t2\t3", "expected 7 columns, got 3"),
    ("--train", "1\t2\t3", "expected 7 columns, got 3"),  # refused by the vocabulary pass
    ("--schema", "target\tage\tbogus", "'bogus' is not a valid FieldKind"),
])
def test_a_bad_line_is_one_line_naming_its_file_and_line(data_dir, tmp_path, capsys, bad, line,
                                                         message):
    paths = {"--train": tmp_path / "train.tsv", "--val": tmp_path / "val.tsv",
             "--schema": tmp_path / "schema.tsv"}
    paths["--train"].write_bytes(_log_bytes(data_dir, "train.tsv", 40))
    paths["--val"].write_bytes(_log_bytes(data_dir, "val.tsv", 40))
    paths["--schema"].write_bytes((data_dir / "schema.tsv").read_bytes())
    paths[bad].write_bytes(line.encode() + b"\n" + paths[bad].read_bytes())
    assert main(_train_args(data_dir, tmp_path, **{k: str(p) for k, p in paths.items()})) == 2
    assert capsys.readouterr().err == f"adctr: {paths[bad]}: line 1: {message}\n"


def test_a_bad_vocabulary_sidecar_line_is_one_line_naming_its_file_and_line(data_dir, checkpoint,
                                                                            tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    for suffix in ("", ".schema.tsv", ".vocab.tsv"):
        Path(f"{ckpt}{suffix}").write_bytes(Path(f"{checkpoint}{suffix}").read_bytes())
    vocab = Path(f"{ckpt}.vocab.tsv")
    lines = vocab.read_bytes().splitlines(keepends=True)
    lines[4] = b"x0\t\xff\t4\t0\n"
    vocab.write_bytes(b"".join(lines))
    assert main(["eval", "--ckpt", str(ckpt), "--test", str(data_dir / "test.tsv")]) == 2
    assert capsys.readouterr().err == f"adctr: {vocab}: line 5: character 4 is not UTF-8 text\n"
