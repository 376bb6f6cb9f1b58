"""``tools/serve_mem.py``: its output lines on small generated RANK server
inputs, in a process of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ["start", "numpy", "adctr", "vocabulary", "model", "session", "catalog", "scorer",
          "first_request", "all_requests"]


def serve_mem(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "serve_mem.py"), *args],
                          capture_output=True, text=True, timeout=120)


def test_prints_each_stage_the_peak_and_that_no_hashlib_is_loaded(rank_server_files):
    files = rank_server_files
    run = serve_mem(str(files["model.ckpt"]), str(files["snapshot.tsv"]),
                    str(files["catalog.tsv"]), str(files["requests.tsv"]))
    assert run.returncode == 0, run.stderr
    out = run.stdout.splitlines()
    assert [line.split(" ")[0] for line in out] == [f"{s}_mb" for s in STAGES] + [
        "peak_mb", "requests", "hashlib_loaded"]
    values = {line.split(" ")[0]: float(line.split(" ")[1]) for line in out}
    assert values["requests"] == 20
    assert values["hashlib_loaded"] == 0
    # An interpreter holds a few MB; numpy's import adds several more.
    assert 1 < values["start_mb"] < values["numpy_mb"] < values["adctr_mb"]
    assert all(0 < values[f"{s}_mb"] <= values["peak_mb"] for s in STAGES)
    assert values["peak_mb"] < 1000


def test_a_tab_separated_schedule_is_read_by_its_last_column(rank_server_files, tmp_path):
    files = rank_server_files
    schedule = tmp_path / "requests.tsv"
    schedule.write_text("".join(f"light\t{i}.0\t{line}\n" for i, line in enumerate(
        files["requests.tsv"].read_text(encoding="utf-8").splitlines()[:3])), encoding="utf-8")
    run = serve_mem(str(files["model.ckpt"]), str(files["snapshot.tsv"]),
                    str(files["catalog.tsv"]), str(schedule))
    assert run.returncode == 0, run.stderr
    assert "requests 3" in run.stdout.splitlines()


def test_refuses_other_arguments():
    run = serve_mem("model.ckpt", "snapshot.tsv")
    assert run.returncode == 2 and "usage" in run.stderr
