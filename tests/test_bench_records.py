import json
import pathlib
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = REPO / "tools" / "check_bench_records.py"


def check(root):
    return subprocess.run([sys.executable, str(SCRIPT), str(root)], capture_output=True, text=True)


def full_record():
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"parent": {"median": 2.0}, "change": {"median": 1.0}} for m in benchmark["end_to_end"]}
    return {
        "seeds": [1],
        "machine": {"cpu": "x86-64"},
        "workloads": {w["name"]: json.loads(json.dumps(metrics)) for w in benchmark["workloads"]},
    }


def test_committed_records_carry_every_median():
    result = check(REPO)
    assert (result.returncode, result.stderr) == (0, "")


def test_a_record_without_a_median_or_json_fails(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    record = full_record()
    (tmp_path / "BENCH_1.json").write_text(json.dumps(record), encoding="utf-8")
    assert check(tmp_path).returncode == 0

    del record["workloads"]["tag-enum"]["peak_rss_mb"]["change"]
    record["workloads"]["cli-batch"]["setup_s"]["parent"]["median"] = "fast"
    del record["seeds"]
    (tmp_path / "BENCH_1.json").write_text(json.dumps(record), encoding="utf-8")
    (tmp_path / "BENCH_2.json").write_text("{", encoding="utf-8")
    result = check(tmp_path)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert lines[:3] == [
        "BENCH_1.json: no 'seeds'",
        "BENCH_1.json: tag-enum peak_rss_mb: no change median",
        "BENCH_1.json: cli-batch setup_s: no parent median",
    ]
    assert len(lines) == 4 and lines[3].startswith("BENCH_2.json: does not parse")
