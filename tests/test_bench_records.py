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
        "all_correct": True,
        "failed": 0,
        "claim": {"workload": "tag-enum", "metric": "case_ms_geomean", "target": "at least 15% lower"},
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


def check_record(tmp_path, record):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    (tmp_path / "BENCH_1.json").write_text(json.dumps(record), encoding="utf-8")
    result = check(tmp_path)
    return result.returncode, result.stderr.splitlines()


def test_a_record_with_an_incorrect_run_fails(tmp_path):
    record = full_record()
    assert check_record(tmp_path, record) == (0, [])
    for value in (False, None, "true"):
        record["all_correct"] = value
        assert check_record(tmp_path, record) == (1, ["BENCH_1.json: 'all_correct' is not true"])
    del record["all_correct"]
    assert check_record(tmp_path, record) == (1, ["BENCH_1.json: 'all_correct' is not true"])


def test_a_record_with_a_failed_operation_fails(tmp_path):
    record = full_record()
    for value in (3, False, None, "0"):
        record["failed"] = value
        assert check_record(tmp_path, record) == (1, ["BENCH_1.json: 'failed' is not 0"])
    record["failed"] = 0.0
    assert check_record(tmp_path, record) == (0, [])


def test_a_record_must_claim_a_benchmark_metric_its_change_beats(tmp_path):
    record = full_record()
    unnamed = ["BENCH_1.json: 'claim' names no workload and end-to-end metric of BENCHMARK.json"]
    for claim in (None, "faster", {"workload": "tag-enum"}, {"workload": "tag-enum", "metric": "gorn.self_ms"},
                  {"workload": "tag", "metric": "case_ms_geomean"}, {"workload": ["tag-enum"], "metric": {}}):
        record["claim"] = claim
        assert check_record(tmp_path, record) == (1, unnamed)
    # Every change median in full_record is 1.0 and every parent median 2.0.
    record["claim"] = {"workload": "cli-batch", "metric": "cases_per_s"}
    assert check_record(tmp_path, record) == (
        1,
        ["BENCH_1.json: claim: cli-batch cases_per_s change median does not beat the parent's (higher is better)"],
    )
    record["workloads"]["cli-batch"]["cases_per_s"]["change"]["median"] = 2.5
    assert check_record(tmp_path, record) == (0, [])
    record["workloads"]["cli-batch"]["cases_per_s"]["change"]["median"] = 2.0
    assert check_record(tmp_path, record)[0] == 1
    record["claim"] = {"workload": "coord-enum", "metric": "peak_rss_mb"}
    record["workloads"]["coord-enum"]["peak_rss_mb"]["change"]["median"] = 2.0
    assert check_record(tmp_path, record) == (
        1,
        ["BENCH_1.json: claim: coord-enum peak_rss_mb change median does not beat the parent's (lower is better)"],
    )
