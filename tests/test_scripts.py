"""The scripts under scripts/ run against the current library API."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import types

import pytest

from conftest import REPLAY_DIR, REPO

SCRIPTS = REPO / "scripts"


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_make_replays_reproduces_bundled_streams(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_replays", SCRIPTS / "make_replays.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.leak_replay()
    module.flat_replay()
    module.technological_ramp()
    bundled = sorted(p.name for p in REPLAY_DIR.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (REPLAY_DIR / name).read_bytes()


def test_oracle_study_runs():
    result = run_script("oracle_study.py", "--levels", "50", "100")
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 3


def test_reproduce_tables_runs():
    result = run_script("reproduce_tables.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("<- fixation") == 6


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_reads_the_perfbench_result_line():
    module = load_bench()
    metrics = {"setup_s": {"value": 0.14, "unit": "s"},
               "peak_rss_mb": {"value": 39.9, "unit": "MB"},
               "pass_s": {"value": 0.54, "unit": "s"},
               "err_p50": {"value": 0.00279, "unit": "1"}}
    stdout = ('record {"workload": "sweep", "seed": 3}\n'
              'report {"simulate_s": {"value": 0.2, "unit": "s"}}\n'
              + json.dumps({"correct": True, "attempted": 1785, "failed": 0,
                            "metrics": metrics}) + "\n")
    assert module.parse_result(stdout) == {"correct": True, "attempted": 1785,
                                           "failed": 0, "metrics": metrics}
    # a --trace 1 run ends on the per-layer metrics of its traced passes
    layers = {"monitor.run_monitor.calls": {"value": 8.0, "unit": "count"},
              "monitor.run_monitor.self_s": {"value": 0.0041, "unit": "s"},
              "trace.overhead_s": {"value": 0.012, "unit": "s"}}
    traced = ('record {"workload": "sweep", "seed": 3, "trace": 1}\n'
              'report {"trace.overhead_s": {"value": 0.012, "unit": "s"}}\n'
              + json.dumps({"correct": True, "attempted": 1785, "failed": 0,
                            "metrics": layers}) + "\n")
    runs = []

    def run_workload(name, seconds, trace):
        runs.append((name, seconds, trace))
        return module.parse_result(traced if trace else stdout)

    module.run_workload = run_workload
    assert module.run_workloads(["sweep"], 20) == {
        "workloads": {"sweep": {"correct": True, "attempted": 1785, "failed": 0,
                                "metrics": metrics}},
        "layers": {"sweep": layers}}
    assert runs == [("sweep", 20, 0), ("sweep", 20, 1)]


@pytest.mark.parametrize("trace", [0, 1])
def test_bench_counts_minor_faults_per_operation(monkeypatch, trace):
    module = load_bench()
    faults = iter([1000, 1600])
    monkeypatch.setattr(module.resource, "getrusage",
                        lambda who: types.SimpleNamespace(ru_minflt=next(faults)))
    result_line = json.dumps({"correct": True, "attempted": 200, "failed": 0, "metrics": {}})
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return types.SimpleNamespace(stdout=result_line + "\n")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    result = module.run_workload("oracle-verify", 20, trace)
    assert calls[0][-2:] == ["--trace", str(trace)]
    # (1600 - 1000) faults over 200 operations; a traced run carries no count
    assert result.get("minflt_per_op") == (None if trace else 3.0)


@pytest.mark.parametrize("summary,counts", [
    ("402 passed in 12.33s", (402, 0, 0)),
    ("2 failed, 400 passed, 3 warnings in 73.21s (0:01:13)", (400, 2, 0)),
    ("1 failed, 399 passed, 1 skipped, 2 xfailed, 1 error in 9.50s", (399, 1, 1)),
    ("398 passed, 2 errors in 11.02s", (398, 0, 2)),
])
def test_bench_reads_the_pytest_summary_line(summary, counts):
    module = load_bench()
    stdout = "....F....                     [100%]\n" + summary + "\n"
    assert module.parse_pytest_summary(stdout) == dict(zip(("passed", "failed", "errors"),
                                                           counts))


def test_bench_counts_package_lines_and_all_names(tmp_path):
    module = load_bench()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""Doc."""\nfrom .a import f\n\n'
                                         '__all__ = [\n    "f", "g",\n    "h",\n]\n')
    (package / "a.py").write_text("def f():\n    return 1\n")
    (package / "b.py").write_text("x = 1")  # no final newline: wc -l counts 0
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("not\ncounted\n")
    assert module.source_size(package) == {"src_lines": 7 + 2, "all_names": 3}


def test_bench_size_of_leakline_is_its_all():
    import leakline

    size = load_bench().source_size(REPO / "src" / "leakline")
    assert size["all_names"] == len(leakline.__all__)
    wc = subprocess.run(["wc", "-l", *sorted(map(str, (REPO / "src" / "leakline").glob("*.py")))],
                        capture_output=True, text=True, check=True)
    assert size["src_lines"] == int(wc.stdout.splitlines()[-1].split()[0])


TRACER_CONTRACT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import leakline
import leakline.cli
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps([len(tracing.TIMED) + len(tracing.COUNTED), tracer.absent]))
"""


def test_benchmark_tracer_finds_every_layer_function():
    # perfbench imports leakline and leakline.cli, then wraps its layer
    # functions by module and name; a missing one drops its metrics
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", TRACER_CONTRACT,
                             str(REPO / "perfbench" / "tracing.py")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    count, absent = json.loads(result.stdout)
    assert count > 0 and absent == []
