"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/check_bench.py

The file name keeps it out of the library's default test collection:
each smoke run below starts child processes and takes seconds.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from crystalsum import dbspace, freqalg, hermite, measures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(name, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", "5", "--smoke", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    res = _result(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
        assert "fail_ratio         0.0000  1" in proc.stdout
    assert '"seed": 5' in proc.stdout


def test_wrong_expected_value_fails_the_run(monkeypatch, capsys):
    wrong = workloads.GUINAND_C0_6[:6] + [Fraction(1809, 6561)]
    monkeypatch.setattr(workloads, "GUINAND_C0_6", wrong)
    code = run.main(["--workload", "eta-exact", "--seed", "1", "--smoke"])
    captured = capsys.readouterr()
    res = _result(captured.out)
    assert code != 0
    assert not res["correct"] and res["failed"] > 0
    assert "FAILED guinand.fplus" in captured.err


def test_checkout_without_library_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hb-pair",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert '"correct"' not in proc.stdout


def test_wrappers_reach_every_binding_site_and_come_off():
    originals = (hermite.real_root_scan, freqalg.ExpSum.__dict__["eval"])
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert hermite.real_root_scan is measures.real_root_scan \
            is dbspace.real_root_scan is not originals[0]
        H = hermite.ks_from_Q(workloads.poisson_Q())
        measures.pair_from_hb(H, 4.0, (-3.5, 3.5))
    finally:
        uninstall()
    assert (hermite.real_root_scan, freqalg.ExpSum.__dict__["eval"]) == originals
    assert measures.real_root_scan is originals[0]
    names = {s[1] for s in tracer.spans}
    assert {"hermite.validate", "hermite.root_scan", "spectra.exact",
            "measures.pair_from_hb", "freqalg.eval", "freqalg.mul"} <= names
    parent = {s[0]: s[1] for s in tracer.spans}
    scans = [s for s in tracer.spans if s[1] == "hermite.root_scan"]
    assert scans and all(parent[s[4]] == "measures.pair_from_hb" for s in scans)
    # self time never exceeds duration, and the children account for the rest
    assert all(0 <= s[6] <= s[3] - s[2] + 1e-9 for s in tracer.spans)
