import dataclasses
import json
import math
import os

import pytest

import run
import spans
from workloads import WORKLOADS


def tiny(name):
    """The workload shrunk to a few sweeps and one short fit."""
    wl = WORKLOADS[name]
    return dataclasses.replace(
        wl, replicates=2, warmup=1, min_sweeps=2, fits=1,
        fit_iters=min(wl.fit_iters, 60), fit_burn_in=min(wl.fit_burn_in, 30),
    )


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_and_reports_every_metric(name, trace):
    r = run.Run(tiny(name), seed=0, seconds=0.01, trace=trace, import_s=0.0)
    metrics = r.run()
    assert r.failures == []
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if trace:
        assert metrics["chain.sweep_s"]["value"] > 0.0
        assert metrics["io.write_s"]["value"] > 0.0
    else:
        assert all(v["value"] > 0.0 for v in metrics.values())
    record = r.record(metrics)
    assert record["environment"]["nproc"] >= 1
    assert [rep["sub_seed"] for rep in record["replicates"]] == [0, 1]


def test_layer_patches_are_restored_after_an_error():
    r = run.Run(tiny("tall_n200"), seed=0, seconds=0.01, trace=1, import_s=0.0)
    patches = r.layer_patches(spans.SpanRecorder())
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    with pytest.raises(RuntimeError):
        with spans.swapped(patches):
            assert all(getattr(o, a) is wrapper for o, a, wrapper in patches)
            raise RuntimeError("inside traced block")
    assert all(getattr(o, a) is original for o, a, original in originals)


def test_bad_fit_outputs_are_reported(tmp_path):
    r = run.Run(tiny("fit_ex4_dense"), seed=0, seconds=0.01, trace=0, import_s=0.0)
    assert r.check_fit(1, str(tmp_path))[0] == "return code 1"
    assert "missing outputs" in r.check_fit(0, str(tmp_path))[0]
    for name in run.FIT_FILES:
        (tmp_path / name).write_text("x\n")
    (tmp_path / "k_posterior.csv").write_text("K,probability\n1,0.6\n2,0.4\n")
    (tmp_path / "coclustering.csv").write_text("sample,s1,s2\n1,1,0.5\n2,0.5,1\n")
    assert r.check_fit(0, str(tmp_path)) == ("modal K 1, expected 2", 1)
    (tmp_path / "k_posterior.csv").write_text("K,probability\n1,0.3\n2,0.6\n")
    assert "sums to" in r.check_fit(0, str(tmp_path))[0]
    (tmp_path / "k_posterior.csv").write_text("K,probability\n1,0.4\n2,0.6\n")
    (tmp_path / "coclustering.csv").write_text("sample,s1,s2\n1,1,0.5\n2,0.4,1\n")
    assert "not symmetric" in r.check_fit(0, str(tmp_path))[0]
    (tmp_path / "coclustering.csv").write_text("sample,s1,s2\n1,0.9,0.5\n2,0.5,1\n")
    assert "diagonal" in r.check_fit(0, str(tmp_path))[0]


def test_main_fails_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    code = run.main(["--workload", "ex2_wide", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
