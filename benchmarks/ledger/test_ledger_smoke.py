"""Smoke test of the ledger: every workload at ``--smoke`` scale.

Each workload runs once traced (which also runs it untraced) on tiny data
with a 0.2 s window and one repetition, through the same code path as a
full run.  The oracle self-tests patch the library in the serving process
so that answers are wrong, and require the run to notice.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from . import ROOT, SRC
from .cli import main
from .compare import compare
from .layers import PER_LAYER, Ledger
from .run import END_TO_END
from .trace import TARGETS, Tracer, resolve, sites_of
from .workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(capsys, *argv: str) -> tuple[int, list[str], dict]:
    code = main([*argv, "--seed", "3", "--seconds", "0.2", "--smoke"])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def _target_sites() -> list:
    return [site for specs in TARGETS.values() for spec in specs
            for site in sites_of(resolve(spec))]


def test_catalogues_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: spec.why for name, spec in WORKLOADS.items()}
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run(workload, tmp_path, capsys):
    sites = _target_sites()
    out = tmp_path / "run.json"
    code, lines, final = _run(capsys, "--workload", workload, "--trace", "1",
                              "--out", str(out))
    document = json.loads(out.read_text(encoding="utf-8"))
    assert code == 0, document["problems"] or document["failures"]

    printed = {}
    for line in lines:
        tokens = line.split()
        if len(tokens) == 3 and tokens[0] in {name for name, _, _ in END_TO_END}:
            printed[tokens[0]] = tokens[2]
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: item["unit"] for name, item in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    assert final["correct"] and final["failed"] == 0 and document["error_rate"] == 0
    assert document["metrics"]["strq_recall"]["value"] == 1.0
    assert document["digests"]["traced"] == document["digests"]["untraced"]
    for name, item in final["metrics"].items():
        if item["value"] is None:
            assert item["reason"], name
        else:
            assert math.isfinite(item["value"]), name
    for site in sites:
        assert vars(site.container)[site.attr] is site.original, (site.container, site.attr)
    assert (tmp_path / document["spans_file"]).exists()


#: Library patches applied in the serving process through ``sitecustomize``;
#: each makes answers wrong in both the scalar and the batched path.
WRONG_ANSWERS = {
    "shifted_path_point": ("serve_path", """
import repro.core.summary as summary

original = summary.TrajectorySummary.reconstruct_path

def reconstruct_path(self, *args, **kwargs):
    path = original(self, *args, **kwargs).copy()
    path[:1] += 0.01
    return path

summary.TrajectorySummary.reconstruct_path = reconstruct_path
"""),
    "dropped_candidate": ("serve_point", """
import repro.index.tpi as tpi

TPI = tpi.TemporalPartitionIndex
scalar, batched = TPI.lookup_local, TPI.lookup_local_batch
TPI.lookup_local = lambda self, *args, **kwargs: scalar(self, *args, **kwargs)[1:]
TPI.lookup_local_batch = lambda self, *args, **kwargs: [
    ids[1:] for ids in batched(self, *args, **kwargs)]
"""),
}


@pytest.mark.parametrize("case", sorted(WRONG_ANSWERS))
def test_oracle_rejects_wrong_answers(case, tmp_path, capsys, monkeypatch):
    workload, patch = WRONG_ANSWERS[case]
    (tmp_path / "sitecustomize.py").write_text(patch, encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(tmp_path), str(SRC)]))
    code, _lines, final = _run(capsys, "--workload", workload, "--trace", "0")
    assert code != 0
    assert final["failed"] > 0 and not final["correct"]


def _result(directory, seed: int, value: float | None, failed: int = 0) -> str:
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
    document = {"workload": "ingest", "seed": seed, "correct": failed == 0, "attempted": 100,
                "failed": failed, "metrics": metrics, "meta": {}}
    path = directory / f"{seed}_{value}_{failed}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_compare_flags_failures_and_unmeasured_metrics(tmp_path, capsys):
    base = [_result(tmp_path, seed, 1.0) for seed in range(5)]
    assert compare(base, [_result(tmp_path, seed, 1.0) for seed in range(5, 10)], BENCHMARK) == 0
    capsys.readouterr()
    # Faster in every "lower is better" metric, but one run failed the oracle.
    failing = [_result(tmp_path, seed, 0.5, failed=int(seed == 5)) for seed in range(5, 10)]
    assert compare(base, failing, BENCHMARK) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[-1] for row in rows if row[0] == "error_rate"] == ["worse"]
    unmeasured = [_result(tmp_path, seed, None if seed == 5 else 1.0) for seed in range(5, 10)]
    assert compare(base, unmeasured, BENCHMARK) == 1
    assert "not measured in every run" in capsys.readouterr().out


def test_missing_target_reports_null(monkeypatch):
    monkeypatch.setitem(TARGETS, "index.compress", ("repro.index.idcodec:no_such_function",))
    ledger = Ledger()
    with Tracer() as tracer:
        ledger.put("index.compress_calls", lambda: tracer.totals("index.compress", "setup.fit"))
    value, reason = ledger.values["index.compress_calls"]
    assert value is None and "no_such_function" in reason
