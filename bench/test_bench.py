"""
Smoke test of the benchmark harness at small sizes (n <= 5, a few operations).
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from run import Workload  # noqa: E402

SMALL = {
    "lattice-n7": Workload("lattice", 4, 2),
    "elements-n9": Workload("elements", 5, 20),
    "noncrossing-n7": Workload("noncrossing", 5, 3),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(name, trace, out_dir, capsys, seed=3):
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, SMALL, out_dir)
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1]), "\n".join(lines[:-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    code, result, text = bench(name, trace, tmp_path, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert f"{metric} = {result['metrics'][metric]['value']} {unit}" in text


def test_traced_counts_repeat(tmp_path, capsys):
    runs = [bench("elements-n9", 1, tmp_path, capsys)[1]["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "ratio")} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["preorders.mu.calls"] == SMALL["elements-n9"].size


def test_corrupted_command_output_is_a_failure(tmp_path, capsys, monkeypatch):
    real = run.run_process

    def corrupt(argv, out_dir):
        out, errors, code, wall, rss = real(argv, out_dir)
        return out.replace(b'"mobius": -13', b'"mobius": 13'), errors, code, wall, rss

    monkeypatch.setattr(run, "run_process", corrupt)
    code, result, text = bench("lattice-n7", 0, tmp_path, capsys)
    assert code == 1 and not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "FAILED chains: mobius is 13, expected -13" in text


def test_corrupted_library_result_is_a_failure(monkeypatch):
    import shardorder as so

    perms = workloads.elements_inputs(so, 5, 10, 1, 0)
    monkeypatch.setattr(so, "lam", lambda q: so.Permutation((1, 2, 3, 4, 5)))
    result = workloads.run_elements(so, perms)
    wrong = sum(1 for p in perms if p.word != (1, 2, 3, 4, 5))
    assert result["attempted"] == 10 and result["failed"] == wrong > 0


@pytest.mark.parametrize("n", [4, 5])
def test_lattice_checks_reject_a_changed_diagram(n):
    from shardorder import build_lattice

    data = build_lattice(n).to_json()
    assert workloads.check_hasse(json.dumps(data), n) == ([], workloads.PINNED_HASSE[n][0])
    data["edges"].pop()
    problems, _ = workloads.check_hasse(json.dumps(data), n)
    assert any("cover edges" in p for p in problems)
