"""
The shardorder benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the package under src/.

Workloads (README.md says why each was chosen):

  lattice-n7      `hasse --n 7` then `chains --n 7`, each in a fresh process
  elements-n9     a stream of random elements of S_9; per element: map, unmap,
                  the geometric oracle, covers_up, and join with the previous
  noncrossing-n7  sortable_permutations and noncrossing_preorders of Coxeter
                  words of S_7 drawn with replacement

A pass is one fixed unit of work, made from the seed and the pass number and
run in fresh processes, one at a time: the two commands, or a stream of
``size`` operations in one process.  With --trace 0 the benchmark first
starts the program a few times to time set-up, then runs passes while the
next one is expected to end within --seconds (at least one), and prints the
end-to-end metrics.  With --trace 1 it runs pass 0 plainly and then traced
and prints the per-layer metrics, so their counts repeat exactly for a seed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it repeat the metrics for a reader and
list any failed check.  The exit code is 0 when every check passed, 1 when a
check failed, and 2 when the benchmark cannot run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Workload:
    kind: str  # "lattice", "elements" or "noncrossing"
    n: int
    size: int  # operations per pass


WORKLOADS = {
    "lattice-n7": Workload("lattice", 7, 2),
    "elements-n9": Workload("elements", 9, 500),
    "noncrossing-n7": Workload("noncrossing", 7, 8),
}

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_PROBES = 11


@dataclass
class Pass:
    lat_s: list[float]  # one per operation that completed
    rss_mb: float  # largest peak resident set of the pass's processes
    attempted: int
    failed: int
    problems: list[str]
    summaries: list[dict] = field(default_factory=list)  # traced runs only
    cover_edges: int = 0
    output_bytes: int = 0
    kept: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.lat_s)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(argv, out_dir: Path):
    """Run one process to its end: (stdout, stderr, exit code, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=out_dir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errors = err.read().decode(errors="replace").strip()
    return out, errors, proc.returncode, wall, usage.ru_maxrss / 1024


def crashed(what: str, code: int, errors: str) -> str:
    last = errors.splitlines()[-1] if errors else "no message"
    return f"{what}: exit code {code}: {last}"


def lattice_pass(w: Workload, out_dir: Path, trace_stem: str | None) -> Pass:
    result = Pass([], 0.0, 0, 0, [])
    for cmd in (["hasse", "--n", str(w.n)], ["chains", "--n", str(w.n)]):
        if trace_stem:
            stem = f"{trace_stem}-{cmd[0]}"
            argv = [sys.executable, str(HERE / "child.py"), "cli", "--trace", stem, "--", *cmd]
        else:
            argv = [sys.executable, "-m", "shardorder", *cmd]
        out, errors, code, wall, rss = run_process(argv, out_dir)
        result.attempted += 1
        result.rss_mb = max(result.rss_mb, rss)
        text = out.decode(errors="replace")
        if code != 0:
            problems = [crashed(cmd[0], code, errors)]
        elif cmd[0] == "hasse":
            problems, result.cover_edges = workloads.check_hasse(text, w.n)
        else:
            problems = workloads.check_chains(text, w.n)
        if problems:
            result.failed += 1
            result.problems += problems
        else:
            result.lat_s.append(wall)
            result.output_bytes += len(out)
        if trace_stem and code == 0:
            result.summaries.append(json.loads(Path(f"{stem}.json").read_text()))
    return result


def stream_args(w: Workload, seed: int, index: int) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), w.kind, "--n", str(w.n),
            "--size", str(w.size), "--seed", str(seed), "--index", str(index)]


def stream_pass(w: Workload, seed: int, index: int, out_dir: Path, trace_stem: str | None) -> Pass:
    argv = stream_args(w, seed, index) + (["--trace", trace_stem] if trace_stem else [])
    out, errors, code, _, rss = run_process(argv, out_dir)
    if code != 0:
        return Pass([], rss, w.size, w.size, [crashed(w.kind, code, errors)])
    r = json.loads(out.decode().splitlines()[-1])
    summaries = [json.loads(Path(f"{trace_stem}.json").read_text())] if trace_stem else []
    return Pass([ns / 1e9 for ns in r["lat_ns"]], rss, r["attempted"], r["failed"],
                r["problems"], summaries, r.get("cover_edges", 0), 0, r.get("kept", 0))


def run_pass(w: Workload, seed: int, index: int, out_dir: Path, trace_stem: str | None = None) -> Pass:
    if w.kind == "lattice":
        return lattice_pass(w, out_dir, trace_stem)
    return stream_pass(w, seed, index, out_dir, trace_stem)


def setup_seconds(w: Workload, seed: int, out_dir: Path) -> float:
    """Median time to start the program, import it and make a pass's inputs."""
    if w.kind == "lattice":
        argv = [sys.executable, "-m", "shardorder", "--help"]
    else:
        argv = stream_args(w, seed, 0) + ["--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        _, errors, code, wall, _ = run_process(argv, out_dir)
        if code != 0:
            raise RuntimeError(crashed("set-up", code, errors))
        times.append(wall)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with 10 samples beyond it.

    Below 21 samples that percentile would not be above the median, and the
    median stands in.
    """
    n = len(values)
    if n < 21:
        return 50.0, statistics.median(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path, name: str):
    """Run the workload; returns (passes, metrics, notes for the reader)."""
    if trace:
        plain = run_pass(w, seed, 0, out_dir)
        traced = run_pass(w, seed, 0, out_dir, str(out_dir / f"{name}-seed{seed}"))
        measured = {
            "lattice.cover_edges": traced.cover_edges,
            "cli.output_bytes": traced.output_bytes,
            "trace.overhead_s": traced.wall_s - plain.wall_s,
        }
        metrics = layer_metrics(traced.summaries, traced.kept, measured)
        spans = sum(s["spans"] for s in traced.summaries)
        return [plain, traced], metrics, [f"spans recorded: {spans}"]

    setup = setup_seconds(w, seed, out_dir)
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(w, seed, len(passes), out_dir))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    lat = [x for p in passes for x in p.lat_s]
    notes = [
        f"passes: {len(passes)}, operations timed: {len(lat)}",
        "pass wall_s: " + ", ".join(f"{p.wall_s:.4f}" for p in passes),
    ]
    timed = [p for p in passes if p.lat_s]
    if not timed:
        return passes, {}, notes
    # The tail is taken per pass and its median reported, so that its
    # percentile does not depend on how many passes fitted in the run.
    tails = [tail(p.lat_s) for p in timed]
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": statistics.median(value for _, value in tails) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    notes.append(f"op_tail_ms is p{tails[0][0]:.2f} of {len(timed[0].lat_s)} samples per pass")
    if w.kind == "lattice":
        for i, cmd in enumerate(("hasse", "chains")):
            times = [p.lat_s[i] for p in passes if len(p.lat_s) == 2]
            if times:
                notes.append(f"{cmd}_s = {statistics.median(times):.4f} s (median of {len(times)})")
    return passes, metrics, notes


def main(argv=None, workloads_by_name=WORKLOADS, out_dir=HERE / "out") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads_by_name))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shardorder" / "__init__.py").is_file():
        print(f"error: no shardorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir.mkdir(exist_ok=True)
    w = workloads_by_name[args.workload]
    try:
        passes, metrics, notes = measure(w, args.seed, args.seconds, bool(args.trace), out_dir, args.workload)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    units = LAYER_METRICS if args.trace else E2E_METRICS
    correct = failed == 0 and set(metrics) == set(units)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED {problem}")
    for line in notes:
        print(line)
    print(f"ops_failed_frac = {failed / attempted if attempted else 1.0} (failed / attempted)")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
