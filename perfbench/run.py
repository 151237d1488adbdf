"""End-to-end ``repro.Session`` benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload dense-rounds --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # untraced + traced, every workload
    python3 perfbench/run.py --check-determinism --seed 1  # same inputs under two hash seeds

One workload prints a table of every metric, the outcome of every
correctness check, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the metrics
``BENCHMARK.json`` declares: end-to-end ones untraced (``--trace 0``),
per-layer ones traced (``--trace 1``, which also writes every span to
``.bench_out/``). The exit code is 0 only when every operation and check
succeeded, and 2 when the ``repro`` package cannot be imported from
``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NAMES = ("dense-rounds", "sparse-churn", "serve-reads")
#: Prefix of the line, printed before the result line, that carries every
#: end-to-end number of the run; ``--workload all`` subtracts the
#: untraced run's from the traced run's to report the tracing overhead.
E2E = "e2e "


def _import_program():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the repro package from src/: {exc}", file=sys.stderr)
        return None
    from repro.exceptions import OverlapCalibrationWarning

    # The dense worlds overlap beyond the default model's calibration
    # bound on purpose; the warning says so once per session.
    warnings.simplefilter("ignore", OverlapCalibrationWarning)
    from perfbench import trace, workloads

    return trace, workloads


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(args) -> int:
    modules = _import_program()
    if modules is None:
        return 2
    trace, workloads = modules
    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        recorder = trace.install(trace.Recorder())
        recorder.enabled = True
    runner = (
        workloads.serve_reads
        if args.workload == "serve-reads"
        else workloads.closed_loop
    )
    try:
        result = runner(workload, args.seed, args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.enabled = False
            recorder.uninstall()
    ops = result.ops
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for key, value in result.notes.items():
        print(f"  {key}: {_fmt(value)}")
    print("end-to-end" + (" (traced)" if args.trace else ""))
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<34} {_fmt(value):>14} {unit}")
    print(f"  {'op_failure_ratio':<34} "
          f"{_fmt(ops.failed / max(1, ops.attempted)):>14} ratio")
    if args.trace:
        print("per layer (self time per cycle, median; reads per call)")
        for name, (value, unit) in result.layers.items():
            print(f"  {name:<34} {_fmt(value):>14} {unit}")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        recorder.dump(path, result.spans)
        print(f"  spans written to {path.relative_to(ROOT)}")
    print("checks")
    for name, ok, detail in ops.checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}  {detail}")
    for error in ops.errors:
        print(f"  error: {error}")
    # The result line carries exactly the metrics BENCHMARK.json declares.
    # Read latency and capacity are reported in the traced run's per-layer
    # set, timed with the span wrappers paused: the pure-Python read path
    # moves with the host's speed more than any bound absorbs (see
    # PROFILE.md), and the latency tail with a few interpreter pauses per
    # run. serve.feed_wait_ms exists on serve-reads only.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        available = dict(result.layers)
        for name in ("read_p50_us", "read_p99_us", "read_max_qps"):
            available[f"serve.{name}"] = result.metrics[name]
        names = [m["name"] for m in declared["per_layer"]]
    else:
        available = result.metrics
        names = [m["name"] for m in declared["end_to_end"]]
    metrics = {name: available[name] for name in names}
    print(E2E + json.dumps({k: v for k, (v, _u) in result.metrics.items()}))
    print(
        json.dumps(
            {
                "correct": ops.correct,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if ops.correct else 1


def _child(workload: str, args, trace: int, env=None):
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    print(proc.stdout, end="")
    if proc.returncode == 2 or not lines:
        print(proc.stderr, end="", file=sys.stderr)
    return proc.returncode, lines


def _e2e(lines: list[str]) -> dict:
    return next(
        (json.loads(line[len(E2E):]) for line in lines if line.startswith(E2E)),
        {},
    )


def run_all(args) -> int:
    """Every workload, untraced then traced; prints tracing overhead."""
    status = 0
    summary = {}
    for workload in NAMES:
        code, plain = _child(workload, args, 0)
        code_traced, traced = _child(workload, args, 1)
        status = status or code or code_traced
        if not plain or not traced:
            continue
        untraced, with_trace = _e2e(plain), _e2e(traced)
        print(f"tracing overhead on {workload} (traced - untraced)")
        for name, value in untraced.items():
            if name in with_trace:
                print(f"  {name:<34} {_fmt(with_trace[name] - value):>14}")
        summary[workload] = json.loads(plain[-1])
    print(json.dumps(summary))
    return status


def check_determinism(args) -> int:
    """Worlds and first DEPEN round counts agree under two hash seeds."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--fingerprint", "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode or 1
        outputs.append(proc.stdout)
        print(f"PYTHONHASHSEED={hash_seed}\n{proc.stdout}", end="")
    same = outputs[0] == outputs[1]
    print("deterministic" if same else "NOT deterministic")
    return 0 if same else 1


def fingerprint(args) -> int:
    modules = _import_program()
    if modules is None:
        return 2
    _trace, workloads = modules
    from perfbench import worlds

    for name in NAMES:
        workload = workloads.WORKLOADS[name]
        world = worlds.generate(workload.spec, workloads.WORLD_SEED)
        stream = worlds.MutationStream(world, f"mutations:{args.seed}")
        batches = [stream.next_batch(30) for _ in range(3)]
        with workload.session(world.claims) as session:
            rounds = []
            for batch in [None, *batches]:
                if batch is not None:
                    session.apply(batch)
                session.publish()
                rounds.append(session.stats()["truth"]["rounds"])
            print(f"{name} claims={world.fingerprint()} "
                  f"batches={hashlib.sha256(repr(batches).encode()).hexdigest()[:16]} "
                  f"pairs={len(session.engine.cache)} rounds={rounds}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--fingerprint", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.check_determinism:
        return check_determinism(args)
    if args.fingerprint:
        return fingerprint(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
