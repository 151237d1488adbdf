#!/usr/bin/env python3
"""CI perf-regression gate over the benchmark trajectory.

``bench_scalability.py`` writes its headline speedups to
``BENCH_scalability.json`` (see ``benchmarks/conftest.py``). This script
turns that artifact from a passive record into a gate: every headline
metric must stay above a conservative floor, or the job fails with a
readable delta table. The floors sit *below* the benches' own CI
assertion thresholds — the gate exists to catch a silently shipped
regression (a bench edited to stop asserting, a speedup decaying across
pushes), not to re-litigate runner noise.

Standalone stdlib script — no repro import, no third-party deps — so it
runs anywhere the JSON exists::

    python benchmarks/check_regression.py BENCH_scalability.json

Exit status 0 when every gate holds, 1 on any failure (regression,
missing metric, unreadable file). ``--allow-missing`` downgrades absent
sections to a warning for partial runs (a skipped bench still yields
valid JSON; see ``tests/test_bench_conftest.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

#: Gate table: section -> list of (metric label, extractor, kind, floor).
#: ``kind`` is ``"min"`` (value must be >= floor) or ``"max"`` (<=).
#: Floors are deliberately conservative: shared CI runners routinely
#: halve a speedup measured on quiet hardware, and the benches' own
#: assertions (strict locally, looser on CI) remain the first line.
GATES: dict[str, list[tuple[str, Callable[[dict], float], str, float]]] = {
    "batch_vs_per_pair": [
        ("batch_vs_per_pair.speedup", lambda s: s["speedup"], "min", 1.8),
    ],
    "round_refresh": [
        ("round_refresh.speedup", lambda s: s["speedup"], "min", 1.3),
    ],
    "ingest_vs_rebuild": [
        (
            f"ingest_vs_rebuild.speedup[{fraction}]",
            lambda s, f=fraction: s["speedups_by_dirty_fraction"][f],
            "min",
            1.8,
        )
        for fraction in ("2%", "5%", "10%")
    ],
    "mutation_sync": [
        # The mutation-algebra acceptance floor: an inverse-delta sync
        # after a <=10% retract/correct batch must beat the cold
        # rebuild by 3x (the bench also asserts bit-for-bit equality).
        ("mutation_sync.speedup", lambda s: s["speedup"], "min", 3.0),
    ],
    "truth_layout_sync_vs_rebuild": [
        # DEPEN's truth layout synced through the mutation log after a
        # 0.5% batch vs built cold from every claim (the bench also
        # asserts the two are bit-for-bit equal).
        (
            "truth_layout_sync_vs_rebuild.speedup",
            lambda s: s["speedup"],
            "min",
            2.5,
        ),
    ],
    "depen_vote_kernel": [
        # DEPEN's discounted vote counts on dense-rounds-wide slot
        # groups, a new ranking on every call, vs the dict path (the
        # bench also asserts the counts are bit-for-bit equal).
        ("depen_vote_kernel.speedup", lambda s: s["speedup"], "min", 8.0),
    ],
    "serial_vs_sharded": [
        (
            "serial_vs_sharded.speedups.numpy",
            lambda s: s["speedups"]["numpy"],
            "min",
            1.05,
        ),
    ],
    "streaming_rescore": [
        # Wall-clock is noisy at this scale; the stable invariant is the
        # fraction of pairs the restriction re-scores.
        (
            "streaming_rescore.rescored/pairs",
            lambda s: s["rescored"] / s["pairs"],
            "max",
            0.7,
        ),
    ],
    "sync_delta": [
        # A byte count, not wall-clock: the resident backend must keep
        # shipping row deltas, not re-serializing full shard state.
        # Same floor as the bench's own assertion — bytes don't flake.
        (
            "sync_delta.shipped_bytes_ratio",
            lambda s: s["shipped_bytes_ratio"],
            "min",
            5.0,
        ),
    ],
    "recovery": [
        # Supervised recovery from one SIGKILLed resident worker: the
        # respawn + state re-ship + batch retry must stay within 3x of
        # a clean sync of the same shape (the bench also asserts the
        # repaired cache equals a cold rebuild bit-for-bit).
        (
            "recovery.overhead_ratio",
            lambda s: s["overhead_ratio"],
            "max",
            3.0,
        ),
    ],
    "pair_posterior_batch": [
        # The batched posterior kernel vs the scalar pair_posterior
        # loop over the same refreshed evidence — the acceptance floor
        # of the fused-DEPEN-round optimisation.
        (
            "pair_posterior_batch.speedup",
            lambda s: s["speedup"],
            "min",
            3.0,
        ),
    ],
    "serving": [
        # The online serving layer (bench_serving.py): sustained read
        # throughput with the background ingest/refresh/publish loop
        # live. The bench asserts >= 1000 qps; the gate floor sits at
        # half that for noisy shared runners.
        ("serving.qps", lambda s: s["qps"], "min", 500.0),
        ("serving.p99_ms", lambda s: s["p99_ms"], "max", 100.0),
        # Consistency is not wall-clock: an answer inconsistent with
        # its stamped snapshot version is a correctness bug, floor 0.
        ("serving.torn_reads", lambda s: s["torn_reads"], "max", 0.0),
        (
            "serving.versions_published",
            lambda s: s["versions_published"],
            "min",
            2.0,
        ),
    ],
    "truth_round": [
        ("truth_round.speedup", lambda s: s["speedup"], "min", 2.5),
    ],
}


def evaluate(
    results: dict, *, allow_missing: bool = False
) -> tuple[list[tuple[str, str, str, str, str]], list[str]]:
    """Check every gate; return (table rows, failure messages)."""
    rows: list[tuple[str, str, str, str, str]] = []
    failures: list[str] = []
    for section, gates in GATES.items():
        payload = results.get(section)
        if payload is None:
            message = f"section {section!r} missing from results"
            if allow_missing:
                rows.append((section, "-", "-", "-", "MISSING (allowed)"))
            else:
                rows.append((section, "-", "-", "-", "MISSING"))
                failures.append(message)
            continue
        for label, extract, kind, floor in gates:
            try:
                value = float(extract(payload))
            except (KeyError, TypeError, ZeroDivisionError) as exc:
                rows.append((label, "-", _bound(kind, floor), "-", "UNREADABLE"))
                failures.append(f"{label}: cannot extract value ({exc!r})")
                continue
            if kind == "min":
                ok = value >= floor
                margin = value - floor
            else:
                ok = value <= floor
                margin = floor - value
            rows.append(
                (
                    label,
                    f"{value:.3f}",
                    _bound(kind, floor),
                    f"{margin:+.3f}",
                    "ok" if ok else "REGRESSION",
                )
            )
            if not ok:
                failures.append(
                    f"{label}: {value:.3f} violates floor "
                    f"{_bound(kind, floor)} (margin {margin:+.3f})"
                )
    return rows, failures


def _bound(kind: str, floor: float) -> str:
    return f">= {floor:g}" if kind == "min" else f"<= {floor:g}"


def render(rows: list[tuple[str, str, str, str, str]]) -> str:
    """The delta table, plain text, aligned."""
    header = ("metric", "value", "floor", "margin", "status")
    table = [header, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trajectory",
        nargs="?",
        default="BENCH_scalability.json",
        help="path to the benchmark trajectory JSON",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="absent sections warn instead of failing (partial bench runs)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.trajectory) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perf gate: cannot read {args.trajectory}: {exc}")
        return 1

    results = payload.get("results")
    if not isinstance(results, dict):
        print(f"perf gate: {args.trajectory} has no 'results' mapping")
        return 1

    rows, failures = evaluate(results, allow_missing=args.allow_missing)
    env = payload.get("env", {})
    print(
        f"perf gate over {args.trajectory} "
        f"(python {env.get('python', '?')}, ci={env.get('ci', '?')}, "
        f"cpus={env.get('cpu_count', '?')})"
    )
    print(render(rows))
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nall perf gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
