"""Shared fixtures for the reproduction benchmarks.

Expensive worlds (the paper-scale catalog) are built once per session.
Every bench prints the rows/series it reproduces, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the experiment
report generator behind ``EXPERIMENTS.md``.

This conftest also collects the machine-readable benchmark trajectory:
benches record their headline numbers through the ``bench_record``
fixture, and the session-finish hook writes them to
``BENCH_scalability.json`` (override the path with the
``BENCH_SCALABILITY_JSON`` environment variable). CI uploads that file
as a workflow artifact, so speedups are tracked across pushes instead
of scrolling away in job logs.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import pytest

from repro.generators import generate_bookstore_catalog
from repro.linkage import author_list_similarity, canonicalisation_map

# Benches time the test suite's reference oracles (``tests/truth_oracle.py``)
# as their slow arms; appended so nothing in ``tests/`` shadows a module here.
_TESTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"
)
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

_RECORDS: dict[str, dict] = {}


@pytest.fixture(scope="session")
def bench_record():
    """Record one benchmark section's headline numbers for the JSON file."""

    def record(section: str, payload: dict) -> None:
        _RECORDS.setdefault(section, {}).update(payload)

    return record


def pytest_sessionfinish(session, exitstatus):
    if not _RECORDS:
        return  # session ran no recording benches (e.g. the tier-1 suite)
    path = os.environ.get("BENCH_SCALABILITY_JSON") or os.path.join(
        str(session.config.rootpath), "BENCH_scalability.json"
    )
    payload = {
        "schema": 1,
        "suite": "bench_scalability",
        "env": {
            "ci": bool(os.environ.get("CI")),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
        "results": _RECORDS,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nbenchmark trajectory written to {path}")


@pytest.fixture(scope="session")
def paper_catalog():
    """The AbeBooks-scale synthetic catalog (876 stores, 1263 books)."""
    return generate_bookstore_catalog(seed=42)


@pytest.fixture(scope="session")
def canonical_author_claims(paper_catalog):
    """Author-list claims after linkage canonicalisation."""
    catalog, _ = paper_catalog
    claims = catalog.field_claims("authors")
    mapping = {}
    for obj in claims.objects:
        values = claims.values_for(obj)
        support = {v: len(p) for v, p in values.items()}
        local = canonicalisation_map(
            list(values), author_list_similarity, 0.9, support
        )
        for raw, canon in local.items():
            mapping[(obj, raw)] = canon
    return claims.map_values(mapping)
