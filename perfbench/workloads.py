"""Seeded inputs for the benchmark workloads, and their golden reports.

Each workload is one `python -m conf2` invocation.  The seed only
decides what the program is given: the order of the surfaces on the
command line and, for `file_oracle`, a random relabelling of the
triangulation files the benchmark writes.  Neither changes any
cohomology, so every seed's expected report is assembled from one
per-surface golden report recorded at the seed commit
(`golden/<workload>.json`, written by `record_golden.py`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCHEMA = "conf2-report/1"

ORACLE_SWEEP = (
    "sphere",
    "orientable:1",
    "orientable:2",
    "nonorientable:1",
    "nonorientable:2",
    "nonorientable:3",
)

# Minimal triangulations as (vertex count, facets).
MINIMAL_SPHERE = (4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
MINIMAL_TORUS = (7, tuple((i, (i + a) % 7, (i + 3) % 7) for a in (1, 2) for i in range(7)))
MINIMAL_RP2 = (
    6,
    (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ),
)

WORKLOADS = ("oracle_sweep", "file_oracle")


@dataclass(frozen=True)
class Invocation:
    """CLI arguments after `python -m conf2`, and the report label of each surface in output order."""

    args: tuple[str, ...]
    labels: tuple[str, ...]


def barycentric_subdivision(triangulation):
    """New vertices are the old simplices; facets are vertex < edge < triangle flags."""
    _, facets = triangulation
    faces = sorted(
        {s for f in facets for k in (1, 2, 3) for s in combinations(sorted(f), k)},
        key=lambda s: (len(s), s),
    )
    index = {s: i for i, s in enumerate(faces)}
    flags = tuple(
        (index[(v,)], index[e], index[tuple(sorted(f))])
        for f in facets
        for e in combinations(sorted(f), 2)
        for v in e
    )
    return len(faces), flags


def relabel(triangulation, rng: random.Random):
    """Same surface under a random vertex permutation, facet order and in-facet order."""
    n, facets = triangulation
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[perm[v] for v in f] for f in facets]
    for f in out:
        rng.shuffle(f)
    rng.shuffle(out)
    return n, tuple(tuple(f) for f in out)


def triangulation_text(triangulation) -> str:
    n, facets = triangulation
    return f"vertices {n}\n" + "".join("f " + " ".join(map(str, f)) + "\n" for f in facets)


def make_invocation(workload: str, seed: int, input_dir: Path, root: Path) -> Invocation:
    """The seed's CLI arguments; `file_oracle` writes its files into `input_dir`.

    File surfaces are passed (and labelled in the report) by their path
    relative to `root`, the directory the CLI runs in, so the labels do
    not depend on where the checkout lives.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle_sweep":
        labels = list(ORACLE_SWEEP)
        rng.shuffle(labels)
        args = [a for label in labels for a in ("--surface", label)] + ["--paper-check"]
    elif workload == "file_oracle":
        inputs = {
            "sphere_subdivided.tri": barycentric_subdivision(MINIMAL_SPHERE),
            "torus.tri": MINIMAL_TORUS,
            "rp2.tri": MINIMAL_RP2,
        }
        input_dir.mkdir(parents=True, exist_ok=True)
        labels = []
        for name, triangulation in inputs.items():
            path = input_dir / name
            path.write_text(triangulation_text(relabel(triangulation, rng)))
            labels.append(path.relative_to(root).as_posix())
        rng.shuffle(labels)
        args = [a for label in labels for a in ("--triangulation", label)] + ["--paper-check"]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return Invocation(tuple(args), tuple(labels))


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict[str, dict]:
    """Per-surface golden report dicts, keyed by report label."""
    return json.loads(golden_path(workload).read_text())["reports"]


def expected_output(golden: dict[str, dict], labels) -> str:
    """The exact bytes the CLI's JSON emitter gives for these surfaces in this order."""
    doc = {"schema": SCHEMA, "reports": [golden[label] for label in labels]}
    return json.dumps(doc, indent=2) + "\n"


def surface_failed(report: dict) -> bool:
    """An error record, or any failed check."""
    return "error" in report or any(not c.get("pass") for c in report.get("checks", ()))


def failed_surfaces(text: str, returncode: int, labels, golden: dict[str, dict]) -> int:
    """How many surfaces of one invocation failed.

    A surface fails when its report differs from the golden one, carries
    an error record or a failed check.  When the output as a whole
    differs from the golden bytes, or the exit status is not 0, and no
    single surface can be blamed, every surface counts as failed.
    """
    if returncode == 0 and text == expected_output(golden, labels):
        return 0
    try:
        doc = json.loads(text)
        reports = doc["reports"]
    except (ValueError, KeyError, TypeError):
        return len(labels)
    if doc.get("schema") != SCHEMA or not isinstance(reports, list) or len(reports) != len(labels):
        return len(labels)
    failed = sum(
        1 for label, got in zip(labels, reports) if got != golden[label] or surface_failed(got)
    )
    return failed or len(labels)
