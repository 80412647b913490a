"""Exact-answer checks behind ``ok_ratio``.

Every check runs after the timed phase, outside every timing.  Range
searches and kNNs are compared with the exact sequential scan of
``repro.baselines.sequential``: a served answer set must contain every
exact answer (no false dismissal, Lemmas 1-3) and name only stored
sequences, and kNN distances must equal the exact ones.  State checks
compare a recovered engine or a caught-up follower with the model of
acknowledged writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.sequential import exact_range_search, sliding_mean_distances

#: Relative tolerance on kNN distances.
DISTANCE_RTOL = 1e-9


@dataclass
class Verdict:
    """Checks made and the failures among them."""

    checked: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_range(
    verdict: Verdict,
    label: str,
    query: np.ndarray,
    epsilon: float,
    answers: list,
    corpus: dict[str, np.ndarray],
) -> None:
    """Served answers must contain every exact answer and only stored ids."""
    verdict.checked += 1
    exact = exact_range_search(query, corpus, epsilon)
    missing = exact - set(answers)
    unknown = set(answers) - set(corpus)
    if missing:
        verdict.fail(f"{label}: false dismissal of {sorted(missing)[:3]}")
    elif unknown:
        verdict.fail(f"{label}: answered unknown ids {sorted(unknown)[:3]}")


def check_knn(
    verdict: Verdict,
    label: str,
    query: np.ndarray,
    k: int,
    neighbours: list[tuple[float, object]],
    corpus: dict[str, np.ndarray],
) -> None:
    """kNN distances must equal the k smallest exact distances."""
    verdict.checked += 1
    exact = sorted(exact_distance(query, points) for points in corpus.values())[:k]
    served = [float(distance) for distance, _ in neighbours]
    if len(served) != len(exact) or not np.allclose(
        served, exact, rtol=DISTANCE_RTOL, atol=1e-12
    ):
        verdict.fail(f"{label}: kNN distances {served[:k]} != exact {exact[:k]}")


def exact_distance(query: np.ndarray, points: np.ndarray) -> float:
    """``D`` by the sequential scan: the shorter slid along the longer."""
    short, long = (query, points) if len(query) <= len(points) else (points, query)
    return float(np.min(sliding_mean_distances(short, long)))


def check_state(
    verdict: Verdict,
    label: str,
    expected: dict[str, np.ndarray],
    actual: dict[object, np.ndarray],
    *,
    exact_points: bool,
) -> None:
    """Ids and point counts (or the points themselves) must match.

    Each mismatching id counts as one failed check.
    """
    for sequence_id in sorted(set(expected) | set(actual), key=str):
        verdict.checked += 1
        want = expected.get(sequence_id)
        got = actual.get(sequence_id)
        if want is None or got is None:
            where = "missing" if got is None else "unexpected"
            verdict.fail(f"{label}: {where} sequence {sequence_id!r}")
        elif len(want) != len(got):
            verdict.fail(
                f"{label}: {sequence_id!r} has {len(got)} points, expected {len(want)}"
            )
        elif exact_points and not np.array_equal(want, got):
            verdict.fail(f"{label}: {sequence_id!r} points differ")


def sample_indices(rng: np.random.Generator, indices: list[int], count: int) -> list[int]:
    """A seed-derived sample of ``count`` of ``indices`` (all if fewer)."""
    if len(indices) <= count:
        return list(indices)
    return sorted(int(i) for i in rng.choice(indices, size=count, replace=False))
