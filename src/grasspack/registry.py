"""The metric registry: one entry per distance, with its CLI name and flags.

It imports no numpy, so the CLI can list the metric names in its help text
without loading the numerical modules; the evaluators are in `metrics`.
`Metric` is a `collections.namedtuple`, not a dataclass: `dataclasses`
imports `inspect` (and with it `ast`, `dis` and `tokenize`), which every
printing command (`bounds`, `lines-catalog`, `--help`) would then load at
start-up.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UnknownMetricError


class Metric(namedtuple("Metric", "id cli_name is_angle_distance is_proper")):
    """Registry entry: identifier plus the classification flags."""

    __slots__ = ()


THETA_1 = Metric("theta_1", "theta1", is_angle_distance=True, is_proper=False)
THETA_F = Metric("theta_F", "thetaF", is_angle_distance=True, is_proper=True)
THETA_K = Metric("theta_k", "thetaK", is_angle_distance=True, is_proper=True)
CHORDAL = Metric("chordal", "chordal", is_angle_distance=False, is_proper=True)
GEODESIC = Metric("geodesic", "geodesic", is_angle_distance=False, is_proper=True)
FUBINI_STUDY = Metric(
    "fubini_study", "fubini-study", is_angle_distance=False, is_proper=True
)

METRICS: dict[str, Metric] = {
    m.id: m for m in (THETA_1, THETA_F, THETA_K, CHORDAL, GEODESIC, FUBINI_STUDY)
}


def get_metric(name) -> Metric:
    """Look a metric up by id ("theta_F") or CLI name ("thetaF")."""
    if isinstance(name, Metric):
        return name
    for metric in METRICS.values():
        if name in (metric.id, metric.cli_name):
            return metric
    known = ", ".join(m.cli_name for m in METRICS.values())
    raise UnknownMetricError(f"unknown metric {name!r}; known: {known}")
