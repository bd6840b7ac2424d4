"""Closed enumeration of the norm spaces used by ratio experiments, and the embedding ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import GridError, GridFunction, lp_norm
from .differences import besov_norm_diff
from .sobolev import sobolev_norm_full


@dataclass(frozen=True)
class SpaceSpec:
    """Selects a norm: kind "sobolev" (order m) or "besov" (smoothness r,
    difference order m_diff).  Besov ratios use the difference norm as the
    canonical realization so all experiments share one discretization bias.
    The norm that reads the fields checks their values.
    """

    kind: str
    p: float
    m: int | None = None
    r: float | None = None
    m_diff: int | None = None

    def __post_init__(self):
        needs = {"sobolev": ("m",), "besov": ("r", "m_diff")}.get(self.kind)
        if needs is None:
            raise GridError(f"unknown space kind {self.kind!r}")
        if any(getattr(self, name) is None for name in needs):
            raise GridError(f"{self.kind} space needs {' and '.join(needs)}")


def space_norm(u: GridFunction, spec: SpaceSpec) -> float:
    if spec.kind == "sobolev":
        return sobolev_norm_full(u, spec.m, spec.p)
    return besov_norm_diff(u, spec.r, spec.p, spec.m_diff)


def sup_norm(u: GridFunction) -> float:
    return lp_norm(u, math.inf)


def embedding_ratio(u: GridFunction, space: SpaceSpec) -> float:
    """sup-norm over space-norm; growth along a dilated family locates the
    continuous-embedding threshold."""
    denom = space_norm(u, space)
    if denom == 0.0:
        raise GridError("embedding ratio undefined for the zero function")
    return sup_norm(u) / denom
