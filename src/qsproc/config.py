"""Run configuration: tolerances, enumeration policy, output format."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    rank_tol: float = 1e-9
    projector_tol: float = 1e-10
    positivity_tol: float = 1e-9
    normalization_tol: float = 1e-12
    axiom_tol: float = 1e-9
    equivalence_tol: float = 1e-8
    decomposition_tol: float = 1e-8
    membership_tol: float = 1e-8
    commutativity_tol: float = 1e-9
    regularity_tol: float = 1e-9
    classical_tol: float = 1e-12
    ultrastationarity_tol: float = 1e-12
    policy: str = "all_subsets"
    cap: int = 20000
    format: str = "json"
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_tol") and not (
                _is_number(value, (int, float)) and math.isfinite(value) and value > 0
            ):
                raise ValueError(
                    f"{f.name} must be a finite positive number, not {value!r}"
                )
        if not _is_number(self.cap, int) or self.cap < 1:
            raise ValueError(f"cap must be an integer of at least 1, not {self.cap!r}")
        if self.policy not in ("all_subsets", "atoms_plus_unit"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.format not in ("json", "text"):
            raise ValueError(f"unknown format {self.format!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("configuration must be a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        return RunConfig(**data)


def _is_number(value, types) -> bool:
    # bool is an int subclass, but True is no tolerance or cap
    return isinstance(value, types) and not isinstance(value, bool)
