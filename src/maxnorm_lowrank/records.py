"""Experiment records and the versioned CSV schema.

One record per trial; the CSV layout is fixed (column order, float
formatting with 17 significant digits, LF line endings) so that
identical configurations produce identical files, except for the
wall-time column which necessarily varies between runs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import Iterable, Sequence, get_type_hints

CSV_VERSION_LINE = "# maxnorm-lowrank v1"

ALGORITHMS = frozenset(
    {"altproj", "tsvd_baseline", "taylor", "rff", "tt", "jl", "altproj_median"}
)

MEDIAN_TRIAL = -1


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class ExperimentRecord:
    experiment: str
    function: str
    scheme: str
    n: int
    m: int
    r: int
    trial: int
    seed: int
    algorithm: str
    rel_error: float
    wall_time_s: float

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm tag {self.algorithm!r}")
        if self.rel_error < 0:
            raise ValueError(f"relative error must be >= 0, got {self.rel_error}")
        if self.trial < 0 and self.trial != MEDIAN_TRIAL:
            raise ValueError(f"bad trial index {self.trial}")
        if self.trial == MEDIAN_TRIAL and self.algorithm != "altproj_median":
            raise ValueError("trial index -1 is reserved for median summary rows")
        for name in ("n", "m", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def to_row(self) -> list[str]:
        return [
            format_float(getattr(self, name)) if kind is float else str(getattr(self, name))
            for name, kind in _COLUMN_TYPES.items()
        ]

    @staticmethod
    def from_row(row: Sequence[str]) -> "ExperimentRecord":
        if len(row) != len(COLUMNS):
            raise ValueError(f"expected {len(COLUMNS)} fields, got {len(row)}")
        rec = ExperimentRecord(
            **{name: kind(text) for (name, kind), text in zip(_COLUMN_TYPES.items(), row)}
        )
        rec.validate()
        return rec


_COLUMN_TYPES = get_type_hints(ExperimentRecord)
COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def write_csv(records: Iterable[ExperimentRecord], stream: io.TextIOBase):
    stream.write(CSV_VERSION_LINE + "\n")
    stream.write(",".join(COLUMNS) + "\n")
    for rec in records:
        rec.validate()
        stream.write(",".join(rec.to_row()) + "\n")


def read_csv(stream: io.TextIOBase) -> list[ExperimentRecord]:
    lines = [ln.rstrip("\n") for ln in stream]
    if not lines or lines[0] != CSV_VERSION_LINE:
        raise ValueError(f"missing version line {CSV_VERSION_LINE!r}")
    if len(lines) < 2 or lines[1] != ",".join(COLUMNS):
        raise ValueError("missing or unexpected CSV header row")
    out = []
    for ln in lines[2:]:
        if not ln:
            continue
        out.append(ExperimentRecord.from_row(ln.split(",")))
    return out

