"""Lookup-table latency estimation for compiled graphs.

Each parameterized layer is priced by an exact table entry when one
exists, keyed by its operational signature, and otherwise by a fallback
cost proportional to the layer's multiply-accumulate count. The model is
additive per layer, the standard desk-scale stand-in for on-device
measurement; it captures relative cost, not fused-kernel effects.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .network import LayerGraph, ParamLayer, layer_macs

CSV_FIELDS = ("op", "cin", "cout", "hout", "wout", "k", "groups", "stride", "us")

# (op, cin, cout, hout, wout, kernel, groups, stride)
LatencyKey = tuple[str, int, int, int, int, int, int, int]


class LatencyTableError(ValueError):
    """Malformed table file or inconsistent table contents."""


class LatencyModelError(ValueError):
    """Estimation impossible: missing entries with no usable fallback."""


@dataclass
class LatencyTable:
    """Microsecond costs per layer signature plus a per-MAC fallback rate."""

    entries: dict[LatencyKey, float] = field(default_factory=dict)
    fallback_us_per_mac: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.fallback_us_per_mac < math.inf:
            raise LatencyTableError(
                f"fallback_us_per_mac must be finite and >= 0 us/MAC, "
                f"got {self.fallback_us_per_mac}")
        for key, us in self.entries.items():
            if not 0 <= us < math.inf:
                raise LatencyTableError(f"latency must be finite and >= 0, "
                                        f"got {us} for key {key}")

    def lookup(self, key: LatencyKey) -> float | None:
        return self.entries.get(key)


@dataclass
class LatencyEstimate:
    total_us: float
    per_layer: list[dict]
    misses: int

    def to_json_dict(self) -> dict:
        return {"total_us": self.total_us, "misses": self.misses,
                "per_layer": self.per_layer}


def layer_key(layer: ParamLayer) -> LatencyKey:
    c, h, w = layer.out_shape
    if layer.kind == "conv":
        return ("conv2d", layer.in_channels, c, h, w, layer.kernel,
                layer.groups, layer.stride)
    return ("dense", layer.in_channels, c, 1, 1, 1, 1, 1)


def estimate(graph: LayerGraph, table: LatencyTable) -> LatencyEstimate:
    """Additive per-layer latency: table hits exactly, misses via fallback."""
    total = 0.0
    per_layer = []
    misses = 0
    for layer in graph.layers:
        key = layer_key(layer)
        us = table.lookup(key)
        if us is None:
            if table.fallback_us_per_mac <= 0.0:
                raise LatencyModelError(
                    f"no table entry for layer {layer.index} {key} and no "
                    f"positive fallback rate")
            misses += 1
            us = table.fallback_us_per_mac * layer_macs(layer)
            source = "fallback"
        else:
            source = "table"
        total += us
        per_layer.append({"layer": layer.index, "us": us, "source": source})
    return LatencyEstimate(total_us=total, per_layer=per_layer, misses=misses)


def load_table(path, fallback_us_per_mac: float = 0.0) -> LatencyTable:
    """Read a latency table from CSV; header row is mandatory.

    Columns: op,cin,cout,hout,wout,k,groups,stride,us. Duplicate keys and
    negative or non-finite latencies are rejected with the offending line
    number.
    """
    entries: dict[LatencyKey, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LatencyTableError(f"{path}: empty file, expected header "
                                    f"{','.join(CSV_FIELDS)}") from None
        if tuple(h.strip() for h in header) != CSV_FIELDS:
            raise LatencyTableError(
                f"{path}:1: bad header {','.join(header)!r}, expected "
                f"{','.join(CSV_FIELDS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_FIELDS):
                raise LatencyTableError(
                    f"{path}:{lineno}: expected {len(CSV_FIELDS)} fields, "
                    f"got {len(row)}")
            try:
                key: LatencyKey = (row[0].strip(),) + tuple(int(v) for v in row[1:8])
                us = float(row[8])
            except ValueError as exc:
                raise LatencyTableError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= us < math.inf:
                raise LatencyTableError(
                    f"{path}:{lineno}: latency must be finite and >= 0, got {us}")
            if key in entries:
                raise LatencyTableError(f"{path}:{lineno}: duplicate key {key}")
            entries[key] = us
    return LatencyTable(entries=entries, fallback_us_per_mac=fallback_us_per_mac)


def save_table(table: LatencyTable, path) -> None:
    """Write a table in the same CSV dialect load_table reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for key in sorted(table.entries):
            writer.writerow(list(key) + [repr(table.entries[key])])
