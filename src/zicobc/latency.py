"""Lookup-table latency estimation for compiled graphs.

Each parameterized layer is priced by an exact table entry when one
exists, keyed by its operational signature, and otherwise by a fallback
cost proportional to the layer's multiply-accumulate count. The model is
additive per layer, the standard desk-scale stand-in for on-device
measurement; it captures relative cost, not fused-kernel effects.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .network import LayerGraph, ParamLayer, layer_macs, read_text

CSV_FIELDS = ("op", "cin", "cout", "hout", "wout", "k", "groups", "stride", "us")

# (op, cin, cout, hout, wout, kernel, groups, stride)
LatencyKey = tuple[str, int, int, int, int, int, int, int]


class LatencyTableError(ValueError):
    """Malformed table file or inconsistent table contents."""


class LatencyModelError(RuntimeError):
    """Valid inputs that cannot be priced: a layer the table lacks under a
    zero fallback rate, or a total too large for a float."""


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
    """`latency` prints its `asdict`, keys in field order."""

    total_us: float
    misses: int
    per_layer: list[dict]


def layer_key(layer: ParamLayer) -> LatencyKey:
    c, h, w = layer.out_shape
    if layer.kind == "conv":
        return ("conv2d", layer.in_channels, c, h, w, layer.kernel,
                layer.groups, layer.stride)
    return ("dense", layer.in_channels, c, 1, 1, 1, 1, 1)


def estimate(graph: LayerGraph, table: LatencyTable) -> LatencyEstimate:
    """Additive per-layer latency: table hits exactly, misses via fallback.

    Prices are finite, but their sum or a fallback product can overflow:
    that raises, naming the layer where the total stops being finite.
    """
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
        if not math.isfinite(total):
            raise LatencyModelError(
                f"latency total overflows at layer {layer.index} {key}: "
                f"{source} price {us} us")
        per_layer.append({"layer": layer.index, "us": us, "source": source})
    return LatencyEstimate(total_us=total, per_layer=per_layer, misses=misses)


def load_table(path, fallback_us_per_mac: float = 0.0) -> LatencyTable:
    """Read a latency table from CSV; header row is mandatory.

    Columns: op,cin,cout,hout,wout,k,groups,stride,us. A row must give a
    key some layer can have (`layer_key`): op conv2d or dense, every
    integer field positive, and hout, wout, k, groups and stride 1 on a
    dense row. Any other row, a duplicate key, and a negative or
    non-finite latency are rejected naming the line and the field.
    """
    try:
        rows = list(csv.reader(io.StringIO(read_text(path, LatencyTableError), newline="")))
    except csv.Error as exc:  # a field over csv's size limit
        raise LatencyTableError(f"{path}: {exc}") from None
    if not rows:
        raise LatencyTableError(f"{path}: empty file, expected header "
                                f"{','.join(CSV_FIELDS)}")
    if tuple(h.strip() for h in rows[0]) != CSV_FIELDS:
        raise LatencyTableError(
            f"{path}:1: bad header {','.join(rows[0])!r}, expected "
            f"{','.join(CSV_FIELDS)}")
    entries: dict[LatencyKey, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        where = f"{path}:{lineno}"
        if len(row) != len(CSV_FIELDS):
            raise LatencyTableError(
                f"{where}: expected {len(CSV_FIELDS)} fields, got {len(row)}")
        key = _row_key(row, where)
        try:
            us = float(row[8])
        except ValueError:
            raise LatencyTableError(f"{where}: us: must be a number, "
                                    f"got {row[8]!r}") from None
        if not 0 <= us < math.inf:
            raise LatencyTableError(f"{where}: us: must be finite and >= 0, got {us}")
        if key in entries:
            raise LatencyTableError(f"{where}: duplicate key {key}")
        entries[key] = us
    return LatencyTable(entries=entries, fallback_us_per_mac=fallback_us_per_mac)


def _row_key(row: list[str], where: str) -> LatencyKey:
    op = row[0].strip()
    if op not in ("conv2d", "dense"):
        raise LatencyTableError(f"{where}: op: must be conv2d or dense, got {op!r}")
    values = []
    for name, text in zip(CSV_FIELDS[1:8], row[1:8]):
        try:
            value = int(text)
        except ValueError:
            raise LatencyTableError(f"{where}: {name}: must be an integer, "
                                    f"got {text!r}") from None
        if value < 1:
            raise LatencyTableError(f"{where}: {name}: must be >= 1, got {value}")
        if op == "dense" and name not in ("cin", "cout") and value != 1:
            raise LatencyTableError(f"{where}: {name}: must be 1 on a dense row, "
                                    f"got {value}")
        values.append(value)
    return (op, *values)
