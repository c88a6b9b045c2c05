"""Cell-shape geometry, regional tiling, node placement and node-count
estimation for the five sub-networks inside the 100 km x 100 km map.

Coordinates are planar kilometres; at this scale geodesy would change
nothing the simulation claims.  Each region is a square patch anchored
on the map (defaults: four corners plus the centre), and node cells are
laid out on a regular lattice anchored at the region centroid so the
sink cell sits exactly on it.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

SQRT3 = math.sqrt(3.0)

MAP_SIZE_KM = 100.0
REGION_SIZE_KM = 12.0
# Area each region's node count is estimated for, whatever its square's
# size: region_size_km does not enter the count.
COVERAGE_AREA_KM2 = 100.0

# Region anchors (lower-left corners): four corners + centre of the map.
DEFAULT_ANCHORS_KM: dict[int, tuple[float, float]] = {
    1: (0.0, 0.0),
    2: (88.0, 0.0),
    3: (44.0, 44.0),
    4: (88.0, 88.0),
    5: (0.0, 88.0),
}


def ordered_total(values, start=0.0):
    """The values added left to right from ``start``: builtin ``sum`` is compensated since 3.12."""
    for value in values:
        start += value
    return start


class PlanningError(Exception):
    pass


class UntileableShape(PlanningError):
    """Circles cannot tile a region without gaps or overlap."""


class InsufficientNodes(PlanningError):
    pass


class CellShape(Enum):
    CIRCLE = "circle"
    SQUARE = "square"
    EQUILATERAL_TRIANGLE = "triangle"
    HEXAGON = "hexagon"


@dataclass(frozen=True, slots=True)
class GeoPoint:
    x_km: float
    y_km: float

    def distance_to(self, other: "GeoPoint") -> float:
        return math.hypot(self.x_km - other.x_km, self.y_km - other.y_km)


@dataclass(slots=True)
class PlacementPlan:
    """Node layout for one region: sensing positions plus the sink cell."""

    region_id: int
    cell_shape: CellShape
    radio_range_km: float
    node_positions: list[GeoPoint]
    sink_position: GeoPoint

    def all_positions(self) -> list[GeoPoint]:
        return [self.sink_position, *self.node_positions]


def footprint_area(shape: CellShape, radio_range_km: float) -> float:
    """Exact planar area of one cell.

    The radio range is the circle radius, the hexagon circumradius, or
    the circumradius of the square/triangle inscribed in the radio disc;
    it is positive, as validate() checks.
    """
    r2 = radio_range_km * radio_range_km
    if shape is CellShape.CIRCLE:
        return math.pi * r2
    if shape is CellShape.HEXAGON:
        return 1.5 * SQRT3 * r2
    if shape is CellShape.SQUARE:
        return 2.0 * r2
    return 0.75 * SQRT3 * r2  # equilateral triangle


def estimate_node_count(region_area_km2: float, shape: CellShape, radio_range_km: float) -> int:
    """Sensing cells needed to cover the region; the caller adds 1 sink.

    ceil(area / footprint) with a small tolerance so exact multiples do
    not round up on float error.
    """
    ratio = region_area_km2 / footprint_area(shape, radio_range_km)
    return max(1, math.ceil(ratio - 1e-9))


def _hex_lattice(cx: float, cy: float, circumradius: float, half: float) -> list[GeoPoint]:
    # pointy-top hexagons: columns sqrt(3)R apart, rows 1.5R, odd rows offset
    w = SQRT3 * circumradius
    row_h = 1.5 * circumradius
    pts = []
    jmax = int(math.floor(half / row_h)) + 1
    imax = int(math.floor(half / w)) + 2
    for j in range(-jmax, jmax + 1):
        y = cy + j * row_h
        off = 0.5 * w if j % 2 else 0.0
        for i in range(-imax, imax + 1):
            pts.append(GeoPoint(cx + i * w + off, y))
    return pts


def _square_lattice(cx: float, cy: float, circumradius: float, half: float) -> list[GeoPoint]:
    s = math.sqrt(2.0) * circumradius
    n = int(math.floor(half / s)) + 1
    return [
        GeoPoint(cx + i * s, cy + j * s)
        for j in range(-n, n + 1)
        for i in range(-n, n + 1)
    ]


def _triangle_lattice(cx: float, cy: float, circumradius: float, half: float) -> list[GeoPoint]:
    # alternating up/down triangles; centroids of the two orientations
    a = SQRT3 * circumradius
    h = 0.5 * SQRT3 * a
    jmax = int(math.floor(half / h)) + 1
    imax = int(math.floor(half / a)) + 2
    pts = []
    for j in range(-jmax, jmax + 1):
        y_up = cy + j * h
        y_dn = y_up + h / 3.0
        for i in range(-imax, imax + 1):
            pts.append(GeoPoint(cx + i * a, y_up))
            pts.append(GeoPoint(cx + (i + 0.5) * a, y_dn))
    return pts


_LATTICES = {
    CellShape.HEXAGON: _hex_lattice,
    CellShape.SQUARE: _square_lattice,
    CellShape.EQUILATERAL_TRIANGLE: _triangle_lattice,
}


def tile_region(
    region_id: int,
    shape: CellShape,
    radio_range_km: float,
    node_count: int,
    anchor_km: tuple[float, float],
    region_size_km: float = REGION_SIZE_KM,
) -> PlacementPlan:
    """Lattice placement of ``node_count`` cells (sink included) in the
    region square whose lower-left corner is ``anchor_km``.

    The lattice is anchored at the region centroid, which becomes the
    sink cell; sensing cells are the nearest remaining lattice points
    inside the region square.  node_count == 1 is the degenerate
    sink-only plan; otherwise asking for fewer cells than the coverage
    estimate raises InsufficientNodes.  The radio range is positive and
    node_count at least 1, as validate() checks before it plans a region.
    """
    if shape is CellShape.CIRCLE:
        raise UntileableShape("circles leave gaps or overlap; pick hexagon/square/triangle")

    ax, ay = anchor_km
    cx, cy = ax + region_size_km / 2.0, ay + region_size_km / 2.0
    centroid = GeoPoint(cx, cy)

    estimate = estimate_node_count(COVERAGE_AREA_KM2, shape, radio_range_km)
    if node_count != 1 and node_count < estimate:
        raise InsufficientNodes(
            f"node_count {node_count} below coverage estimate {estimate}"
        )

    half = region_size_km / 2.0
    candidates = [
        p
        for p in _LATTICES[shape](cx, cy, radio_range_km, half)
        if abs(p.x_km - cx) <= half + 1e-9 and abs(p.y_km - cy) <= half + 1e-9
    ]
    candidates.sort(key=lambda p: (round(p.distance_to(centroid), 9), p.y_km, p.x_km))
    if len(candidates) < node_count:
        raise PlanningError(
            f"region square of {region_size_km} km fits only {len(candidates)} "
            f"{shape.value} cells, {node_count} requested"
        )

    sink = candidates[0]
    return PlacementPlan(
        region_id=region_id,
        cell_shape=shape,
        radio_range_km=radio_range_km,
        node_positions=candidates[1:node_count],
        sink_position=sink,
    )


def links(positions: list[GeoPoint], reach: float) -> list[list[tuple[int, float]]]:
    """The unit-disc link rule: for each cell, the (index, distance) of
    every other cell within ``reach``, in index order; each pair's
    distance is computed once."""
    near: list[list[tuple[int, float]]] = [[] for _ in positions]
    for i, p in enumerate(positions):
        for j in range(i + 1, len(positions)):
            d = p.distance_to(positions[j])
            if d <= reach + 1e-9:
                near[i].append((j, d))
                near[j].append((i, d))
    return near


def connectivity_check(plan: PlacementPlan, reach: float) -> list[int]:
    """Indices of the cells the sink (index 0) cannot reach, by BFS over
    the ``links`` graph; [] if connected."""
    near = links(plan.all_positions(), reach)
    seen = [False] * len(near)
    seen[0] = True
    queue = deque([0])
    while queue:
        for v, _ in near[queue.popleft()]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return [i for i, s in enumerate(seen) if not s]


def plan_to_dict(plan: PlacementPlan) -> dict:
    nodes = [
        {"node_index": 0, "x_km": plan.sink_position.x_km, "y_km": plan.sink_position.y_km, "is_sink": True}
    ]
    for i, p in enumerate(plan.node_positions, start=1):
        nodes.append({"node_index": i, "x_km": p.x_km, "y_km": p.y_km, "is_sink": False})
    return {
        "region_id": plan.region_id,
        "shape": plan.cell_shape.value,
        "range_km": plan.radio_range_km,
        "nodes": nodes,
    }


def plans_to_json(plans: list[PlacementPlan]) -> str:
    return json.dumps([plan_to_dict(p) for p in plans], indent=2, sort_keys=True)
