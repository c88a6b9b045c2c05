import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droughtnet.geometry import (
    DEFAULT_ANCHORS_KM,
    REGION_SIZE_KM,
    CellShape,
    GeoPoint,
    InsufficientNodes,
    PlacementPlan,
    UntileableShape,
    _hex_lattice,
    connectivity_check,
    estimate_node_count,
    footprint_area,
    links,
    ordered_total,
    plan_to_dict,
    tile_region,
)

SQRT3 = math.sqrt(3.0)


def test_ordered_total_adds_left_to_right():
    """Totals in src/ add left to right from the start, as builtin sum
    did on floats before Python 3.12 made it compensated (1.0 there)."""
    assert ordered_total([1e16, 1.0, -1e16]) == 0.0
    assert math.copysign(1.0, ordered_total([])) == 1.0  # +0.0
    assert ordered_total(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    total = ordered_total((3, 4), 0)
    assert total == 7 and type(total) is int


# -- footprint areas ---------------------------------------------------------


def test_circle_footprint_matches_backsolved_radius():
    # pi * 1.80^2 = 10.179 sq km, the circle-cell coverage figure
    assert footprint_area(CellShape.CIRCLE, 1.80) == pytest.approx(10.18, rel=0.005)


def test_hexagon_footprint_matches_backsolved_circumradius():
    # (3*sqrt(3)/2) * 2.074^2 = 11.176 sq km, the hexagon-cell coverage figure
    assert footprint_area(CellShape.HEXAGON, 2.074) == pytest.approx(11.17, rel=0.005)


def test_unit_circle_area_is_pi():
    assert footprint_area(CellShape.CIRCLE, 1.0) == pytest.approx(math.pi, rel=1e-12)


def test_closed_forms_to_1e9():
    r = 2.074
    assert footprint_area(CellShape.HEXAGON, r) == pytest.approx(1.5 * SQRT3 * r * r, rel=1e-9)
    assert footprint_area(CellShape.CIRCLE, 1.8) == pytest.approx(math.pi * 1.8 * 1.8, rel=1e-9)
    assert footprint_area(CellShape.SQUARE, r) == pytest.approx(2 * r * r, rel=1e-9)
    assert footprint_area(CellShape.EQUILATERAL_TRIANGLE, r) == pytest.approx(
        0.75 * SQRT3 * r * r, rel=1e-9
    )


# -- node-count estimation ---------------------------------------------------


def test_hexagon_region_needs_nine_sensing_nodes():
    assert estimate_node_count(100.0, CellShape.HEXAGON, 2.074) == 9


def test_circle_region_needs_ten_sensing_nodes():
    assert estimate_node_count(100.0, CellShape.CIRCLE, 1.80) == 10


def test_one_cell_region():
    assert estimate_node_count(11.17, CellShape.HEXAGON, 2.074) == 1


@settings(max_examples=200, deadline=None)
@given(
    r1=st.floats(min_value=0.5, max_value=5.0),
    r2=st.floats(min_value=0.5, max_value=5.0),
)
def test_estimate_antitone_in_radio_range(r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    n_lo = estimate_node_count(100.0, CellShape.HEXAGON, lo)
    n_hi = estimate_node_count(100.0, CellShape.HEXAGON, hi)
    assert n_hi <= n_lo


# -- tiling ------------------------------------------------------------------


def test_hex_plan_of_ten_positions_and_spacing():
    plan = tile_region(1, CellShape.HEXAGON, 2.074, 10, DEFAULT_ANCHORS_KM[1])
    pts = plan.all_positions()
    assert len(pts) == 10
    # brute-force pairwise check: nearest neighbours sit sqrt(3)*R apart
    dmin = min(
        pts[i].distance_to(pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    )
    assert dmin == pytest.approx(SQRT3 * 2.074, rel=1e-9)


def test_circle_is_untileable():
    with pytest.raises(UntileableShape):
        tile_region(1, CellShape.CIRCLE, 1.80, 10, DEFAULT_ANCHORS_KM[1])


def test_single_node_plan_is_sink_at_centroid():
    plan = tile_region(1, CellShape.HEXAGON, 2.074, 1, DEFAULT_ANCHORS_KM[1])
    assert plan.node_positions == []
    assert plan.sink_position == GeoPoint(6.0, 6.0)


def test_too_few_nodes_for_coverage_rejected():
    with pytest.raises(InsufficientNodes):
        tile_region(1, CellShape.HEXAGON, 2.074, 5, DEFAULT_ANCHORS_KM[1])


def test_positions_inside_region_square():
    for region in (1, 2, 3, 4, 5):
        plan = tile_region(region, CellShape.HEXAGON, 2.074, 10, DEFAULT_ANCHORS_KM[region])
        ax, ay = DEFAULT_ANCHORS_KM[region]
        for p in plan.all_positions():
            assert ax - 1e-9 <= p.x_km <= ax + REGION_SIZE_KM + 1e-9
            assert ay - 1e-9 <= p.y_km <= ay + REGION_SIZE_KM + 1e-9
            assert -1e-9 <= p.x_km <= 100 + 1e-9
            assert -1e-9 <= p.y_km <= 100 + 1e-9


def test_sensing_count_matches_estimate_for_full_plan():
    est = estimate_node_count(100.0, CellShape.HEXAGON, 2.074)
    plan = tile_region(3, CellShape.HEXAGON, 2.074, est + 1, DEFAULT_ANCHORS_KM[3])
    assert len(plan.node_positions) == est


def test_square_and_triangle_lattices_place():
    for shape in (CellShape.SQUARE, CellShape.EQUILATERAL_TRIANGLE):
        est = estimate_node_count(100.0, shape, 2.074)
        plan = tile_region(1, shape, 2.074, est + 1, DEFAULT_ANCHORS_KM[1])
        assert len(plan.all_positions()) == est + 1


def test_hex_lattice_covers_rectangle():
    # sampled coverage: every point of the rectangle lies within the
    # circumradius of some lattice centre
    R = 2.074
    half = 6.0
    centers = np.array([(p.x_km, p.y_km) for p in _hex_lattice(0.0, 0.0, R, half + 2 * R)])
    rng = np.random.default_rng(12345)
    pts = rng.uniform(-half, half, size=(100_000, 2))
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    assert float(np.sqrt(d2).max()) <= R + 1e-9


# -- connectivity ------------------------------------------------------------


def _bfs_oracle(pts, reach):
    n = len(pts)
    seen = [False] * n
    seen[0] = True
    q = deque([0])
    while q:
        u = q.popleft()
        for v in range(n):
            if not seen[v] and pts[u].distance_to(pts[v]) <= reach + 1e-9:
                seen[v] = True
                q.append(v)
    return all(seen)


def test_hex_plan_connected_matches_bfs_oracle():
    plan = tile_region(1, CellShape.HEXAGON, 2.074, 10, DEFAULT_ANCHORS_KM[1])
    assert connectivity_check(plan, 2 * 2.074) == []
    assert _bfs_oracle(plan.all_positions(), 2 * 2.074) is True


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)), max_size=12))
def test_links_are_the_unit_disc_pairs_in_index_order(coords):
    pts = [GeoPoint(x, y) for x, y in coords]
    near = links(pts, 2.0)
    for i, p in enumerate(pts):
        # each other cell within reach, with the distance each side measures
        assert near[i] == [(j, p.distance_to(q)) for j, q in enumerate(pts)
                           if j != i and p.distance_to(q) <= 2.0 + 1e-9]


def test_far_apart_nodes_disconnected():
    plan = PlacementPlan(
        region_id=1,
        cell_shape=CellShape.HEXAGON,
        radio_range_km=2.0,
        node_positions=[GeoPoint(100.0, 0.0)],
        sink_position=GeoPoint(0.0, 0.0),
    )
    assert connectivity_check(plan, 2 * 2.0) == [1]


def test_single_node_trivially_connected():
    plan = tile_region(1, CellShape.HEXAGON, 2.074, 1, DEFAULT_ANCHORS_KM[1])
    assert connectivity_check(plan, 2 * 2.074) == []


# -- export ------------------------------------------------------------------


def test_plan_dict_schema():
    plan = tile_region(2, CellShape.HEXAGON, 2.074, 10, DEFAULT_ANCHORS_KM[2])
    d = plan_to_dict(plan)
    assert d["region_id"] == 2
    assert d["shape"] == "hexagon"
    assert d["range_km"] == 2.074
    assert len(d["nodes"]) == 10
    assert d["nodes"][0]["is_sink"] is True
    assert sum(n["is_sink"] for n in d["nodes"]) == 1
    assert {k for n in d["nodes"] for k in n} == {"node_index", "x_km", "y_km", "is_sink"}
