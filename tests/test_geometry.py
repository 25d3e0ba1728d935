"""Boxes, partitions, grids, and partition validation."""

from __future__ import annotations

import ast
import re
import tracemalloc

import numpy as np
import pytest

from measurelp import Box, Partition, grid_points, validate_partition
from measurelp.geometry import MAX_GRID_POINTS, grid_array, grid_axes, halton_points
from oracles import cell_coverage


class TestBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            Box((0.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))
        with pytest.raises(ValueError):
            Box((), ())

    def test_half_open_membership(self):
        b = Box((0.0, -1.0), (1.0, 1.0))
        assert b.contains((0.0, -1.0))
        assert b.contains((0.5, 0.0))
        assert not b.contains((1.0, 0.0))
        assert not b.contains((0.5, 1.0))
        assert not b.contains((-0.1, 0.0))
        assert b.closure_contains((1.0, 1.0))
        assert b.closure_contains((1.0 + 1e-13, 0.0), tol=1e-12)
        assert not b.closure_contains((1.1, 0.0), tol=1e-12)

    def test_geometry_helpers(self):
        b = Box((0.0, 2.0), (1.0, 6.0))
        assert b.dim == 2
        assert b.volume == 4.0
        assert b.center() == (0.5, 4.0)
        corners = b.corners()
        assert len(corners) == 4
        assert (0.0, 2.0) in corners and (1.0, 6.0) in corners

    def test_dimension_mismatch(self):
        b = Box((0.0,), (1.0,))
        with pytest.raises(ValueError):
            b.contains((0.0, 0.0))


class TestGrids:
    def test_closed_endpoints(self):
        axes = grid_axes(Box((1.0,), (3.0,)), 5)
        assert axes[0][0] == 1.0 and axes[0][-1] == 3.0
        assert len(axes[0]) == 5

    def test_per_axis_resolution(self):
        pts = grid_array(Box((0.0, 0.0), (1.0, 2.0)), (2, 3))
        assert pts.shape == (6, 2)

    def test_grid_points_tuples(self):
        pts = grid_points(Box((0.0,), (1.0,)), 3)
        assert pts == [(0.0,), (0.5,), (1.0,)]

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_array(Box((0.0,), (1.0,)), 1)
        with pytest.raises(ValueError):
            grid_array(Box((0.0, 0.0), (1.0, 1.0)), (3,))


class TestHalton:
    def test_range_and_determinism(self):
        a = halton_points(500, 3)
        b = halton_points(500, 3)
        assert a.shape == (500, 3)
        assert np.array_equal(a, b)
        assert np.all(a >= 0.0) and np.all(a < 1.0)

    def test_equidistribution(self):
        pts = halton_points(2000, 2)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 0.02)


class TestPartition:
    def quarters(self):
        return Partition(
            (
                Box((0.0, 0.0), (0.5, 0.5)),
                Box((0.5, 0.0), (1.0, 0.5)),
                Box((0.0, 0.5), (0.5, 1.0)),
                Box((0.5, 0.5), (1.0, 1.0)),
            )
        )

    def test_locate(self):
        part = self.quarters()
        assert part.locate((0.25, 0.25)) == 0
        assert part.locate((0.5, 0.0)) == 1
        assert part.locate((0.75, 0.75)) == 3
        assert part.locate((1.0, 1.0)) is None
        assert part.locate_closure((1.0, 1.0)) == 3
        assert part.locate_closure((0.5, 0.5)) is not None
        assert part.locate_closure((2.0, 2.0)) is None

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            Partition((Box((0.0,), (1.0,)), Box((0.0, 0.0), (1.0, 1.0))))
        with pytest.raises(ValueError):
            Partition(())

    def test_accepts_dyadic_subdivision(self):
        hull = Box((0.0, 0.0), (1.0, 1.0))
        report = validate_partition(self.quarters(), hull)
        assert report.ok and report.disjoint and report.volume_match and report.covered
        assert report.problems == ()

    def test_rejects_missing_piece(self):
        hull = Box((0.0, 0.0), (1.0, 1.0))
        part = Partition(self.quarters().boxes[:3])
        report = validate_partition(part, hull)
        assert not report.ok
        assert not report.volume_match or not report.covered
        assert any("deficit" in p for p in report.problems)

    def test_rejects_overlap(self):
        hull = Box((0.0,), (2.0,))
        part = Partition((Box((0.0,), (1.5,)), Box((1.0,), (2.0,))))
        report = validate_partition(part, hull)
        assert not report.ok
        assert not report.disjoint
        assert any("boxes 0 and 1 overlap" in p for p in report.problems)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            validate_partition(self.quarters(), Box((0.0,), (1.0,)))


def guillotine_tiling(rng, dim: int, pieces: int) -> tuple[Partition, Box]:
    """Random hull cut into ``pieces`` boxes by repeated axis-parallel splits."""
    lower = rng.uniform(-10.0, 10.0, dim)
    hull = Box(tuple(lower), tuple(lower + rng.uniform(0.1, 10.0, dim)))
    boxes = [hull]
    while len(boxes) < pieces:
        box = boxes.pop(int(rng.integers(len(boxes))))
        j = int(rng.integers(dim))
        cut = float(rng.uniform(box.lower[j], box.upper[j]))
        if not box.lower[j] < cut < box.upper[j]:
            boxes.append(box)
            continue
        boxes.append(Box(box.lower, box.upper[:j] + (cut,) + box.upper[j + 1:]))
        boxes.append(Box(box.lower[:j] + (cut,) + box.lower[j + 1:], box.upper))
    order = rng.permutation(len(boxes))
    return Partition(tuple(boxes[i] for i in order)), hull


def assert_matches_oracle(part: Partition, hull: Box):
    """Every field and message of the report against the brute-force cell scan."""
    report = validate_partition(part, hull)
    ref = cell_coverage(part, hull)
    assert report.disjoint == ref["disjoint"]
    assert report.covered == ref["covered"]
    named = [int(m) for p in report.problems for m in re.findall(r"^box (\d+) extends", p)]
    assert named == ref["outside"]
    points = [p for p in report.problems if p.startswith("hull point")]
    assert [int(re.search(r"lies in (\d+) boxes", p)[1]) for p in points] == ref["miscovered"][:3]
    for p in points:
        x = ast.literal_eval(re.search(r"hull point (\(.*\)) lies", p)[1])
        assert hull.contains(x)
        assert sum(b.contains(x) for b in part.boxes) == int(re.search(r"lies in (\d+)", p)[1])
    assert report.ok == (ref["disjoint"] and ref["covered"] and not ref["outside"])
    assert report.ok == (report.problems == ())
    return report


class TestExactValidation:
    unit_square = Box((0.0, 0.0), (1.0, 1.0))

    def test_thin_gap_strip_rejected(self):
        part = Partition((Box((0.0, 0.0), (0.3, 1.0)), Box((0.3 + 1e-13, 0.0), (1.0, 1.0))))
        report = assert_matches_oracle(part, self.unit_square)
        assert not report.ok and not report.covered and not report.volume_match
        assert report.disjoint
        assert any(p.startswith("volume deficit") for p in report.problems)
        assert any("lies in 0 boxes" in p for p in report.problems)

    def test_box_outside_hull_named(self):
        part = Partition((Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.5))))
        report = assert_matches_oracle(part, self.unit_square)
        assert not report.ok
        assert report.disjoint and report.covered
        assert "box 1 extends outside the hull" in report.problems
        assert "box 0 extends outside the hull" not in report.problems

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_faces_one_ulp_apart(self, dim, toward):
        face = float(np.nextafter(0.5, toward))
        rest = (0.0,) * (dim - 1), (1.0,) * (dim - 1)
        part = Partition((
            Box((0.0,) + rest[0], (0.5,) + rest[1]),
            Box((face,) + rest[0], (1.0,) + rest[1]),
        ))
        report = assert_matches_oracle(part, Box((0.0,) * dim, (1.0,) * dim))
        assert not report.ok and not report.volume_match and not report.covered
        if face < 0.5:
            assert not report.disjoint
            assert "boxes 0 and 1 overlap" in report.problems
            assert any("lies in 2 boxes" in p for p in report.problems)
        else:
            assert report.disjoint
            assert any(p.startswith("volume deficit") for p in report.problems)
            assert any("lies in 0 boxes" in p for p in report.problems)

    def test_random_guillotine_tilings(self):
        rng = np.random.default_rng(20261018)
        for case in range(200):
            dim = 1 + case % 3
            part, hull = guillotine_tiling(rng, dim, int(rng.integers(1, 9)))
            report = assert_matches_oracle(part, hull)
            assert report.ok and report.volume_match, (case, report.problems)
            if len(part.boxes) > 1:
                drop = int(rng.integers(len(part.boxes)))
                holed = Partition(part.boxes[:drop] + part.boxes[drop + 1:])
                report = assert_matches_oracle(holed, hull)
                assert not report.ok and not report.covered and not report.volume_match
                assert any(p.startswith("volume deficit") for p in report.problems)
                assert any("lies in 0 boxes" in p for p in report.problems)
            # move one face of one box by one ulp: a gap, an overlap or a
            # box sticking out of the hull, and the oracle must agree
            boxes = list(part.boxes)
            i, j = int(rng.integers(len(boxes))), int(rng.integers(dim))
            side = ("lower", "upper")[int(rng.integers(2))]
            toward = (-np.inf, np.inf)[int(rng.integers(2))]
            bounds = {"lower": list(boxes[i].lower), "upper": list(boxes[i].upper)}
            bounds[side][j] = float(np.nextafter(bounds[side][j], toward))
            boxes[i] = Box(tuple(bounds["lower"]), tuple(bounds["upper"]))
            report = assert_matches_oracle(Partition(tuple(boxes)), hull)
            assert not report.ok

    def test_many_miscovered_cells_summarized(self):
        hull = Box((0.0, 0.0), (5.0, 5.0))
        part = Partition(tuple(Box((i, i), (i + 1.0, i + 1.0)) for i in range(5)))
        report = assert_matches_oracle(part, hull)
        assert "20 of 25 hull cells miscovered" in report.problems
        assert sum(p.startswith("hull point") for p in report.problems) == 3

    def test_cell_limit_rejected_without_allocating(self):
        n = 250  # cuts at 0, 0.5, ..., n: 2n cells per axis, (2n)^3 > MAX_GRID_POINTS
        part = Partition(tuple(Box((i,) * 3, (i + 0.5,) * 3) for i in range(n)))
        hull = Box((0.0,) * 3, (float(n),) * 3)
        tracemalloc.start()
        try:
            report = validate_partition(part, hull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 500**3 > MAX_GRID_POINTS
        assert not (report.ok or report.disjoint or report.volume_match or report.covered)
        assert report.problems == (
            f"checking the partition needs {500**3} cells, over the limit {MAX_GRID_POINTS}",
        )
        assert peak < 1_000_000
