"""Boxes, partitions, grids, and partition validation."""

from __future__ import annotations

import numpy as np
import pytest

from measurelp import Box, Partition, grid_points, validate_partition
from measurelp.geometry import grid_array, grid_axes, halton_points


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
