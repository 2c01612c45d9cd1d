"""Tests for the user-facing DataCube (record ingest + named queries)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube.builder import build_measure_array
from repro.cube.datacube import DataCube
from repro.cube.dimensions import CategoricalDimension, IntegerDimension
from repro.index.registry import IndexSpec
from repro.instrumentation import AccessCounter


@pytest.fixture
def rng():
    return np.random.default_rng(61)


def insurance_dimensions():
    """A scaled-down version of the paper's insurance cube (§1)."""
    return [
        IntegerDimension("age", 1, 40),
        IntegerDimension("year", 1987, 1996),
        CategoricalDimension("type", ["home", "auto", "health"]),
    ]


def insurance_records(rng, count=3000):
    types = ["home", "auto", "health"]
    return [
        {
            "age": int(rng.integers(1, 41)),
            "year": int(rng.integers(1987, 1997)),
            "type": types[int(rng.integers(0, 3))],
            "revenue": int(rng.integers(1, 1000)),
        }
        for _ in range(count)
    ]


class TestBuilder:
    def test_measures_and_counts(self):
        dims = [IntegerDimension("x", 0, 2)]
        records = [
            {"x": 0, "v": 5},
            {"x": 0, "v": 7},
            {"x": 2, "v": 1},
        ]
        measures, counts = build_measure_array(records, dims, "v")
        assert list(measures) == [12, 0, 1]
        assert list(counts) == [2, 0, 1]

    def test_missing_measure_key(self):
        dims = [IntegerDimension("x", 0, 2)]
        with pytest.raises(KeyError):
            build_measure_array([{"x": 1}], dims, "v")

    def test_value_outside_domain(self):
        dims = [IntegerDimension("x", 0, 2)]
        with pytest.raises(KeyError):
            build_measure_array([{"x": 5, "v": 1}], dims, "v")


class TestDataCubeConstruction:
    def test_shape_matches_dimensions(self, rng):
        cube = DataCube.from_records(
            insurance_records(rng), insurance_dimensions(), "revenue"
        )
        assert cube.shape == (40, 10, 3)
        assert cube.ndim == 3

    def test_shape_mismatch_rejected(self):
        dims = [IntegerDimension("x", 0, 4)]
        with pytest.raises(ValueError, match="shape"):
            DataCube(dims, np.zeros((4,)))

    def test_duplicate_names_rejected(self):
        dims = [IntegerDimension("x", 0, 1), IntegerDimension("x", 0, 1)]
        with pytest.raises(ValueError, match="duplicate"):
            DataCube(dims, np.zeros((2, 2)))

    def test_dimension_lookup(self, rng):
        cube = DataCube.from_records(
            insurance_records(rng), insurance_dimensions(), "revenue"
        )
        assert cube.dimension("year").encode(1990) == 3


class TestQueries:
    @pytest.fixture
    def cube_and_records(self, rng):
        records = insurance_records(rng)
        cube = DataCube.from_records(
            records, insurance_dimensions(), "revenue"
        )
        cube.build_index(block_size=5, max_fanout=3)
        return cube, records

    def test_paper_intro_query(self, cube_and_records):
        """§1: revenue for ages 18–32, years 1988–1996, auto insurance."""
        cube, records = cube_and_records
        got = cube.sum(age=(18, 32), year=(1988, 1996), type="auto")
        want = sum(
            r["revenue"]
            for r in records
            if 18 <= r["age"] <= 32
            and 1988 <= r["year"] <= 1996
            and r["type"] == "auto"
        )
        assert got == want

    def test_all_dimension_defaults(self, cube_and_records):
        cube, records = cube_and_records
        assert cube.sum() == sum(r["revenue"] for r in records)

    def test_singleton_condition(self, cube_and_records):
        cube, records = cube_and_records
        got = cube.sum(year=1995)
        want = sum(r["revenue"] for r in records if r["year"] == 1995)
        assert got == want

    def test_count_and_average(self, cube_and_records):
        cube, records = cube_and_records
        matching = [r for r in records if r["type"] == "home"]
        assert cube.count(type="home") == len(matching)
        assert cube.average(type="home") == pytest.approx(
            sum(r["revenue"] for r in matching) / len(matching)
        )

    def test_max_decodes_attributes(self, cube_and_records):
        cube, _ = cube_and_records
        where, value = cube.max(age=(10, 20))
        assert 10 <= where["age"] <= 20
        assert where["type"] in ("home", "auto", "health")
        sub = cube.measures[9:20]
        assert value == sub.max()

    def test_min_query(self, cube_and_records):
        cube, _ = cube_and_records
        _, value = cube.min(year=(1990, 1993))
        assert value == cube.measures[:, 3:7, :].min()

    def test_counter_threading(self, cube_and_records):
        cube, _ = cube_and_records
        counter = AccessCounter()
        cube.sum(age=(5, 35), counter=counter)
        assert counter.total > 0

    def test_unknown_dimension_rejected(self, cube_and_records):
        cube, _ = cube_and_records
        with pytest.raises(KeyError, match="unknown"):
            cube.sum(salary=(1, 2))

    def test_average_without_counts_uses_cells(self, rng):
        measures = rng.integers(1, 10, (4, 4)).astype(np.int64)
        dims = [IntegerDimension("a", 0, 3), IntegerDimension("b", 0, 3)]
        cube = DataCube(dims, measures)
        assert cube.count(a=(0, 1)) == 8  # cell count fallback

    def test_default_engine_built_lazily(self, rng):
        measures = rng.integers(1, 10, (4, 4)).astype(np.int64)
        dims = [IntegerDimension("a", 0, 3), IntegerDimension("b", 0, 3)]
        cube = DataCube(dims, measures)
        assert cube.sum(a=(1, 2)) == measures[1:3].sum()


class TestBuildIndexSpecs:
    """``build_index``'s shorthand kwargs name registry specs."""

    @pytest.fixture
    def cube(self, rng):
        dims = [
            IntegerDimension("a", 0, 9),
            IntegerDimension("b", 0, 7),
            IntegerDimension("c", 0, 5),
        ]
        return DataCube(dims, rng.integers(0, 50, (10, 8, 6)))

    def test_block_size_builds_the_blocked_structure(self, cube):
        engine = cube.build_index(block_size=4, max_fanout=None)
        assert engine.sum_spec == IndexSpec.of(
            "blocked_prefix_sum", block_size=4
        )
        assert cube.sum(a=(2, 8), c=3) == cube.measures[2:9, :, 3].sum()

    def test_prefix_dims_by_name_build_the_partial_structure(self, cube):
        engine = cube.build_index(prefix_dims=["a", "c"], max_fanout=None)
        assert engine.sum_spec == IndexSpec.of(
            "partial_prefix_sum", prefix_dims=(0, 2)
        )

    def test_max_fanout_sets_the_tree(self, cube):
        engine = cube.build_index(max_fanout=3)
        assert engine.max_spec == IndexSpec.of("range_max_tree", fanout=3)

    def test_max_fanout_none_skips_the_trees(self, cube):
        engine = cube.build_index(max_fanout=None)
        assert engine.max_spec is None
        assert engine.route("max") is None

    def test_block_size_and_prefix_dims_clash(self, cube):
        with pytest.raises(ValueError, match="cannot combine"):
            cube.build_index(block_size=3, prefix_dims=["a"])

    def test_explicit_specs_override_the_shorthand(self, cube):
        engine = cube.build_index(
            block_size=4,
            max_fanout=None,
            sum_index="prefix_sum",
            max_index=IndexSpec.of("range_max_tree", fanout=2),
        )
        assert engine.sum_spec == IndexSpec.of("prefix_sum")
        assert engine.max_spec == IndexSpec.of("range_max_tree", fanout=2)


class TestParseQuery:
    def test_kinds(self, rng):
        cube = DataCube.from_records(
            insurance_records(rng, 100), insurance_dimensions(), "revenue"
        )
        query = cube.parse_query(
            {"age": (18, 32), "year": 1995, "type": None}
        )
        from repro.query.ranges import SpecKind

        assert query.specs[0].kind is SpecKind.RANGE
        assert query.specs[1].kind is SpecKind.SINGLETON
        assert query.specs[2].kind is SpecKind.ALL

    def test_categorical_range(self, rng):
        cube = DataCube.from_records(
            insurance_records(rng, 100), insurance_dimensions(), "revenue"
        )
        query = cube.parse_query({"type": ("home", "auto")})
        assert query.specs[2].resolve(3) == (0, 1)


class TestCuboidProjection:
    """§9's cuboids through the public API."""

    @pytest.fixture
    def cube(self, rng):
        records = insurance_records(rng, 2000)
        return DataCube.from_records(
            records, insurance_dimensions(), "revenue"
        )

    def test_projection_sums_out_dropped_dims(self, cube):
        projected = cube.cuboid(["age", "year"])
        assert projected.shape == (40, 10)
        assert np.array_equal(
            projected.measures, cube.measures.sum(axis=2)
        )
        assert np.array_equal(projected.counts, cube.counts.sum(axis=2))

    def test_projection_answers_match_base(self, cube):
        projected = cube.cuboid(["year"])
        assert projected.sum(year=(1990, 1994)) == cube.sum(
            year=(1990, 1994)
        )
        assert projected.count(year=1995) == cube.count(year=1995)

    def test_projection_keeps_encoders(self, cube):
        projected = cube.cuboid(["type"])
        assert projected.sum(type="auto") == cube.sum(type="auto")

    def test_order_follows_base_axes(self, cube):
        projected = cube.cuboid(["type", "age"])  # reordered on purpose
        assert [d.name for d in projected.dimensions] == ["age", "type"]

    def test_empty_projection_rejected(self, cube):
        with pytest.raises(ValueError):
            cube.cuboid([])

    def test_duplicate_names_rejected(self, cube):
        with pytest.raises(ValueError):
            cube.cuboid(["age", "age"])

    def test_unknown_name_rejected(self, cube):
        with pytest.raises(KeyError):
            cube.cuboid(["salary"])

    def test_identity_projection(self, cube):
        projected = cube.cuboid(["age", "year", "type"])
        assert np.array_equal(projected.measures, cube.measures)


class TestIncrementalLoad:
    """DataCube.absorb: the §5 nightly batch through the public API."""

    def test_absorb_keeps_everything_exact(self, rng):
        records = insurance_records(rng, 1000)
        cube = DataCube.from_records(
            records, insurance_dimensions(), "revenue"
        )
        cube.build_index(block_size=4, max_fanout=3)
        new_records = insurance_records(rng, 300)
        touched = cube.absorb(new_records, measure="revenue")
        assert touched > 0
        everything = records + new_records
        assert cube.sum() == sum(r["revenue"] for r in everything)
        got = cube.sum(age=(10, 25), type="auto")
        want = sum(
            r["revenue"]
            for r in everything
            if 10 <= r["age"] <= 25 and r["type"] == "auto"
        )
        assert got == want
        assert cube.count(year=1995) == sum(
            1 for r in everything if r["year"] == 1995
        )
        _, top = cube.max(year=(1990, 1996))
        assert top == cube.measures[:, 3:, :].max()

    def test_absorb_before_index_is_cheap(self, rng):
        records = insurance_records(rng, 200)
        cube = DataCube.from_records(
            records, insurance_dimensions(), "revenue"
        )
        cube.absorb(insurance_records(rng, 100), measure="revenue")
        # Index built afterwards sees the merged data.
        cube.build_index()
        assert cube.sum() == int(cube.measures.sum())

    def test_absorb_rejects_out_of_domain(self, rng):
        cube = DataCube.from_records(
            insurance_records(rng, 50), insurance_dimensions(), "revenue"
        )
        with pytest.raises(KeyError):
            cube.absorb(
                [{"age": 999, "year": 1990, "type": "auto", "revenue": 1}],
                measure="revenue",
            )
