"""Tests for the declarative experiment layer (repro.exp spec/registry)."""

import json

import pytest

from repro.exp import (
    ExperimentSpec,
    UnknownExperimentError,
    all_specs,
    code_version,
    experiment_names,
    get_spec,
    temporarily_registered,
)


def dummy_runner(a, b, c):
    return [[a, b, c]]


def make_spec(**overrides):
    kwargs = dict(
        name="dummy",
        title="Dummy",
        columns=["a", "b", "c"],
        runner=dummy_runner,
        grid={"a": [1, 2], "b": ["x", "y"]},
        fixed={"c": 3},
    )
    kwargs.update(overrides)
    return ExperimentSpec.define(**kwargs)


class TestGridExpansion:
    def test_cross_product_with_fixed(self):
        points = make_spec().points()
        assert len(points) == 4
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert points[0].params == {"a": 1, "b": "x", "c": 3}
        assert points[3].params == {"a": 2, "b": "y", "c": 3}

    def test_empty_grid_is_one_point(self):
        spec = make_spec(grid=None, fixed={"a": 1, "b": 2, "c": 3})
        points = spec.points()
        assert len(points) == 1
        assert points[0].params == {"a": 1, "b": 2, "c": 3}

    def test_quick_grid_and_fixed_variants(self):
        spec = make_spec(
            quick_grid={"a": [1], "b": ["x"]}, quick_fixed={"c": 99}
        )
        assert spec.point_count() == 4
        assert spec.point_count(quick=True) == 1
        assert spec.points(quick=True)[0].params == {"a": 1, "b": "x", "c": 99}

    def test_quick_falls_back_to_full(self):
        spec = make_spec()
        assert spec.points(quick=True) == spec.points()

    def test_axes(self):
        assert make_spec().axes() == ["a", "b"]

    def test_describe_names_point_params(self):
        point = make_spec().points()[0]
        assert point.describe() == "dummy[a=1, b='x', c=3]"


class TestSpecHash:
    def test_stable_across_identical_definitions(self):
        assert make_spec().spec_hash() == make_spec().spec_hash()

    @pytest.mark.parametrize("override", [
        {"grid": {"a": [1, 2, 3], "b": ["x", "y"]}},
        {"fixed": {"c": 4}},
        {"columns": ["a", "b", "z"]},
        {"quick_fixed": {"c": 5}},
        {"name": "other"},
    ])
    def test_any_declarative_change_rehashes(self, override):
        assert make_spec(**override).spec_hash() != make_spec().spec_hash()

    def test_runner_identity_hashes(self):
        assert make_spec(runner=print).spec_hash() != make_spec().spec_hash()


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        expected = {
            "table1", "fig2", "fig3", "memcpy", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "apps", "uvm", "partition",
        }
        assert expected <= set(experiment_names())

    def test_specs_are_well_formed(self):
        for spec in all_specs():
            assert spec.columns, spec.name
            assert spec.point_count() >= 1, spec.name
            assert spec.point_count(quick=True) <= spec.point_count(), spec.name
            # Runners must be module-level (picklable for the pool).
            assert spec.runner.__qualname__ == spec.runner.__name__, spec.name

    def test_unknown_name_raises_with_attribute(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            get_spec("fig99")
        assert excinfo.value.experiment == "fig99"

    def test_temporarily_registered_restores(self):
        spec = make_spec(name="ephemeral")
        with temporarily_registered(spec):
            assert get_spec("ephemeral") is spec
        with pytest.raises(UnknownExperimentError):
            get_spec("ephemeral")

    def test_temporarily_registered_shadows_and_restores(self):
        original = get_spec("fig8")
        shadow = make_spec(name="fig8")
        with temporarily_registered(shadow):
            assert get_spec("fig8") is shadow
        assert get_spec("fig8") is original


class TestCodeVersion:
    def test_detected_version_is_nonempty(self):
        assert code_version()
