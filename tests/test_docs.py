"""Documentation consistency checks.

DESIGN.md promises an experiment index and EXPERIMENTS.md a
paper-vs-measured record; these tests keep the documents honest against
the actual repository contents.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments():
    return (ROOT / "EXPERIMENTS.md").read_text()


@pytest.fixture(scope="module")
def bench_modules():
    return {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}


class TestDesignDoc:
    def test_exists_with_substitution_table(self, design):
        assert "Substitution table" in design
        assert "MI300A" in design

    def test_experiment_index_points_to_real_benches(self, design, bench_modules):
        referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
        assert referenced, "DESIGN.md must reference bench modules"
        missing = referenced - bench_modules
        assert not missing, f"DESIGN.md references missing benches: {missing}"

    def test_every_figure_has_an_index_row(self, design):
        for token in ("Table 1", "Table 2", "Fig 2", "Fig 3", "Fig 4",
                      "Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
                      "Fig 10", "Fig 11"):
            assert token in design, token

    def test_inventory_matches_packages(self, design):
        src = ROOT / "src" / "repro"
        for package in ("hw", "core", "runtime", "perf", "bench",
                        "profiling", "apps", "porting", "uvm", "analyze"):
            assert f"repro.{package}" in design, package
            assert (src / package / "__init__.py").exists(), package


class TestExperimentsDoc:
    def test_every_bench_module_documented(self, experiments, bench_modules):
        for module in bench_modules:
            assert module in experiments, f"{module} missing from EXPERIMENTS.md"

    def test_paper_anchor_values_present(self, experiments):
        for anchor in ("3.6 TB/s", "208", "181", "872", "9.0 M", "58 GB/s",
                       "158 K", "472"):
            assert anchor in experiments, anchor

    def test_deviations_are_recorded(self, experiments):
        assert "Deviation" in experiments


class TestReadme:
    def test_quickstart_imports_are_real(self):
        readme = (ROOT / "README.md").read_text()
        import repro

        for name in ("make_runtime", "KernelSpec", "BufferAccess"):
            assert name in readme
            assert hasattr(repro, name)

    def test_example_scripts_exist(self):
        readme = (ROOT / "README.md").read_text()
        for script in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / script).exists(), script

    def test_bench_table_rows_exist(self):
        readme = (ROOT / "README.md").read_text()
        for module in re.findall(r"`(test_\w+\.py)`", readme):
            assert (ROOT / "benchmarks" / module).exists(), module


class TestModelingDoc:
    def test_covers_all_perf_models(self):
        modeling = (ROOT / "MODELING.md").read_text()
        for section in ("latency", "bandwidth", "Atomics", "fault",
                        "Fragments", "UVM"):
            assert section.lower() in modeling.lower(), section


def _resolve(dotted):
    """Import the longest importable module prefix of *dotted*, then
    getattr the rest; raises when any step is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_dotted_repro_names_resolve():
    """Every ``repro.*`` name the docs cite still exists."""
    names = set()
    for doc in ("DESIGN.md", "README.md", "EXPERIMENTS.md", "MODELING.md"):
        text = (ROOT / doc).read_text()
        names |= set(re.findall(r"\brepro(?:\.\w+)+", text))
    assert names
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"docs cite names that do not resolve: {missing}"
