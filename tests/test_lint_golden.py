"""Golden verdicts of ``repro lint`` on the shipped fixtures.

The exact ``(rule, line)`` multiset the lint rules report on
``examples/racey_port.py`` (one seeded bug per scenario) and on the CI
gate's tree (``examples`` + ``src/repro/apps`` minus racey_port).  Any
change to the lint engine must keep these verdicts, or update them here
on purpose.
"""

import pathlib

from repro.analyze import lint_paths

ROOT = pathlib.Path(__file__).resolve().parent.parent

RACEY_PORT = sorted(
    [("lint.double-free", 98),
     ("lint.free-before-sync", 82),
     ("lint.use-after-free", 85)]
    + [("lint.leaked-alloc", line)
       for line in (31, 41, 52, 53, 65, 78, 83, 107, 121)]
    + [("lint.missing-sync", line) for line in (34, 44, 57)]
)

#: The gate tree: only slow_port's allocations, freed through
#: ``.allocation`` views rather than the owning name.
GATE_TREE = sorted(
    ("lint.leaked-alloc", "slow_port.py", line)
    for line in (38, 40, 56, 70, 110)
)


def test_racey_port_verdicts():
    findings = lint_paths([ROOT / "examples" / "racey_port.py"])
    assert sorted((f.rule, f.line) for f in findings) == RACEY_PORT


def test_gate_tree_verdicts():
    findings = lint_paths(
        [ROOT / "examples", ROOT / "src" / "repro" / "apps"],
        exclude=("examples/racey_port.py",),
    )
    assert sorted(
        (f.rule, pathlib.Path(f.file).name, f.line) for f in findings
    ) == GATE_TREE
