"""What ``benchmarks/e2e`` relies on from the product and the repo.

The benchmark resolves the product's entry points and layer functions by
name, so those names must stay truthful: every literal ``"repro.…:name"``
it probes resolves, and its execution entry points come from
``repro.runtime.execute``.  Its ``--regen-expected`` cross-checks the
reference checksums against ``benchmarks/BENCH_fastexec.json``, which must
agree with ``expected.json`` row for row and which the interpreter must
still reproduce.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
FIXTURE = E2E.parent / "BENCH_fastexec.json"
PROBED = re.compile(r'"(repro\.[\w.]+:\w+)"')


def _load_harness():
    spec = importlib.util.spec_from_file_location("e2e_harness",
                                                  E2E / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load_harness()


def _probed_names() -> list[str]:
    return sorted({name for path in E2E.glob("*.py")
                   for name in PROBED.findall(path.read_text())})


def _fixture_rows() -> list[dict]:
    return json.loads(FIXTURE.read_text())["entries"]


def test_checksum_fixture_matches_expected():
    expected = json.loads((E2E / "expected.json").read_text())
    rows = _fixture_rows()
    assert rows
    for row in rows:
        assert set(row) == {"kernel", "shape", "procs", "backend", "checksum"}
        assert row["backend"] == "interp"
        key = (f"{row['kernel']}|{row['shape']}|procs={row['procs']}"
               f"|seed={harness.DATA_SEED}")
        assert expected.get(key) == row["checksum"], key


@pytest.mark.parametrize(
    "row", _fixture_rows(),
    ids=lambda row: f"{row['kernel']}-{row['shape']}")
def test_fixture_row_reproduces_on_interp(row):
    """Each fixture checksum is what the interpreter computes today for
    that kernel, shape and processor count on the benchmark's data seed."""
    from repro.runtime.execute import execute_prepared, prepare_kernel

    params = {key: int(value) for key, value in
              (pair.split("=") for pair in row["shape"].split(","))}
    prep = prepare_kernel(row["kernel"], params=params, procs=row["procs"],
                          seed=harness.DATA_SEED, backend=row["backend"])
    assert prep.shape == row["shape"]
    _s, _c, digest = execute_prepared(prep, row["backend"])
    assert digest == row["checksum"]


def test_probed_names_exist():
    assert _probed_names()


@pytest.mark.parametrize("name", _probed_names())
def test_probed_name_resolves(name):
    assert harness.probe(name) is not None, name


@pytest.mark.parametrize("name", ["prepare_kernel", "execute_prepared",
                                  "execute_resilient", "resolve_params"])
def test_entry_points_come_from_execute(name):
    assert harness.entry(name).__module__ == "repro.runtime.execute"
