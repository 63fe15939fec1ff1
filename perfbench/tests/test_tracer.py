"""Tests of the benchmark's tracer and per-layer accounting.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import sys

import atomata.automata
import atomata.cli
import pytest

from layers import PER_LAYER, per_layer, self_times, summarize
from tracer import TRACED, Tracer, trace_command
from workloads import witness_document

CONVERSE = ["search", "converse", "--n", "3", "--k", "2", "--timestamp", "T"]


def _bindings() -> dict:
    """Every attribute of every loaded atomata module, by identity."""
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "atomata" or name.startswith("atomata."))
        for attr, value in vars(module).items()
    }


@pytest.fixture
def witness4(tmp_path):
    path = tmp_path / "w4.dfa"
    path.write_text(witness_document(4), encoding="utf-8")
    return str(path)


def test_install_replaces_every_binding_and_restore_puts_them_back():
    before = _bindings()
    originals = {spec: getattr(sys.modules[spec.module], spec.attr) for spec in TRACED}
    tracer = Tracer()
    tracer.install()
    try:
        for spec, original in originals.items():
            assert getattr(sys.modules[spec.module], spec.attr) is not original
        for module in (atomata.cli, atomata.atoms, atomata):
            assert module.minimize is atomata.automata.minimize
    finally:
        restored = tracer.restore()
    assert restored
    assert _bindings() == before


@pytest.mark.parametrize(
    "argv",
    [CONVERSE, ["verify", "prop2", "--n", "3", "--k", "2", "--samples", "50", "--timestamp", "T"]],
)
def test_traced_run_leaves_every_binding_restored(argv):
    before = _bindings()
    trace = trace_command(argv, io.BytesIO())
    assert trace["exit_code"] == 0
    assert trace["restored"]
    assert _bindings() == before


def test_restored_after_a_failing_command(tmp_path):
    before = _bindings()
    bad = tmp_path / "bad.dfa"
    bad.write_text("states: x\n", encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        trace = trace_command(["analyze", str(bad)], io.BytesIO())
    assert trace["exit_code"] == 1
    assert trace["restored"]
    assert _bindings() == before


def test_self_times_of_a_known_tree():
    # 0 [0,100) holds 1 [10,40) and 3 [50,90); 1 holds 2 [20,30)
    spans = {
        "start": [0, 10, 20, 50],
        "end": [100, 40, 30, 90],
        "parent": [-1, 0, 1, 0],
    }
    assert self_times(spans) == [30, 20, 10, 40]


@pytest.mark.parametrize("which", ["analyze", "intervals", "converse"])
def test_self_times_plus_untraced_equal_traced_wall(which, witness4):
    argv = {
        "analyze": ["analyze", witness4, "--format", "json"],
        "intervals": ["intervals", witness4, "--atom", "01", "--format", "json"],
        "converse": CONVERSE,
    }[which]
    trace = trace_command(argv, io.BytesIO())
    summary = summarize(trace)
    selfs = self_times(trace["spans"])
    assert all(s >= 0 for s in selfs)
    assert summary["untraced_ns"] >= 0
    assert sum(e["self_ns"] for e in summary["by_name"].values()) + summary["untraced_ns"] == trace["wall_ns"]
    values = per_layer([trace], traced_wall_s=1.0, untraced_wall_s=1.0)
    assert values.keys() == PER_LAYER.keys()
    self_s = sum(e["self_ns"] for e in summary["by_name"].values()) * 1e-9
    assert values["untraced.s"] + self_s == pytest.approx(trace["wall_ns"] * 1e-9, abs=1e-9)


def test_counts_on_the_analyze_path(witness4):
    values = per_layer([trace_command(["analyze", witness4, "--format", "json"], io.BytesIO())], 1.0, 1.0)
    assert values["semigroup.closure.elements"] == 4**4
    assert values["automata.determinize.calls"] >= 2**4
    assert values["atoms.diag_minimize.s"] <= values["automata.minimize.s"]
    assert values["search.closure.calls"] == 0


def test_traced_jsonl_is_byte_identical_to_untraced():
    untraced = io.StringIO()
    with contextlib.redirect_stdout(untraced):
        assert atomata.cli.main(CONVERSE) == 0
    teed = io.BytesIO()
    trace = trace_command(CONVERSE, teed)
    assert trace["exit_code"] == 0
    assert trace["counts"]["search.atom_count"] > 0
    assert teed.getvalue() == untraced.getvalue().encode("utf-8")
    assert trace["stdout_bytes"] == len(teed.getvalue())
    values = per_layer([trace], 1.0, 1.0)
    assert values["search.records.count"] == 432
    assert values["cli.serialize_dfa.calls"] == 432
