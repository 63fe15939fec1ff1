import ast
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import atomata

import _golden as G
from atomata import Dfa, StateSet
from atomata.cli import main, parse_dfa, serialize_dfa
from atomata.errors import DfaParseError
from atomata.search import example1, find_converse_counterexamples
from atomata.transformations import MAX_DEGREE
from conftest import make_dfa


# --- document format ----------------------------------------------------------


def test_fixture_parses_to_example1(ex1):
    assert parse_dfa(G.FIXTURE_TEXT) == ex1


def test_serialize_parse_identity(ex1):
    assert serialize_dfa(ex1) == G.FIXTURE_TEXT
    assert parse_dfa(serialize_dfa(ex1)) == ex1


def test_serialize_idempotent_after_parse():
    messy = "# comment\nstates: 2\n\nalphabet: x y\ninitial: 1\nfinal:\ny: 0 0\nx: 1 0  # trailing\n"
    d = parse_dfa(messy)
    canon = serialize_dfa(d)
    assert serialize_dfa(parse_dfa(canon)) == canon
    assert d.finals == StateSet(2, [])
    assert d.delta("x").map == (1, 0)


def test_parse_errors():
    with pytest.raises(DfaParseError, match="state out of range"):
        parse_dfa("states: 3\nalphabet: a\ninitial: 0\nfinal: 1\na: 0 1 3\n")
    with pytest.raises(DfaParseError, match="unknown letter"):
        parse_dfa("states: 1\nalphabet: a\ninitial: 0\nfinal:\nb: 0\n")
    with pytest.raises(DfaParseError, match="missing transition row"):
        parse_dfa("states: 1\nalphabet: a b\ninitial: 0\nfinal:\na: 0\n")
    with pytest.raises(DfaParseError, match="duplicate"):
        parse_dfa("states: 1\nalphabet: a\ninitial: 0\nfinal:\na: 0\na: 0\n")
    with pytest.raises(DfaParseError, match="duplicate section"):
        parse_dfa("states: 1\nalphabet: a\ninitial: 0\nfinal:\na: 0\nfinal: 0\n")
    with pytest.raises(DfaParseError, match="expected section"):
        parse_dfa("alphabet: a\nstates: 1\ninitial: 0\nfinal:\na: 0\n")
    with pytest.raises(DfaParseError, match="initial state out of range"):
        parse_dfa("states: 1\nalphabet: a\ninitial: 4\nfinal:\na: 0\n")
    err = None
    try:
        parse_dfa("states: 3\nalphabet: a\ninitial: 0\nfinal: 1\na: 0 1 3\n")
    except DfaParseError as exc:
        err = exc
    assert err.line == 5 and err.column is not None


def test_parse_error_reports_position():
    with pytest.raises(DfaParseError, match=r"line 5, column 8"):
        parse_dfa("states: 3\nalphabet: a\ninitial: 0\nfinal: 1\na: 0 1 3\n")


def test_parse_error_final_state_names_line():
    with pytest.raises(DfaParseError, match="final state out of range") as err:
        parse_dfa("states: 3\nalphabet: a\ninitial: 0\nfinal: 1 7\na: 0 1 2\n")
    assert (err.value.line, err.value.column) == (4, 10)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("# header\nstates 3\n", "expected 'name: ...'", 2),
        ("states: 3\nstates: 3\n", "duplicate section 'states'", 2),
        ("states: x\n", "states: wants one number", 1),
        ("states: 0\n", "state count must be positive", 1),
        ("states: 3\nalphabet:\n", "alphabet: wants at least one letter", 2),
        ("states: 3\nalphabet: a b a\n", "alphabet letters must be distinct", 2),
        ("states: 3\nalphabet: a\ninitial: 0 1\n", "initial: wants one state", 3),
        ("states: 3\nalphabet: a\ninitial: 0\n", "missing section 'final'", None),
        (
            "states: 3\nalphabet: a\ninitial: 0\nfinal: 1\na: 0 1\n",
            "row for 'a' needs 3 entries, got 2",
            5,
        ),
        (
            "states: 3\nalphabet: a b\ninitial: 0\nfinal: 1\n\n# rows\na: 0 1 2 0\nb: 0 1 2\n",
            "row for 'a' needs 3 entries, got 4",
            7,
        ),
    ],
    ids=[
        "no-name", "header-repeated", "states-not-a-number", "states-0", "empty-alphabet",
        "repeated-letter", "two-initials", "missing-section", "short-row", "long-row",
    ],
)
def test_parse_errors_name_the_line(text, message, line):
    with pytest.raises(DfaParseError) as err:
        parse_dfa(text)
    where = "" if line is None else f" (line {line})"
    assert str(err.value) == message + where
    assert (err.value.line, err.value.column) == (line, None)


@pytest.mark.parametrize("letter", ["a:", "a b", "#", "a\n"])
def test_serialize_refuses_letters_the_format_cannot_hold(letter):
    d = make_dfa(1, [(0,)], finals=[0], letters=[letter])
    with pytest.raises(ValueError, match="cannot be written in the text format"):
        serialize_dfa(d)


# --- subcommands ---------------------------------------------------------------


def _run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witness_then_analyze_stdin(capsys, monkeypatch):
    code, doc, _ = _run(capsys, ["witness", "example1"])
    assert code == 0
    assert doc == G.FIXTURE_TEXT
    code, out, _ = _run(capsys, ["analyze", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert "syntactic complexity: 27" in out
    assert "atoms: 8" in out


def test_analyze_json(capsys, monkeypatch, tmp_path):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    code, out, _ = _run(capsys, ["analyze", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["syntactic_complexity"] == 27
    assert data["atom_count"] == 8
    assert data["is_full"] is True
    assert data["prop2"]["equal"] is True
    assert len(data["atoms"]) == 8
    by_label = {a["atom"]: a for a in data["atoms"]}
    assert by_label["012"]["complexity"] == 7
    assert by_label["01"]["bound"] == 10


def test_analyze_json_not_full(capsys, tmp_path):
    finding = find_converse_counterexamples(3, 3, limit=1, timestamp="fixed").findings[0]
    path = tmp_path / "finding.dfa"
    path.write_text(finding.dfa)
    code, out, _ = _run(capsys, ["analyze", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["syntactic_complexity"] == 24
    assert data["is_full"] is False


def test_analyze_single_state_empty_language(capsys, monkeypatch):
    doc = serialize_dfa(make_dfa(1, [(0,)], finals=[]))
    code, out, _ = _run(
        capsys, ["analyze", "-", "--format", "json"], stdin=doc, monkeypatch=monkeypatch
    )
    data = json.loads(out)
    assert data["atom_count"] == 1
    assert data["syntactic_complexity"] == 1


def test_semigroup_witnesses(capsys, tmp_path):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    code, out, _ = _run(
        capsys, ["semigroup", str(path), "--witnesses", "--format", "json"]
    )
    data = json.loads(out)
    assert data["size"] == 27 and data["is_full"] is True
    words = {w["word"]: tuple(w["map"]) for w in data["witnesses"]}
    assert words["d"] == (1, 1, 1)
    assert words["aa"] == (0, 1, 2)


def test_atoms_table_and_single_atom(capsys, tmp_path, monkeypatch):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    code, out, _ = _run(capsys, ["atoms", str(path), "--format", "json"])
    data = json.loads(out)
    assert len(data["atoms"]) == 8

    code, out, _ = _run(capsys, ["atoms", str(path), "--atom", "012"])
    assert code == 0
    atom_dfa = parse_dfa(out)
    assert atom_dfa.n == 7

    code, _, err = _run(capsys, ["atoms", str(path), "--atom", "01234"])
    assert code == 1
    assert "error" in err


def test_atoms_refuses_labels_that_name_no_atom(capsys, tmp_path):
    path = tmp_path / "d2.dfa"
    # its atoms are 1 and 01: every non-empty word lies in both quotients
    path.write_text("states: 2\nalphabet: a\ninitial: 0\nfinal: 1\na: 1 1\n")
    for label, message in [
        ("0", "0 does not label an atom of this language"),
        ("[0,0]", "repeated state in label '[0,0]'"),
    ]:
        code, out, err = _run(capsys, ["atoms", str(path), "--atom", label])
        assert (code, out, err) == (1, "", f"atomata: error: {message}\n")


def test_atomaton_table_matches_golden(capsys, tmp_path):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    code, out, _ = _run(capsys, ["atomaton", str(path), "--format", "json"])
    data = json.loads(out)
    assert data["states"] == ["Φ", "0", "1", "2", "01", "02", "12", "012"]
    assert data["initials"] == ["0", "01", "02", "012"]
    assert data["finals"] == ["2"]
    assert data["transitions"]["012"]["d"] == ["1", "01", "12", "012"]
    assert data["transitions"]["Φ"]["c"] == ["Φ", "2"]
    assert data["transitions"]["0"]["d"] == []

    code, out, _ = _run(capsys, ["atomaton", str(path)])
    assert "Φ,0,2,02" in out  # table cell for Φ under d


def test_atoms_negative_atom_by_label(capsys, tmp_path):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    for spelled in ("Φ", "phi"):
        code, out, _ = _run(capsys, ["atoms", str(path), "--atom", spelled])
        assert code == 0
        assert parse_dfa(out).n == 7


def test_bounds_table(capsys):
    code, out, _ = _run(capsys, ["bounds", "4"])
    assert code == 0
    assert "r =  2: 43" in out
    code, out, _ = _run(capsys, ["bounds", "4", "--format", "json"])
    data = json.loads(out)
    assert data["rows"][2] == {"r": 2, "bound": 43}
    assert data["max"] == {"r": 2, "value": 43}


def test_bounds_computes_each_bound_once(capsys, monkeypatch):
    """The maximum is read off the rows: the row f(6, 0..6) is computed once."""
    import atomata.bounds
    import atomata.cli

    calls = []
    real = atomata.bounds.max_atom_complexities

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(atomata.cli, "max_atom_complexities", counted)
    code, out, _ = _run(capsys, ["bounds", "6"])
    assert code == 0 and out.endswith("max over r: 501 at r = 3\n")
    assert calls == [6]


def test_bounds_cap(capsys):
    from atomata.bounds import MAX_BOUNDS_N

    code, out, _ = _run(capsys, ["bounds", str(MAX_BOUNDS_N), "--format", "json"])
    assert code == 0 and len(json.loads(out)["rows"]) == MAX_BOUNDS_N + 1
    code, out, err = _run(capsys, ["bounds", str(MAX_BOUNDS_N + 1)])
    assert code == 1 and out == ""
    assert f"bounds {MAX_BOUNDS_N + 1} is over the cap: n must be at most {MAX_BOUNDS_N}" in err


def test_intervals_command(capsys, tmp_path):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    code, out, _ = _run(
        capsys, ["intervals", str(path), "--atom", "01", "--format", "json"]
    )
    data = json.loads(out)
    assert data["count"] == 10
    assert data["types"] == [[1, 2], [2, 2]]
    assert data["sink"] is True


def test_intervals_requires_full(capsys, tmp_path):
    path = tmp_path / "small.dfa"
    # a lone transposition generates only 2 of the 4 transformations
    path.write_text(serialize_dfa(make_dfa(2, [(1, 0)], finals=[1])))
    code, _, err = _run(capsys, ["intervals", str(path), "--atom", "0"])
    assert code == 1
    assert "semigroup" in err


def test_verify_prop1_cli(capsys):
    code, out, _ = _run(capsys, ["verify", "prop1", "--n", "3"])
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["ok"] is True and summary["violations"] == 0


def test_verify_theorem3_sampled_cli(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "theorem3", "--n", "3", "--k", "3", "--samples", "200", "--seed", "1"],
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["violations"] == 0
    assert summary["params"]["samples"] == 200


def test_search_converse_cli(capsys):
    code, out, _ = _run(
        capsys,
        ["search", "converse", "--n", "3", "--k", "3", "--limit", "1", "--timestamp", "t0"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    record = json.loads(lines[0])
    summary = json.loads(lines[-1])
    assert record["type"] == "campaign-record"
    assert record["syntactic_complexity"] == 24
    assert summary["findings"] == 1
    assert summary["ok"] is True  # findings are success


@pytest.mark.parametrize("which", ["verify theorem3", "search converse"])
def test_sampling_notes_ignored_workers(capsys, which):
    argv = [*which.split(), "--n", "3", "--samples", "300", "--seed", "2", "--timestamp", "t0"]
    code, single, err = _run(capsys, argv + ["--workers", "1"])
    assert code == 0 and err == ""
    code, out, err = _run(capsys, argv + ["--workers", "2"])
    assert code == 0
    assert out == single
    assert err == "atomata: note: sampling runs in one process; --workers is ignored\n"


@pytest.mark.parametrize(
    "argv, flag, why",
    [
        (["verify", "prop1", "--n", "3"], ["--workers", "4"], "verify prop1 runs in one process"),
        (["verify", "prop2", "--n", "3", "--samples", "50"], ["--workers", "4"],
         "verify prop2 runs in one process"),
        (["verify", "prop1", "--n", "3"], ["--samples", "3"], "verify prop1 draws no samples"),
        (["verify", "prop1", "--n", "3"], ["--seed", "5"], "verify prop1 draws no samples"),
        (["search", "converse", "--n", "3", "--k", "2"], ["--seed", "5"],
         "an exhaustive scan draws no samples"),
    ],
)
def test_ignored_flags_are_noted(capsys, argv, flag, why):
    argv = [*argv, "--timestamp", "t0"]
    code, plain, err = _run(capsys, argv)
    assert code == 0 and err == ""
    code, out, err = _run(capsys, argv + flag)
    assert code == 0
    assert out == plain
    assert err == f"atomata: note: {why}; {flag[0]} is ignored\n"


def test_witness_max_semigroup_cli(capsys):
    code, out, _ = _run(capsys, ["witness", "max-semigroup", "--n", "4"])
    assert code == 0
    d = parse_dfa(out)
    assert d.n == 4 and d.alphabet == ("a", "b", "c")


def test_bad_document_nonzero_exit(capsys, monkeypatch):
    code, _, err = _run(
        capsys, ["analyze", "-"], stdin="states: x\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert "error" in err


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["analyze", "EX1"], ["semigroup", "EX1"], ["witness", "example1"]],
    ids=["analyze", "semigroup", "witness"],
)
def test_closure_bound_has_no_flag(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    argv = [str(path) if a == "EX1" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-closure", "8"])
    assert exc.value.code == 2
    assert "--max-closure" in capsys.readouterr().err
    # the environment plays no part
    monkeypatch.setenv("ATOMATA_MAX_CLOSURE", "8")
    code, _, _ = _run(capsys, argv)
    assert code == 0


def test_closure_bound_on_the_command_line(capsys, monkeypatch, tmp_path, closure_bound):
    code, doc, _ = _run(capsys, ["witness", "max-semigroup", "--n", "9"])
    assert code == 0
    assert parse_dfa(doc).n == 9
    path = tmp_path / "w9.dfa"
    path.write_text(doc)
    code, out, err = _run(capsys, ["semigroup", str(path)])
    assert code == 1
    assert out == ""
    assert "387420489" in err and "16777216" in err

    # analyze closes the semigroup before it measures any atom, so it
    # refuses at once instead of after minutes of atom work
    def no_atoms(d):
        raise AssertionError("atoms_of ran before the closure bound")

    monkeypatch.setattr("atomata.cli.atoms_of", no_atoms)
    code, out, err = _run(capsys, ["analyze", str(path)])
    assert code == 1
    assert out == ""
    assert "387420489" in err and "16777216" in err
    # the witness closes nothing; its constructors refuse degrees past MAX_DEGREE
    code, out, err = _run(capsys, ["witness", "max-semigroup", "--n", str(MAX_DEGREE + 1)])
    assert code == 1
    assert out == ""
    assert f"degree {MAX_DEGREE + 1} exceeds cap {MAX_DEGREE}" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["search", "converse", "--n", "3", "--k", "2", "--limit", "0"], "--limit"),
        (["search", "converse", "--n", "3", "--k", "2", "--workers", "0"], "--workers"),
        (["verify", "prop2", "--samples", "0"], "--samples"),
        (["verify", "prop2", "--n", "0"], "--n"),
        (["verify", "theorem3", "--n", "3", "--k", "-1"], "--k"),
        (["verify", "theorem3", "--n", "three"], "--n"),
        (["witness", "max-semigroup", "--n", "0"], "--n"),
        (["bounds", "0"], "n"),
        (["bounds", "-1"], "n"),
    ],
    ids=[
        "limit", "workers", "samples", "prop2-n", "k", "n-not-int", "witness-n",
        "bounds-n", "bounds-negative",
    ],
)
def test_counts_below_one_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


CAMPAIGNS = [
    ["verify", "theorem3", "--n", "1", "--samples", "5"],
    ["verify", "prop1", "--n", "1"],
    ["verify", "prop2", "--n", "2", "--samples", "3"],
    ["search", "converse", "--n", "1", "--samples", "5"],
]


@pytest.mark.parametrize("argv", CAMPAIGNS, ids=lambda argv: "-".join(argv[:2]))
def test_k_past_the_letter_names_is_a_usage_error(capsys, argv):
    """26 letter names: every campaign refuses --k 27 before it draws or scans."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--k", "27"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --k: must be at most 26, got 27" in err


@pytest.mark.parametrize("argv", CAMPAIGNS, ids=lambda argv: "-".join(argv[:2]))
def test_k_of_26_letters_runs(capsys, argv):
    code, out, _ = _run(capsys, [*argv, "--k", "26", "--timestamp", "t"])
    assert code == 0
    params = json.loads(out.splitlines()[-1])["params"]
    assert params.get("k", params.get("max_k")) == 26


def test_semigroup_witnesses_closes_once(capsys, monkeypatch, tmp_path):
    import atomata.semigroup as semigroup

    calls = []
    original = semigroup._closure

    def counted(*args, **kwargs):
        calls.append(kwargs.get("witnesses"))
        return original(*args, **kwargs)

    monkeypatch.setattr(semigroup, "_closure", counted)
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    code, _, _ = _run(capsys, ["semigroup", str(path), "--witnesses"])
    assert code == 0
    assert calls == [True]


def test_semigroup_witnesses_stream_from_the_byte_maps(capsys, monkeypatch, tmp_path):
    # each row is made from the closure's byte map and word and printed at
    # once, with no Transformation list or WordWitness held for all elements
    import atomata.semigroup as semigroup

    def refuse(*args, **kwargs):
        raise AssertionError("the witness rows were collected")

    monkeypatch.setattr(semigroup, "WordWitness", refuse)
    monkeypatch.setattr(semigroup.TransitionSemigroup, "elements", property(refuse))
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    code, out, _ = _run(capsys, ["semigroup", str(path), "--witnesses", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["witnesses"]) == 27


@pytest.mark.parametrize("n, k", [(5, 1), (2, 4)])
def test_small_exhaustive_scans_run_at_any_n_or_k(capsys, n, k):
    argv = ["verify", "prop1", "--n", str(n), "--k", str(k), "--exhaustive"]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["ok"] is True
    assert summary["params"] == {"n": n, "k": k}


def test_exhaustive_scan_over_the_cap_refused(capsys):
    code, out, err = _run(capsys, ["verify", "theorem3", "--n", "4", "--k", "4"])
    assert code == 1
    assert out == ""
    assert "estimated" in err


def test_enumeration_cap_has_no_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem3", "--n", "4", "--max-enum-n", "5"])
    assert exc.value.code == 2
    assert "--max-enum-n" in capsys.readouterr().err


def test_exhaustive_flag_rejected_by_search(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "converse", "--n", "3", "--exhaustive", "--samples", "5"])
    assert exc.value.code == 2
    assert "--exhaustive" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["theorem3", "prop2"])
def test_exhaustive_flag_rejected_by_verify(capsys, which):
    code, out, err = _run(capsys, ["verify", which, "--n", "3", "--exhaustive", "--samples", "5"])
    assert code == 1
    assert out == ""
    assert "--exhaustive" in err


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    """Every `atomata ...` line of the README's CLI block exits 0: FILE is the
    example1 document, optional flags lose their brackets, and a pipe feeds
    the first command's output to the second as stdin."""
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [l.split("#")[0].strip() for l in block.splitlines() if l.startswith("atomata ")]
    assert len(lines) >= 10
    for line in lines:
        stdin = None
        for command in line.split("|"):
            atomata, *argv = shlex.split(command.replace("[", "").replace("]", ""))
            assert atomata == "atomata", line
            argv = [str(path) if a == "FILE" else a for a in argv]
            code, stdin, err = _run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
            assert code == 0, (line, err)


def test_readme_library_tour_runs():
    """The README's library block runs, and gives the values its comments state."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library quick tour\n", 1)[1].split("```python\n", 1)[1]
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block.split("```", 1)[0]).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    complexity, bound, reach, report = values
    assert (complexity, len(namespace["reports"]), bound, reach) == (27, 8, 43, 10)
    assert report.ok


def test_cli_module_runs_without_runpy_warning():
    env = dict(os.environ, PYTHONPATH=str(Path(atomata.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "atomata.cli", "bounds", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_package_imports_form_no_cycle():
    """Every ``from .x import …`` and ``from . import x`` in the package counts,
    at any depth: inside functions and ``TYPE_CHECKING`` blocks too."""
    package = Path(atomata.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    imports = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(a.name if a.name in modules else "__init__" for a in node.names)
        imports[name] = targets
    # peel off the modules that import none of those left; a cycle is what stays
    while leaves := {m for m, targets in imports.items() if not targets & imports.keys()}:
        for m in leaves:
            del imports[m]
    assert not imports, f"modules on or above an import cycle: {sorted(imports)}"


# sha256 of stdout, each recorded before the change it guards: the first
# five before the closures, collection walks and campaign loops were merged
# into one kernel each, prop2 before the campaigns' two-stage scan, and
# prop1 n = 1 before prop1 ran through that scan.  The prop1 n = 3 digest
# was recorded again when its `scanned` came to count every DFA of the
# space, the only change in that output.  Theorem 3 at n = 3, k = 3 and the
# converse under a limit were recorded before exhaustive campaigns decided
# minimality once per letter tuple, the sampled converses at n = 5 and 6
# before sample mode read minimality off that tuple's mask, and the last
# two semigroup outputs before `semigroup --witnesses` streamed its rows.
# New pins go at the end, so the cases already listed keep their test ids.
# "EX1" stands for a file holding the example1 document.
PINNED_OUTPUTS = [
    (
        ["verify", "theorem3", "--n", "3", "--k", "2"],
        "4ac5563b508d3b4990f7e04e852a3873e8c8aa02fc23c6a71a2890cfa69b1a3b",
    ),
    (
        ["search", "converse", "--n", "3", "--k", "2"],
        "2c2ca48a3cb5ef69e32fa0e2bb5a2b67001253970947e28a51a4ef88cd34a660",
    ),
    (
        ["verify", "theorem3", "--n", "4", "--k", "3", "--samples", "2000", "--seed", "1"],
        "6cbffc718dc2bcff69f97afa2f2c6f0b5552dbedba324025abe6c9501e899c8c",
    ),
    (
        ["search", "converse", "--n", "4", "--k", "3", "--samples", "2000", "--seed", "1"],
        "50e1afbb46e218bc8c7735ede7d1f70b1376058afc9bc6d06bda8860863604aa",
    ),
    (
        ["semigroup", "EX1", "--witnesses", "--format", "json"],
        "d75a92ff0c0e995afd0e84f30da88514cd0cedc26953c6772bca44f217229838",
    ),
    (
        ["verify", "prop1", "--n", "3", "--k", "3", "--exhaustive"],
        "2e54b52ab01cb4fe846e98d08535dc29d6fbc218ddfa2913d0b1d79d642f181e",
    ),
    (
        ["verify", "prop2", "--n", "5", "--k", "3", "--samples", "2000", "--seed", "1"],
        "08d7d04c37614344c74aee1be4850831a9024e265296da469bc749d1425728c3",
    ),
    (
        # violation records: one-state languages have one atom, not two
        ["verify", "prop1", "--n", "1", "--k", "2", "--exhaustive"],
        "dae487bddb30b9975a4c413b1c9b03cf8bd27930832ad86f9bb3b6b455723c59",
    ),
    (["atomaton", "EX1"], "24f7922a50bae6a093f85bcbc8201bb4954d2ea025f9c9af9f202d51001ae10a"),
    (
        ["atomaton", "EX1", "--format", "json"],
        "92e6cad9443cf8f32c30a718fc13d83696a3915f29b20b05703e4c26581a713a",
    ),
    (
        ["atoms", "EX1", "--format", "json"],
        "e1f47d8ca63db0d6d68b13fc5ad59b12465beb7b7c8b4099efb90c8975be4213",
    ),
    (
        ["intervals", "EX1", "--atom", "01", "--format", "json"],
        "8bdee8ebc4447962b140bdc7ad037b9ef72c9a83c10b0d6f53a5b622b1176a38",
    ),
    (
        ["verify", "theorem3", "--n", "3", "--k", "3"],
        "6788fa850d270b6786c9400f6b5129393dffdc1b70489a9d5355521e70f1a6cb",
    ),
    (
        # the limit stops the scan inside a letter tuple's final sets
        ["search", "converse", "--n", "3", "--k", "3", "--limit", "100"],
        "7c095cb80773c06b073f8e1a189cdd5fa0137545b1ad74e5a0cb283295b20054",
    ),
    (
        # 2 findings, tested 1831
        ["search", "converse", "--n", "5", "--k", "3", "--samples", "3000", "--seed", "2"],
        "9850fd9f3050b1e8f84f147066df3e5f2e613275b8a9e939755adba1053fc269",
    ),
    (
        # 1 finding
        ["search", "converse", "--n", "6", "--k", "3", "--samples", "2000", "--seed", "2"],
        "b5521a434b90f6387410dcc89984a753a43418300506209ada9aa03d9e9004fd",
    ),
    (
        ["semigroup", "EX1", "--witnesses"],
        "fa715cf5fd04d0a7897901eb095d24820929275cbba66b4aea4ce62e16eb676b",
    ),
    (
        ["semigroup", "EX1", "--format", "json"],
        "055df8735b4447cf3d0db8048829cdd40782d3deab2167b042db42fc425d70d1",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_output_is_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "ex1.dfa"
    path.write_text(G.FIXTURE_TEXT)
    argv = [str(path) if a == "EX1" else a for a in argv]
    if argv[0] in ("verify", "search"):
        argv += ["--timestamp", "2013-02-15T00:00:00+00:00"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _count_campaign_calls(monkeypatch) -> list:
    """Patch the converse campaign; the list gets the shard of each call."""
    import atomata.search as search

    calls = []
    original = search.find_converse_counterexamples

    def counted(*args, **kwargs):
        calls.append(kwargs.get("shard"))
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "find_converse_counterexamples", counted)
    return calls


def test_records_reach_stdout_before_the_second_shard_runs(monkeypatch):
    calls = _count_campaign_calls(monkeypatch)

    class Stdout(io.StringIO):
        calls_at_first_write = None

        def write(self, text):
            if self.calls_at_first_write is None:
                self.calls_at_first_write = len(calls)
            return super().write(text)

    out = Stdout()
    monkeypatch.setattr(sys, "stdout", out)
    timestamp = "2013-02-15T00:00:00+00:00"
    argv = ["search", "converse", "--n", "3", "--k", "3", "--workers", "1", "--timestamp", timestamp]
    assert main(argv) == 0
    assert out.calls_at_first_write == 1
    assert calls == list(range(27))
    # the benchmark's digest of this command
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == (
        "a951949ea76d31bc5d7e28fcd893f01312b8690b37be8d04c1d3a901f13d9589"
    )


def test_limit_in_process_runs_no_later_shard(capsys, monkeypatch):
    calls = _count_campaign_calls(monkeypatch)
    argv = ["search", "converse", "--n", "3", "--k", "3", "--limit", "1", "--workers", "1"]
    code, out, _ = _run(capsys, argv + ["--timestamp", "t0"])
    assert code == 0
    # the first finding is in shard 0, the first letter (0, 0, 0)
    assert calls == [0]
    single = find_converse_counterexamples(3, 3, limit=1, timestamp="t0")
    assert out == "".join(line + "\n" for line in single.to_jsonl_lines())


@pytest.mark.parametrize("n, k", [(8, 1), (5, 2)])
def test_caps_refuse_before_any_shard(capsys, monkeypatch, n, k):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    argv = ["search", "converse", "--n", str(n), "--k", str(k), "--workers", "2"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"exhaustive enumeration at n={n}, k={k} is over the cap" in err


def test_sampled_campaign_past_the_closure_bound_is_refused_before_any_draw(capsys, monkeypatch):
    """From n = 9 a converse finding's record cannot close its letters, up to
    n^n elements.  At n = 11 the run used to fail after 127,416 draws, when
    the letter stage closed a group of units."""
    import atomata.search as search

    def no_draw(*args):
        raise AssertionError("a DFA was drawn")

    monkeypatch.setattr(search, "_draw", no_draw)
    argv = ["search", "converse", "--n", "11", "--k", "3", "--samples", "200000", "--seed", "1"]
    code, out, err = _run(capsys, argv + ["--timestamp", "T"])
    assert code == 1
    assert out == ""
    assert "atomata: error: the converse at n = 11 is refused: each finding's record" in err
    assert "over the closure bound of 16777216" in err


@pytest.mark.parametrize("limit", [[], ["--limit", "100"]], ids=["all", "limit-100"])
def test_converse_on_two_workers_matches_one(capsys, limit):
    argv = ["search", "converse", "--n", "3", "--k", "3", *limit, "--timestamp", "t0"]
    outputs = []
    for workers in ("1", "2"):
        code, out, _ = _run(capsys, argv + ["--workers", workers])
        assert code == 0
        outputs.append(out.splitlines())
    (*records, summary), (*sharded_records, sharded_summary) = outputs
    assert sharded_records == records
    summary, sharded_summary = json.loads(summary), json.loads(sharded_summary)
    # the summary names the shards; under a limit too, it counts what the
    # one-process run counts (search.run_sharded)
    assert sharded_summary.pop("params") == dict(
        summary.pop("params"), shard="merged", num_shards=2
    )
    assert sharded_summary == summary
