import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from exact_reference import make_node, transition_graph_to_dict
from ifsquant import cli, engine, exact_oracle, golden, measure, oracle
from ifsquant.cli import build_parser, main
from ifsquant.measure import Region
from ifsquant.words import render

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_text(rows):
    """The rows as ``csv.writer`` writes them, with the CLI's quoting."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC).writerows(rows)
    return out.getvalue()


def test_optimal_text(capsys):
    code, out, _ = run(capsys, "optimal", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["1/7", "4/7", "6/7", "V_3 = 57/14308"]


def test_optimal_json_matches_text_values(capsys):
    code, text_out, _ = run(capsys, "optimal", "--n", "3", "--format", "text")
    assert code == 0
    code, json_out, _ = run(capsys, "optimal", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(json_out)
    assert data["n"] == 3
    assert data["V"] == "57/14308"
    centroids = [node["centroid"] for node in data["nodes"]]
    assert centroids == text_out.splitlines()[:3]
    assert [node["word"] for node in data["nodes"]] == ["1", "2", "2"]
    assert [node["kind"] for node in data["nodes"]] == ["closed", "closed", "tail"]


def test_optimal_csv(capsys):
    code, out, _ = run(capsys, "optimal", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"word","kind","centroid","centroid_float","error"'
    assert lines[1].startswith('"1","closed","1/7",0.1428571429,"9/7154"')
    # Both forms fill templates; they must be what json and csv write of the
    # set's dict, its node keys the CSV header.
    for n in (1, 2, 71, 5000, *random.Random(3).sample(range(3, 5000), 8)):
        data = engine.quantizer_set_to_dict(engine.optimal_set(n))
        assert run(capsys, "optimal", "--n", str(n), "--format", "json")[1] \
            == json.dumps(data) + "\n"
        assert run(capsys, "optimal", "--n", str(n), "--format", "csv")[1] \
            == _csv_text([data["nodes"][0], *(node.values() for node in data["nodes"])])


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--from", "2", "--to", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"n","V","V_float"'
    assert lines[1].startswith('2,"69/3577",0.0192899')
    assert len(lines) == 5
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "500", "--format", "csv")
    assert code == 0
    values = map(engine.quantization_error, range(1, 501))
    assert out == _csv_text([("n", "V", "V_float"),
                             *((n, str(v), measure.float_val(v))
                               for n, v in enumerate(values, start=1))])


def test_table_text_contains_exact_values(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "3")
    assert code == 0
    assert "288/3577" in out and "69/3577" in out and "57/14308" in out


@pytest.mark.parametrize("n_lo, n_hi", [(999998, 1000001), (9999998, 10000001)])
def test_table_text_starts_v_in_one_column(capsys, n_lo, n_hi):
    # n is padded to the width of --to, so a window that crosses a power of
    # ten past 10^6 does not push the V of its longer n one column right.
    code, out, _ = run(capsys, "table", "--from", str(n_lo), "--to", str(n_hi))
    lines = out.splitlines()
    assert code == 0 and len(lines) == n_hi - n_lo + 1
    starts = {len(line) - len(line.split(maxsplit=1)[1]) for line in lines}
    assert starts == {len(str(n_hi)) + 1}
    values = [line.split()[1] for line in lines]
    assert values == [str(engine.quantization_error(n)) for n in range(n_lo, n_hi + 1)]


def test_enumerate_csv_rows_are_the_json_values(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "16", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == '"set","word","kind","centroid","centroid_float","error"'
    rows = list(csv.reader(rows, quoting=csv.QUOTE_NONNUMERIC))
    code, out, _ = run(capsys, "enumerate", "--n", "16", "--format", "json")
    assert code == 0
    expected = [[index, *node.values()]
                for index, entry in enumerate(json.loads(out), start=1)
                for node in entry["nodes"]]
    assert len(rows) == len(expected) == 3 * 16
    assert rows == expected


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "16")
    assert code == 0
    assert out.strip() == "3"


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert "count = 1" in out
    assert "closed:1 tail:1" in out


def test_enumerate_json_shares_v(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "16", "--format", "json")
    assert code == 0
    sets = json.loads(out)
    assert len(sets) == 3
    assert {entry["V"] for entry in sets} == {"4635/117211136"}


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "--from", "18", "--to", "21",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph optimal_sets {")
    assert "rankdir=LR;" in out
    assert out.count(" -> ") == 12


def test_tree_text_layers(capsys):
    code, out, _ = run(capsys, "tree", "--from", "15", "--to", "18")
    assert code == 0
    assert "layer 15: a_{15,1}" in out
    assert "layer 16: a_{16,1} a_{16,2} a_{16,3}" in out


def test_tree_json_adjacency(capsys):
    code, out, _ = run(capsys, "tree", "--from", "2", "--to", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["edges"] == [["a_{2,1}", "a_{3,1}"]]
    assert data["vertices"][0]["nodes"] == ["closed:1", "tail:1"]


def _stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def _names(q):
    return [f"{kind}:{render(word)}" for kind, word in q.signature()]


# Most sets a property test below builds per example: layer 67's 364.  The
# reference forms of layers 68 to 74 take up to seconds each, and the
# output of the largest, layer 71, is pinned by digest instead.
SMALL_CAP = 364


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 90))
def test_enumerate_forms_match_the_dict_forms(n):
    # Each form formats a walked node once and splices its text; every
    # form must equal the one built from quantizer_set_to_dict set by set.
    assume(engine.count_optimal_sets(n) <= SMALL_CAP)
    sets = engine.enumerate_optimal_sets(n)
    data = [engine.quantizer_set_to_dict(q) for q in sets]
    expected = json.dumps(data)
    assert "".join(engine.json_list(engine.quantizer_sets_json(
        engine.optimal_layers(n, n)))) == expected
    assert _stdout("enumerate", "--n", str(n), "--format", "json") == expected + "\n"
    lines = _stdout("enumerate", "--n", str(n)).splitlines()
    assert lines[3:] == [f"set {index}: {' '.join(_names(q))}"
                         for index, q in enumerate(sets, start=1)]
    rows = _csv_text([["set", *data[0]["nodes"][0]],
                      *([index, *node.values()] for index, entry in enumerate(data, start=1)
                        for node in entry["nodes"])])
    assert _stdout("enumerate", "--n", str(n), "--format", "csv") == rows


def test_quantizer_sets_json_of_no_sets_and_of_two_layers():
    assert "".join(engine.json_list(engine.quantizer_sets_json([]))) == json.dumps([])
    # The set wrapper follows n and V from one layer to the next.
    layers = [*engine.optimal_layers(16, 16), *engine.canonical_layers(17, 17),
              *engine.canonical_layers(16, 16)]
    assert "".join(engine.json_list(engine.quantizer_sets_json(layers))) \
        == json.dumps([engine.quantizer_set_to_dict(q)
                       for layer in layers for q in layer.sets()])


@pytest.mark.parametrize("argv, layers", [
    ("tree --from 60 --to 67 --format json", 8),
    ("enumerate --n 67 --format json", 1),
    ("optimal --n 2000 --format json", 1),
])
def test_v_texts_are_made_once_per_layer(monkeypatch, argv, layers):
    # V's texts are made once per layer, not per set, and from the layer's
    # reduced pair: no Fraction reaches the float hint.
    expected = _stdout(*argv.split())
    made, fractions = [], []
    v_texts, float_json = engine._v_texts, measure.float_json
    monkeypatch.setattr(engine, "_v_texts", lambda layer: made.append(layer.n)
                        or v_texts(layer))
    monkeypatch.setattr(measure, "float_json", lambda x: fractions.append(
        isinstance(x, Fraction)) or float_json(x))
    assert _stdout(*argv.split()) == expected
    assert len(made) == layers
    assert fractions and not any(fractions)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 90), st.integers(0, 5))
def test_tree_json_node_names_match_the_signatures(n_lo, width):
    try:
        graph = engine.transition_graph(n_lo, n_lo + width, cap=SMALL_CAP)
    except engine.CapExceeded:
        assume(False)
    data = transition_graph_to_dict(graph)
    out = _stdout("tree", "--from", str(n_lo), "--to", str(n_lo + width),
                  "--format", "json")
    assert out == json.dumps(data) + "\n"
    assert [vertex["nodes"] for vertex in data["vertices"]] \
        == [_names(q) for layer in graph.layers for q in layer.sets()]


@pytest.mark.parametrize("argv, formatter, window", [
    ("enumerate --n 16 --format json", "node_fields", (16, 16)),
    ("enumerate --n 16 --format csv", "node_fields", (16, 16)),
    ("enumerate --n 16", "node_name", (16, 16)),
    ("tree --from 60 --to 67 --format json", "node_name", (60, 67)),
], ids=["json", "csv", "text", "tree"])
def test_each_walked_node_is_formed_once(monkeypatch, capsys, argv, formatter, window):
    formatted = []
    form = getattr(engine, formatter)
    monkeypatch.setattr(engine, formatter,
                        lambda node: formatted.append(node) or form(node))
    # Layer by layer, its walked nodes and two per half.
    walked = [node for layer in engine.optimal_layers(*window)
              for node in (*layer.nodes, *chain.from_iterable(layer.halves))]
    distinct = {node for q in engine.enumerate_optimal_sets(16) for node in q.nodes}
    assert len(distinct) < 3 * 16
    for calls in (1, 2):
        assert run(capsys, *argv.split())[0] == 0
        assert formatted == calls * walked
        if window == (16, 16):
            # Each call formats every distinct node once, the second one again.
            assert len(formatted) == calls * len(distinct)
            assert set(formatted[-len(distinct):]) == distinct


@pytest.mark.parametrize("form, formatter", [
    ("json", "node_fields"), ("csv", "node_fields"), ("text", "centroid_str"),
])
def test_optimal_forms_only_the_nodes_it_prints(monkeypatch, capsys, form, formatter):
    # At n = 2 * 10^4 the walk leaves 1530 tied nodes and the set splits 462
    # of them: a canonical layer splices them in before any text is made, so
    # no tied node's text is made and dropped.
    formatted = []
    original = getattr(engine, formatter)
    monkeypatch.setattr(engine, formatter,
                        lambda node: formatted.append(node) or original(node))
    assert run(capsys, "optimal", "--n", "20000", "--format", form)[0] == 0
    assert len(formatted) == 20000
    assert formatted == list(next(engine.canonical_layers(20000, 20000)).nodes)


def test_successive_calls_share_one_parser(capsys):
    # The parser is built on the first call and kept: calls of different
    # commands in a row, usage errors among them, print what calls on a
    # freshly built parser print.
    calls = [("optimal", "--n", "7", "--format", "csv"), ("enumerate", "--n", "16"),
             ("optimal", "--n", "0"), ("table", "--from", "3", "--to", "5"),
             ("nonsense",), ("verify", "--n", "3"), ("count", "--n", "16"),
             ("tree", "--from", "15", "--to", "17", "--format", "json")]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 0, 0, 0]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "optimal")[0] == 2            # missing --n
    assert run(capsys, "optimal", "--n", "0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "optimal", "--n", "3", "--format", "dot")[0] == 2
    code, out, err = run(capsys, "verify", "--n", "0")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "quantizer verify: error: argument --n: n must be >= 1, got 0"), err
    # A flag that int() cannot read names itself, and a value past the
    # interpreter's 4300-digit limit is shown by its first 40 characters.
    long = "7" * 5000
    for argv, flag, shown in (
            (["optimal", "--n", "abc"], "n", "'abc'"),
            (["table", "--from", "1.5", "--to", "3"], "from", "'1.5'"),
            (["tree", "--from", "2", "--to", ""], "to", "''"),
            (["enumerate", "--n", "3", "--cap", long], "cap",
             f"'{long[:40]}'... (5000 characters)"),
            (["count", "--n", long], "n", f"'{long[:40]}'... (5000 characters)"),
            (["oracle-sample", "--samples", "1e6"], "samples", "'1e6'"),
            (["oracle-check", "--n", "2", "--depth", "x"], "depth", "'x'"),
            (["oracle-lloyd", "--n", "2", "--threads", "two"], "threads", "'two'"),
            (["oracle-sample", "--seed", "abc"], "seed", "'abc'"),
            (["oracle-check", "--n", "2", "--seed", long], "seed",
             f"'{long[:40]}'... (5000 characters)")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and len(err) < 500, argv
        assert err.endswith(f"error: argument --{flag}: {flag} must be an integer, "
                            f"got {shown}\n"), err
    # --seed takes 0 and up, the other integer flags 1 and up.
    for argv, flag, least in ((["oracle-sample", "--seed", "-1"], "seed", 0),
                              (["oracle-sample", "--samples", "0"], "samples", 1)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (f"quantizer {argv[0]}: error: argument --{flag}: "
                                        f"{flag} must be >= {least}, got {argv[-1]}"), err
    # table and tree iterate the same layers, so they share one range rule,
    # which runs before table writes anything, the CSV header included.
    for argv in (["table"], ["table", "--format", "csv"],
                 ["table", "--format", "json"], ["tree"]):
        assert run(capsys, *argv, "--from", "5", "--to", "3") == (
            2, "", "usage error: first size 5 exceeds last size 3\n")


def test_unread_flags_are_rejected(capsys):
    # Each subcommand takes only the shared flags it reads.
    assert run(capsys, "count", "--n", "3", "--format", "json")[0] == 2
    assert run(capsys, "verify", "--n", "4", "--format", "json")[0] == 2
    assert run(capsys, "verify", "--n", "4", "--seed", "1")[0] == 2
    assert run(capsys, "verify", "--n", "4", "--cap", "5")[0] == 2
    assert run(capsys, "optimal", "--n", "3", "--threads", "2")[0] == 2
    assert run(capsys, "table", "--from", "1", "--to", "2", "--cap", "5")[0] == 2
    assert run(capsys, "tree", "--from", "2", "--to", "3", "--format", "csv")[0] == 2
    assert run(capsys, "oracle-sample", "--format", "csv")[0] == 2
    # Float hints have one fixed precision: no subcommand takes --digits.
    for argv in (["optimal", "--n", "3"], ["table", "--from", "1", "--to", "2"],
                 ["enumerate", "--n", "3"], ["tree", "--from", "2", "--to", "3"],
                 ["oracle-sample"], ["oracle-lloyd", "--n", "2"],
                 ["oracle-check", "--n", "2"]):
        assert run(capsys, *argv, "--digits", "10")[0] == 2


def test_cap_overflow_exits_1(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "16", "--cap", "2")
    assert code == 1
    assert "cap" in err


def _peak_bytes(monkeypatch, argv):
    """The tracemalloc peak of one successful call, its stdout sent to devnull."""
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_table_csv_keeps_no_rows(monkeypatch):
    # A list of the 2*10^4 (n, V) rows peaked at 4.0 MB; written as they
    # are made, they peak at about 0.3 MB, the block table included.
    argv = ["table", "--from", "1", "--to", "20000", "--format", "csv"]
    assert _peak_bytes(monkeypatch, argv) < 2**20


def test_table_json_keeps_no_rows(monkeypatch):
    # A list of the 10^4 rows and its json.dumps string peaked at 7.1 MB;
    # written as they are made, the rows peak at about 0.3 MB.
    argv = ["table", "--from", "1", "--to", "10000", "--format", "json"]
    assert _peak_bytes(monkeypatch, argv) < 2 * 2**20


def test_table_text_keeps_no_rows(monkeypatch):
    # A list of the 2*10^4 rows, kept to find the column width, peaked at
    # 6.0 MB; a first pass over the layers finds the width instead.
    assert _peak_bytes(monkeypatch, ["table", "--from", "1", "--to", "20000"]) < 2**20


def test_tree_json_keeps_no_dict(monkeypatch):
    # A dict of every vertex and its json.dumps string peaked at 5.2 MB;
    # written as they are made, the vertices and edges peak under 1 MB.
    argv = ["tree", "--from", "60", "--to", "67", "--format", "json"]
    assert _peak_bytes(monkeypatch, argv) < 2 * 2**20


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_optimal_streams_its_nodes(monkeypatch, fmt):
    # The text and CSV forms write each node as they reach it, and peak at
    # 1.02 (text) and 0.97 (CSV) times optimal_set(20000) alone, which holds
    # the walk's own nodes; a list of the set's texts, made first, peaked
    # 49 % (text) and 76 % (CSV) above an optimal_set that copied them.
    engine.optimal_set(20000)  # takes the rows, which the process keeps
    tracemalloc.start()
    try:
        engine.optimal_set(20000)
        alone = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    argv = ["optimal", "--n", "20000", "--format", fmt]
    assert _peak_bytes(monkeypatch, argv) < 1.3 * alone


def test_table_json_is_json_dumps_of_the_rows(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "300", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert out == json.dumps(rows) + "\n"
    assert [row["n"] for row in rows] == list(range(1, 301))
    for row in rows[::37]:
        v = engine.quantization_error(row["n"])
        assert (row["V"], row["V_float"]) == (str(v), measure.float_val(v))


def test_threads_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._usable_cpus() == 1  # as under taskset -c 0 on a 64-CPU machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "process_cpu_count", lambda: 2, raising=False)
    assert cli._usable_cpus() == 2
    monkeypatch.setattr(os, "process_cpu_count", lambda: None)
    assert cli._usable_cpus() == 1
    monkeypatch.delattr(os, "process_cpu_count")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1
    # The parser reads no CPU count; _draw asks for it only without --threads.
    assert build_parser().parse_args(["oracle-sample"]).threads is None
    drawn = []
    monkeypatch.setattr(oracle, "sample", lambda *args: drawn.append(args[-1]))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 7)
    for argv in (["oracle-sample"], ["oracle-sample", "--threads", "3"]):
        cli._draw(build_parser().parse_args(argv))
    assert drawn == [7, 3]


def test_cap_limits_only_the_requested_layer(capsys):
    # Layers 68 .. 76 hold up to 3432 sets each; only layer 77 counts here.
    code, out, _ = run(capsys, "enumerate", "--n", "77", "--cap", "1000")
    assert code == 0
    assert "count = 14" in out
    code, out, err = run(capsys, "enumerate", "--n", "71", "--cap", "1000")
    assert code == 1 and out == ""
    assert "n=71" in err
    code, out, _ = run(capsys, "tree", "--from", "77", "--to", "78", "--cap", "15")
    assert code == 0
    assert "layer 78: a_{78,1}" in out
    code, _, err = run(capsys, "tree", "--from", "77", "--to", "78", "--cap", "14")
    assert code == 1 and "n=78" in err


def test_count_prints_past_the_digit_limit(capsys):
    # 11 761 digits: past the interpreter's default int-to-str limit of 4300.
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "count", "--n", "1000000")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    (line,) = out.splitlines()
    assert len(line) == 11761
    sys.set_int_max_str_digits(0)
    try:
        assert int(line) == engine.count_optimal_sets(10**6)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_past_the_digit_limit_exits_1(capsys):
    # The counts have about 2.9*10^5, 1.1*10^7 and 10^10 digits: each is
    # refused from an estimate, without being built.
    for n in ("10000000", "1000000000", "1000000000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--n", n)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert f"n={n}" in err


def test_count_past_the_digit_limit_at_any_block_size(monkeypatch, capsys):
    # A tie block of 10^400 nodes, past any float: one error line, exit 1.
    m = 10**400
    monkeypatch.setattr(engine, "_layers", lambda n_lo, n_hi: iter(
        [(n_lo, engine.Block(engine.TAIL, 43, 0, m), m // 3, (0, 1))]))
    code, out, err = run(capsys, "count", "--n", "7")
    assert (code, out) == (1, "")
    assert err == "error: number of optimal sets has more than 100000 digits at n=7\n"


def test_table_at_extreme_n(capsys):
    code, out, _ = run(capsys, "table", "--from", "1000000000000",
                       "--to", "1000000000002", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [10**12, 10**12 + 1, 10**12 + 2]
    values = [Fraction(row["V"]) for row in rows]
    assert values[0] > values[1] > values[2] > 0


def test_enumerate_cap_at_extreme_n_builds_no_set(monkeypatch, capsys):
    monkeypatch.setattr(engine, "_walk", lambda *args: pytest.fail("a set was built"))
    code, out, err = run(capsys, "enumerate", "--n", "1000000", "--cap", "10")
    assert code == 1 and out == ""
    assert "n=1000000" in err
    # The tie block at n = 10^12 has m = 33 724 950 600 nodes: the cap check
    # must not build C(m, r), which has about 10^10 digits.
    n = "1000000000000"
    for args in (("enumerate", "--n", n), ("tree", "--from", n, "--to", n)):
        code, out, err = run(capsys, *args, "--cap", "10")
        assert code == 1 and out == ""
        assert f"n={n}" in err


def _tampered_verify(monkeypatch, capsys, tamper):
    enumerate_sets = engine.enumerate_optimal_sets
    monkeypatch.setattr(engine, "enumerate_optimal_sets",
                        lambda n: tamper(enumerate_sets(n)))
    code, out, _ = run(capsys, "verify", "--n", "16")
    assert code == 1
    return out


def test_verify_catches_duplicate_sets(monkeypatch, capsys):
    out = _tampered_verify(monkeypatch, capsys,
                           lambda sets: sets[:1] * len(sets))
    assert "count matches enumeration for n <= 16 FAIL (n=7,11,14,16)" in out


def test_verify_rederives_set_totals(monkeypatch, capsys):
    def swap_first_node(sets):
        q = sets[0]
        wrong = make_node(Region(q.nodes[0][0], (9,)))
        return [engine.QuantizerSet((wrong, *q.nodes[1:]), q.v), *sets[1:]]

    out = _tampered_verify(monkeypatch, capsys, swap_first_node)
    assert "count matches enumeration for n <= 16 FAIL (n=1," in out


def test_verify_catches_a_wrong_measure_row(monkeypatch, capsys):
    label, value, expected = golden.MEASURE_ROWS[0]
    monkeypatch.setattr(golden, "MEASURE_ROWS",
                        ((label, value, expected + 1), *golden.MEASURE_ROWS[1:]))
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 1
    assert f"{label} FAIL\n" in out


def test_verify_catches_a_wrong_edge(monkeypatch, capsys):
    (src, _), *rest = golden.EDGES_18_21
    monkeypatch.setattr(golden, "EDGES_18_21", ((src, "a_{19,9}"), *rest))
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 1
    assert "transition pattern 18 -> 21 FAIL\n" in out


def test_verify_reports_a_structure_failure(monkeypatch, capsys):
    audit = engine.validate_structure

    def doubled_total(q):
        return audit(q if q.n == 1 else engine.QuantizerSet(q.nodes, 2 * q.v))

    monkeypatch.setattr(engine, "validate_structure", doubled_total)
    code, out, _ = run(capsys, "verify", "--n", "5")
    assert code == 1
    failure = "total error differs from the node error sum"
    assert (f"structure valid for n <= 5 FAIL (n=2: {failure}; n=3: {failure}; "
            f"n=4: {failure})\n") in out
    assert out.endswith("verification FAILED\n")


def test_verify_reports_an_exhaustive_mismatch(monkeypatch, capsys):
    search = exact_oracle.exhaustive_min

    def doubled_minimum(n):
        best_v, frontier = search(n)
        return (2 * best_v if n in (1, 3, 5) else best_v), frontier

    monkeypatch.setattr(exact_oracle, "exhaustive_min", doubled_minimum)
    code, out, _ = run(capsys, "verify", "--n", "6")
    assert code == 1
    assert "exhaustive search agrees for n <= 6 FAIL (n=1,3,5)\n" in out
    assert out.endswith("verification FAILED\n")


def test_verify_reports_a_check_that_raises(monkeypatch, capsys):
    graph = engine.transition_graph
    monkeypatch.setattr(engine, "transition_graph",
                        lambda n_lo, n_hi: graph(n_lo, n_hi, cap=1))
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 1
    assert ("transition pattern 18 -> 21 FAIL (CapExceeded: optimal sets "
            "exceed cap 1 at n=19)\n") in out
    assert out.endswith("verification FAILED\n")


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
@pytest.mark.parametrize("owner, name, label", [
    (engine, "validate_structure", "structure valid for n <= 3"),
    (engine, "enumerate_optimal_sets", "count matches enumeration for n <= 3"),
    (exact_oracle, "exhaustive_min", "exhaustive search agrees for n <= 3"),
], ids=["structure", "enumeration", "exhaustive"])
def test_verify_reports_any_check_that_raises(monkeypatch, capsys, owner, name,
                                              label, error):
    # A check that raises fails on its own line, and every later line still
    # prints: no traceback, and no usage error for a ValueError.
    _, clean, _ = run(capsys, "verify", "--n", "3")

    def broken(*args, **kwargs):
        raise error("broken on purpose")

    monkeypatch.setattr(owner, name, broken)
    code, out, err = run(capsys, "verify", "--n", "3")
    assert (code, err) == (1, "")
    failure = f" FAIL ({error.__name__}: broken on purpose)"
    assert f"{label}{failure}" in out.splitlines()
    assert len(out.splitlines()) == len(clean.splitlines())
    for before, after in zip(clean.splitlines()[:-1], out.splitlines()):
        assert after in (before, before.removesuffix(" PASS") + failure)
    assert out.endswith("verification FAILED\n")


def test_memory_error_exits_1(monkeypatch, capsys):
    def sample(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(oracle, "sample", sample)
    code, out, err = run(capsys, "oracle-sample", "--samples", "1000000000000")
    assert (code, out) == (1, "")
    assert err == "error: Unable to allocate 7.28 TiB for an array\n"


def test_closed_pipe_exits_1_without_traceback():
    # 150 kB of output outgrows the pipe and stdout buffers, so the writer
    # is still printing when the reader closes its end.
    argv = [sys.executable, "-m", "ifsquant.cli", "table", "--from", "1", "--to", "3000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=ENV) as proc:
        assert proc.stdout.readline().startswith(b"1 ")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in proc.stderr.read()


def test_byte_identical_reruns(capsys):
    first = run(capsys, "oracle-sample", "--samples", "20000", "--depth", "12")
    second = run(capsys, "oracle-sample", "--samples", "20000", "--depth", "12")
    assert first == second
    third = run(capsys, "table", "--from", "1", "--to", "12", "--format", "csv")
    fourth = run(capsys, "table", "--from", "1", "--to", "12", "--format", "csv")
    assert third == fourth


def test_oracle_sample_out_file(tmp_path, capsys):
    target = tmp_path / "batch.bin"
    code, out, _ = run(capsys, "oracle-sample", "--samples", "5000",
                       "--depth", "10", "--out", str(target))
    assert code == 0
    raw = target.read_bytes()
    assert raw[:8] == b"IFSQSMP1"
    assert int.from_bytes(raw[8:16], "little") == 5000
    assert raw[16:] == oracle.sample(5000, 10, exact_oracle.DEFAULT_SEED, 1).tobytes()
    assert "mean = " in out
    threaded = tmp_path / "threaded.bin"
    assert run(capsys, "oracle-sample", "--samples", "5000", "--depth", "10",
               "--threads", "2", "--out", str(threaded))[0] == 0
    assert threaded.read_bytes() == raw


def test_oracle_sample_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.bin"
    code, out, err = run(capsys, "oracle-sample", "--samples", "100",
                         "--threads", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and str(target) in err
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_oracle_sample_json(capsys):
    code, out, _ = run(capsys, "oracle-sample", "--samples", "20000",
                       "--depth", "12", "--format", "json")
    assert code == 0
    stats = json.loads(out)
    assert stats["count"] == 20000
    assert abs(stats["mean"] - 4 / 7) < 0.01


def test_oracle_lloyd(capsys):
    code, out, _ = run(capsys, "oracle-lloyd", "--n", "2",
                       "--samples", "60000", "--depth", "20")
    assert code == 0
    assert "lloyd centers:" in out
    assert "exact centroids: 1/7 5/7" in out


def test_oracle_lloyd_json_matches_text(capsys):
    argv = ("oracle-lloyd", "--n", "3", "--samples", "20000", "--depth", "16",
            "--threads", "1")
    code, text_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert list(payload) == [
        "k", "lloyd_centers", "lloyd_distortion", "lloyd_iterations",
        "dp_centers", "dp_distortion", "exact_centroids",
        "lloyd_max_deviation", "dp_max_deviation"]
    assert payload["k"] == 3
    assert len(payload["lloyd_centers"]) == len(payload["dp_centers"]) == 3
    (line,) = [line for line in text_out.splitlines()
               if line.startswith("exact centroids: ")]
    assert payload["exact_centroids"] == line.split(": ")[1].split()
    assert payload["exact_centroids"] == [
        str(x) for x in engine.optimal_set(3).points()]


@pytest.mark.parametrize("k", [1, 3])
def test_oracle_lloyd_text_is_its_payload(capsys, k):
    # Each text line is a payload key with "_" read as a space: a list
    # joined by spaces after ": ", any other value after " = ", and floats
    # through float_str.  At k = 1 every list has one element.
    argv = ("oracle-lloyd", "--n", str(k), "--samples", "20000", "--depth", "16",
            "--threads", "1")
    code, text_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert {len(v) for v in payload.values() if isinstance(v, list)} == {k}

    def text(value):
        return measure.float_str(value) if isinstance(value, float) else str(value)

    assert text_out.splitlines() == [
        f"{key.replace('_', ' ')}: {' '.join(map(text, value))}"
        if isinstance(value, list) else f"{key.replace('_', ' ')} = {text(value)}"
        for key, value in payload.items()]


@pytest.mark.parametrize("argv", [
    ("oracle-check", "--n", "2", "--samples", "1"),
    ("oracle-lloyd", "--n", "8", "--samples", "100", "--depth", "1"),
])
def test_oracle_too_few_samples_exits_2(capsys, argv):
    # One sample has no standard error; 100 samples at depth 1 hold only 6
    # distinct values, too few for 8 clusters.
    code, out, err = run(capsys, *argv, "--threads", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1


def test_oracle_check_zero_stderr_rests_on_exhaustive(capsys):
    # Two depth-1 samples at n = 3 both land on centers: every distortion is
    # 0, so the standard error is 0 and the Monte Carlo band is empty.  That
    # line is inconclusive, and the exhaustive minimum decides the verdict.
    args = ("oracle-check", "--n", "3", "--samples", "2", "--depth", "1",
            "--threads", "1")
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[2] == "mc estimate = 0 (stderr 0)"
    assert lines[3] == "deviation = 0.00398 (inconclusive: stderr 0)"
    assert lines[4:] == ["exhaustive minimum = 57/14308 (agrees)", "result: PASS"]
    code, out, _ = run(capsys, *args, "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert report["mc_inconclusive"] is True and report["pass"] is True
    # The exhaustive line runs for every n, so n = 13 passes on it too, and
    # so does n = 1, whose two samples both sit at the mean, its one center.
    code, out, err = run(capsys, *args[:2], "13", *args[3:])
    assert (code, err) == (0, "")
    assert out.endswith("(agrees)\nresult: PASS\n")
    code, out, err = run(capsys, *args[:2], "1", *args[3:])
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["mc estimate = 0 (stderr 0)",
                                    "deviation = 0.0805 (inconclusive: stderr 0)",
                                    "exhaustive minimum = 288/3577 (agrees)",
                                    "result: PASS"]


def test_oracle_check_passes(capsys):
    code, out, _ = run(capsys, "oracle-check", "--n", "2",
                       "--samples", "60000", "--depth", "20")
    assert code == 0
    assert "result: PASS" in out
    assert "exhaustive minimum = 69/3577" in out


@pytest.mark.parametrize("n", [13, 50])
def test_oracle_check_exhaustive_past_12(capsys, n):
    code, out, err = run(capsys, "oracle-check", "--n", str(n),
                         "--samples", "20000", "--threads", "1")
    assert (code, err) == (0, "")
    v = str(engine.quantization_error(n))
    assert out.splitlines()[-2:] == [f"exhaustive minimum = {v} (agrees)",
                                     "result: PASS"]


def test_oracle_check_json_reports_exhaustive(capsys):
    args = ("oracle-check", "--samples", "60000", "--depth", "20",
            "--threads", "1", "--format", "json")
    code, out, _ = run(capsys, *args, "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["exhaustive_min"] == "69/3577"
    assert report["exhaustive_agrees"] is True
    assert report["pass"] is True
    # the one-point set's exhaustive minimum is the variance
    code, out, _ = run(capsys, *args, "--n", "1")
    assert code == 0
    report = json.loads(out)
    assert report["exhaustive_min"] == "288/3577"
    assert report["exhaustive_agrees"] is True


@pytest.mark.parametrize("argv, code", [
    (("--n", "1", "--samples", "20000"), 0),
    (("--n", "2", "--samples", "20000"), 0),
    (("--n", "13", "--samples", "20000"), 0),
    (("--n", "3", "--samples", "2", "--depth", "1"), 0),  # stderr 0
    (("--n", "3", "--samples", "1000", "--depth", "1"), 1),  # outside 4 stderr
], ids=["n1", "n2", "n13", "stderr0", "fail"])
def test_oracle_check_forms_state_the_same_results(capsys, argv, code):
    # The JSON form's values rebuild every line of the text form, and the
    # exit code follows the verdict.
    argv = ("oracle-check", *argv, "--threads", "1")
    text_code, text_out, text_err = run(capsys, *argv)
    json_code, json_out, json_err = run(capsys, *argv, "--format", "json")
    assert (text_code, json_code, text_err, json_err) == (code, code, "", "")
    report = json.loads(json_out)
    n, v, estimate, stderr = (report[key] for key in ("n", "V", "mc_estimate",
                                                      "mc_stderr"))
    inconclusive = stderr == 0
    assert list(report) == ["n", "V", "mc_estimate", "mc_stderr",
                            *["mc_inconclusive"] * inconclusive,
                            "exhaustive_min", "exhaustive_agrees",
                            "pass"]
    assert report.get("mc_inconclusive", True) is True
    gap = abs(estimate - float(Fraction(v)))
    band = ("inconclusive: stderr 0" if inconclusive
            else f"{format(gap / stderr, '.3g')} stderr")
    lines = [f"n = {n}",
             f"V_{n} = {v} = {measure.float_str(Fraction(v))}",
             f"mc estimate = {measure.float_str(estimate)} "
             f"(stderr {format(stderr, '.3g')})",
             f"deviation = {format(gap, '.3g')} ({band})",
             f"exhaustive minimum = {report['exhaustive_min']} "
             f"({'agrees' if report['exhaustive_agrees'] else 'DISAGREES'})",
             "result: " + ("PASS" if report["pass"] else "FAIL")]
    assert text_out.splitlines() == lines
    assert report["pass"] is (code == 0)


def test_oracle_check_one_point_runs_exhaustive(capsys):
    # The one-point set is the root alone, and its search says so.
    code, out, err = run(capsys, "oracle-check", "--n", "1",
                         "--samples", "20000", "--threads", "1")
    assert code == 0, err
    assert out.splitlines()[-2:] == ["exhaustive minimum = 288/3577 (agrees)",
                                     "result: PASS"]


def test_exact_commands_run_without_numpy():
    # Only the oracle-* commands import the float oracles, and numpy with them.
    argvs = [["optimal", "--n", "5"], ["table", "--from", "1", "--to", "20"],
             ["enumerate", "--n", "16"], ["count", "--n", "16"],
             ["tree", "--from", "18", "--to", "21"], ["verify", "--n", "12"],
             ["oracle-sample", "--samples", "10", "--threads", "1"]]
    code = (
        "import contextlib, io, sys\n"
        "from ifsquant import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, 'numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=ENV,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        *(f"{argv[0]} 0 False" for argv in argvs[:-1]), "oracle-sample 0 True"]


def test_oracle_command_without_numpy_fails_cleanly():
    # A None entry in sys.modules makes `import numpy` raise
    # ModuleNotFoundError, as on an interpreter that lacks it.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from ifsquant import cli\n"
        "sys.exit(cli.main(['oracle-sample', '--samples', '10', '--threads', '1']))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=ENV,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (1, "")
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 0
    assert "V_2 = 69/3577 PASS" in out
    assert "card C_18 = 1 PASS" in out
    assert "structure valid for n <= 4 PASS" in out
    assert "verification PASSED" in out
    # --n has the least of every size flag, and each sweep starts at n = 1.
    code, out, err = run(capsys, "verify", "--n", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-4:] == ["structure valid for n <= 1 PASS",
                                     "count matches enumeration for n <= 1 PASS",
                                     "exhaustive search agrees for n <= 1 PASS",
                                     "verification PASSED"]


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
