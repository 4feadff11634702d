import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ifsquant import engine, exact_oracle, golden, oracle
from ifsquant.cli import main
from ifsquant.measure import Region

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--from", "2", "--to", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '"n","V","V_float"'
    assert lines[1].startswith('2,"69/3577",0.0192899')
    assert len(lines) == 5


def test_table_text_contains_exact_values(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "3")
    assert code == 0
    assert "288/3577" in out and "69/3577" in out and "57/14308" in out


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


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "optimal")[0] == 2            # missing --n
    assert run(capsys, "optimal", "--n", "0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "optimal", "--n", "3", "--format", "dot")[0] == 2
    assert run(capsys, "verify", "--n", "1") == (
        2, "", "usage error: verify needs n >= 2, got 1\n")
    # table and tree iterate the same layers, so they share one range rule
    for command in ("table", "tree"):
        assert run(capsys, command, "--from", "5", "--to", "3") == (
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
        [(n_lo, engine.Block(engine.TAIL, 43, 0, m), m // 3, Fraction(0))]))
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
        wrong = engine.make_node(Region(q.nodes[0].kind, (9,)))
        return [engine.QuantizerSet((wrong, *q.nodes[1:]), q.n, q.v), *sets[1:]]

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
        return audit(q if q.n == 1 else engine.QuantizerSet(q.nodes, q.n, 2 * q.v))

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
        return (2 * best_v if n in (3, 5) else best_v), frontier

    monkeypatch.setattr(exact_oracle, "exhaustive_min", doubled_minimum)
    code, out, _ = run(capsys, "verify", "--n", "6")
    assert code == 1
    assert "exhaustive search agrees for n <= 6 FAIL (n=3,5)\n" in out
    assert out.endswith("verification FAILED\n")


def test_verify_reports_a_check_that_raises(monkeypatch, capsys):
    graph = engine.transition_graph
    monkeypatch.setattr(engine, "transition_graph",
                        lambda n_lo, n_hi: graph(n_lo, n_hi, cap=1))
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 1
    assert ("transition pattern 18 -> 21 FAIL (CapExceeded: transition graph "
            "exceeds cap 1 sets at n=19)\n") in out
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
    assert "mean = " in out


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
    # The exhaustive line runs for every n >= 2, so n = 13 passes on it too.
    code, out, err = run(capsys, *args[:2], "13", *args[3:])
    assert (code, err) == (0, "")
    assert out.endswith("(agrees)\nresult: PASS\n")
    # Without an exhaustive line (n = 1) nothing is left to decide: too few
    # samples.  Both samples sit at the mean, the one-point set's center.
    code, out, err = run(capsys, *args[:2], "1", *args[3:])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: every sample has the same distortion")


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
    # a one-point set has no exhaustive search, so the keys are absent
    code, out, _ = run(capsys, *args, "--n", "1")
    assert code == 0
    assert "exhaustive_min" not in json.loads(out)


def test_oracle_check_one_point_skips_exhaustive(capsys):
    # A one-point set has nothing to search, so only the Monte Carlo band runs.
    code, out, err = run(capsys, "oracle-check", "--n", "1",
                         "--samples", "20000", "--threads", "1")
    assert code == 0, err
    assert "result: PASS" in out
    assert "exhaustive minimum" not in out


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


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
