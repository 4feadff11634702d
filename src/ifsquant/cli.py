"""Command line interface: ``quantizer <command> [flags]``.

Exact values print as "num/den" strings; a float beside one is only a
hint, to 10 significant figures.  Output is byte-identical across runs
for fixed flags; oracle commands are deterministic through --seed.
The float oracles, and numpy with them, are imported only by the
``oracle-*`` commands that run them, so the exact commands start without.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal
from itertools import chain

from . import engine, exact_oracle, golden, measure
from .measure import float_str
from .words import render  # noqa: F401  (perfbench/tracing.py wraps cli.render)

DEFAULT_SAMPLES = 10**6
_NODE_HEADER = ",".join(f'"{key}"' for key in engine.NODE_KEYS)


def _integer(name, least=1):
    """The one rule of an integer flag: an integer of at least ``least``,
    a value int() cannot read shown by its first 40 characters."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # not an integer, or more digits than int() reads
            more = f"... ({len(text)} characters)" if text[40:] else ""
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text[:40]!r}{more}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be >= {least}, got {value}")
        return value

    return parse


def _usable_cpus() -> int:
    """The CPUs this process may run on, not all the machine's: its
    affinity mask where the OS has one."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantizer",
        description=(
            "Exact optimal quantizers for the fixed self-similar measure on "
            "[0, 1].  Words print as dot-separated letters ('2.1.1'); exact "
            "rationals print as 'num/den'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func, formats=(), cap=False, sampling=False, size=""):
        """A subcommand with only the shared flags it reads; its size flag is
        --n (``size="n"``), or --from and --to (``size="range"``)."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        if cap:
            p.add_argument("--cap", type=_integer("cap"), default=engine.DEFAULT_CAP,
                           help="most optimal sets to build in all the layers asked for")
        if sampling:
            p.add_argument("--seed", type=_integer("seed", least=0),
                           default=exact_oracle.DEFAULT_SEED)
            p.add_argument("--samples", type=_integer("samples"),
                           default=DEFAULT_SAMPLES)
            p.add_argument("--depth", type=_integer("depth"),
                           default=exact_oracle.DEFAULT_DEPTH)
            p.add_argument("--threads", type=_integer("threads"))
        if size == "n":
            p.add_argument("--n", type=_integer("n"), required=True)
        elif size == "range":
            p.add_argument("--from", dest="n_lo", type=_integer("from"), required=True)
            p.add_argument("--to", dest="n_hi", type=_integer("to"), required=True)
        return p

    exact = ("json", "csv", "text")
    add("optimal", "print one optimal n-point set and its exact error", cmd_optimal,
        exact, size="n")
    add("table", "exact quantization errors for a range of n", cmd_table, exact,
        size="range")
    add("enumerate", "list every optimal n-point set", cmd_enumerate, exact, cap=True,
        size="n")
    add("count", "number of distinct optimal n-point sets", cmd_count, size="n")
    add("tree", "transition DAG of optimal sets between two sizes", cmd_tree,
        ("dot", "json", "text"), cap=True, size="range")
    p = add("oracle-sample", "draw deterministic samples of the measure",
            cmd_oracle_sample, ("json", "text"), sampling=True)
    p.add_argument("--out", help="write the batch to this file (binary format)")
    add("oracle-lloyd", "Lloyd and exact DP clustering vs exact centroids",
        cmd_oracle_lloyd, ("json", "text"), sampling=True, size="n")
    add("oracle-check", "Monte Carlo and exhaustive check of V_n", cmd_oracle_check,
        ("json", "text"), sampling=True, size="n")
    p = add("verify", "golden values, structure, counts and oracle agreement", cmd_verify)
    p.add_argument("--n", type=_integer("n"), default=12,
                   help="largest n for the structural / counting checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (engine.CapExceeded, MemoryError, ModuleNotFoundError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left: send what is still buffered to devnull, so that
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def cmd_optimal(args) -> int:
    # The text and CSV forms write each node as they reach it, not a list of texts.
    layer = next(engine.canonical_layers(args.n, args.n))
    if args.format == "json":
        print(*engine.quantizer_sets_json([layer]))
    elif args.format == "text":
        sys.stdout.writelines(f"{engine.centroid_str(node)}\n"
                              for node in layer.sets()[0].nodes)
        print("V_%d = %d/%d" % (layer.n, *layer.v))
    else:  # one row per node, the JSON form's node keys the header
        print(_NODE_HEADER)
        sys.stdout.writelines(f"{engine.NODE_CSV % engine.node_fields(node)}\n"
                              for node in layer.sets()[0].nodes)
    return 0


def _table_rows(n_lo: int, n_hi: int):
    """(n, V_n as "num/den", V_n's float) for n_lo .. n_hi, from the reduced
    pairs of ``_layers``: the text is the Fraction's, and the float the same
    integer division that ``float(Fraction)`` performs.  ``_layers`` checks
    the range on its first step, taken here before any output."""
    layers = engine._layers(n_lo, n_hi)
    return ((n, f"{num}/{den}", num / den)
            for n, _, _, (num, den) in chain([next(layers)], layers))


def cmd_table(args) -> int:
    # Every form writes each row as it is made and keeps none.
    rows = _table_rows(args.n_lo, args.n_hi)
    if args.format == "json":  # json.dumps of the rows
        sys.stdout.writelines(engine.json_list(
            f'{{"n": {n}, "V": "{v}", "V_float": {measure.float_val(x)!r}}}'
            for n, v, x in rows))
        print()
    elif args.format == "csv":
        print('"n","V","V_float"')
        sys.stdout.writelines(f'{n},"{v}",{measure.float_val(x)!r}\n' for n, v, x in rows)
    else:  # a first pass finds V's width; the second prints, n as wide as --to
        width = max(len(v) for _, v, _ in rows)
        n_width = max(6, len(str(args.n_hi)))
        sys.stdout.writelines(f"{n:<{n_width}d} {v:<{width}} {float_str(x)}\n"
                              for n, v, x in _table_rows(args.n_lo, args.n_hi))
    return 0


def cmd_enumerate(args) -> int:
    # Every form splices the texts of the layer's walked nodes, each made once.
    [layer] = engine.optimal_layers(args.n, args.n, cap=args.cap)
    if args.format == "text":
        print(f"n = {layer.n}")
        print(f"count = {len(layer.choices)}")
        print("V = %d/%d" % layer.v)
        for index, names in enumerate(layer.spliced(engine.node_name), start=1):
            print(f"set {index}: {' '.join(names)}")
    elif args.format == "json":
        sys.stdout.writelines(engine.json_list(engine.quantizer_sets_json([layer])))
        print()
    else:  # as for optimal, each row led by the set's index
        print(f'"set",{_NODE_HEADER}')
        rows = layer.spliced(lambda node: engine.NODE_CSV % engine.node_fields(node))
        sys.stdout.writelines(f"{index},{text}\n"
                              for index, texts in enumerate(rows, 1) for text in texts)
    return 0


def cmd_count(args) -> int:
    print(Decimal(engine.count_optimal_sets(args.n)))  # past the int digit limit
    return 0


def cmd_tree(args) -> int:
    graph = engine.transition_graph(args.n_lo, args.n_hi, cap=args.cap)
    if args.format == "dot":
        lines = engine.transition_graph_dot(graph)
    elif args.format == "json":
        lines = chain(engine.transition_graph_json(graph), ["\n"])
    else:
        labels = ((layer.n, [engine.vertex_label(layer.n, i)
                             for i in range(1, len(layer.choices) + 1)])
                  for layer in graph.layers)
        lines = chain((f"layer {n}: {' '.join(names)}\n" for n, names in labels),
                      ["edges:\n"], (f"{src} -> {dst}\n" for src, dst in graph.edges))
    sys.stdout.writelines(lines)
    return 0


def _draw(args):
    """The float oracles, imported only now, and the sample the sampling flags
    draw, on the usable CPUs unless --threads says otherwise."""
    from . import oracle

    return oracle, oracle.sample(args.samples, args.depth, args.seed,
                                 args.threads or _usable_cpus())


def cmd_oracle_sample(args) -> int:
    oracle, values = _draw(args)
    if args.out:
        try:
            oracle.write_batch(values, args.out)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    _report(args, _payload_rows({
        "count": values.size,
        "depth": args.depth,
        "seed": args.seed,
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "mass_first_cylinder": oracle.empirical_mass(values, 0.0, 0.25),
        "mass_second_cylinder": oracle.empirical_mass(values, 0.5, 0.625),
    }))
    return 0


def _report(args, rows) -> None:
    """The one printer of the oracle reports, whose rows are (text line,
    JSON fields): the JSON form is one object of every row's fields, in
    order, and the text form is every row's line."""
    if args.format == "json":
        print(json.dumps({key: value for _, fields in rows
                          for key, value in fields.items()}))
    else:
        sys.stdout.writelines(f"{line}\n" for line, _ in rows)


def _value_text(value) -> str:
    """A payload value as the text forms print it: a float by ``float_str``."""
    return float_str(value) if isinstance(value, float) else str(value)


def _payload_rows(payload: dict, label=str) -> list[tuple[str, dict]]:
    """One row per payload key: its line is the key's label and a list
    joined by spaces after ": ", or any other value after " = "."""
    return [(f"{label(key)}: {' '.join(map(_value_text, value))}"
             if isinstance(value, list) else f"{label(key)} = {_value_text(value)}",
             {key: value}) for key, value in payload.items()]


def cmd_oracle_lloyd(args) -> int:
    k = args.n
    oracle, values = _draw(args)
    lloyd_result = oracle.lloyd(values, oracle.quantile_init(values, k))
    dp_result = oracle.kmeans_1d_exact(values, k)
    points = engine.optimal_set(k).points()
    exact = [float(c) for c in points]
    _report(args, _payload_rows({
        "k": k,
        "lloyd_centers": [float(c) for c in lloyd_result.centers],
        "lloyd_distortion": lloyd_result.distortion,
        "lloyd_iterations": lloyd_result.iterations,
        "dp_centers": [float(c) for c in dp_result.centers],
        "dp_distortion": dp_result.distortion,
        "exact_centroids": [str(c) for c in points],
        "lloyd_max_deviation": max(abs(a - b)
                                   for a, b in zip(lloyd_result.centers, exact)),
        "dp_max_deviation": max(abs(a - b) for a, b in zip(dp_result.centers, exact)),
    }, label=lambda key: key.replace("_", " ")))
    return 0


def cmd_oracle_check(args) -> int:
    n = args.n
    oracle, values = _draw(args)
    q = engine.optimal_set(n)
    exact = q.v
    centers = [float(c) for c in q.points()]
    estimate, stderr = oracle.mc_distortion_stats(values, centers)
    gap = abs(estimate - float(exact))
    # Equal distortions on every sample give a zero standard error and an
    # empty band: the Monte Carlo line then says nothing either way, and
    # the verdict rests on the exhaustive line alone.
    conclusive = stderr > 0
    best_v, _ = exact_oracle.exhaustive_min(n)
    agree = best_v == exact
    ok = agree and (not conclusive or gap <= 4 * stderr)
    deviation = f"deviation = {format(gap, '.3g')}"
    rows = [
        (f"n = {n}", {"n": n}),
        (f"V_{n} = {exact} = {float_str(exact)}", {"V": str(exact)}),
        (f"mc estimate = {float_str(estimate)} (stderr {format(stderr, '.3g')})",
         {"mc_estimate": estimate, "mc_stderr": stderr}),
        (f"{deviation} ({format(gap / stderr, '.3g')} stderr)", {}) if conclusive
        else (f"{deviation} (inconclusive: stderr 0)", {"mc_inconclusive": True}),
        (f"exhaustive minimum = {best_v} ({'agrees' if agree else 'DISAGREES'})",
         {"exhaustive_min": str(best_v), "exhaustive_agrees": agree}),
        ("result: " + ("PASS" if ok else "FAIL"), {"pass": ok}),
    ]
    _report(args, rows)
    return 0 if ok else 1


# --------------------------- verify ---------------------------------------

def _checks(n_max: int):
    """(label, check) rows, in the order verify prints them: each check
    returns (passed, detail), the detail printed only when it fails."""
    rows = [("measure constants identities",
             lambda: measure.validate_constants() or True, True)]
    rows += [(f"V_{n} = {v}",
              functools.partial(engine.quantization_error, n), v)
             for n, v in sorted(golden.GOLDEN_V.items())]
    rows += [(f"optimal {n}-point set {{{', '.join(map(str, points))}}}",
              lambda n=n: list(engine.optimal_set(n).points()), points)
             for n, points in sorted(golden.GOLDEN_POINTS.items())]
    rows += [(f"card C_{n} = {c}", functools.partial(engine.count_optimal_sets, n), c)
             for n, c in sorted(golden.GOLDEN_COUNTS.items())]
    rows += [
        *golden.MEASURE_ROWS,
        ("enumerated 16-point listings (3 sets)",
         lambda: {q.signature() for q in engine.enumerate_optimal_sets(16)},
         set(map(golden.as_signature, golden.LISTINGS_16))),
        ("enumerated 18-point listing (1 set)",
         lambda: [q.signature() for q in engine.enumerate_optimal_sets(18)],
         [golden.as_signature(golden.LISTING_18)]),
        ("canonical 15-point listing", lambda: engine.optimal_set(15).signature(),
         golden.as_signature(golden.LISTING_15)),
        ("transition pattern 18 -> 21",
         lambda: engine.transition_graph(18, 21).edges, golden.EDGES_18_21),
    ]
    checks = [(label, lambda value=value, expected=expected: (value() == expected, ""))
              for label, value, expected in rows]
    counted, searched = min(n_max, 40), min(n_max, 12)
    return checks + [
        (f"structure valid for n <= {n_max}", lambda: _structure(n_max)),
        (f"count matches enumeration for n <= {counted}", lambda: _counts(counted)),
        (f"exhaustive search agrees for n <= {searched}", lambda: _exhaustive(searched)),
    ]


def _structure(n_max: int) -> tuple[bool, str]:
    bad = [f"n={q.n}: {failures[0]}" for q in engine.canonical_sets(1, n_max)
           if (failures := engine.validate_structure(q).failures)]
    return not bad, "; ".join(bad[:3])


def _counts(upper: int) -> tuple[bool, str]:
    # Besides the count, check what the block description takes for
    # granted: the sets are distinct, and each one's total, re-derived node
    # by node from the measure formulas, is the optimal error.
    node_error = functools.cache(lambda *kw: measure.node_error(measure.Region(*kw)))
    bad = []
    for n in range(1, upper + 1):
        sets, v = engine.enumerate_optimal_sets(n), engine.quantization_error(n)
        if (engine.count_optimal_sets(n) != len(sets)
                or len({q.signature() for q in sets}) != len(sets)
                or any(sum(node_error(node.kind, node.word) for node in q.nodes) != v
                       for q in sets)):
            bad.append(n)
    return not bad, "n=" + ",".join(map(str, bad[:5]))


def _exhaustive(upper: int) -> tuple[bool, str]:
    bad = [n for n in range(1, upper + 1)
           if exact_oracle.exhaustive_min(n)[0] != engine.quantization_error(n)]
    return not bad, "n=" + ",".join(map(str, bad[:5]))


def cmd_verify(args) -> int:
    """Print the verification report and its verdict.

    One loop runs every ``_checks`` row and prints its line: a check that
    raises fails with the exception as its detail, and the report goes on.
    """
    ok_all = True
    for label, check in _checks(args.n):
        try:
            ok, detail = check()
        except Exception as exc:  # a failing check must not stop the report
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        ok_all = ok_all and ok
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{label} {'PASS' if ok else 'FAIL'}{suffix}")
    print("verification " + ("PASSED" if ok_all else "FAILED"))
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
