"""Command line interface: ``quantizer <command> [flags]``.

Exact values print as "num/den" strings; a float beside one is only a
hint, to 10 significant figures.  Output is byte-identical across runs
for fixed flags; oracle commands are deterministic through --seed.
The float oracles, and numpy with them, are imported only by the
``oracle-*`` commands that run them, so the exact commands start without.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import engine, exact_oracle, golden, measure
from .measure import float_str
from .words import render

DEFAULT_SAMPLES = 10**6


def _positive(name):
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {value}")
        return value

    return parse


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

    def add(name, help_text, func, formats=(), cap_help=None, sampling=False):
        """A subcommand with only the shared flags it reads."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        if cap_help:
            p.add_argument("--cap", type=_positive("cap"),
                           default=engine.DEFAULT_CAP, help=cap_help)
        if sampling:
            p.add_argument("--seed", type=int, default=exact_oracle.DEFAULT_SEED)
            p.add_argument("--samples", type=_positive("samples"),
                           default=DEFAULT_SAMPLES)
            p.add_argument("--depth", type=_positive("depth"),
                           default=exact_oracle.DEFAULT_DEPTH)
            p.add_argument("--threads", type=_positive("threads"),
                           default=os.cpu_count() or 1)
        return p

    exact = ("json", "csv", "text")
    p = add("optimal", "print one optimal n-point set and its exact error",
            cmd_optimal, exact)
    p.add_argument("--n", type=_positive("n"), required=True)

    p = add("table", "exact quantization errors for a range of n", cmd_table, exact)
    p.add_argument("--from", dest="n_lo", type=_positive("from"), required=True)
    p.add_argument("--to", dest="n_hi", type=_positive("to"), required=True)

    p = add("enumerate", "list every optimal n-point set", cmd_enumerate, exact,
            cap_help="most optimal sets to build in layer --n")
    p.add_argument("--n", type=_positive("n"), required=True)

    p = add("count", "number of distinct optimal n-point sets", cmd_count)
    p.add_argument("--n", type=_positive("n"), required=True)

    p = add("tree", "transition DAG of optimal sets between two sizes", cmd_tree,
            ("dot", "json", "text"),
            cap_help="most optimal sets to build, per layer and in all")
    p.add_argument("--from", dest="n_lo", type=_positive("from"), required=True)
    p.add_argument("--to", dest="n_hi", type=_positive("to"), required=True)

    p = add("oracle-sample", "draw deterministic samples of the measure",
            cmd_oracle_sample, ("json", "text"), sampling=True)
    p.add_argument("--out", help="write the batch to this file (binary format)")

    p = add("oracle-lloyd", "Lloyd and exact DP clustering vs exact centroids",
            cmd_oracle_lloyd, ("json", "text"), sampling=True)
    p.add_argument("--n", type=_positive("n"), required=True)

    p = add("oracle-check", "Monte Carlo and exhaustive check of V_n",
            cmd_oracle_check, ("json", "text"), sampling=True)
    p.add_argument("--n", type=_positive("n"), required=True)

    p = add("verify", "golden values, structure, counts and oracle agreement",
            cmd_verify)
    p.add_argument("--n", type=_positive("n"), default=12,
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


def _write_csv(rows) -> None:
    csv.writer(sys.stdout, lineterminator="\n",
               quoting=csv.QUOTE_NONNUMERIC).writerows(rows)


def cmd_optimal(args) -> int:
    q = engine.optimal_set(args.n)
    if args.format == "text":
        for node in q.nodes:
            print(engine.centroid_str(node))
        print(f"V_{q.n} = {q.v}")
        return 0
    data = engine.quantizer_set_to_dict(q)
    if args.format == "json":
        print(json.dumps(data))
    else:  # one row per node entry of the JSON form, its keys the header
        nodes = data["nodes"]
        _write_csv([list(nodes[0]), *(node.values() for node in nodes)])
    return 0


def cmd_table(args) -> int:
    rows = [(n, v) for n, _, _, v in engine._layers(args.n_lo, args.n_hi)]
    if args.format == "json":
        print(json.dumps([
            {"n": n, "V": str(v), "V_float": measure.float_val(v)}
            for n, v in rows
        ]))
    elif args.format == "csv":
        _write_csv([("n", "V", "V_float"),
                    *((n, str(v), measure.float_val(v)) for n, v in rows)])
    else:
        width = max(len(str(v)) for _, v in rows)
        for n, v in rows:
            print(f"{n:<6d} {str(v):<{width}} {float_str(v)}")
    return 0


def cmd_enumerate(args) -> int:
    sets = engine.enumerate_optimal_sets(args.n, cap=args.cap)
    if args.format == "text":
        print(f"n = {args.n}")
        print(f"count = {len(sets)}")
        print(f"V = {sets[0].v}")
        for index, q in enumerate(sets, start=1):
            names = " ".join(f"{kind}:{render(w)}" for kind, w in q.signature())
            print(f"set {index}: {names}")
        return 0
    data = [engine.quantizer_set_to_dict(q) for q in sets]
    if args.format == "json":
        print(json.dumps(data))
    else:  # as for optimal, each row led by the set's index
        rows = [["set", *data[0]["nodes"][0]]]
        for index, entry in enumerate(data, start=1):
            rows.extend([index, *node.values()] for node in entry["nodes"])
        _write_csv(rows)
    return 0


def cmd_count(args) -> int:
    count = engine.count_optimal_sets(args.n)
    limit = sys.get_int_max_str_digits()  # counts pass it above n = 2*10^5
    sys.set_int_max_str_digits(engine.COUNT_DIGITS)
    try:
        print(count)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def cmd_tree(args) -> int:
    graph = engine.transition_graph(args.n_lo, args.n_hi, cap=args.cap)
    if args.format == "dot":
        sys.stdout.write(engine.transition_graph_dot(graph))
    elif args.format == "json":
        print(json.dumps(engine.transition_graph_to_dict(graph)))
    else:
        for n, layer in enumerate(graph.layers, start=graph.n_lo):
            names = (engine.vertex_label(n, i) for i in range(1, len(layer) + 1))
            print(f"layer {n}: {' '.join(names)}")
        print("edges:")
        for src, dst in graph.edges:
            print(f"{src} -> {dst}")
    return 0


def cmd_oracle_sample(args) -> int:
    from . import oracle

    batch = oracle.sample(args.samples, args.depth, args.seed, args.threads)
    if args.out:
        try:
            oracle.write_batch(batch, args.out)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    stats = {
        "count": batch.count,
        "depth": batch.depth,
        "seed": batch.seed,
        "mean": float(batch.values.mean()),
        "variance": float(batch.values.var()),
        "mass_first_cylinder": oracle.empirical_mass(batch, 0.0, 0.25),
        "mass_second_cylinder": oracle.empirical_mass(batch, 0.5, 0.625),
    }
    if args.format == "json":
        print(json.dumps(stats))
    else:
        for key, value in stats.items():
            if isinstance(value, float):
                print(f"{key} = {float_str(value)}")
            else:
                print(f"{key} = {value}")
    return 0


def cmd_oracle_lloyd(args) -> int:
    from . import oracle

    k = args.n
    batch = oracle.sample(args.samples, args.depth, args.seed, args.threads)
    lloyd_result = oracle.lloyd(batch, k, oracle.quantile_init(batch, k))
    dp_result = oracle.kmeans_1d_exact(batch, k)
    points = engine.optimal_set(k).points()
    exact = [float(c) for c in points]
    payload = {
        "k": k,
        "lloyd_centers": [float(c) for c in lloyd_result.centers],
        "lloyd_distortion": lloyd_result.distortion,
        "lloyd_iterations": lloyd_result.iterations,
        "dp_centers": [float(c) for c in dp_result.centers],
        "dp_distortion": dp_result.distortion,
        "exact_centroids": [str(c) for c in points],
        "lloyd_max_deviation": max(
            abs(a - b) for a, b in zip(lloyd_result.centers, exact)
        ),
        "dp_max_deviation": max(
            abs(a - b) for a, b in zip(dp_result.centers, exact)
        ),
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"k = {k}")
        print("lloyd centers: " + " ".join(map(float_str, payload["lloyd_centers"])))
        print(f"lloyd distortion = {float_str(payload['lloyd_distortion'])}")
        print(f"lloyd iterations = {payload['lloyd_iterations']}")
        print("dp centers: " + " ".join(map(float_str, payload["dp_centers"])))
        print(f"dp distortion = {float_str(payload['dp_distortion'])}")
        print("exact centroids: " + " ".join(payload["exact_centroids"]))
        print(f"lloyd max deviation = {float_str(payload['lloyd_max_deviation'])}")
        print(f"dp max deviation = {float_str(payload['dp_max_deviation'])}")
    return 0


def cmd_oracle_check(args) -> int:
    from . import oracle

    n = args.n
    batch = oracle.sample(args.samples, args.depth, args.seed, args.threads)
    q = engine.optimal_set(n)
    exact = q.v
    centers = [float(c) for c in q.points()]
    estimate, stderr = oracle.mc_distortion_stats(batch, centers)
    gap = abs(estimate - float(exact))
    # Equal distortions on every sample give a zero standard error and an
    # empty band: the Monte Carlo line then says nothing either way, and
    # the verdict rests on the exhaustive line alone.
    conclusive = stderr > 0
    if not conclusive and n < 2:
        raise ValueError(
            f"every sample has the same distortion (stderr 0) and n={n} has no "
            "exhaustive check; draw more or deeper samples")
    ok = not conclusive or gap <= 4 * stderr
    bands = (f"{format(gap / stderr, '.3g')} stderr" if conclusive
             else "inconclusive: stderr 0")
    lines = [
        f"n = {n}",
        f"V_{n} = {exact} = {float_str(exact)}",
        f"mc estimate = {float_str(estimate)} "
        f"(stderr {format(stderr, '.3g')})",
        f"deviation = {format(gap, '.3g')} ({bands})",
    ]
    report = {
        "n": n,
        "V": str(exact),
        "mc_estimate": estimate,
        "mc_stderr": stderr,
    }
    if not conclusive:
        report["mc_inconclusive"] = True
    if n >= 2:
        best_v, _ = exact_oracle.exhaustive_min(n)
        agree = best_v == exact
        ok = ok and agree
        lines.append(
            f"exhaustive minimum = {best_v} "
            f"({'agrees' if agree else 'DISAGREES'})"
        )
        report["exhaustive_min"] = str(best_v)
        report["exhaustive_agrees"] = agree
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    if args.format == "json":
        report["pass"] = ok
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


# --------------------------- verify ---------------------------------------

def _golden_checks():
    """(label, value thunk, expected) rows, in the order verify prints them."""
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
    return rows + [
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


def run_verify(n_max: int) -> bool:
    """Print the verification report to stdout; returns overall success."""
    if n_max < 2:
        raise ValueError(f"verify needs n >= 2, got {n_max}")
    ok_all = True

    def report(label: str, ok: bool, detail: str = "") -> None:
        nonlocal ok_all
        ok_all = ok_all and ok
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{label} {'PASS' if ok else 'FAIL'}{suffix}")

    for label, value, expected in _golden_checks():
        try:
            report(label, value() == expected)
        except Exception as exc:  # a failing check must not stop the report
            report(label, False, f"{type(exc).__name__}: {exc}")

    bad = []
    for n in range(1, n_max + 1):
        result = engine.validate_structure(engine.optimal_set(n))
        if not result.ok:
            bad.append(f"n={n}: {result.failures[0]}")
    report(f"structure valid for n <= {n_max}", not bad,
           "; ".join(bad[:3]))

    # Besides the count, check what the block description takes for
    # granted: the sets are distinct, and each one's total, re-derived node
    # by node from the measure formulas, is the optimal error.
    upper = min(n_max, 40)
    node_error = functools.cache(lambda *kw: measure.node_error(measure.Region(*kw)))
    mismatch = []
    for n in range(1, upper + 1):
        sets = engine.enumerate_optimal_sets(n)
        v = engine.quantization_error(n)
        if (
            engine.count_optimal_sets(n) != len(sets)
            or len({q.signature() for q in sets}) != len(sets)
            or any(sum(node_error(node.kind, node.word) for node in q.nodes) != v
                   for q in sets)
        ):
            mismatch.append(str(n))
    report(f"count matches enumeration for n <= {upper}", not mismatch,
           "n=" + ",".join(mismatch[:5]))

    upper = min(n_max, 12)
    mismatch = []
    for n in range(2, upper + 1):
        best_v, _ = exact_oracle.exhaustive_min(n)
        if best_v != engine.quantization_error(n):
            mismatch.append(str(n))
    report(f"exhaustive search agrees for n <= {upper}", not mismatch,
           "n=" + ",".join(mismatch[:5]))
    return ok_all


def cmd_verify(args) -> int:
    ok = run_verify(args.n)
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
