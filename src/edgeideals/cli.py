"""Command-line front end: analyze a single graph, run the verification
harness, print Betti tables, or stream graph enumerations.

Exit codes: 0 all good, 1 verification failures, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bitsets import bits
from .graphs import Graph, build_graph, enumerate_graphs, family
from .harness import CHECK_ORDER, analyze, verify_theorems
from .homology import hochster_betti, parse_field
from .ideals import dual_ideal, edge_ideal


def parse_input(text: str) -> Graph:
    """Parse either a family spec ("cycle:5") or an edge list:
    first line "n m", then m lines "u v"; '#' starts a comment."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty input")
    if ":" in lines[0]:
        if len(lines) > 1:
            raise ValueError("family spec must be the only line")
        return family(lines[0])
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be two integers: n m")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError("header must be two integers: n m") from None
    if m != len(lines) - 1:
        raise ValueError(f"header promises {m} edges, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def load_graph(arg: str) -> Graph:
    """Resolve a CLI graph argument: family spec, '-' for stdin, or a file."""
    if ":" in arg:
        return family(arg)
    if arg == "-":
        return parse_input(sys.stdin.read())
    path = Path(arg)
    if path.is_file():
        return parse_input(path.read_text())
    raise ValueError(f"not a family spec or readable file: {arg}")


def _env(name: str, fallback):
    return os.environ.get(f"EDGEIDEALS_{name}", fallback)


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_tsv(results: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("check\tstatus\tvertices\tedges\tfamily\treason\tdata\n")
        for r in results:
            subj = r["subject"]
            edges = ",".join(f"{u}-{v}" for u, v in subj["edges"])
            fh.write("\t".join([
                r["check"], r["status"], str(subj["vertices"]), edges,
                subj.get("family", ""), r.get("reason", ""),
                json.dumps(r.get("data", {}), sort_keys=True),
            ]) + "\n")


def cmd_analyze(args) -> int:
    g = load_graph(args.graph)
    report = analyze(g, parse_field(args.field))
    _write_json(report, args.out)
    return 0


def cmd_verify(args) -> int:
    checks = None
    if args.theorems:
        checks = [c.strip() for c in args.theorems.split(",") if c.strip()]
    if args.connected is None:
        value = _env("CONNECTED", "1")
        if value.lower() not in ("1", "true", "0", "false", ""):
            raise ValueError(f"EDGEIDEALS_CONNECTED must be 1, true, 0 or false: {value!r}")
        args.connected = value.lower() in ("1", "true")
    report = verify_theorems(
        max_n=args.max_n, connected_only=args.connected, checks=checks,
        field=parse_field(args.field), seed=args.seed, jobs=args.jobs,
        with_families=not args.no_families)
    width = max(len(c) for c in report["summary"])
    print(f"{'check'.ljust(width)}  pass  fail  skip")
    for cid, counts in report["summary"].items():
        print(f"{cid.ljust(width)}  {counts['pass']:4d}  {counts['fail']:4d}"
              f"  {counts['skip']:4d}")
    for row in report["failures"]:
        print(f"FAIL {row['check']}: subject={row['subject']} "
              f"data={row.get('data', {})}", file=sys.stderr)
    print(f"total: {len(report['results'])} checks on "
          f"{report['config']['max_n']}-vertex enumeration, "
          f"{len(report['failures'])} failures")
    if args.out:
        _write_json(report, args.out)
    if args.tsv:
        _write_tsv(report["results"], args.tsv)
    return 1 if report["failures"] else 0


def _print_betti_table(table) -> None:
    if not table.entries:
        print("(empty table)")
        return
    imax = max(i for i, _ in table.entries)
    rows = sorted({j - i for i, j in table.entries})
    print("       " + "".join(f"{i:>6d}" for i in range(imax + 1)))
    for r in rows:
        cells = []
        for i in range(imax + 1):
            v = table.entries.get((i, i + r), 0)
            cells.append(f"{v:>6d}" if v else f"{'.':>6}")
        print(f"{r:>6d}:" + "".join(cells))
    totals = table.totals()
    print("total: " + " ".join(str(totals.get(i, 0)) for i in range(imax + 1)))


def cmd_betti(args) -> int:
    g = load_graph(args.graph)
    ideal = edge_ideal(g)
    if args.dual:
        ideal = dual_ideal(ideal)
    table = hochster_betti(ideal, parse_field(args.field))
    which = "dual of the edge ideal" if args.dual else "edge ideal"
    print(f"# graded Betti numbers of R/I, I = {which}, field {args.field}")
    print("# rows j-i, columns i")
    _print_betti_table(table)
    print(f"reg = {table.reg()}, pd = {table.pd()}")
    return 0


def cmd_generate(args) -> int:
    total = 0
    for g in enumerate_graphs(args.n, args.connected):
        total += 1
        if args.count:
            continue
        edges = g.edges()
        print(f"{g.n} {len(edges)}")
        for u, v in edges:
            print(f"{u} {v}")
        print()
    if args.count:
        print(total)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeideals",
        description="Edge-ideal invariants, certificates, and batch checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--field", default=_env("FIELD", "gf2"),
                       help="coefficient field: gf2, gf<p>, or q")

    p = sub.add_parser("analyze", help="full report for one graph")
    p.add_argument("graph", help="family spec, file path, or - for stdin")
    add_field(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the check suite over enumerations")
    p.add_argument("--max-n", type=int, default=_env("MAX_N", "6"))
    p.add_argument("--connected", action=argparse.BooleanOptionalAction)
    p.add_argument("--theorems", default=_env("THEOREMS", ""),
                   help="comma-separated check ids (default: all); known: "
                        + ", ".join(CHECK_ORDER))
    p.add_argument("--seed", type=int, default=_env("SEED", "0"))
    p.add_argument("--jobs", type=int, default=_env("JOBS", "1"))
    p.add_argument("--no-families", action="store_true",
                   help="skip the generated d-tree families")
    add_field(p)
    p.add_argument("--out", help="write the full JSON report here")
    p.add_argument("--tsv", help="write a flat TSV projection here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("betti", help="Betti table of one graph's edge ideal")
    p.add_argument("graph")
    p.add_argument("--dual", action="store_true",
                   help="use the cover ideal (Alexander dual) instead")
    add_field(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("generate", help="stream one graph per isomorphism class")
    p.add_argument("n", type=int)
    p.add_argument("--connected", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
