"""Command-line front end: parse graphs, run analyses and sweeps, emit reports.

Exit codes: 0 all checks passed, 1 formula/oracle mismatch, 2 parse or
usage error, 3 budget or limit exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import formulas
from .graphs import (
    Graph,
    complement,
    component_summary,
    from_graph6,
    parse_edge_list,
    to_graph6,
    triangles,
)
from .ideals import (
    LimitExceededError,
    MonomialIdeal,
    complementary_edge_ideal,
    multiply,
)
from .resolution import DEFAULT_QUOTIENTS_LIMIT, betti_table
from .verify import (
    ALL_CHECKS,
    SweepConfig,
    markdown_summary,
    run_graph_checks,
    sweep,
    sweep_passed,
    write_reports_jsonl,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


class _CliParseError(Exception):
    pass


def _input_source(args) -> str:
    """The one input flag given, of those the subcommand has: --edges,
    --graph6, --file and, for betti, --ideal-json."""
    flags = [f for f in ("edges", "graph6", "file", "ideal_json") if f in vars(args)]
    given = [f for f in flags if getattr(args, f)]
    if len(given) != 1:
        names = ", ".join("--" + f.replace("_", "-") for f in flags)
        raise _CliParseError(f"provide exactly one of {names}")
    return given[0]


def _read_graph(args) -> Graph:
    source = _input_source(args)
    if source == "graph6":
        return from_graph6(args.graph6)
    if source == "edges":
        text = args.edges.replace("\\n", "\n").replace(";", "\n")
        return parse_edge_list(text)
    text = Path(args.file).read_text()
    stripped = text.strip()
    if "\n" not in stripped and " " not in stripped:
        # a single space-free token can only be graph6
        return from_graph6(stripped)
    return parse_edge_list(text)


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _CliParseError(f"bad primes list {text!r}") from exc
    if not primes:
        raise _CliParseError("primes list must be nonempty")
    return primes


def _add_graph_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--edges", help="inline edge list: 'n <count>' header then 'i j' lines; ';' or literal \\n separate lines")
    sub.add_argument("--graph6", help="graph6 code of the input graph")
    sub.add_argument("--file", help="path to an edge-list or graph6 file")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kmax", type=int, default=3, help="largest power to inspect")
    sub.add_argument("--primes", default="2,3", help="comma-separated field characteristics")
    sub.add_argument("--out", help="write the report to this path instead of stdout")


def _add_check_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget-ms", type=float, default=None, help="per-graph time budget")
    sub.add_argument("--lq-limit", type=int, default=DEFAULT_QUOTIENTS_LIMIT, help="generator cap for the linear-quotients search")


def _vertex_sets(sets):
    """Report vertex sets, tuples in Python, as the JSON arrays they are."""
    return None if sets is None else [list(F) for F in sets]


def _render_analyze_markdown(rpt, g: Graph) -> str:
    summary = component_summary(g)
    comp = complement(g)
    pred = formulas.ass_infinity(g)
    lines = [
        f"# Analysis of {to_graph6(g)}",
        "",
        f"- vertices: {g.n}, edges: {[(i, j) for i, j in g.edge_list()]}",
        f"- b = {summary.b}, b~ = {summary.b_tilde}, c = {summary.c}, isolated = {sorted(v + 1 for v in summary.isolated)}",
        f"- triangles: {sorted(sorted(v + 1 for v in t) for t in triangles(g))}",
        f"- complement edges: {comp.edge_list()}",
        f"- I_c(G) = {complementary_edge_ideal(g)}",
        "",
        "| k | Ass oracle | Ass match | reg (oracle/formula) | depth | v (oracle/formula) |",
        "|---|---|---|---|---|---|",
    ]
    for k in sorted(rpt.per_k):
        row = rpt.per_k[k]
        ass = _vertex_sets(row.get("ass_oracle"))
        match = row.get("ass_formula_match")
        reg_o, reg_f = row.get("reg_oracle"), row.get("reg_formula")
        vo, vf = row.get("v_oracle"), row.get("v_formula")
        lines.append(
            f"| {k} | {ass} | {match} | {reg_o}/{reg_f} | {row.get('depth_oracle')} | {vo}/{vf} |"
        )
    lines += [
        "",
        f"- stable Ass formula: {[sorted(v + 1 for v in f) for f in sorted(pred.stable_set, key=lambda f: (len(f), sorted(f)))]}",
        f"- astab bound: {pred.astab_bound}",
    ]
    entry = rpt.details.get("entry-bound")
    if entry:
        lines.append("- entry indices (observed vs stated bound):")
        lines += [
            f"    - P_{list(row['prime'])}: observed {row['observed_entry']}, bound {row['bound']}"
            for row in entry
        ]
    sym = rpt.details.get("symbolic")
    if sym:
        lines.append(
            f"- symbolic = ordinary: class predicate {sym['class_predicate']}, "
            f"I^2 == I^(2) {sym['second_power_symbolic_equals_ordinary']}"
        )
    lin = rpt.details.get("linear")
    if lin:
        lines.append(f"- linear powers predicted {lin['predicted']}, per k: {lin['per_k']}")
    sp = rpt.details.get("strong-persistence")
    if sp:
        lines.append(f"- strong persistence observed (open question): {sp['observed_holds']}")
    lines += ["", "## Checks", ""]
    for name, outcome in rpt.summary.items():
        if outcome is None:
            lines.append(f"- {name}: SKIPPED ({rpt.skipped.get(name, '')})")
        else:
            lines.append(f"- {name}: {'pass' if outcome else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _sweep_config(args, checks: tuple[str, ...]) -> SweepConfig:
    return SweepConfig(
        k_max=args.kmax,
        checks=checks,
        primes=_parse_primes(args.primes),
        lq_limit=args.lq_limit,
        budget_ms=args.budget_ms,
    )


def cmd_analyze(args) -> int:
    g = _read_graph(args)
    rpt = run_graph_checks(g, _sweep_config(args, ALL_CHECKS))
    if args.format == "json":
        _emit(json.dumps(rpt.to_json_dict(), sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(_render_analyze_markdown(rpt, g), args.out)
    if rpt.failed_checks:
        return EXIT_MISMATCH
    if any(reason.startswith(("budget", "limit:")) for reason in rpt.skipped.values()):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_sweep(args) -> int:
    checks = tuple(args.checks.split(","))
    reports = sweep(args.nmax, _sweep_config(args, checks), n_min=args.nmin)
    summary = markdown_summary(reports)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_reports_jsonl(reports, outdir / "reports.jsonl")
        (outdir / "summary.md").write_text(summary)
    sys.stdout.write(summary)
    return EXIT_OK if sweep_passed(reports) else EXIT_MISMATCH


def _read_ideal(args) -> tuple[MonomialIdeal, str]:
    if _input_source(args) == "ideal_json":
        data = json.loads(Path(args.ideal_json).read_text())
        I = MonomialIdeal.from_json_dict(data)
        return I, f"ideal {I}"
    g = _read_graph(args)
    return complementary_edge_ideal(g), f"I_c({to_graph6(g)})"


def cmd_betti(args) -> int:
    # SweepConfig validates --kmax and --primes
    cfg = SweepConfig(k_max=args.kmax, checks=(), primes=_parse_primes(args.primes))
    I, label = _read_ideal(args)
    if not I.is_proper:
        raise _CliParseError("betti needs a nonzero, non-unit ideal")
    blocks = []
    powers = itertools.accumulate(itertools.repeat(I, cfg.k_max), multiply)
    for k, Ik in enumerate(powers, start=1):
        for p in cfg.primes:
            table = betti_table(Ik, p)
            pd = table.projective_dimension_quotient
            blocks.append(
                f"## {label}^{k} over F_{p}\n\n"
                f"{table.pretty()}\n\n"
                f"reg = {table.regularity}, pd(S/I) = {pd}, "
                f"depth(S/I) = {Ik.ambient - pd}\n"
            )
    _emit("\n".join(blocks), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compedge",
        description="Complementary edge ideals: closed forms vs brute-force oracles",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="full report for one graph")
    _add_graph_input_flags(analyze)
    _add_common_flags(analyze)
    analyze.add_argument("--format", choices=("json", "markdown"), default="markdown")
    _add_check_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    sweep_p = subs.add_parser("sweep", help="run checks over a labeled census")
    sweep_p.add_argument("--nmax", type=int, required=True)
    sweep_p.add_argument("--nmin", type=int, default=None, help="defaults to --nmax")
    sweep_p.add_argument("--checks", default="all", help=f"comma list from {', '.join(ALL_CHECKS)} or 'all'")
    _add_common_flags(sweep_p)
    _add_check_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    betti = subs.add_parser("betti", help="Betti tables of I_c(G)^k or of a JSON ideal")
    _add_graph_input_flags(betti)
    betti.add_argument("--ideal-json", help="path to {ambient, generators} JSON")
    _add_common_flags(betti)
    betti.set_defaults(func=cmd_betti)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except LimitExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
