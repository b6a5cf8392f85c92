"""Command line front end: parse ideals, run pipeline stages, emit JSON/DOT.

Exit status: 0 on success (including expected counterexample findings), 1
when a verification command finds a violation, 2 on parse or configuration
errors, 3 on an internal error (an uncaught exception, reported on stderr as
``internal error: ...``), so a crash never reads as a violation.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from pathlib import Path

from borelfiber.borel import GeneratorTable, build_table
from borelfiber.fiber import (
    build_fiber_graph,
    find_sink_direct,
    graph_to_json,
    point_factors,
    sinks,
    to_dot,
    vertex_label,
)
from borelfiber.monomials import (
    Monomial,
    VariableContext,
    degree,
    format_monomial,
    parse_monomial,
)
from borelfiber.rees import rees_basis_to_json, rees_buchberger_verify, rees_gb
from borelfiber.toric import (
    basis_to_json,
    brute_force_gb,
    buchberger_verify,
    closure_components,
    normal_form,
    quadric_generators,
)
from borelfiber.verify import sweep_unique_sinks

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    pass


def _infer_context(texts: list[str], nvars: int | None) -> VariableContext:
    last = 0
    for text in texts:
        for ch in text:
            if ch in string.ascii_lowercase:
                last = max(last, string.ascii_lowercase.index(ch) + 1)
    if nvars is not None:
        if nvars < max(last, 1):
            raise CliError(f"--nvars {nvars} is smaller than the {last} variables used")
        return VariableContext.default(nvars)
    if last == 0:
        raise CliError("cannot infer variables; pass --nvars or use a JSON descriptor")
    return VariableContext.default(last)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _load_table(args: argparse.Namespace) -> GeneratorTable:
    if bool(getattr(args, "input", None)) == bool(getattr(args, "ideal", None)):
        raise CliError("exactly one of --ideal or --input is required")
    if args.input:
        try:
            data = json.loads(Path(args.input).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read ideal descriptor {args.input}: {exc}") from exc
        if not isinstance(data, dict) or not _is_string_list(data.get("borel_generators")):
            raise CliError("descriptor must be an object with a 'borel_generators' list of strings")
        texts = data["borel_generators"]
        if data.get("variables"):
            if not _is_string_list(data["variables"]):
                raise CliError("descriptor 'variables' must be a list of strings")
            context = VariableContext(tuple(data["variables"]))
            if args.nvars is not None and args.nvars != context.n:
                raise CliError("--nvars conflicts with the descriptor's variable list")
        else:
            context = _infer_context(texts, args.nvars)
    else:
        body = args.ideal.strip()
        if body.startswith("{") and body.endswith("}"):
            body = body[1:-1]
        texts = [part.strip() for part in body.split(",") if part.strip()]
        context = _infer_context(texts, args.nvars)
    if not 1 <= len(texts) <= 3:
        raise CliError(f"expected 1..3 Borel generators, got {len(texts)}")
    gens = [parse_monomial(t, context) for t in texts]
    return build_table(gens, context=context)


def _emit(payload, fmt: str, text_lines) -> str:
    if fmt == "text":
        return "\n".join(text_lines) + "\n"
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def cmd_gens(args) -> tuple[int, str]:
    table = _load_table(args)
    data = table.to_json()
    lines = [
        f"Y_{i}\t{entry['monomial']}\t{entry['tag']}"
        for i, entry in enumerate(data["generators"])
    ]
    return EXIT_OK, _emit(data, args.format, lines)


def _guard_tdeg(table: GeneratorTable, mu: Monomial, bound: int) -> None:
    tdeg = degree(mu) // table.degree if table.degree else 0
    if tdeg > bound:
        raise CliError(
            f"fiber of {format_monomial(mu, table.context)} has t-degree {tdeg}; "
            f"raise --bound (currently {bound}) to build it"
        )


def cmd_fiber(args) -> tuple[int, str]:
    table = _load_table(args)
    mu = parse_monomial(args.mu, table.context)
    _guard_tdeg(table, mu, args.bound)
    graph = build_fiber_graph(table, mu)
    if args.format == "dot":
        return EXIT_OK, to_dot(graph)
    data = graph_to_json(graph)
    lines = [f"mu {data['mu']}: {len(graph.vertices)} vertices, {len(graph.edges)} edges"]
    lines += [f"v{i}: {vertex_label(table, v)}" for i, v in enumerate(graph.vertices)]
    lines += [f"v{a} -> v{b}" for a, b in graph.edges]
    lines += [f"sinks: {' '.join('v%d' % s for s in data['sinks'])}"]
    return EXIT_OK, _emit(data, args.format, lines)


def cmd_sink(args) -> tuple[int, str]:
    table = _load_table(args)
    mu = parse_monomial(args.mu, table.context)
    direct = find_sink_direct(table, mu)
    tdeg = degree(mu) // table.degree if table.degree else 0
    agrees = None
    if tdeg <= args.bound:
        graph_sinks = sinks(build_fiber_graph(table, mu))
        agrees = graph_sinks == ([direct] if direct is not None else [])
    data = {
        "mu": format_monomial(mu, table.context),
        "sink": None if direct is None else point_factors(table, direct),
        "label": None if direct is None else vertex_label(table, direct),
        "agrees_with_graph": agrees,
    }
    lines = [data["label"] if direct is not None else "empty fiber"]
    code = EXIT_OK if agrees in (True, None) else EXIT_VIOLATION
    return code, _emit(data, args.format, lines)


def cmd_toric_gb(args) -> tuple[int, str]:
    table = _load_table(args)
    basis = quadric_generators(table, interreduce=args.interreduce)
    data = basis_to_json(basis)
    lines = [f"{len(basis.elements)} quadric binomials"]
    lines += [
        f"{vertex_label(table, el.lead)} -> {vertex_label(table, el.trail)}"
        for el in basis.elements
    ]
    return EXIT_OK, _emit(data, args.format, lines)


def cmd_rees_gb(args) -> tuple[int, str]:
    table = _load_table(args)
    basis = rees_gb(table)
    data = rees_basis_to_json(basis)
    lines = [f"{len(basis.elements)} Rees basis binomials"]
    for el in basis.elements:
        lines.append(
            f"{format_monomial(el.lead.xpart, table.context)}*{vertex_label(table, el.lead.ypart)}"
            f" -> {format_monomial(el.trail.xpart, table.context)}*{vertex_label(table, el.trail.ypart)}"
        )
    return EXIT_OK, _emit(data, args.format, lines)


def cmd_verify_unique_sinks(args) -> tuple[int, str]:
    table = _load_table(args)
    report = sweep_unique_sinks(table, args.bound)
    data = report.to_json()
    lines = [f"{report.status}: {report.multidegrees_checked} multidegrees checked"]
    lines += list(report.violations)
    return (EXIT_OK if report.ok else EXIT_VIOLATION), _emit(data, args.format, lines)


def cmd_verify_buchberger(args) -> tuple[int, str]:
    table = _load_table(args)
    toric_report = buchberger_verify(quadric_generators(table, interreduce=True))
    data = {"toric": toric_report.to_json()}
    ok = toric_report.ok
    lines = [f"toric: {toric_report.status} ({toric_report.pairs_checked} overlaps)"]
    if args.rees:
        rees_report = rees_buchberger_verify(rees_gb(table))
        data["rees"] = rees_report.to_json()
        ok = ok and rees_report.ok
        lines.append(f"rees: {rees_report.status} ({rees_report.pairs_checked} overlaps)")
    return (EXIT_OK if ok else EXIT_VIOLATION), _emit(data, args.format, lines)


def cmd_oracle_gb(args) -> tuple[int, str]:
    table = _load_table(args)
    oracle = brute_force_gb(table, args.bound)
    # The reduced list has every lead of the full one, and one element per lead.
    quadric_leads = {el.lead for el in quadric_generators(table, interreduce=True).elements}
    extras = [el.lead for el in oracle.elements if el.lead not in quadric_leads]
    data = basis_to_json(oracle)
    data["bound"] = args.bound
    data["leads_outside_quadric_leads"] = [point_factors(table, lead) for lead in extras]
    lines = [
        f"{len(oracle.elements)} basis elements at bound {args.bound}; "
        f"{len(extras)} leads outside the quadric leads"
    ]
    return EXIT_OK, _emit(data, args.format, lines)


def cmd_counterexample(args) -> tuple[int, str]:
    r = args.r
    if r < 3:
        raise CliError("--r must be at least 3")
    context = VariableContext.default(3)
    f = (r, 0, r * (r - 2))
    g = (0, r * (r - 1), 0)
    h = (r - 1, r - 1, (r - 1) * (r - 2))
    table = build_table([f, g, h], context=context)
    mu = tuple(a * r for a in h)
    if mu != tuple(x + y for x, y in zip([a * (r - 1) for a in f], g)):
        raise RuntimeError("h^r and f^(r-1) g must share a multidegree")
    point_a = tuple(sorted([table.index_of[f]] * (r - 1) + [table.index_of[g]]))
    point_b = tuple(sorted([table.index_of[h]] * r))
    components = closure_components(table, mu)
    location = {z: i for i, comp in enumerate(components) for z in comp}
    separated = location[point_a] != location[point_b]
    quadrics = quadric_generators(table, interreduce=True)
    reduces = normal_form(point_a, quadrics) == normal_form(point_b, quadrics)
    mu_text = format_monomial(mu, context)
    if separated:
        word = "cubic" if r == 3 else f"t-degree-{r}"
        finding = f"{word} minimal toric generator at {mu_text}"
    else:
        finding = f"no separation found at {mu_text}"
    data = {
        "r": r,
        "variables": list(context.names),
        "borel_generators": [format_monomial(m, context) for m in (f, g, h)],
        "multidegree": mu_text,
        "swap_bound": r - 1,
        "components": len(components),
        "separated": separated,
        "relation_reduces_modulo_quadrics": reduces,
        "quadric_buchberger": buchberger_verify(quadrics).to_json(),
        "finding": finding,
    }
    lines = [finding]
    return (EXIT_OK if separated else EXIT_VIOLATION), _emit(data, args.format, lines)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one.

    One table lists each command's handler, help line and options, in the
    order its help shows them; it is read at each call, so a handler
    replaced on the module is the one parsed arguments carry.  A call
    parses to the same namespace with either parser, and a usage error
    from the one-command parser lists every command as the full one does,
    so :func:`main` builds only the invoked command's parser.
    """

    def option(flag: str, **kwargs) -> tuple:
        return ((flag, kwargs),)

    ideal = (
        option("--ideal", help="inline generators in compact syntax, e.g. '{a^2c^3,b^4c}'")
        + option("--input", help="path to a JSON ideal descriptor")
        + option("--nvars", type=int, help="variable count when inference is not enough")
    )
    bound = option("--bound", type=int, default=4, help="t-degree bound (default 4)")
    fmt = option("--format", choices=("json", "dot", "text"), default="json")
    commands = {
        "gens": (cmd_gens, "dump the generator table", ideal + fmt),
        "fiber": (
            cmd_fiber,
            "build one fiber graph",
            ideal + bound + fmt
            + option("--mu", required=True, help="multidegree, compact or [vector] syntax"),
        ),
        "sink": (
            cmd_sink,
            "direct sink, checked against the graph",
            ideal + bound + fmt + option("--mu", required=True),
        ),
        "toric-gb": (
            cmd_toric_gb,
            "quadric Groebner basis",
            ideal + fmt
            + option(
                "--interreduce", action="store_true", help="drop duplicate leads, reduce trails"
            ),
        ),
        "rees-gb": (cmd_rees_gb, "Rees ideal Groebner basis", ideal + fmt),
        "verify-unique-sinks": (
            cmd_verify_unique_sinks,
            "sweep all fibers up to the t-degree bound",
            ideal + bound + fmt,
        ),
        "verify-buchberger": (
            cmd_verify_buchberger,
            "Groebner check of the quadric basis",
            ideal + fmt + option("--rees", action="store_true", help="also verify the Rees basis"),
        ),
        "oracle-gb": (cmd_oracle_gb, "truncated Buchberger completion oracle", ideal + bound + fmt),
        "counterexample": (
            cmd_counterexample,
            "three-Borel high-degree generator harness",
            fmt
            + option(
                "--r",
                type=int,
                default=3,
                help="family parameter (3 reproduces the classic example)",
            ),
        ),
    }
    parser = argparse.ArgumentParser(
        prog="borelfiber",
        description="Fiber graphs and quadratic Groebner bases of two-Borel ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command in commands:
        sub.metavar = "{" + ",".join(commands) + "}"
    for name in [command] if command in commands else commands:
        func, help_text, options = commands[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.format == "dot" and args.command != "fiber":
        print(f"error: --format dot is only for 'fiber', not '{args.command}'", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, output = args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
