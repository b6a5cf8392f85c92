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
    factors_label,
    find_sink_direct,
    graph_to_json,
    point_factors,
    to_dot,
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
from borelfiber.verify import check_unique_sink, sweep_unique_sinks

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


def _emit(payload, fmt: str, text_view) -> str:
    """The command's one payload as JSON, or as the text lines ``text_view`` reads off it."""
    if fmt == "text":
        return "\n".join(text_view(payload)) + "\n"
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def cmd_gens(args) -> tuple[int, str]:
    return EXIT_OK, _emit(_load_table(args).to_json(), args.format, lambda d: [
        f"Y_{i}\t{entry['monomial']}\t{entry['tag']}" for i, entry in enumerate(d["generators"])
    ])


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
    return EXIT_OK, _emit(graph_to_json(graph), args.format, lambda d: [
        f"mu {d['mu']}: {len(d['vertices'])} vertices, {len(d['edges'])} edges",
        *(f"v{i}: {factors_label(v['factors'])}" for i, v in enumerate(d["vertices"])),
        *(f"v{a} -> v{b}" for a, b in d["edges"]),
        f"sinks: {' '.join('v%d' % s for s in d['sinks'])}",
    ])


def cmd_sink(args) -> tuple[int, str]:
    table = _load_table(args)
    mu = parse_monomial(args.mu, table.context)
    direct = find_sink_direct(table, mu)
    tdeg = degree(mu) // table.degree if table.degree else 0
    agrees = not check_unique_sink(table, mu) if tdeg <= args.bound else None
    names = None if direct is None else point_factors(table, direct)
    data = {
        "mu": format_monomial(mu, table.context),
        "sink": names,
        "label": None if names is None else factors_label(names),
        "agrees_with_graph": agrees,
    }
    code = EXIT_OK if agrees in (True, None) else EXIT_VIOLATION
    return code, _emit(data, args.format, lambda d: [d["label"] or "empty fiber"])


def cmd_toric_gb(args) -> tuple[int, str]:
    basis = quadric_generators(_load_table(args), interreduce=args.interreduce)
    return EXIT_OK, _emit(basis_to_json(basis), args.format, lambda d: [
        f"{d['count']} quadric binomials",
        *(f"{factors_label(el['lead'])} -> {factors_label(el['trail'])}" for el in d["elements"]),
    ])


def cmd_rees_gb(args) -> tuple[int, str]:
    return EXIT_OK, _emit(rees_basis_to_json(rees_gb(_load_table(args))), args.format, lambda d: [
        f"{d['count']} Rees basis binomials",
        *(
            f"{el['x_lead']}*{factors_label(el['y_lead'])}"
            f" -> {el['x_trail']}*{factors_label(el['y_trail'])}"
            for el in d["elements"]
        ),
    ])


def cmd_verify_unique_sinks(args) -> tuple[int, str]:
    data = sweep_unique_sinks(_load_table(args), args.bound).to_json()
    code = EXIT_OK if data["status"] == "PASS" else EXIT_VIOLATION
    return code, _emit(data, args.format, lambda d: [
        f"{d['status']}: {d['multidegrees_checked']} multidegrees checked", *d["violations"]
    ])


def cmd_verify_buchberger(args) -> tuple[int, str]:
    table = _load_table(args)
    data = {"toric": buchberger_verify(quadric_generators(table, interreduce=True)).to_json()}
    if args.rees:
        data["rees"] = rees_buchberger_verify(rees_gb(table)).to_json()
    code = EXIT_OK if all(side["status"] == "PASS" for side in data.values()) else EXIT_VIOLATION
    return code, _emit(data, args.format, lambda d: [
        f"{name}: {side['status']} ({side['pairs_checked']} overlaps)" for name, side in d.items()
    ])


def cmd_oracle_gb(args) -> tuple[int, str]:
    table = _load_table(args)
    oracle = brute_force_gb(table, args.bound)
    # The reduced list has every lead of the full one, and one element per lead.
    quadric_leads = {lead for lead, _ in quadric_generators(table, interreduce=True).pairs}
    data = {**basis_to_json(oracle), "bound": args.bound}
    names = data["variable_order"]
    data["leads_outside_quadric_leads"] = [
        [names[c] for c in lead] for lead, _ in oracle.pairs if lead not in quadric_leads
    ]
    return EXIT_OK, _emit(data, args.format, lambda d: [
        f"{d['count']} basis elements at bound {d['bound']}; "
        f"{len(d['leads_outside_quadric_leads'])} leads outside the quadric leads"
    ])


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
    code = EXIT_OK if separated else EXIT_VIOLATION
    return code, _emit(data, args.format, lambda d: [d["finding"]])


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
