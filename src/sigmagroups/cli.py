"""Command-line surface: classification, residuals, permutability checks,
single-statement verification, and full campaigns.

Exit codes: 0 success/confirmed, 1 counterexample found, 2 usage error,
3 capacity abort, 4 engine error: any other exception of any command, with
one ``engine error: <Type>: <message>`` line on stderr.  Campaigns never
abort on capacity — affected statements become skipped rows in the report,
and the campaign exits 3 when any of them is not a vacuous (premise) skip.
Nor do they abort on another exception of one group (in a verifier, in its
build or in the class-monotonicity check): those rows' verdict is
``error``, and the campaign exits 4 unless a counterexample makes it 1.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import json
import sys

from .corpus import CorpusEntry, RefusedEntry, builtin_corpus, builtin_entry, parse_corpus_file
from .errors import CapacityError, DEFAULT_LIMITS, GroupInputError, Limits
from .harness import (REGISTRY, STATEMENTS, CampaignConfig, VerificationOutcome,
                      campaign_sigmas, report_from_rows, run_campaign, run_statements)
from .permcore import Perm, Subgroup
from .sigma import (BLOCK_DIGITS, SigmaPartition, complete_hall_sigma_set, is_psigma_t,
                    is_sigma_nilpotent, is_sigma_permutable, is_sigma_primary, is_sigma_soluble,
                    parse_sigma, sigma_nilpotent_residual, sigma_of_group)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_ERROR = 4


def _nonempty(text: str) -> str:
    """A path or list option's value: empty text is a usage error, never a
    silent fallback to the option's default."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sigmagroups",
        description="finite-group computations around prime partitions")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, sigma_default="sigma1"):
        p.add_argument("--group", required=True, help="corpus group name")
        p.add_argument("--corpus-file", type=_nonempty,
                       help="resolve --group in this file instead of the builtin corpus")
        p.add_argument("--sigma", default=sigma_default,
                       help="partition text like [2,3][5], or sigma1")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        caps(p)

    def caps(p):
        for cap in dataclasses.fields(Limits):
            p.add_argument(f"--{cap.name.replace('_', '-')}", type=int,
                           help=f"{cap.metadata['help']} (default {cap.default})")

    p = sub.add_parser("classify", help="class predicates and residual for one group")
    common(p)

    p = sub.add_parser("residual", help="sigma-nilpotent residual of one group")
    common(p)

    p = sub.add_parser("permutable", help="is a given subgroup sigma-permutable?")
    common(p)
    p.add_argument("--gen", action="append", default=[],
                   help="subgroup generator in cycle notation (repeatable; omit for trivial)")

    p = sub.add_parser("verify", help="run one statement verifier")
    common(p)
    p.add_argument("--statement", required=True, choices=STATEMENTS)
    p.add_argument("--pi", help="comma-separated primes for Lem2.2 (default: all subsets)")

    p = sub.add_parser("campaign", help="verify every statement over a corpus")
    p.add_argument("--corpus", default="builtin", help="'builtin' or a corpus file path")
    p.add_argument("--only", type=_nonempty, help="comma-separated statement ids")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", type=_nonempty, help="write the machine-readable report here")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress generated_at and zero all millis (byte-identical reruns)")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    caps(p)

    p = sub.add_parser("corpus-list", help="list builtin corpus entries")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    return top


def _limits(args) -> Limits:
    """DEFAULT_LIMITS with every cap given on the command line; ``Limits``
    refuses a cap out of range as a usage error, never a silent fallback to
    the default."""
    return dataclasses.replace(DEFAULT_LIMITS, **{
        cap.name: value for cap in dataclasses.fields(Limits)
        if (value := getattr(args, cap.name, None)) is not None})


def _read_corpus(path: str) -> list[CorpusEntry | RefusedEntry]:
    """The entries of a corpus file (``--corpus FILE``, ``--corpus-file FILE``)."""
    with open(path, encoding="utf-8") as fh:
        return parse_corpus_file(fh.read())


def _resolve_entry(args) -> CorpusEntry | RefusedEntry:
    if args.corpus_file:
        for e in _read_corpus(args.corpus_file):
            if e.name == args.group:
                return e
        raise GroupInputError(f"no group named {args.group!r} in {args.corpus_file}")
    return builtin_entry(args.group)


def _sigma(args) -> SigmaPartition:
    """The one partition a one-shot command reads; ``all`` is verify's alone."""
    if args.sigma == "all":
        raise GroupInputError("--sigma all is only valid for verify")
    return parse_sigma(args.sigma)


def _emit(args, human_lines: list[str], machine_obj) -> None:
    if args.format == "machine":
        _dump_json(machine_obj, sys.stdout)
    else:
        print("\n".join(human_lines))


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    limits = _limits(args)
    G = _resolve_entry(args).build(limits)
    sigma = _sigma(args)
    fields = {}

    def guard(key, fn):
        try:
            fields[key] = fn()
        except CapacityError as exc:
            fields[key] = f"skipped: {exc}"

    guard("sigma_of", lambda: sorted(sigma_of_group(G, sigma)))
    guard("sigma_primary", lambda: is_sigma_primary(G.order, sigma))
    guard("sigma_soluble", lambda: is_sigma_soluble(G, sigma, limits))
    guard("sigma_nilpotent", lambda: is_sigma_nilpotent(G, sigma, limits))
    guard("psigma_t", lambda: is_psigma_t(G, sigma, limits))
    guard("complete_hall_set", lambda: (
        None if (hs := complete_hall_sigma_set(G, sigma, limits)) is None
        else list(hs.member_orders())))
    guard("residual_order", lambda: sigma_nilpotent_residual(G, sigma, limits).order)
    lines = [f"group {args.group} (order {G.order}, degree {G.degree})",
             f"sigma {sigma.text()}",
             f"  sigma(G): {', '.join(map(str, fields['sigma_of'])) or '-'}"]
    for label, key in [("sigma-primary", "sigma_primary"),
                       ("sigma-soluble", "sigma_soluble"),
                       ("sigma-nilpotent", "sigma_nilpotent"),
                       ("PsigmaT", "psigma_t")]:
        v = fields[key]
        lines.append(f"  {label}: {v if isinstance(v, str) else ('yes' if v else 'no')}")
    hall = fields["complete_hall_set"]
    if isinstance(hall, str):
        lines.append(f"  complete Hall sigma-set: {hall}")
    elif hall is None:
        lines.append("  complete Hall sigma-set: none")
    else:
        orders = ", ".join(map(str, hall)) if hall else "empty"
        lines.append(f"  complete Hall sigma-set: yes (orders {orders})")
    lines.append(f"  sigma-nilpotent residual order: {fields['residual_order']}")
    _emit(args, lines, [{"group": args.group, "sigma": sigma.text(), **fields}])
    return EXIT_OK


def cmd_residual(args) -> int:
    limits = _limits(args)
    G = _resolve_entry(args).build(limits)
    sigma = _sigma(args)
    r = sigma_nilpotent_residual(G, sigma, limits)
    gens = ", ".join(str(g) for g in r.generators) or "()"
    _emit(args, [f"sigma-nilpotent residual of {args.group} under {sigma.text()}: "
                 f"order {r.order}, generators {gens}"],
          {"group": args.group, "sigma": sigma.text(),
           "order": r.order, "generators": [str(g) for g in r.generators]})
    return EXIT_OK


def cmd_permutable(args) -> int:
    limits = _limits(args)
    G = _resolve_entry(args).build(limits)
    sigma = _sigma(args)
    gens = [Perm.parse(t, G.degree) for t in args.gen]
    H = Subgroup(G, gens)
    verdict = is_sigma_permutable(G, H, sigma, limits)
    _emit(args, [f"subgroup of order {H.order} is "
                 f"{'sigma-permutable' if verdict else 'not sigma-permutable'} "
                 f"in {args.group} under {sigma.text()}"],
          {"group": args.group, "sigma": sigma.text(),
           "subgroup_order": H.order, "sigma_permutable": verdict})
    return EXIT_OK


def _outcome_lines(rows: list[VerificationOutcome]) -> list[str]:
    out = []
    for r in rows:
        flags = " (vacuous)" if r.vacuous else ""
        extra = f" — {r.reason}" if r.reason else ""
        out.append(f"{r.statement_id:11s} {r.group_name:12s} {r.sigma.text():12s} "
                   f"{r.verdict}{flags}{extra}")
    return out


def _pi_sets(args) -> list[frozenset[int]] | None:
    """The one prime set given by --pi, or None for every subset of pi(G).
    It is read as one ``--sigma`` block, so leading zeros do not count
    toward a prime's ``BLOCK_DIGITS`` digits."""
    if args.pi is None:
        return None
    if REGISTRY[args.statement].scope != "pi":
        only = ", ".join(sid for sid, st in REGISTRY.items() if st.scope == "pi")
        raise GroupInputError(f"--pi applies only to {only}, not {args.statement}")
    try:
        (pi,) = parse_sigma(f"[{args.pi.strip()}]").blocks
    except (GroupInputError, ValueError):  # ValueError: no block, or more than one
        raise GroupInputError(f"--pi takes comma-separated primes of at most {BLOCK_DIGITS} "
                              f"digits, got {args.pi!r}") from None
    return [pi]


def cmd_verify(args) -> int:
    limits = _limits(args)
    entry = _resolve_entry(args)
    pis = _pi_sets(args)
    scope = REGISTRY[args.statement].scope
    # "all" asks for the campaign's rows, which a statement of another scope
    # gives whatever the partition text
    if scope != "sigma" and args.sigma not in ("sigma1", "all"):
        raise GroupInputError(f"--sigma does not apply to {args.statement}, whose scope is {scope}")
    G = entry.build(limits)
    sigmas = None
    if scope == "sigma":
        sigmas = campaign_sigmas(G) if args.sigma == "all" else [parse_sigma(args.sigma)]
    rows = run_statements(G, entry.name, (args.statement,), limits,
                          sigmas=sigmas, pis=pis, zero_millis=True)
    blob = [r.to_json() for r in rows]
    _emit(args, _outcome_lines(rows), blob)
    return _exit_code(blob)


def _exit_code(rows: list[dict]) -> int:
    """The exit code of verify and campaign rows: 1 on a counterexample, else
    4 when a row errored, else 3 when a skip is not vacuous (a bound stopped
    a check), else 0."""
    if any(r["verdict"] == "counterexample" for r in rows):
        return EXIT_COUNTEREXAMPLE
    if any(r["verdict"] == "error" for r in rows):
        return EXIT_ERROR
    if any(r["verdict"] == "skipped" and not r["vacuous"] for r in rows):
        return EXIT_CAPACITY
    return EXIT_OK


def _dump_json(obj, fh) -> None:
    """The one JSON writer of the machine format and the campaign report:
    indented, key-sorted JSON plus a newline, streamed with no whole-report
    string in memory."""
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def cmd_campaign(args) -> int:
    statements = tuple(t.strip() for t in args.only.split(",")) if args.only else STATEMENTS
    config = CampaignConfig(jobs=args.jobs, limits=_limits(args),
                            statements=statements, zero_millis=args.no_timestamp)
    entries = builtin_corpus() if args.corpus == "builtin" else _read_corpus(args.corpus)
    rows = run_campaign(entries, config)
    stamp = None if args.no_timestamp else \
        _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    report = report_from_rows(rows, generated_at=stamp)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _dump_json(report, fh)
    summary = report["summary"]
    errors = f"   errors: {summary['error']}" if "error" in summary else ""
    lines = [f"groups: {len(entries)}   outcomes: {len(rows)}",
             f"confirmed: {summary['confirmed']}   "
             f"counterexamples: {summary['counterexample']}   "
             f"skipped: {summary['skipped']}   (vacuous: {summary['vacuous']}){errors}"]
    for sid in sorted(summary["by_statement"]):
        per = summary["by_statement"][sid]
        lines.append(f"  {sid:11s} confirmed={per['confirmed']:4d} "
                     f"counterexample={per['counterexample']} skipped={per['skipped']}")
    for r in rows:
        if r["verdict"] == "counterexample":
            lines.append(f"COUNTEREXAMPLE: {r['statement_id']} {r['group']} {r['sigma']}")
        elif r["verdict"] == "error":
            lines.append(f"ERROR: {r['statement_id']} {r['group']} {r['sigma']} — {r['reason']}")
    if args.format == "machine" and not args.out:
        _dump_json(report, sys.stdout)
    else:
        print("\n".join(lines))
    return _exit_code(rows)


def cmd_corpus_list(args) -> int:
    entries = builtin_corpus()
    lines = [f"{e.name:12s} deg {e.degree:3d} order {e.expected_order:4d}  {' '.join(e.tags)}"
             for e in entries]
    _emit(args, lines,
          [{"name": e.name, "degree": e.degree, "order": e.expected_order,
            "tags": list(e.tags)} for e in entries])
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {"classify": cmd_classify, "residual": cmd_residual,
                "permutable": cmd_permutable, "verify": cmd_verify,
                "campaign": cmd_campaign, "corpus-list": cmd_corpus_list}
    try:
        return handlers[args.command](args)
    except GroupInputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity abort: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"engine error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
