"""Command-line interface.

Subcommands: count, verify, profiles, eulerian, resume.  Exit codes:
0 success, 1 internal failure or result mismatch, 2 invalid arguments or
configuration, 3 refused league size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

from . import engine, eulerian
from .brute import BRUTE_CEILING, count_tied_bruteforce
from .engine import KNOWN_TOTALS, TiedCountReport, count_tied
from .errors import CheckpointError, LeagueTiesError, SizeRefusedError
from .eulerian import EULERIAN_COUNTS, eulerian_count, eulerian_count_bruteforce
from .profiles import (
    classify_profile,
    doubling_factor,
    iter_profiles,
    representation_factor,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _report_json(report: TiedCountReport, method: str) -> dict:
    return {
        "n": report.n,
        "total": str(report.total),
        "breakdown": report.breakdown_json(),
        "elapsed_ms": int(report.elapsed * 1000),
        "workers": report.workers,
        "method": method,
    }


def _print_report(report: TiedCountReport) -> None:
    print(f"n={report.n} total={report.total}")
    for tag, st in report.class_breakdown.items():
        print(f"  {tag:<20} profiles={st.profiles:<5} contribution={st.contribution}")
    resumed = f" resumed_from={report.resumed_from}" if report.resumed_from else ""
    print(
        f"  searched={report.searched_profiles} elapsed={report.elapsed:.3f}s "
        f"workers={report.workers}{resumed}"
    )


def cmd_count(args: argparse.Namespace) -> int:
    n = args.teams
    # The sweep first: it refuses n > BRUTE_CEILING before sweeping, which
    # covers every size the optimised count refuses, so a refused size
    # neither runs a count nor writes a ledger.
    brute_total = None
    brute_elapsed = 0.0
    if args.method in ("brute", "both"):
        t0 = time.perf_counter()
        brute_total = count_tied_bruteforce(n, workers=args.workers)
        brute_elapsed = time.perf_counter() - t0

    report = None
    if args.method in ("optimized", "both"):
        report = count_tied(n, workers=args.workers, checkpoint=args.checkpoint)

    if args.method == "both" and report is not None and brute_total != report.total:
        print(
            f"MISMATCH: brute={brute_total} optimized={report.total}",
            file=sys.stderr,
        )
        return EXIT_FAILURE

    if args.format == "json":
        if report is not None:
            payload = _report_json(report, args.method)
            if brute_total is not None:
                payload["brute_total"] = str(brute_total)
        else:
            payload = {
                "n": n,
                "total": str(brute_total),
                "elapsed_ms": int(brute_elapsed * 1000),
                "workers": args.workers,
                "method": "brute",
            }
        print(json.dumps(payload, separators=(", ", ": ")))
    else:
        if brute_total is not None:
            print(f"n={n} brute total={brute_total} ({brute_elapsed:.3f}s)")
        if report is not None:
            _print_report(report)
        if args.method == "both":
            print("brute and optimized totals agree")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_teams > BRUTE_CEILING:
        print(
            f"verify compares against the brute-force sweep, which is capped at "
            f"n={BRUTE_CEILING}; --max-teams {args.max_teams} is not available",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.max_teams == BRUTE_CEILING and not args.long:
        print(
            f"the n={BRUTE_CEILING} sweep visits 3**20 outcomes; pass --long to "
            f"include it",
            file=sys.stderr,
        )
        return EXIT_USAGE
    mismatches = 0
    for n in range(2, args.max_teams + 1):
        t0 = time.perf_counter()
        brute_total = count_tied_bruteforce(n, workers=args.workers)
        optimized = count_tied(n, workers=args.workers).total
        elapsed = time.perf_counter() - t0
        status = "OK" if brute_total == optimized else "MISMATCH"
        if brute_total != optimized:
            mismatches += 1
        known = KNOWN_TOTALS.get(n)
        note = "" if known == brute_total else f" (reference says {known})"
        print(f"n={n}: brute={brute_total} optimized={optimized} {status}{note} "
              f"[{elapsed:.2f}s]")
    return EXIT_FAILURE if mismatches else EXIT_OK


def cmd_profiles(args: argparse.Namespace) -> int:
    rows = []
    for profile in iter_profiles(args.teams):
        rows.append(
            {
                "takes": list(profile.takes),
                "class": classify_profile(profile).value,
                "taken": profile.taken,
                "conceded": profile.conceded,
                "representation": representation_factor(profile),
                "doubling": doubling_factor(profile),
            }
        )
    if args.format == "json":
        print(json.dumps(rows, separators=(", ", ": ")))
    else:
        for row in rows:
            takes = ",".join(str(t) for t in row["takes"])
            print(
                f"({takes}) class={row['class']} taken={row['taken']} "
                f"conceded={row['conceded']} representation={row['representation']} "
                f"doubling={row['doubling']}"
            )
        print(f"{len(rows)} profiles")
    return EXIT_OK


def cmd_eulerian(args: argparse.Namespace) -> int:
    verified_max = min(args.max, eulerian.BRUTE_CEILING)
    for n in range(2, args.max + 1):
        line = f"n={n}: {eulerian_count(n)}"
        if n <= verified_max:
            brute = eulerian_count_bruteforce(n)
            status = "OK" if brute == eulerian_count(n) else "MISMATCH"
            line += f" brute={brute} {status}"
            if status == "MISMATCH":
                print(line)
                return EXIT_FAILURE
        print(line)
    return EXIT_OK


def cmd_resume(args: argparse.Namespace) -> int:
    report = engine.resume(args.checkpoint, workers=args.workers)
    if args.format == "json":
        print(json.dumps(_report_json(report, "optimized"), separators=(", ", ": ")))
    else:
        _print_report(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="league-ties",
        description=(
            "Count the outcomes of an n-team double round-robin (3/1/0 scoring) "
            "in which all teams finish level on points."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {engine.ENGINE_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            help="worker processes (default: $LEAGUE_TIES_WORKERS or 1)",
        )
        # A bad worker count is checked after parsing; report it under this
        # subcommand's usage line.
        p.set_defaults(usage_error=p.error)

    p = sub.add_parser("count", help="count tied outcomes for one league size")
    p.add_argument("--teams", type=int, required=True, metavar="N")
    p.add_argument(
        "--method", choices=("optimized", "brute", "both"), default="optimized"
    )
    add_workers(p)
    p.add_argument("--checkpoint", metavar="PATH", help="ledger file for resumable runs")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="compare brute-force and optimised totals")
    p.add_argument("--max-teams", type=int, default=4, metavar="N")
    p.add_argument(
        "--long", action="store_true", help=f"include the n={BRUTE_CEILING} sweep"
    )
    add_workers(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("profiles", help="list first-team profiles with classification")
    p.add_argument("--teams", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_profiles)

    p = sub.add_parser("eulerian", help="print the Eulerian digraph count table")
    p.add_argument(
        "--max", type=int, default=max(EULERIAN_COUNTS), metavar="N",
        help=f"largest n to print (brute verification up to n={eulerian.BRUTE_CEILING})",
    )
    p.set_defaults(func=cmd_eulerian)

    p = sub.add_parser("resume", help="finish an interrupted count from its ledger")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_workers(p)
    p.set_defaults(func=cmd_resume)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "workers"):  # only the subcommands that run counts
        source = "--workers"
        if args.workers is None:
            source = "LEAGUE_TIES_WORKERS"
            env = os.environ.get(source, "").strip() or "1"
            try:
                args.workers = int(env)
            except ValueError:
                args.usage_error(f"{source} must be an integer, got {env!r}")
        if args.workers < 1:
            args.usage_error(f"{source} must be >= 1")
    try:
        with warnings.catch_warnings():
            # One line per warning, without the source location and line
            # that the default format adds.
            warnings.showwarning = _show_warning
            return args.func(args)
    except SizeRefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LeagueTiesError, OverflowError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
