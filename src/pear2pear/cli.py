"""Command line driver: validate scenarios, run them, report metrics."""

import argparse
import json
import sys

from .scenario import ScenarioError, check_params, load_scenario, run_scenario


def _summary(report: dict) -> str:
    agg = report["aggregates"]
    lines = ["== run summary =="]
    lines.append(f"downloads: {agg['downloads']}")
    rate = agg["success_rate"]
    lines.append(f"success rate: {'n/a' if rate is None else f'{rate:.3f}'}")
    mct = agg["mean_completion_time"]
    lines.append(f"mean completion time: {'n/a' if mct is None else f'{mct:.3f}s'}")
    for rec in report["downloads"]:
        status = {True: "ok", False: "FAILED", None: "pending"}[rec["success"]]
        ct = rec["completion_time"]
        lines.append(
            f"  {rec['session']}: file={rec['file']} dev={rec['requester']} "
            f"{status} t={'-' if ct is None else f'{ct:.3f}'} hops={rec['hops']} "
            f"couriers={rec['couriers']} frames={rec['frames']} bytes={rec['bytes']}")
    lines.append("courier fairness (catalog missions per peer):")
    counts = agg["courier_assignments"]
    if not counts:
        lines.append("  none")
    for peer, count in counts.items():
        lines.append(f"  peer {peer}: {count}")
    return "\n".join(lines)


def _parse_set(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--set needs PARAM=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pear2pear")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--until", type=float, default=None)
    p_run.add_argument("--trace", default=None, help="write trace lines here")
    p_run.add_argument("--metrics", default=None, help="write metrics JSON here")
    p_run.add_argument("--set", action="append", default=[], metavar="PARAM=VALUE",
                       help="override a protocol parameter")
    p_run.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")

    args = parser.parse_args(argv)

    try:
        sc = load_scenario(args.scenario)
    except FileNotFoundError:
        print(f"error: no such file: {args.scenario}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"{args.scenario}: ok")
        return 0

    try:
        overrides = _parse_set(args.set)
        if overrides:
            sc.params = sc.params.override(**overrides)
            check_params(sc.params)
    except (KeyError, ValueError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    world = run_scenario(sc, seed=args.seed, until=args.until)
    report = world.metrics.report()

    if args.trace:
        with open(args.trace, "w") as fh:
            for line in world.trace_lines():
                fh.write(line + "\n")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not args.quiet:
        print(_summary(report))
    return 0 if world.metrics.all_succeeded() else 1


if __name__ == "__main__":
    sys.exit(main())
