"""pear2pear benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chain_large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
The workload generator turns the seed into a scenario document, which goes
through `scenario.parse_scenario` and `scenario.build_world`; the benchmark
then pops events with `World.step()` up to the scenario's `until`.

`--trace 0` reports the end-to-end metrics: host times over repeated runs
for `--seconds` (the median set-up time, and the mean run and trace
rendering times), plus peak memory and the simulated protocol outcomes from
one untimed accounting run.
`--trace 1` reports per-layer metrics from one run with every public program
function wrapped in a span (see layers.py).

Every invocation checks the program's outputs and exits 1 if a check fails:
completed downloads left verified content with the requester, every run of
the seed gives the same event count and trace digest, and with `--trace 1`
every emitted frame survives an encode/decode round trip. The last stdout
line is the result:
{"correct": ..., "attempted": runs, "failed": runs that failed a check,
"metrics": {name: {"value": ..., "unit": ...}}}.
"""

import argparse
import functools
import gc
import hashlib
import inspect
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Frame kind -> protocol plane, for frame and wire-byte accounting.
PLANES = {
    "membership": ("JOIN_REQUEST", "JOIN_ACCEPT", "JOIN_REJECT", "PING", "PONG",
                   "LEAVE_NOTICE"),
    "catalog": ("FILE_LIST", "SCAN_REPORT", "CATALOG_SNAPSHOT", "SEARCH_REQUEST",
                "SEARCH_RESPONSE", "WANTED_FILE"),
    "courier": ("COURIER_ORDER", "DOWNLOAD_REQUEST", "SOURCE_LIST"),
    "block": ("BLOCK_REQUEST", "BLOCK_RESPONSE"),
}
PLANE_OF = {kind: plane for plane, kinds in PLANES.items() for kind in kinds}

# Trace renderings timed per repetition: one is short and noisy.
TRACE_RENDERS = 3
# A p90 needs at least ten samples beyond it.
P90_MIN_SAMPLES = 100
HASH_SEED = "0"


def load_program():
    """Import pear2pear from this checkout's src/, and nowhere else."""
    if not (SRC / "pear2pear" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import pear2pear
    if Path(pear2pear.__file__).resolve().parent != SRC / "pear2pear":
        print(f"error: pear2pear imported from {pear2pear.__file__}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(HERE))


class FrameLedger:
    """Stands in for `MetricsCollector.on_frame_emit` on one world: counts and
    encodes every emitted frame by plane, with `roundtrip` checks that it
    decodes back equal, then hands it to the real collector."""

    def __init__(self, world, roundtrip):
        from pear2pear.frames import decode_frame, encode_frame
        self.encode, self.decode = encode_frame, decode_frame
        self.roundtrip = roundtrip
        self.forward = world.metrics.on_frame_emit
        self.frames = Counter()
        self.bytes = Counter()
        self.encode_s = self.decode_s = 0.0
        self.mismatches = 0
        world.metrics.on_frame_emit = self

    def __call__(self, frame):
        t0 = time.perf_counter()
        wire = self.encode(frame)
        self.encode_s += time.perf_counter() - t0
        if self.roundtrip:
            t0 = time.perf_counter()
            back = self.decode(wire)
            self.decode_s += time.perf_counter() - t0
            self.mismatches += back != frame
        plane = PLANE_OF[frame.kind.name]
        self.frames[plane] += 1
        self.bytes[plane] += len(wire)
        return self.forward(frame)


def set_up(doc):
    from pear2pear import scenario
    sc = scenario.parse_scenario(doc)
    return sc, scenario.build_world(sc)


def simulate(world, until):
    """Pop events up to `until`, as `World.run_until` does; returns the count."""
    events = 0
    while world.queue and world.queue[0][0] <= until:
        world.step()
        events += 1
    return events


def trace_digest(lines):
    """SHA-256 of the bytes `pear2pear run --trace` would write."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def timed_run(make_doc):
    """One untraced repetition: (setup_s, run_s, trace_s, events, digest),
    where trace_s is the mean of TRACE_RENDERS renderings."""
    gc.collect()
    t0 = time.perf_counter()
    sc, world = set_up(make_doc())
    t1 = time.perf_counter()
    events = simulate(world, sc.until)
    t2 = time.perf_counter()
    for _ in range(TRACE_RENDERS):
        lines = world.trace_lines()
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, (t3 - t2) / TRACE_RENDERS, events, trace_digest(lines)


def outcomes(sc, world):
    """Scripted download outcomes, read from the trace notes."""
    scripted = [row for row in sc.script if row["action"] == "download"]
    wanted = {(row["device"], row["file_id"].short): row["file_id"] for row in scripted}
    started, done, times, reasons = {}, [], [], Counter()
    for rec in world.trace:
        if rec.kind == "download-start":
            started[rec.details["session"]] = (rec.time, rec.device, rec.details["file"])
        elif rec.kind == "download-complete":
            t, device, short = started[rec.details["session"]]
            times.append(rec.time - t)
            done.append((device, wanted.get((device, short))))
        elif rec.kind == "download-failed":
            reasons[rec.details["reason"]] += 1
    failed = sum(reasons.values())
    return {
        "scripted": len(scripted), "started": len(started), "succeeded": len(times),
        "failed": failed, "pending": len(started) - len(times) - failed,
        "not_started": len(scripted) - len(started), "reasons": reasons,
        "times": sorted(times), "completed": done,
    }


def check_downloads(world, completed):
    """Each completed download left its requester holding the requested file,
    and the content hashes to its id. Returns a list of problems."""
    problems = []
    for device, file_id in completed:
        content = None if file_id is None else world.nodes[device].files.get(file_id)
        if content is None:
            problems.append(f"device {device} completed a download it does not hold")
        elif hashlib.sha256(content).digest() != file_id.digest:
            problems.append(f"device {device} holds {file_id.short} with wrong content")
    return problems


def accounting_run(make_doc, roundtrip):
    """The untimed first run: peak memory, protocol outcomes, frame ledger."""
    gc.collect()
    sc, world = set_up(make_doc())
    ledger = FrameLedger(world, roundtrip)
    events = simulate(world, sc.until)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = trace_digest(world.trace_lines())
    out = outcomes(sc, world)
    problems = check_downloads(world, out["completed"])
    if ledger.mismatches:
        problems.append(f"{ledger.mismatches} frames changed in an encode/decode round trip")
    return {"sc": sc, "events": events, "digest": digest, "peak_mb": peak_mb,
            "ledger": ledger, "out": out, "problems": problems}


def describe(name, seed, acc):
    sc = acc["sc"]
    out = acc["out"]
    ledger = acc["ledger"]
    lines = [
        f"scenario: devices={len(sc.devices)} "
        f"files={sum(len(files) for _, files in sc.devices)} script={len(sc.script)} "
        f"block_size={sc.params.block_size} until={sc.until}",
        f"fingerprint {name} seed={seed}: events={acc['events']} trace_sha256={acc['digest']}",
        f"downloads: attempted={out['scripted']} succeeded={out['succeeded']} "
        f"failed={out['failed']} pending={out['pending']} "
        f"not_started={out['not_started']} reasons="
        + (",".join(f"{r}:{n}" for r, n in sorted(out["reasons"].items())) or "none"),
    ]
    times = out["times"]
    if times:
        lines.append(f"dl_sim_p50_s={statistics.median(times)!r} sim_s over "
                     f"{len(times)} successful downloads")
    if len(times) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1]
        lines.append(f"dl_sim_p90_s={p90!r} sim_s over {len(times)} successful downloads")
    else:
        lines.append(f"dl_sim_p90_s not reported: {len(times)} successful downloads "
                     f"(needs {P90_MIN_SAMPLES})")
    lines.append("frames by plane: " + " ".join(
        f"{p}={ledger.frames[p]}/{ledger.bytes[p]}B" for p in PLANES))
    return lines


def fingerprint_shipped():
    """Event count and trace digest of every shipped scenario (not timed)."""
    from pear2pear.scenario import build_world, load_scenario
    lines = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        sc = load_scenario(str(path))
        world = build_world(sc)
        events = simulate(world, sc.until)
        lines.append(f"fingerprint scenarios/{path.name}: events={events} "
                     f"trace_sha256={trace_digest(world.trace_lines())}")
    return lines


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(make_doc, seconds, acc):
    """Timed repetitions for about `seconds` (at least three): another one
    starts only if it should end less than half a repetition late."""
    reps = []
    problems = []
    t_end = time.perf_counter() + seconds
    last = 0.0
    while len(reps) < 3 or time.perf_counter() + last / 2 < t_end:
        t0 = time.perf_counter()
        rep = timed_run(make_doc)
        last = time.perf_counter() - t0
        reps.append(rep)
        if rep[3:] != (acc["events"], acc["digest"]):
            problems.append(f"run {len(reps)} diverged: events={rep[3]} "
                            f"trace_sha256={rep[4]}")
    out = acc["out"]
    ledger = acc["ledger"]
    ok = max(out["succeeded"], 1)
    # Set-up time is the median repetition. Run and trace times are means:
    # on a shared host their repetitions fall into a fast and a slow band,
    # and the median jumps between the bands from run to run where the mean
    # moves with their mix (over ten runs of chain_large, the quartile
    # spread of trace_s was 0.24 of the median for per-run medians and 0.14
    # for per-run means).
    run_s = statistics.mean(r[1] for r in reps)
    metrics = {
        "setup_s": metric(statistics.median(r[0] for r in reps), "s"),
        "run_s": metric(run_s, "s"),
        "events_per_s": metric(acc["events"] / run_s, "1/s"),
        "trace_s": metric(statistics.mean(r[2] for r in reps), "s"),
        "peak_mem_mb": metric(acc["peak_mb"], "MB"),
        "dl_success_rate": metric(out["succeeded"] / out["scripted"], "ratio"),
        "dl_sim_p50_s": metric(statistics.median(out["times"]) if out["times"] else 0.0,
                               "sim_s"),
        "frames_per_dl": metric(sum(ledger.frames.values()) / ok, "frames"),
        "wire_bytes_per_dl": metric(sum(ledger.bytes.values()) / ok, "B"),
    }
    info = [f"timed runs: {len(reps)}, events per run: {acc['events']}"] + [
        f"{name} per run: " + " ".join(f"{r[i]:.4f}" for r in reps)
        for i, name in enumerate(("setup_s", "run_s", "trace_s"))]
    return metrics, len(reps), problems, info


def per_layer(make_doc, name, acc):
    import layers
    _, untraced_run_s, _, events, digest = timed_run(make_doc)
    problems = []
    if (events, digest) != (acc["events"], acc["digest"]):
        problems.append(f"untraced run diverged: events={events} trace_sha256={digest}")
    result = layers.traced_run(make_doc, set_up, simulate,
                               HERE / "out" / f"spans-{name}.tsv")
    digest = trace_digest(result.world.trace_lines())
    if (result.events, digest) != (acc["events"], acc["digest"]):
        problems.append(f"traced run diverged: events={result.events} "
                        f"trace_sha256={digest}")
    ledger = acc["ledger"]
    metrics = {}
    for plane in PLANES:
        metrics[f"frames.{plane}.frames"] = metric(ledger.frames[plane], "count")
        metrics[f"frames.{plane}.bytes"] = metric(ledger.bytes[plane], "B")
    total = sum(ledger.bytes.values())
    metrics["frames.encode.MBps"] = metric(total / ledger.encode_s / 1e6, "MB/s")
    metrics["frames.decode.MBps"] = metric(total / ledger.decode_s / 1e6, "MB/s")
    metrics.update(result.metrics())
    metrics["tracing_overhead_s"] = metric(result.run_s - untraced_run_s, "s")
    info = [f"traced run_s={result.run_s:.3f} untraced run_s={untraced_run_s:.3f} "
            f"spans={result.span_count} written to {result.path.relative_to(ROOT)}",
            "layer self time: " + " ".join(
                f"{layer}={s:.3f}s" for layer, s in result.layer_self()),
            "cli: not traced separately; its run-time work is scenario and metrics"]
    return metrics, 2, problems, info


def bench(name, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result dict, report lines)."""
    from workloads import WORKLOADS
    generate = WORKLOADS[name]
    sizes = {k: p.default for k, p in inspect.signature(generate).parameters.items()
             if k != "seed"} | (sizes or {})
    make_doc = functools.partial(generate, seed, **sizes)
    # The traced run is the one that checks the codec round trip.
    acc = accounting_run(make_doc, roundtrip=bool(trace))
    lines = [f"workload {name} seed={seed}: "
             + " ".join(f"{k}={v}" for k, v in sizes.items())]
    lines += describe(name, seed, acc) + fingerprint_shipped()
    if trace:
        metrics, runs, problems, info = per_layer(make_doc, name, acc)
    else:
        metrics, runs, problems, info = end_to_end(make_doc, seconds, acc)
    failed = len(problems) + bool(acc["problems"])
    problems = acc["problems"] + problems
    lines += info + [f"CHECK FAILED: {p}" for p in problems]
    return {"correct": not problems, "attempted": runs + 1, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    load_program()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result, lines = bench(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # String and bytes hashes order the program's sets and dict probes. Its
    # behaviour does not depend on them (traces are identical under every
    # hash seed), but its speed does: catalog_mesh run_s differs by about
    # 20% between hash seeds. One fixed seed keeps that out of the spread
    # between runs.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
