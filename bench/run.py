#!/usr/bin/env python3
"""Benchmark of the nctori command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``
(it need not be installed).  Only the standard library is used.

Each workload is a fixed composition of seeded items (see workloads.py),
run in passes: one pass calls ``nctori.cli.main(argv)`` in-process once per
item, stdout captured, in a closed loop (the next call starts when the last
returns).  Untraced passes take the draws of the composition in turn, so
that a run spans many inputs; traced passes all use the first draw.  Every
output is checked by the gate (gate.py) outside the timed region; a wrong
answer counts as a failed item.

``--trace 0`` runs untraced passes for the given seconds and reports the
end-to-end metrics: ``item_p50_ms`` and ``item_p90_ms`` are quantiles of
the latencies of all calls of the run, pooled, and ``items_per_s`` is the
correct calls per second of timed wall time.  ``--trace 1`` runs
whole passes for the given seconds, untraced and traced (spans.py) in turn,
and reports the per-layer metrics per pass.  The last line of stdout is the
result as JSON; a report with the run's details goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

N12_NOTE = (
    "n = 12 is omitted: at this baseline a rational 12x12 degeneracy_subgroup "
    "did not finish in 300 s and one Q(sqrt 2) trace_range took 13 s, so a "
    "single item would outlast the run; n >= 10 rational inputs are left out "
    "for the same reason (one n = 10 canonical_form took 60 s)."
)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("max_rows"):
        return "rows"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def source_identity() -> dict:
    """Commit (when the checkout has git metadata) and a digest of src/."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def nctori_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "nctori" or m.startswith("nctori.")}


def setup(workload: str, seed: int, workloads, workdir: Path):
    """Import nctori afresh, generate the inputs and write the problem files,
    SETUP_REPEATS times back to back; the run keeps the last set-up.
    Returns (seconds of each, nctori, the draws, digest of the inputs)."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        for name in nctori_modules():
            del sys.modules[name]
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        nctori = importlib.import_module("nctori")
        importlib.import_module("nctori.cli")
        draws = workloads.build(workload, seed, ROOT / "problems", nctori, workloads.DRAWS[workload])
        digests.add(workloads.write_files([it for d in draws for it in d], workdir))
        times.append(time.perf_counter() - t0)
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return times, nctori, draws, digests.pop()


def call(cli, item):
    """One CLI call: (seconds, stdout, error or None)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(item.argv())
        error = None if rc == 0 else f"exit code {rc}"
    except SystemExit as exc:
        error = f"exit {exc.code}"
    except Exception as exc:  # a traceback from the program is a failed item
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out.getvalue(), error


def run_pass(cli, items, p, deadline=None, tracer=None):
    """One pass over the items, cut short at the deadline when one is given
    (a run makes at least one call).  Returns records (pass, index, item,
    seconds, stdout, error)."""
    records = []
    for i, item in enumerate(items):
        if deadline is not None and (p or i) and time.perf_counter() >= deadline:
            break
        if tracer is None:
            dt, out, err = call(cli, item)
        else:
            dt, out, err = tracer.call(p * len(items) + i, lambda: call(cli, item))
        records.append((p, i, item, dt, out, err))
    return records


def quantile90(sorted_values) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[8]


def pass_times(records) -> list[float]:
    by_pass: dict[int, float] = {}
    for p, _, _, dt, _, _ in records:
        by_pass[p] = by_pass.get(p, 0.0) + dt
    return list(by_pass.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nctori" / "__init__.py").is_file():
        print(f"error: no nctori sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gate as gate_mod
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # the CLI reads SEARCH_HEIGHT; the benchmark measures the default height
    os.environ.pop("SEARCH_HEIGHT", None)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    setup_times, nctori, draws, digest = setup(args.workload, args.seed, workloads, workdir)
    items = draws[0]
    ident = source_identity()
    print(f"bench workload={args.workload} seed={args.seed} items/pass={len(items)} draws={len(draws)} "
          f"inputs={digest} commit={ident['commit']} src={ident['src_sha256']} "
          f"python={ident['python']} nproc={ident['nproc']}", flush=True)
    cli = nctori.cli

    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        records, plain, traced = [], [], []
        p = 0
        if args.trace:
            # whole passes, untraced and traced in turn, so that both see the
            # same drift of the machine; at least one of each
            tracer = spans.Tracer()
            while p < 2 or time.perf_counter() < deadline:
                if p % 2:
                    tracer.install()
                    try:
                        traced += run_pass(cli, items, p, tracer=tracer)
                    finally:
                        tracer.uninstall()
                else:
                    plain += run_pass(cli, items, p)
                p += 1
            records = plain + traced
        else:
            while p == 0 or time.perf_counter() < deadline:
                records += run_pass(cli, draws[p % len(draws)], p, deadline)
                p += 1
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        gate_start = time.perf_counter()
        gate = gate_mod.Gate(nctori)
        failures = []
        for p, i, item, dt, out, err in records:
            problems = [err] if err else gate.check(item, out)
            if problems:
                failures.append({"pass": p, "item": i, "label": item.label,
                                 "argv": item.argv(), "problems": problems})
        checked = [(item, out) for p, i, item, dt, out, err in records if p == records[0][0] and not err]
        selftest = gate_mod.self_test(gate, checked)
        gate_s = time.perf_counter() - gate_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(records), len(failures)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_digest": digest, **ident,
        "items_per_pass": len(items), "draws": len(draws),
        "items": [{"label": it.label, "n": it.n, "command": it.command} for it in items],
        "setup_s_each": setup_times,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "gate_self_test": selftest, "gate_s": gate_s, "note": N12_NOTE,
    }
    correct = failed == 0 and selftest["detected"]

    if args.trace:
        base = statistics.median(pass_times(plain))
        groups = tracer.aggregate(lambda key: key // len(items))
        traced_passes = sorted(groups)
        decides = sum(1 for it in items if it.command == "decide")
        metrics = spans.layer_metrics([groups[p] for p in traced_passes], decides)
        metrics["trace.overhead_ratio"] = statistics.median(pass_times(traced)) / base
        values = {k: {"value": metrics[k], "unit": layer_unit(k)} for k in spans.PER_LAYER}
        per_n = tracer.aggregate(lambda key: items[key % len(items)].n)
        report["traced_passes"] = len(traced_passes)
        report["untraced_passes"] = len(pass_times(plain))
        report["per_n"] = {
            str(n): {
                name: {"calls": g["calls"][name] / len(traced_passes),
                       "self_ms": g["self"][name] * 1e-6 / len(traced_passes),
                       "total_ms": g["total"][name] * 1e-6 / len(traced_passes)}
                for name in sorted(g["calls"])
            }
            for n, g in sorted(per_n.items())
        }
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        calls = sorted(dt for _, _, _, dt, _, _ in records)
        p90 = quantile90(calls)
        metrics = {
            "item_p50_ms": statistics.median(calls) * 1e3,
            "item_p90_ms": p90 * 1e3,
            "items_per_s": (attempted - failed) / wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        values = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        report["calls"] = len(calls)
        report["calls_beyond_p90"] = sum(1 for x in calls if x > p90)
        report["passes"] = len(pass_times(records))
        by_kind: dict[str, list[float]] = {}
        for _, _, item, dt, _, _ in records:
            by_kind.setdefault(f"n={item.n} {item.label}", []).append(dt * 1e3)
        report["latency_ms_by_kind"] = {
            k: {"count": len(v), "min": min(v), "median": statistics.median(v)}
            for k, v in sorted(by_kind.items())
        }
        report["pass_seconds"] = pass_times(records)
        report["latency_ms"] = [[p, i, round(dt * 1e3, 3)] for p, i, _, dt, _, _ in records]
        report["timed_wall_s"] = wall
    report["metrics"] = values

    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
