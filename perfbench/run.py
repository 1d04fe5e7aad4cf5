"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fine_uniform --seed 1 \\
        --seconds 55 --trace 0

``--trace 0`` times the program untouched and prints every end-to-end
metric; ``--trace 1`` wraps the layers' entry points (see
``tracing.py``), alternates traced and untraced repetitions, and prints
every per-layer metric, its share of the pass it belongs to, and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is non-zero when any
answer was wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import spec  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_checkout_sources() -> None:
    """Import the program from ``src/`` of the current directory."""
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {source}; run from the "
            "root of a checkout"
        )
    sys.path.insert(0, str(source))


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The program joins its own pool workers; what outlives a run
    otherwise is :mod:`multiprocessing`'s resource tracker, which the
    shared-memory shuffle starts and which exits only after it sees
    this process close its end of the tracker's pipe.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Closes the tracker's pipe and waits for it; a no-op when no
    # tracker was started.
    resource_tracker._resource_tracker._stop()


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` at the highest percentile with at least
    ten samples beyond it, or ``None`` when there are too few samples
    for it to lie above the median."""
    ordered = sorted(values)
    keep = len(ordered) - 10
    if keep <= len(ordered) // 2:
        return None
    return 100.0 * keep / len(ordered), ordered[keep - 1]


def _end_to_end(result: dict) -> dict:
    tally = result["tally"]
    return {
        name: tally.median(name) for name in spec.END_TO_END
        if name != "peak_rss_mb"
    }


def _print_samples(tally, names) -> None:
    for name in names:
        values = tally.samples.get(name, [])
        shown = " ".join(f"{v:.4g}" for v in values[:12])
        more = " ..." if len(values) > 12 else ""
        print(f"  samples {name} (n={len(values)}): {shown}{more}")


def _print_serve_extras(result: dict) -> None:
    tally = result["tally"]
    appends = tally.samples.get("append_p50_s", [])
    if appends:
        print(f"  append_p50_s = {tally.median('append_p50_s'):.6f} s")
    tail = tail_percentile(tally.samples.get("refresh_p50_s", []))
    rounds = len(tally.samples.get("refresh_p50_s", []))
    if tail is None:
        print(f"  refresh_tail_s: not reported, {rounds} rounds leave no "
              "percentile above the median with 10 rounds beyond it")
    else:
        print(f"  refresh_tail_s = {tail[1]:.6f} s at p{tail[0]:.0f} "
              f"over {rounds} rounds")


def _print_layers(layers: dict, result: dict) -> None:
    print("per-layer metrics (fine_uniform: per pass; serve_append: per "
          "round):")
    for name, (unit, *_rest) in spec.PER_LAYER.items():
        print(f"  {name} = {layers[name]:.6g} {unit}")
    if "fig4d" not in result:
        return
    inproc = result["pass_s"]["inproc"]
    print(f"Figure 4(d) breakdown, in-process executor, wall seconds "
          f"(mean traced pass {inproc:.3f} s):")
    for label, seconds in result["fig4d"]:
        print(f"  {label:<10} {seconds:8.3f} s  "
              f"({seconds / inproc:6.1%} of the pass)")


def _print_shares(tracer, result: dict) -> None:
    """Each wrapped layer's self time as a share of its scope's pass."""
    passes = result.get("pass_s", {})
    n = result.get("traced_reps", 1) or 1
    by_scope: dict[str, list] = {}
    for (scope_name, layer), totals in sorted(tracer.totals.items()):
        by_scope.setdefault(scope_name, []).append((layer, totals))
    for scope_name, rows in by_scope.items():
        pass_s = passes.get(scope_name)
        header = f"scope {scope_name}"
        if pass_s:
            header += f" (mean traced pass {pass_s:.3f} s)"
        print(header + ": layer self seconds per pass, calls, share")
        for layer, totals in rows:
            share = (
                f"{totals.self_s / n / pass_s:6.1%}" if pass_s else "     -"
            )
            print(f"  {layer:<22} {totals.self_s / n:9.4f} s "
                  f"{totals.calls / n:10.0f}  {share}")


def main(argv=None, sizes=None) -> int:
    """Run one workload; *sizes* (a ``suites.Sizes``) defaults to full."""
    args = _parse_args(argv)
    _use_checkout_sources()
    try:
        return _run(args, sizes)
    finally:
        stop_children()


def _run(args, sizes) -> int:
    import hostinfo
    import suites
    from tracing import LayerTracer

    sizes = sizes or suites.FULL

    facts = hostinfo.host_facts()
    probe_start = hostinfo.speed_probe()
    tracer = LayerTracer() if args.trace else None
    if args.workload == "serve_append":
        result = suites.run_serve(args.seed, args.seconds, tracer, sizes)
    else:
        result = suites.run_one_shot(
            args.workload, args.seed, args.seconds, tracer, sizes
        )
    probe_end = hostinfo.speed_probe()
    tally = result["tally"]
    facts.update(probe_start_s=probe_start, probe_end_s=probe_end)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"records={result['records']} repetitions={result['reps']}")
    print("host " + json.dumps(facts, sort_keys=True))

    metrics: dict = {}
    if args.trace:
        layers = result["layers"]
        _print_layers(layers, result)
        _print_shares(tracer, result)
        for name, (unit, *_rest) in spec.PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
    elif not tally.failed:
        values = _end_to_end(result)
        values["peak_rss_mb"] = hostinfo.peak_rss_mb()
        for name, (unit, _definition) in spec.END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name} = {values[name]:.6f} {unit}")
        if args.workload == "serve_append":
            _print_serve_extras(result)
        _print_samples(
            tally, [n for n in spec.END_TO_END if n in tally.samples]
        )
    error_frac = tally.failed / max(1, tally.attempted)
    print(f"  error_frac = {error_frac:.6f} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    correct = tally.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
