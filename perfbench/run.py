"""Repository benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` runs the same work untraced and then
traced, checks that both produce the same output digest, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
are a human-readable report and a ``provenance`` JSON line.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reproduce", "control", "serve")
#: Set-ups per untraced run; ``setup_s`` adds their median to the imports.
SETUPS = 3
#: Every end-to-end metric (name, unit); BENCHMARK.json lists the same.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"),
              ("p50_ms", "ms"))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A terminated run still tears down its server shard on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Tracing off means obs off too; no inherited knob may change the work.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostSpeed, Mark

    # Untraced times are scaled to the reference host; the traced run
    # compares wrappers within one pass and keeps wall time.
    speed = HostSpeed()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if not args.trace:
            speed.start()
        module = importlib.import_module(f"perfbench.{args.workload}")
        importlib.import_module("repro")  # the program, as a user starts it
        from perfbench import common

        imports = (Mark(_T0, 0.0), speed.mark())
        if args.trace:
            out = _traced(module, args, workdir)
        else:
            out = _untraced(module, args, workdir, speed, imports)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
        _stop_resource_tracker()
    result, metrics, extra = out
    prov = common.provenance(ROOT, args.seed, args.workload, module.shape())
    prov.update(extra)
    _report(args, result, metrics)
    print("provenance " + common.dumps(prov))
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process multiprocessing starts for the
    shard supervisor's semaphores, so no process outlives the run."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _setups(module, args, workdir: Path, count: int, speed):
    """``count`` set-ups and their spans.  The last ``module.INPUTS`` set
    up the workload's inputs 0, 1, ... in order and are kept; any earlier
    ones only add samples and are torn down again."""
    inputs = module.INPUTS
    spans, fixtures = [], []
    try:
        for k in range(-count, 0):
            mark = speed.mark()
            fixtures.append(module.setup(args.seed, workdir / f"setup{k}",
                                         k % inputs))
            spans.append(speed.span(mark))
    except BaseException:
        _teardown(module, fixtures)
        raise
    _teardown(module, fixtures[:-inputs])
    return fixtures[-inputs:], spans


def _teardown(module, fixtures) -> None:
    for fixture in fixtures:
        module.teardown(fixture)


def _untraced(module, args, workdir: Path, speed, imports):
    from perfbench.common import peak_rss_mb

    fixtures, spans = _setups(module, args, workdir, SETUPS, speed)
    try:
        result = module.run_pass(fixtures, workdir, args.seconds, args.seed,
                                 "untraced", speed=speed)
    finally:
        speed.stop()
        _teardown(module, fixtures)
    module.finish(result)
    # Scaled only now, so the short import span finds passes near it.
    imports = speed.between(*imports)
    setup_s = imports.scaled_s + statistics.median(s.scaled_s for s in spans)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb() + result.detail.get("shard_rss_mb", 0.0),
        **result.metrics,
    }
    extra = {
        "setup": {"imports": vars(imports),
                  "samples": [vars(s) for s in spans]},
        "named": {name: {"value": value, "unit": unit}
                  for name, (value, unit) in result.named.items()},
        "digest": result.digest,
        "checks": [vars(c) for c in result.checks],
        "detail": _plain(result.detail),
    }
    return result, {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END}, extra


def _traced(module, args, workdir: Path):
    from perfbench import layers
    from perfbench.tracing import LayerTracer

    from perfbench.hostspeed import HostSpeed

    setup_tracer = LayerTracer()
    layers.install_sim_layers(setup_tracer)
    try:
        fixtures, _ = _setups(module, args, workdir, module.INPUTS,
                              HostSpeed())
    finally:
        setup_tracer.uninstall()
    setup_fastcv = setup_tracer.layer_self("fastcv")

    tracer = LayerTracer()
    per_layer = layers.zero_layer_metrics()
    try:
        if args.workload == "serve":
            untraced, traced, serve_metrics = module.traced_pass(
                fixtures, workdir, 0.0, args.seed, tracer)
            per_layer.update(serve_metrics)
        else:
            untraced = module.run_pass(fixtures, workdir, 0.0, args.seed,
                                       "untraced")
            layers.install_sim_layers(tracer)
            try:
                traced = module.run_pass(fixtures, workdir, 0.0, args.seed,
                                         "traced", tracer=tracer)
            finally:
                tracer.uninstall()
            stores = traced.detail.get("stores", [])
            per_layer.update(layers.sim_layer_metrics(
                tracer,
                bytes_written=sum(_tree_bytes(d) for d in
                                  traced.detail.get("store_dirs", [])),
                store_hits=sum(s.hits for s in stores),
                store_misses=sum(s.misses for s in stores)))
            per_layer["trace.overhead"] = traced.wall_s / untraced.wall_s
            per_layer["trace.coverage"] = tracer.outer_time / traced.wall_s
    finally:
        _teardown(module, fixtures)
    per_layer["setup.fastcv_s"] = setup_fastcv
    traced.check("traced digest equals untraced digest",
                 traced.digest == untraced.digest,
                 f"{traced.digest[:12]} vs {untraced.digest[:12]}")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    extra = {
        "digest": traced.digest,
        "untraced_digest": untraced.digest,
        "checks": [vars(c) for c in traced.checks],
        "detail": _plain(traced.detail),
    }
    return traced, {name: {"value": float(per_layer[name]),
                           "unit": units[name]}
                    for name, _, _ in layers.PER_LAYER}, extra


def _tree_bytes(directory) -> float:
    if directory is None or not Path(directory).exists():
        return 0.0
    return float(sum(p.stat().st_size for p in Path(directory).rglob("*")
                     if p.is_file()))


def _plain(detail: dict) -> dict:
    """The JSON-safe part of a pass's detail."""
    keep = {}
    for key, value in detail.items():
        try:
            json.dumps(value)
        except TypeError:
            continue
        keep[key] = value
    return keep


def _report(args, result, metrics: dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    if not args.trace:
        print("  workload metrics:")
        for name, (value, unit) in sorted(result.named.items()):
            print(f"    {name:<26} {value:>14.6g} {unit}")
    for check in result.checks:
        status = "ok  " if check.ok else "FAIL"
        print(f"  check {status} {check.name} {check.detail}".rstrip())
    print(f"  operations attempted={result.attempted} failed={result.failed}")


if __name__ == "__main__":
    sys.exit(main())
