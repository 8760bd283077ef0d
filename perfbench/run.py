"""Benchmark command for clustermark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ./src.  One
process, one caller, threads=1: after set-up the workload's timed part (a
"round") runs back to back with cleared PRF caches until ``--seconds`` have
passed (at least three rounds), and every round does identical work.  The
last stdout line is the result JSON; everything else goes to stderr.

``--trace 0`` reports the end-to-end metrics:
  setup_s      process start to the first timed round (imports,
               fit_environment, inputs);
  run_s        wall time of the fastest round: the work is identical in
               every round and the shared machine only ever slows a round
               down, so the fastest is the one least disturbed;
  peak_rss_mb  peak resident memory of the process.
``--trace 1`` wraps the package's functions (see spans.py) and reports the
per-layer metrics instead: per-round counts, per-round self times as
medians over rounds, and ``trace.run_s``, the fastest traced round; minus
the untraced ``run_s`` it is the tracing overhead.  ``--size smoke`` shrinks
every input for a quick self-test.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS/OpenMP pools must be pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# (name, unit); counts are per round, self times per-round medians
PER_LAYER = [
    ("trace.run_s", "s"),
    ("setup.kmeans_fit.self_s", "s"),
    ("simenv.next_dist.calls", "count"),
    ("simenv.next_dist.self_s", "s"),
    ("simenv.apply_channel.self_s", "s"),
    ("simenv.attacks.self_s", "s"),
    ("core.prf_r.calls", "count"),
    ("core.prf_r.self_s", "s"),
    ("core.prf_r_cache.hits", "count"),
    ("core.prf_r_cache.misses", "count"),
    ("core.prf_permutation.self_s", "s"),
    ("core.perm_cache.hits", "count"),
    ("core.perm_cache.misses", "count"),
    ("core.code_fingerprint.calls", "count"),
    ("clustering.kmeans_fit.calls", "count"),
    ("clustering.kmeans_fit.self_s", "s"),
    ("reweight.build_segment_table.calls", "count"),
    ("reweight.build_segment_table.self_s", "s"),
    ("reweight.aligned_sample.self_s", "s"),
    ("reweight.baselines.self_s", "s"),
    ("generate.generate.calls", "count"),
    ("generate.generate.self_s", "s"),
    ("generate.steps", "count"),
    ("generate.watermarked_steps", "count"),
    *((f"detect.{d}.{m}", u) for d in ("aligned", "kgw", "dipmark", "unigram", "its")
      for m, u in (("calls", "count"), ("self_s", "s"))),
    ("detect.its_null.self_s", "s"),
    ("detect.steps_scored", "count"),
    ("experiments.sweep.self_s", "s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("detectability", "robustness", "ablate_h", "scan_codec"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _clear_caches():
    from clustermark import core
    clear = getattr(core, "clear_prf_caches", None)
    if clear is not None:
        clear()


def measure(args) -> dict:
    import clustermark

    if Path(clustermark.__file__).resolve().parent != ROOT / "src" / "clustermark":
        raise SystemExit(f"imported clustermark from {clustermark.__file__}, not ./src")
    import workloads

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    wl = workloads.build(args.workload, args.seed, args.size == "smoke")
    setup_s = time.perf_counter() - _T0

    times, per_round, errors = [], [], []
    first = reference = None
    setup_spans = len(tracer.start) if tracer else 0
    timed = wl.round if tracer is None else tracer.wrap("bench.round", wl.round)
    deadline = time.perf_counter() + args.seconds
    while len(times) < MIN_ROUNDS or time.perf_counter() < deadline:
        _clear_caches()
        gc.collect()
        lo = len(tracer.start) if tracer else 0
        before = dict(tracer.counts) if tracer else {}
        t = time.perf_counter()
        out = timed()
        times.append(time.perf_counter() - t)
        if tracer is not None:
            counts = tracer.layer_totals(lo, len(tracer.start))
            counts.update({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
            counts.update(tracer.cache_stats())
            errors += wl.trace_checks(counts)
            per_round.append(counts)
        if first is None:
            first, reference = out, wl.fingerprint(out)
            errors += wl.check(out)
        elif wl.fingerprint(out) != reference:
            errors.append(f"round {len(times)} output differs from round 1")
    attempted = wl.ops * len(times)
    print(f"{len(times)} rounds, seconds: {' '.join(f'{t:.4f}' for t in times)}",
          file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    table_path = OUT / f"{args.workload}_table.csv"
    wl.write(first, table_path)
    print(f"result table: {table_path}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "run_s": min(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = _layer_metrics(tracer, setup_spans, per_round, times, errors)
        units = dict(PER_LAYER)
        span_path = OUT / f"spans_{args.workload}.npz"
        tracer.dump(span_path)
        print(f"spans: {span_path}; absent layers: {tracer.missing or 'none'}",
              file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_metrics(tracer, setup_spans, per_round, times, errors) -> dict:
    setup = tracer.layer_totals(0, setup_spans)
    metrics = {"trace.run_s": min(times),
               "setup.kmeans_fit.self_s": setup.get("clustering.kmeans_fit.self_s", 0.0)}
    for name, unit in PER_LAYER:
        if name in metrics:
            continue
        values = [r[name] for r in per_round if name in r]
        if len(values) < len(per_round):
            continue  # the layer's function does not exist: reported absent
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                errors.append(f"{name} differs between rounds: {values}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "clustermark" / "__init__.py").is_file():
        print(f"no clustermark sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    stdout = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        result = measure(args)
    print(json.dumps(result), file=stdout, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
