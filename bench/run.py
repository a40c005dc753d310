#!/usr/bin/env python3
"""dendrop benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``dendrop`` is imported from ``src/`` of
the same checkout, never from an installed copy, and every file the run
writes stays inside the checkout (``.bench_tmp/`` while it runs,
``.bench_out/`` for traces).  ``BENCHMARK.json`` lists the workloads and
metric names; ``bench/README.md`` says what each metric measures and which
end-to-end metric each per-layer metric should move.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` times the
workload's passes without tracing and reports the end-to-end metrics:
medians over the passes, in reference units (``calibrate.py``); the raw
wall-clock figures are printed on ``#`` lines.
``--trace 1`` alternates untraced and traced passes of the workload (the
difference is the tracing overhead), then runs one traced pass of every
other workload and the kernel probes, and reports the per-layer metrics.
Exit status 2 means the benchmark could not be set up; no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median, quantiles

from calibrate import NOMINAL_S, reference_s
from probes import child_seconds, kernel_probes
from tracing import NullTracer, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5
EDGE_REFS = 4           # reference jobs timed between two passes
IMPORT_TIMER = ("import time; t = time.perf_counter(); import dendrop; "
                "print(time.perf_counter() - t)")


class SetupError(Exception):
    pass


@dataclass
class Env:
    root: Path
    bench: Path
    dp: object
    tmp: Path
    nproc: int
    child_env: dict


def make_env() -> Env:
    bench = Path(__file__).resolve().parent
    root = bench.parent
    src = root / "src"
    if not (src / "dendrop" / "__init__.py").is_file():
        raise SetupError(f"no dendrop package under {src}")
    sys.path.insert(0, str(src))
    import dendrop
    if Path(dendrop.__file__).resolve().parent != (src / "dendrop").resolve():
        raise SetupError(f"imported dendrop from {dendrop.__file__}, not from {src}")
    tmp = root / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    child_env = {k: v for k, v in os.environ.items() if k != "DENDROP_BUDGET"}
    child_env["PYTHONPATH"] = str(src)
    return Env(root, bench, dendrop, tmp, len(os.sched_getaffinity(0)), child_env)


def commit_of(root: Path) -> str:
    """HEAD commit when the checkout is a git work tree, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- timing ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall: float
    cpu: float
    result: object
    pass_id: str | None
    scale: float = 1.0      # NOMINAL_S / mean reference job around the pass


def cpu_now() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def one_pass(wl, tr, pass_id=None) -> Pass:
    tr.begin_pass(pass_id)
    c0, t0 = cpu_now(), time.perf_counter()
    with tr.span("pass"):
        result = wl.run_pass(tr)
    return Pass(time.perf_counter() - t0, cpu_now() - c0, result, pass_id)


def reference_samples() -> list:
    return [reference_s() for _ in range(EDGE_REFS)]


def scale_of(refs: list) -> float:
    """Factor from wall seconds to reference units, from the reference job
    timed just before and just after the measured interval.  The mean, not
    the median: the interval's wall time sums the host's speed over it."""
    return NOMINAL_S / fmean(refs)


def closed_loop(wl, seconds: float, tracers) -> list:
    """Rounds of passes back to back for about ``seconds``, each round one pass
    per tracer, with the reference job timed between passes.  A round starts
    while the deadline has not passed, so a run lasts ``seconds`` plus at
    most one round."""
    runs = [[] for _ in tracers]
    deadline = time.perf_counter() + seconds
    refs = reference_samples()
    while True:
        for k, tr in enumerate(tracers):
            pid = f"{wl.name}:{len(runs[k])}" if tr.traced else None
            p = one_pass(wl, tr, pid)
            after = reference_samples()
            p.scale = scale_of(refs + after)
            refs = after
            runs[k].append(p)
        if time.perf_counter() >= deadline:
            return runs


def set_up(env: Env, wl, seed: int) -> float:
    """Median of SETUP_REPEATS set-ups (import in a fresh interpreter, then
    inputs in this one), plus the one-off warm-up ``prepare_once``, each in
    reference units."""
    samples = []
    refs = reference_samples()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=env.tmp,
                              env=env.child_env, check=True, capture_output=True,
                              timeout=60)
        t0 = time.perf_counter()
        wl.prepare(seed)
        elapsed = float(proc.stdout) + time.perf_counter() - t0
        after = reference_samples()
        samples.append(elapsed * scale_of(refs + after))
        refs = after
    t0 = time.perf_counter()
    wl.prepare_once()
    warm_up = time.perf_counter() - t0
    return median(samples) + warm_up * scale_of(refs + reference_samples())


def p90(values) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[8]


# -- metrics --------------------------------------------------------------------------

def end_to_end(passes: list, setup_s: float) -> dict:
    """Medians over the passes of a run, each pass in reference units
    (``calibrate.py``).  An item percentile is taken within each pass, then
    the median over the passes."""
    return {"setup_s": setup_s,
            "pass_s.p50": median(p.wall * p.scale for p in passes),
            "item_ms.p50": median(median(p.result.item_s) * p.scale for p in passes) * 1e3,
            "item_ms.p90": median(p90(p.result.item_s) * p.scale for p in passes) * 1e3,
            "items_per_s": median(len(p.result.item_s) / (p.wall * p.scale) for p in passes),
            "cpu_s.p50": median(p.cpu * p.scale for p in passes),
            "peak_rss_mb": peak_rss_mb()}


def _matches(key: str, names) -> bool:
    return any(key == n or key.endswith("." + n) for n in names)


def _total(summary: dict, *names) -> float:
    return sum(agg[1] for key, agg in summary.items() if _matches(key, names))


def _mean(summary: dict, *names) -> float:
    calls = sum(agg[0] for key, agg in summary.items() if _matches(key, names))
    return _total(summary, *names) / max(calls, 1)


def layer_metrics(summaries: dict, runs: dict) -> dict:
    """Per-layer metrics from the traced passes of each workload (median over passes)."""
    def stat(workload, fn):
        return median(fn(summaries[p.pass_id], p.result) for p in runs[workload])

    def count(workload, key):
        return runs[workload][0].result.counts.get(key, 0)

    enum_fns = ("enumerate_associative_products", "enumerate_dendriform_di",
                "enumerate_rb_operators")
    d, r, q, c = "fp-dialgebras", "fp-rb-classify", "q-pipeline", "cli-session"
    out = {
        "enumeration.candidates": count(d, "candidates"),
        "enumeration.accepted": count(d, "accepted"),
        "enumeration.us_per_candidate": stat(d, lambda s, res: _total(s, *enum_fns) * 1e6
                                             / max(res.counts.get("candidates", 0), 1)),
        "enumeration.assoc_s": stat(d, lambda s, _: _total(s, enum_fns[0])),
        "enumeration.dd_s": stat(d, lambda s, _: _total(s, enum_fns[1])),
        "enumeration.rb_s": stat(d, lambda s, _: _total(s, enum_fns[2])),
        "enumeration.roundtrip_s": stat(d, lambda s, _: _total(s, "canonical_operator_from_di")),
        "equivalence.search_calls": count(r, "search_calls"),
        "equivalence.gl_tried": count(r, "gl_tried"),
        "equivalence.search_s": stat(r, lambda s, _: _total(s, "search_dendriform_iso_fp")),
        "equivalence.verify_ms": stat(q, lambda s, _: _mean(s, "verify_dendriform_iso") * 1e3),
        "constructions.canonical_ms": stat(q, lambda s, _: _mean(
            s, "canonical_operator_from_di", "canonical_operator_from_tri") * 1e3),
        "constructions.domain_ms": stat(q, lambda s, _: _mean(
            s, "domain_dendriform_di", "domain_dendriform_tri") * 1e3),
        "constructions.range_ms": stat(q, lambda s, _: _mean(
            s, "range_dendriform_di", "range_dendriform_tri") * 1e3),
        "constructions.quotient_ms": stat(q, lambda s, _: _mean(
            s, "range_dendriform_quotient") * 1e3),
        "operators.transport_ms": stat(q, lambda s, _: _mean(s, "operators.transport") * 1e3),
        "documents.emit_us": stat(q, lambda s, _: _mean(s, "emit_document") * 1e6),
        "documents.parse_us": stat(q, lambda s, _: _mean(s, "parse_document") * 1e6),
        "documents.bytes": count(q, "bytes"),
        "cli.child_cpu_s": stat(c, lambda s, res: res.child_cpu_s),
        "cli.wait_s": stat(c, lambda s, res: sum(res.item_s) - res.child_cpu_s),
    }
    commands = sorted({k for p in runs[c] for k in summaries[p.pass_id]
                       if k.startswith("cli.")})
    for key in commands:
        out[f"cli.cmd_s.{key[4:]}"] = stat(c, lambda s, _, k=key: _total(s, k))
    return out


def module_self_times(summaries: dict, passes: list) -> dict:
    """Median self time per module (span name prefix) over ``passes``."""
    per_pass = []
    for p in passes:
        acc = {}
        for name, agg in summaries[p.pass_id].items():
            module = name.partition(".")[0] if "." in name else name
            acc[module] = acc.get(module, 0.0) + agg[2]
        per_pass.append(acc)
    modules = sorted({m for acc in per_pass for m in acc})
    return {m: median(acc.get(m, 0.0) for acc in per_pass) for m in modules}


# -- runs -----------------------------------------------------------------------------

def untraced_run(env, wl, seed, seconds):
    setup_s = set_up(env, wl, seed)
    passes, = closed_loop(wl, seconds, [NullTracer()])
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    failed += _digest_mismatches(wl, passes)
    items = [x for p in passes for x in p.result.item_s]
    walls = [p.wall for p in passes]
    print(f"# passes={len(passes)} items={len(items)} "
          f"error_rate={failed / attempted:.6g} ({failed}/{attempted})")
    print(f"# wall clock, not calibrated: pass_s.p50={median(walls):.6g} "
          f"pass_s.min={min(walls):.6g} item_ms.p50={median(items) * 1e3:.6g} "
          f"item_ms.p90={p90(items) * 1e3:.6g} cpu_s.p50={median(p.cpu for p in passes):.6g} "
          f"reference_s.p50={NOMINAL_S / median(p.scale for p in passes):.6g} "
          f"(nominal {NOMINAL_S})")
    return attempted, failed, end_to_end(passes, setup_s)


def _digest_mismatches(wl, passes) -> int:
    """Every pass emits the same documents, traced or not; 1 if they differ."""
    digests = {p.result.digest for p in passes}
    if len(digests) > 1:
        print(f"[{wl.name}] check failed: passes emitted different documents",
              file=sys.stderr)
        return 1
    return 0


def traced_run(env, wl, seed, seconds, others):
    set_up(env, wl, seed)
    tracer = Tracer()
    untraced, traced = closed_loop(wl, seconds, [NullTracer(), tracer])
    runs = {wl.name: traced}
    for other in others:
        other.prepare(seed)
        other.prepare_once()
        runs[other.name] = [one_pass(other, tracer, f"{other.name}:0")]
    all_passes = untraced + [p for ps in runs.values() for p in ps]
    attempted = sum(p.result.attempted for p in all_passes)
    failed = sum(p.result.failed for p in all_passes)
    # Three run-level checks: documents, work counts and span accounting.
    attempted += 3
    failed += _digest_mismatches(wl, untraced + traced)
    if len({json.dumps(p.result.counts, sort_keys=True) for p in traced}) > 1:
        print(f"[{wl.name}] check failed: work counts differ between passes",
              file=sys.stderr)
        failed += 1

    summaries = tracer.summaries()
    metrics = layer_metrics(summaries, runs)
    metrics.update(kernel_probes(env.dp, seed))
    metrics["cli.startup_s"] = child_seconds(env, "import dendrop.cli")
    base = median(p.wall for p in untraced)
    overhead = median(p.wall for p in traced) - base
    accounted = median(agg[1] - agg[2] for agg in
                       (summaries[p.pass_id]["pass"] for p in traced))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.accounted_share"] = accounted / base
    # The traced spans must account for the untraced pass, within the overhead.
    if abs(accounted - base) > abs(overhead) + 0.1 * base:
        print(f"[{wl.name}] check failed: spans cover {accounted:.4f} s of an untraced "
              f"pass of {base:.4f} s (overhead {overhead:.4f} s)", file=sys.stderr)
        failed += 1

    selfs = module_self_times(summaries, traced)
    print(f"# traced passes={len(traced)} untraced passes={len(untraced)} "
          f"overhead_s={overhead:.6g}")
    print("# self time per module, median traced pass: "
          + " ".join(f"{m}={t:.6g}s" for m, t in selfs.items()))
    out_dir = env.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(path, {"workload": wl.name, "seed": seed, "module_self_s": selfs})
    print(f"# spans written to {path.relative_to(env.root)}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    env = None
    try:
        env = make_env()
        spec = json.loads((env.root / "BENCHMARK.json").read_text())
        workloads = [cls(env) for cls in WORKLOADS.values()]
    except (SetupError, OSError, ImportError, KeyError, ValueError) as e:
        print(f"bench: cannot set up: {e}", file=sys.stderr)
        if env is not None:
            shutil.rmtree(env.tmp, ignore_errors=True)
        return 2
    wl = next(w for w in workloads if w.name == args.workload)
    others = [w for w in workloads if w is not wl]
    try:
        print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} python={platform.python_version()} "
              f"nproc={env.nproc} cli_workers={min(2, env.nproc)} "
              f"commit={commit_of(env.root)}")
        if args.trace:
            attempted, failed, values = traced_run(env, wl, args.seed, args.seconds, others)
        else:
            attempted, failed, values = untraced_run(env, wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(env.tmp, ignore_errors=True)
        try:
            env.tmp.parent.rmdir()
        except OSError:
            pass
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
