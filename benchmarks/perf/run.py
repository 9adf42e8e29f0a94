"""convsum benchmark: one closed-loop workload per run.

    python3 benchmarks/perf/run.py --workload gate-train --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics. With --trace 1 it
measures for half the time untraced and half traced, then replays single
layers, and reports the per-layer metrics, the tracing overhead and the share
of wall time each module's spans cover. Time outside any span, and the self
time of spans that only frame an operation, count as unattributed. Every run
checks the program's outputs; the last line of standard output is the JSON
result, and a failed check makes the exit code 1. Results, spans and scratch files go under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # pinned before numpy loads; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import MODULES, Patches, SpanSummary, Tracer, install  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SETUP_REPS = 5  # at least; more until SETUP_SECONDS have passed, up to SETUP_MAX_REPS
SETUP_SECONDS = 3.0
SETUP_MAX_REPS = 25

# End-to-end metrics and their units; display_names() gives each workload's names for them.
E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "op_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The ones an untraced run's JSON result carries, each with a bound in BENCHMARK.json.
# On a shared machine whose speed alternates between two levels for seconds at a
# time, the median and the throughput follow the share of a run spent at the
# slower level, and the gate-train p90 falls among its GC pauses; the p75 moved
# least from run to run (see README.md). The others are printed and reported.
GATED = ("setup_s", "op_ms_p75", "peak_rss_mb")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    from replay import metric_names

    units = {
        "autodiff.backward_ms_per_step": "ms",
        "autodiff.tape_nodes_per_step": "count",
        "attention.conv.calls_per_step": "count",
        "attention.full.calls_per_step": "count",
        "attention.conv.weights_bytes": "bytes",
        "attention.conv.window_fill": "ratio",
        "model.encode_ms": "ms",
        "model.sequence_loss_ms": "ms",
        "model.pointer_generator_ms": "ms",
        "model.decode_step_ms": "ms",
        "model.decode_step_calls_per_doc": "count",
        "model.decoder_positions_per_doc": "count",
        "model.decoder_position_reuse": "ratio",
        "decoding.beam_search_ms_per_doc": "ms",
        "decoding.self_ms_per_doc": "ms",
        "decoding.candidates_per_doc": "count",
        "decoding.candidate_keep_ratio": "ratio",
        "optim.adam_ms_per_step": "ms",
        "trainer.loop_self_ms_per_step": "ms",
        "checkpoint.save_ms": "ms",
        "checkpoint.save_bytes": "bytes",
        "rouge.rouge_l_ms_per_pair": "ms",
        "rouge.rouge_n_ms_per_pair": "ms",
        "kernels.lcs_length_ms": "ms",
        "kernels.lcs_cells_per_pair": "count",
        "kernels.scatter_add_rows_ms_per_step": "ms",
        "kernels.scatter_add_cols_ms_per_step": "ms",
        "windowing.encode_long_ms_per_doc": "ms",
        "windowing.windows_per_doc": "count",
        "windowing.embedded_positions_ratio": "ratio",
        "providers.context_embed_ms_per_call": "ms",
        "runtime.gc_ms_per_step": "ms",
        "runtime.gc_gen2_collections": "count",
        "runtime.cyclic_garbage_per_step": "count",
        "runtime.op_ms_p90_without_gc": "ms",
        "setup.build_vocab_s": "s",
        "setup.encode_pairs_s": "s",
        "setup.build_model_s": "s",
        "trace.span_coverage": "ratio",
        "share.attention.conv": "ratio",
        "share.attention.full": "ratio",
        "share.decode_path": "ratio",
        "share.unattributed": "ratio",
    }
    units.update({f"share.{m}": "ratio" for m in MODULES})
    units.update({f"overhead.{k}": u for k, u in E2E_UNITS.items()})
    units.update({name: "ms" for name in metric_names()})
    return units


def display_names(workload) -> dict[str, str]:
    op, work = workload.op_name, workload.work_name
    return {
        "setup_s": "setup_s",
        "op_ms_p50": f"{op}_p50",
        "op_ms_p75": f"{op}_p75",
        "op_ms_p90": f"{op}_p90",
        "throughput_per_s": f"{work}_per_s",
        "peak_rss_mb": "peak_rss_mb",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def environment(args) -> dict:
    from convsum import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "numba_active": bool(kernels.USE_NUMBA),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(phase, setup_s: float) -> dict[str, float]:
    ms = 1e3 * np.asarray(phase.samples)
    return {
        "setup_s": setup_s,
        "op_ms_p50": float(np.percentile(ms, 50)) if ms.size else 0.0,
        "op_ms_p75": float(np.percentile(ms, 75)) if ms.size else 0.0,
        "op_ms_p90": float(np.percentile(ms, 90)) if ms.size else 0.0,
        "throughput_per_s": phase.work / phase.wall_s if phase.wall_s > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def set_up(workload) -> tuple[float, dict[str, float]]:
    """Median of repeated full set-ups (inputs, vocab, pairs, model, one warm-up op)."""
    totals, stages = [], {}
    start = time.perf_counter()
    while len(totals) < SETUP_REPS or (
        time.perf_counter() - start < SETUP_SECONDS and len(totals) < SETUP_MAX_REPS
    ):
        gc.collect()
        t0 = time.perf_counter()
        parts = workload.setup()
        workload.warm_up()
        totals.append(time.perf_counter() - t0)
        for k, v in parts.items():
            stages.setdefault(k, []).append(v)
    return statistics.median(totals), {k: statistics.median(v) for k, v in stages.items()}


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def traced_metrics(workload, tracer, phase, plain, traced, stages, setup_traced) -> dict:
    """Per-layer metrics from the traced phase's spans and boundary values."""
    from replay import kernel_points, layer_points

    S, v = SpanSummary(tracer.spans), tracer.values
    n_ops = max(len(phase.samples), 1)
    docs = n_ops if workload.kind == "decode" else 0
    per_doc = (lambda x: x / docs) if docs else (lambda x: 0.0)
    m = {
        "autodiff.backward_ms_per_step": 1e3 * S.total["autodiff.backward"] / n_ops,
        "autodiff.tape_nodes_per_step": _mean(v["tape_nodes"]),
        "attention.conv.calls_per_step": S.count["attention.conv"] / n_ops,
        "attention.full.calls_per_step": S.count["attention.full"] / n_ops,
        "attention.conv.weights_bytes": _mean(v["conv.weights_bytes"]),
        "attention.conv.window_fill": _mean(v["conv.window_fill"]),
        "model.encode_ms": S.mean_ms("model.encode"),
        "model.sequence_loss_ms": S.mean_ms("model.sequence_loss"),
        "model.pointer_generator_ms": S.mean_ms("model.pointer_generator"),
        "model.decode_step_ms": S.mean_ms("model.decode_step"),
        "model.decode_step_calls_per_doc": per_doc(S.count["model.decode_step"]),
        "model.decoder_positions_per_doc": per_doc(sum(v["decode.prefix"])),
        "model.decoder_position_reuse": (
            len(v["decode.prefix"]) / sum(v["decode.prefix"]) if v["decode.prefix"] else 0.0
        ),
        "decoding.beam_search_ms_per_doc": per_doc(1e3 * S.total["decoding.beam_search"]),
        "decoding.self_ms_per_doc": per_doc(1e3 * S.self_time["decoding.beam_search"]),
        "decoding.candidates_per_doc": per_doc(sum(v["decode.cands"])),
        "optim.adam_ms_per_step": 1e3 * S.total["optim.adam"] / n_ops,
        "trainer.loop_self_ms_per_step": (
            1e3 * S.self_time["trainer.train"] / n_ops if workload.kind == "train" else 0.0
        ),
        "checkpoint.save_ms": S.mean_ms("checkpoint.save"),
        "checkpoint.save_bytes": _mean(v["checkpoint.bytes"]),
        "kernels.lcs_length_ms": S.mean_ms("kernels.lcs_length"),
        "kernels.lcs_cells_per_pair": _mean(v["lcs.cells"]),
        "kernels.scatter_add_rows_ms_per_step": (
            1e3 * S.total["kernels.scatter_add_rows"] / n_ops
        ),
        "kernels.scatter_add_cols_ms_per_step": (
            1e3 * S.total["kernels.scatter_add_cols"] / n_ops
        ),
        "providers.context_embed_ms_per_call": S.mean_ms("providers.context_embed"),
        "runtime.gc_ms_per_step": 1e3 * S.total["runtime.gc"] / n_ops,
        "runtime.gc_gen2_collections": tracer.gen2_collections,
        "runtime.cyclic_garbage_per_step": tracer.gc_collected / n_ops,
        "trace.span_coverage": S.covered / phase.wall_s,
        "share.unattributed": S.unattributed / phase.wall_s,
    }

    # beam search keeps at most beam_size candidates per step
    kept: dict[tuple, float] = {}
    for g, p, c in zip(v["decode.group"], v["decode.prefix"], v["decode.cands"]):
        kept[(g, p)] = kept.get((g, p), 0.0) + c
    beam = workload.dec_cfg.beam_size if workload.dec_cfg else 0
    cands = sum(v["decode.cands"])
    m["decoding.candidate_keep_ratio"] = (
        sum(min(beam, c) for c in kept.values()) / cands if cands else 0.0
    )

    pairs = S.count["rouge.rouge_all"]
    m["rouge.rouge_l_ms_per_pair"] = 1e3 * S.total["rouge.rouge_l"] / pairs if pairs else 0.0
    m["rouge.rouge_n_ms_per_pair"] = 1e3 * S.total["rouge.rouge_n"] / pairs if pairs else 0.0

    sources = sum(v["windowing.source"])
    m["windowing.encode_long_ms_per_doc"] = S.mean_ms("windowing.encode_long")
    m["windowing.windows_per_doc"] = (
        S.count["providers.context_embed"] / S.count["windowing.encode_long"]
        if S.count["windowing.encode_long"] else 0.0
    )
    m["windowing.embedded_positions_ratio"] = (
        sum(v["windowing.embedded"]) / sources if sources else 0.0
    )

    # GC time inside each operation, from the gc spans that fall in its interval
    gc_spans = np.array([s[1:3] for s in tracer.spans if s[0] == "runtime.gc"]).reshape(-1, 2)
    gc_start, gc_end = gc_spans[:, 0], gc_spans[:, 1]
    without_gc = []
    for t0, t1 in phase.intervals:
        inside = (gc_start >= t0) & (gc_end <= t1)
        without_gc.append(1e3 * (t1 - t0 - float(np.sum(gc_end[inside] - gc_start[inside]))))
    m["runtime.op_ms_p90_without_gc"] = float(np.percentile(without_gc, 90)) if without_gc else 0.0

    for k, val in stages.items():
        m[f"setup.{k}"] = val
    for mod in MODULES:
        m[f"share.{mod}"] = S.module_self(mod) / phase.wall_s
    for kind in ("conv", "full"):
        own = S.self_time[f"attention.{kind}"] + S.self_time[f"attention.{kind}.bwd"]
        m[f"share.attention.{kind}"] = own / phase.wall_s
    m["share.decode_path"] = (
        S.self_time["decoding.beam_search"] + S.total["model.decode_step"]
    ) / phase.wall_s
    for k in E2E_UNITS:
        m[f"overhead.{k}"] = traced[k] - plain[k]
    m["overhead.setup_s"] = setup_traced - plain["setup_s"]

    def median_len(key):
        return int(round(statistics.median(v[key]))) if v[key] else None

    if workload.model is not None:
        rows = median_len("shape.layer_norm")
        shapes = {
            "autodiff.layer_norm": (rows,) if rows else None,
            "model.ffn": (rows,) if rows else None,
            "autodiff.loss": (median_len("shape.loss"),) if v["shape.loss"] else None,
            "attention.conv": (median_len("shape.conv"),) if v["shape.conv"] else None,
            "attention.full": (
                (median_len("shape.full_q"), median_len("shape.full_k"))
                if v["shape.full_q"] else None
            ),
        }
        m.update(layer_points(workload.model, shapes, workload.seed))
    m.update(kernel_points(workload.seed))
    units = per_layer_units()
    for name in units:
        m.setdefault(name, 0.0)
    return {name: float(m[name]) for name in units}


def isolation(m: dict) -> dict:
    """The shares of traced wall time that say which layer a workload isolates."""
    return {
        "largest_module": max(MODULES, key=lambda k: m[f"share.{k}"]),
        "attention": m["share.attention"],
        "attention.conv": m["share.attention.conv"],
        "rouge+kernels": m["share.rouge"] + m["share.kernels"],
        "decoding+model.decode_step": m["share.decode_path"],
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "convsum" / "__init__.py").is_file():
        print(f"error: no convsum sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "benchmarks"))  # bench_kernels, for the kernel inputs
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s, stages = set_up(workload)
        if args.trace:
            plain_phase = workload.phase(args.seconds / 2, None)
            e2e = end_to_end(plain_phase, setup_s)
            tracer = Tracer()
            phase = workload.phase(args.seconds / 2, tracer)
            traced = end_to_end(phase, setup_s)
            phases = [plain_phase, phase]
        else:
            phase = workload.phase(args.seconds, None)
            e2e = end_to_end(phase, setup_s)
            phases = [phase]
        failed_checks = workload.final_checks()
        notes = workload.notes()
        if args.trace:
            metrics = traced_metrics(workload, tracer, phase, e2e, traced, stages,
                                     set_up_traced(workload))
            tracer.write(str(out_dir / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"))
            units = per_layer_units()
        else:
            metrics, units = {k: e2e[k] for k in GATED}, E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(failed_checks)
    correct = failed == 0 and attempted > 0
    names = display_names(workload)
    n = len(phases[0].samples)
    report = {
        "environment": environment(args),
        "samples": n,
        "failed_checks": failed_checks,
        "failed_share": failed / max(attempted, 1),
        "notes": notes,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "end_to_end_by_name": {names[k]: v for k, v in e2e.items()},
    }
    if args.trace:
        report["isolation"] = isolation(metrics)
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )

    print(f"# environment {json.dumps(report['environment'])}")
    for k, v in e2e.items():
        print(f"{names[k]:28s} {v:14.4f} {E2E_UNITS[k]:5s} ({k}; {n} samples)")
    print(f"{'failed_share':28s} {report['failed_share']:14.4f} share ({failed} of {attempted})")
    for msg in failed_checks:
        print(f"# failed check: {msg}")
    for k, v in notes.items():
        print(f"# {k} {v}")
    if args.trace:
        for k, v in metrics.items():
            print(f"{k:44s} {v:14.4f} {units[k]}")
        print(f"# isolation {json.dumps(report['isolation'])}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def set_up_traced(workload) -> float:
    """One set-up with the span wrappers installed, for the set-up overhead."""
    patches = Patches()
    min_length = workload.dec_cfg.min_length if workload.dec_cfg else None
    install(Tracer(), patches, min_length, backward=workload.kind == "train")
    try:
        t0 = time.perf_counter()
        workload.setup()
        workload.warm_up()
        return time.perf_counter() - t0
    finally:
        patches.restore()


if __name__ == "__main__":
    sys.exit(main())
