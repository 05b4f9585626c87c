"""One benchmark run of one workload, in a fresh process (started by run.py).

Untraced (--trace 0): set up the input files several times, run the five
CLI stages in process through ``scopetrack.cli.run`` as often as the run
length allows, drive ``tracker.step`` frame by frame, check the outputs and
print the end-to-end metrics.

Traced (--trace 1): set up once under the tracer, then run up to three
rounds of the stages, once untraced and once traced each, as the run
length allows; check the outputs (including the brute-force oracle on
solver inputs the trace captured) and print the per-layer metrics as
medians over the rounds. Spans go to
.perfbench/spans/<workload>-seed<seed>.jsonl.

The last stdout line is the result object; the line before it holds the
details (versions, load, sample counts, workload properties).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scopetrack
from scopetrack import assignment, cli, losses, metrics, report, synth, tracker
from scopetrack import io as st_io

import workloads
from tracing import CALLERS, ORACLE_SAMPLE, Tracer

SETUP_REPS = 5
TRACE_ROUNDS = 3  # at most; rounds stop once --seconds is used up
STEP_SAMPLES = 1000  # enough for ten samples beyond the 99th percentile
DEFAULT_SEED = 0  # output digests are recorded for this seed
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
TRACKING_METRICS = ("DetA", "AssA", "HOTA", "MOTA", "IDF1")

# (stage, argv given the work directory's file paths)
STAGES = (
    ("track", lambda p: ["track", "--in", p["pred"], "--out", p["tracks"]]),
    ("eval_track", lambda p: ["eval-track", "--pred", p["tracks"], "--gt", p["gt"]]),
    ("eval_det", lambda p: ["eval-det", "--pred", p["pred"], "--gt", p["gt"]]),
    ("report", lambda p: ["report", "--tracks", p["tracks"], "--stream", p["pred"],
                          "--format", "text"]),
    ("loss_check", lambda p: ["loss-check", "--pred", p["pred"], "--gt", p["gt"]]),
)


@dataclass
class Run:
    """One workload at one seed: its settings, files and in-memory inputs."""

    workload: workloads.Workload
    seed: int
    frames: int
    paths: dict[str, str]
    record_digests: bool = False
    gt: object = None
    pred: object = None
    dets_per_frame: float = 0.0
    digests: dict = field(default_factory=dict)

    @property
    def digest_key(self) -> str:
        return f"{self.workload.name}/{self.frames}"


class Ops:
    """Operations attempted and failed: CLI calls plus output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def run_stage(argv: list[str]) -> tuple[int | None, bytes, float]:
    """Call cli.run in process; return (exit code, exact stdout bytes, seconds).

    stdout is a text stream over a bytes buffer, so both print() and the
    report's sys.stdout.buffer writes land in the digest as a user gets them.
    """
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    saved = sys.stdout
    sys.stdout = out
    rc = None
    t0 = time.perf_counter()
    try:
        rc = cli.run(argv)
    except Exception:  # a crashing stage is a failed operation, not a crash
        traceback.print_exc()
    finally:
        seconds = time.perf_counter() - t0
        out.flush()
        sys.stdout = saved
        out.detach()
    return rc, buf.getvalue(), seconds


def run_pipeline(paths: dict, ops: Ops, tracer=None) -> dict:
    """All five stages once; returns {stage: (stdout bytes, seconds)}.

    With a tracer, each stage is a ``cli.<stage>`` span, the parent of the
    spans recorded inside it.
    """
    result = {}
    for stage, argv in STAGES:
        gc.collect()
        span = tracer.begin(f"cli.{stage}") if tracer else None
        rc, data, seconds = run_stage(argv(paths))
        if tracer:
            tracer.end(span)
        ops.check(rc == 0, f"{stage} exited with {rc}")
        result[stage] = (data, seconds)
    return result


def step_pass(stream):
    """Fold tracker.step over the stream once, timing each call.

    Returns (per-frame latencies in ns, per-frame outputs, final state).
    """
    state = tracker.TrackState()
    outs, samples = [], []
    for frame in stream.frames:
        t0 = time.perf_counter_ns()
        state, fa = tracker.step(state, frame)
        samples.append(time.perf_counter_ns() - t0)
        outs.append(fa)
    return samples, outs, state


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def digests(outputs: dict, tracks_path: str) -> dict:
    out = {name: hashlib.sha256(data).hexdigest() for name, (data, _) in outputs.items()
           if name != "track"}
    with open(tracks_path, "rb") as f:
        out["tracks_file"] = hashlib.sha256(f.read()).hexdigest()
    return out


def check_outputs(run: Run, ops: Ops, outputs: dict, step_outs, step_state) -> None:
    """Output checks shared by traced and untraced runs; sets run.digests."""
    paths = run.paths
    ops.check(st_io.read_stream(paths["pred"]) == run.pred,
              "read_stream(write_stream(x)) != x")
    ops.check(st_io.read_ground_truth(paths["gt"]) == run.gt,
              "read_ground_truth(write_ground_truth(x)) != x")
    tracking = tracker.track_video(run.pred)
    from_file, _ = st_io.read_tracking(paths["tracks"])
    ops.check((from_file.frames, from_file.tracks, from_file.config)
              == (tracking.frames, tracking.tracks, tracking.config),
              "read_tracking differs from the in-memory TrackingOutput")
    ops.check(tuple(step_outs) == tracking.frames
              and step_state.next_id == len(tracking.tracks),
              "step fold differs from track_video")

    track_eval = json.loads(outputs["eval_track"][0])["metrics"]
    ops.check(all(track_eval[k] < 100.0 for k in TRACKING_METRICS),
              f"a tracking metric reached 100: {track_eval}")
    if run.workload.with_masks:
        dice = json.loads(outputs["eval_det"][0])["metrics"]["Dice"]
        ops.check(dice < 100.0, f"Dice reached 100 on a masked workload: {dice}")

    run.digests = digests(outputs, paths["tracks"])
    if run.seed == DEFAULT_SEED and not run.record_digests:
        want = _load_digests().get(run.digest_key)
        if ops.check(want is not None, f"no digests recorded for {run.digest_key}"):
            for name, digest in sorted(run.digests.items()):
                ops.check(want.get(name) == digest,
                          f"{name} bytes differ from the recorded digest")


def _load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def _record_digests(key: str, got: dict) -> None:
    table = _load_digests()
    table[key] = got
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def setup(run: Run) -> float:
    """Generate ground truth and noisy predictions and write both files."""
    run.gt = run.pred = None
    gc.collect()
    t0 = time.perf_counter()
    gt, pred = workloads.generate(run.workload, run.seed, run.frames)
    st_io.write_ground_truth(gt, run.paths["gt"])
    st_io.write_stream(pred, run.paths["pred"])
    seconds = time.perf_counter() - t0
    run.gt, run.pred = gt, pred
    tau = tracker.TrackerConfig().empty_threshold
    run.dets_per_frame = sum(
        not s.is_empty(tau) for f in pred.frames for s in f.slots) / len(pred.frames)
    return seconds


def freeze_inputs() -> None:
    """Keep the benchmark's own in-memory inputs out of the stages' collections.

    A user's CLI process holds only its stage's data; without this every
    full collection during a stage would also walk the retained streams.
    """
    gc.collect()
    gc.freeze()


def untraced(run: Run, seconds: float, ops: Ops, detail: dict) -> dict:
    """Medians over repeated pipelines; a step pass follows each repetition."""
    setups = [setup(run) for _ in range(SETUP_REPS)]
    freeze_inputs()
    times = defaultdict(list)
    pipeline: list[float] = []
    samples: list[int] = []
    outputs = step_first = None
    measured = 0.0
    while measured < seconds or outputs is None:
        rep = run_pipeline(run.paths, ops)
        if outputs is not None:
            ops.check(all(rep[s][0] == outputs[s][0] for s in rep),
                      "stage output changed between repetitions")
        outputs = rep
        for stage, (_, s) in rep.items():
            times[stage].append(s)
        pipeline.append(sum(s for _, s in rep.values()))
        measured += pipeline[-1]
        gc.collect()
        this_pass, outs, state = step_pass(run.pred)
        samples += this_pass
        step_first = step_first or (outs, state)
    while len(samples) < STEP_SAMPLES:
        samples += step_pass(run.pred)[0]

    check_outputs(run, ops, outputs, *step_first)
    import_s = statistics.median(import_seconds() for _ in range(SETUP_REPS))
    values = {"setup_s": import_s + statistics.median(setups)}
    detail["setup"] = {"import_s": import_s, "generate_and_write_s": statistics.median(setups)}
    values["pipeline_s"] = statistics.median(pipeline)
    detail["stage_s"] = {stage: statistics.median(v) for stage, v in times.items()}
    values["step_p50_ms"] = statistics.median(samples) / 1e6
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail["samples"] = {"setup_s": len(setups), "pipeline": len(pipeline),
                         "step": len(samples)}
    return values


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each module at the attribute callers use."""
    c = tracer.counters

    def bytes_read(args, result):
        c["io.bytes_read"] += os.path.getsize(args[0])

    def bytes_written(args, result):
        c["io.bytes_written"] += os.path.getsize(args[-1])

    def born(args, result):
        c["tracker.tracks_born"] += len(result.tracks)

    def mask_pairs(args, result):
        _, gt, match, _ = args
        c["losses.mask_pairs"] += sum(gt.objects[g].mask is not None for g, _ in match.pairs)

    for attr in ("read_stream", "read_ground_truth", "read_tracking"):
        tracer.wrap(st_io, attr, f"io.{attr}", bytes_read)
    for attr in ("write_stream", "write_ground_truth", "write_tracking"):
        tracer.wrap(st_io, attr, f"io.{attr}", bytes_written)
    tracer.wrap(synth, "generate", "synth.generate")
    tracer.wrap(tracker, "validate_stream", "model.validate_stream")
    tracer.wrap(tracker, "track_video", "tracker.track_video", born)
    tracer.wrap_solve(assignment)
    tracer.wrap(metrics, "evaluate_tracking", "metrics.evaluate_tracking")
    for attr in ("eval_hota", "eval_mota", "eval_idf1", "eval_segmentation",
                 "eval_classification_f1"):
        tracer.wrap(metrics, attr, f"metrics.{attr}")
    tracer.count(metrics, "similarity", "metrics.sim_pairs")
    tracer.wrap(losses, "total_loss", "losses.total_loss")
    tracer.wrap(losses, "detr_match", "losses.detr_match")
    tracer.wrap(losses, "conditional_mask_loss", "losses.conditional_mask_loss", mask_pairs)
    tracer.wrap(report, "generate_report", "report.generate_report")
    tracer.wrap(report, "render_report", "report.render_report")


def check_oracle(run: Run, tracer: Tracer, ops: Ops) -> int:
    """brute_force_solve agrees with solve on a sample of captured inputs."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([run.seed, 3])))
    checked = 0
    for caller in CALLERS:
        pool = tracer.oracle_inputs[caller]
        picks = rng.choice(len(pool), size=min(ORACLE_SAMPLE, len(pool)), replace=False)
        for i in sorted(int(i) for i in picks):
            m = pool[i]
            got, want = assignment.solve(m), assignment.brute_force_solve(m)
            ops.check((got.pairs, got.total_cost) == (want.pairs, want.total_cost),
                      f"solve disagrees with brute force on a {caller} input")
            checked += 1
    return checked


def traced(run: Run, seconds: float, ops: Ops, detail: dict) -> dict:
    """Per-layer metrics: medians over rounds of an untraced and a traced pipeline."""
    setup_tracer = Tracer()
    install(setup_tracer)
    setup(run)
    setup_tracer.uninstall()
    freeze_inputs()

    rounds = []
    measured = 0.0
    while not rounds or (measured < seconds and len(rounds) < TRACE_ROUNDS):
        plain = run_pipeline(run.paths, ops)
        tracer = Tracer()
        install(tracer)
        outputs = run_pipeline(run.paths, ops, tracer)
        tracer.uninstall()
        ops.check(all(plain[s][0] == outputs[s][0] for s in plain),
                  "traced and untraced stage outputs differ")
        combined = Tracer()
        combined.absorb(setup_tracer)
        combined.absorb(tracer)
        rounds.append(layer_metrics(combined, plain, outputs))
        measured += sum(s for _, s in plain.values()) + sum(s for _, s in outputs.values())

    gc.collect()
    first_pass, step_outs, step_state = step_pass(run.pred)
    samples = list(first_pass)
    while len(samples) < STEP_SAMPLES:
        samples += step_pass(run.pred)[0]
    check_outputs(run, ops, outputs, step_outs, step_state)
    detail["oracle_inputs_checked"] = check_oracle(run, combined, ops)

    m = {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
    tenth = max(1, len(first_pass) // 10)
    m["tracker.step_growth"] = (statistics.median(first_pass[-tenth:])
                                / statistics.median(first_pass[:tenth]))
    m["tracker.step_p99_ms"] = percentile(samples, 0.99) / 1e6
    m["workload.dets_per_frame"] = run.dets_per_frame

    spans_path = os.path.join(".perfbench", "spans",
                              f"{run.workload.name}-seed{run.seed}.jsonl")
    combined.write_spans(spans_path)
    detail["spans"] = {"path": spans_path, "count": len(combined.spans)}
    detail["samples"] = {"trace_rounds": len(rounds), "step": len(samples)}
    return m


def layer_metrics(tracer: Tracer, plain: dict, traced: dict) -> dict:
    """Per-layer values of one round: a traced set-up plus traced stages.

    ``plain`` and ``traced`` are the round's untraced and traced stage results.
    """
    total = tracer.total_times()
    self_s = tracer.self_times()
    c = tracer.counters
    m = {}
    for name in ("io.read_stream", "io.read_ground_truth", "io.read_tracking",
                 "io.write_stream", "io.write_ground_truth", "io.write_tracking",
                 "synth.generate", "model.validate_stream", "tracker.track_video",
                 "metrics.eval_hota", "metrics.eval_mota", "metrics.eval_idf1",
                 "metrics.eval_segmentation", "metrics.eval_classification_f1",
                 "losses.total_loss", "losses.detr_match", "losses.conditional_mask_loss",
                 "report.generate_report", "report.render_report"):
        m[f"{name}_s"] = total.get(name, 0.0)
    read_s = sum(total.get(f"io.{a}", 0.0)
                 for a in ("read_stream", "read_ground_truth", "read_tracking"))
    m["io.bytes_read"] = c["io.bytes_read"]
    m["io.bytes_written"] = c["io.bytes_written"]
    m["io.read_mb_per_s"] = c["io.bytes_read"] / 1e6 / read_s if read_s else 0.0
    m["tracker.tracks_born"] = c["tracker.tracks_born"]
    for caller in CALLERS:
        calls = c[f"assignment.solve_calls.{caller}"]
        m[f"assignment.solve_calls.{caller}"] = calls
        m[f"assignment.solve_s.{caller}"] = c[f"assignment.solve_ns.{caller}"] / 1e9
        m[f"assignment.solve_cells.{caller}"] = c[f"assignment.solve_cells.{caller}"]
        m[f"assignment.tied_share.{caller}"] = (
            c[f"assignment.tied.{caller}"] / calls if calls else 0.0)
        m[f"assignment.distinct_input_ratio.{caller}"] = (
            len(tracer.solve_inputs[caller]) / calls if calls else 0.0)
    m["metrics.sim_pairs"] = c["metrics.sim_pairs"]
    m["losses.mask_pairs"] = c["losses.mask_pairs"]
    for stage, _ in STAGES:
        m[f"cli.{stage}_s"] = plain[stage][1]
        m[f"cli.{stage}.self_s"] = self_s.get(f"cli.{stage}", 0.0)
    modules = defaultdict(float)
    for name, s in self_s.items():
        modules[name.split(".", 1)[0]] += s
    for module in ("io", "model", "tracker", "assignment", "metrics", "losses",
                   "report", "synth", "cli"):
        m[f"{module}.self_s"] = modules[module]
    m["trace_overhead_ratio"] = (sum(s for _, s in traced.values())
                                 / sum(s for _, s in plain.values()))
    return m


def import_seconds() -> float:
    """Time ``import scopetrack`` in a fresh interpreter, as a CLI user pays it."""
    probe = ("import time; t = time.perf_counter(); import scopetrack; "
             "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    detail = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    if os.path.dirname(os.path.abspath(scopetrack.__file__)) != os.path.abspath(
            os.path.join("src", "scopetrack")):
        print(f"error: imported scopetrack from {scopetrack.__file__}, "
              "not from this checkout's src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(".perfbench", f"work-{w.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    run = Run(
        workload=w, seed=args.seed, frames=args.frames or w.n_frames,
        paths={name: os.path.join(work, f"{name}.jsonl") for name in ("gt", "pred", "tracks")},
        record_digests=args.record_digests,
    )
    ops = Ops()
    try:
        measure = traced if args.trace else untraced
        values = measure(run, args.seconds, ops, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record_digests and args.seed == DEFAULT_SEED and ops.failed == 0:
        _record_digests(run.digest_key, run.digests)

    values["failed_ops_ratio"] = ops.failed / ops.attempted
    detail["workload"] = {
        "name": w.name, "frames": run.frames, "n_queries": w.n_queries,
        "embed_dim": w.embed_dim, "objects": w.n_objects, "masks": w.with_masks,
        "dets_per_frame": run.dets_per_frame,
    }
    detail["digests"] = run.digests
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
