"""sbo-ray benchmark: one seeded batch workload per invocation.

    python3 perfbench/run.py --workload checkpointed_run --seed 1 --seconds 10 --trace 0

Run from the repository root (any cwd works). Workloads are described
in README.md next to this file. Each timed job is one closed-loop batch
job in a fresh local Ray session with ``num_cpus`` = ``nproc``:
``ray.init`` and a warm call on a one-shard table from another seed
(the set-up sample), then the timed body, then the output check, then
``ray.shutdown``. Jobs repeat until ``--seconds`` have passed (at least
two). Reported times leave out the share of CPU time the hypervisor
stole (README.md, "Steal correction"). With ``--trace 0`` the last
stdout line is one JSON object with the end-to-end metrics (medians
over the jobs); with ``--trace 1`` it holds the per-layer metrics of a
traced job, whose spans are written as JSONL under ``.bench_out/``.
Everything else goes to stderr.
"""

import time

_T0 = time.perf_counter()  # interpreter start-up before this line is not counted

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import session  # noqa: E402

_TICKS0 = session.host_cpu_ticks()  # start of the import interval's steal

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_cache")   # seeded inputs and references
OUT = os.path.join(ROOT, ".bench_out")       # job outputs, traces, run log
TMP = os.path.join(ROOT, ".bench_tmp")       # temp files, Ray session files
MIN_JOBS = 2
MAX_JOBS = 30
E2E_UNITS = {"rows_per_s": "rows/s", "setup_s": "s", "driver_peak_rss_mb": "MB"}
# also printed on stderr and kept per job, but not on the result line:
# CPU time grows with hypervisor steal (README.md, "Steal correction")
CONTEXT_UNITS = {"cpu_s_per_mrow": "s/Mrow", "wall_rows_per_s": "rows/s",
                 "wall_setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=None,
                   help="input rows (default: the benchmark size; smaller only for smoke tests)")
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(f"[bench {time.perf_counter() - _T0:7.2f}s] {msg}", file=sys.stderr)


def _git_commit() -> str | None:
    import subprocess

    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or None


class Runner:
    """Holds one invocation's inputs, reference and Ray session."""

    def __init__(self, workload, inputs, ref, ray_session, import_s,
                 import_net_s):
        self.workload = workload
        self.inputs = inputs
        self.ref = ref
        self.ray_session = ray_session
        self.import_s = import_s
        self.import_net_s = import_net_s
        self.out = os.path.join(OUT, f"{workload}-{os.getpid()}")

    def _body(self, paths, out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        return workloads.run_body(self.workload, paths, self.inputs.table_dir,
                                  out_dir)

    def job(self, traced_body=None, after_body=None) -> dict:
        """One job; returns its sample. ``traced_body(fn)`` wraps the body
        call and ``after_body()`` runs before the session stops (both only
        in the traced run)."""
        ticks0 = session.host_cpu_ticks()
        t0 = time.perf_counter()
        self.ray_session.start()
        try:
            init_s = time.perf_counter() - t0
            self._body(self.inputs.warm_paths, os.path.join(self.out, "warm"))
            ready_s = time.perf_counter() - t0
            ticks1 = session.host_cpu_ticks()
            body_dir = os.path.join(self.out, "job")
            run = lambda: self._body(self.inputs.paths, body_dir)  # noqa: E731
            session.reset_peak_rss()
            cpu0 = session.tree_cpu_s()
            ticks2 = session.host_cpu_ticks()
            b0 = time.perf_counter()
            result = traced_body(run) if traced_body else run()
            body_s = time.perf_counter() - b0
            ticks3 = session.host_cpu_ticks()
            cpu_s = session.tree_cpu_s() - cpu0
            rss_mb = session.peak_rss_mb()
            extra = after_body(result) if after_body else {}
        finally:
            t1 = time.perf_counter()
            self.ray_session.stop()
        problems = workloads.check(self.workload, result, self.ref)
        for p in problems:
            log(f"output check failed: {p}")
        steal_setup = session.stolen_share(ticks0, ticks1)
        steal_body = session.stolen_share(ticks2, ticks3)
        setup_s = self.import_s + ready_s
        setup_net_s = self.import_net_s + ready_s * (1.0 - steal_setup)
        body_net_s = body_s * (1.0 - steal_body)
        log(f"job: setup {setup_s:.3f}s net {setup_net_s:.3f}s (import "
            f"{self.import_s:.3f}, init {init_s:.3f}, steal {steal_setup:.3f}) "
            f"body {body_s:.3f}s net {body_net_s:.3f}s (steal {steal_body:.3f}) "
            f"cpu {cpu_s:.2f}s stop {time.perf_counter() - t1:.3f}s "
            f"{'ok' if not problems else 'MISMATCH'}")
        return {"setup_s": setup_s, "setup_net_s": setup_net_s,
                "body_s": body_s, "body_net_s": body_net_s, "cpu_s": cpu_s,
                "rss_mb": rss_mb, "steal_setup": steal_setup,
                "steal_body": steal_body, "ok": not problems,
                "ops": result["ops"], **extra}

    def metrics_of(self, sample) -> dict:
        return {"rows_per_s": self.inputs.rows / sample["body_net_s"],
                "setup_s": sample["setup_net_s"],
                "driver_peak_rss_mb": sample["rss_mb"]}

    def context_of(self, sample) -> dict:
        """Per-job figures that explain a job's metrics: CPU cost, the
        wall-clock times before the steal correction, the stolen shares."""
        return {"cpu_s_per_mrow": sample["cpu_s"] / (self.inputs.rows / 1e6),
                "wall_rows_per_s": self.inputs.rows / sample["body_s"],
                "wall_setup_s": sample["setup_s"],
                "steal_body": sample["steal_body"],
                "steal_setup": sample["steal_setup"]}


def timed_runs(runner: Runner, seconds: float) -> tuple[dict, int, int, list]:
    samples, attempted, failed = [], 0, 0
    t0 = time.perf_counter()
    while attempted < MIN_JOBS or (time.perf_counter() - t0 < seconds
                                   and attempted < MAX_JOBS):
        attempted += 1
        try:
            s = runner.job()
        except Exception:  # a job that raises counts as failed; keep measuring
            traceback.print_exc()
            failed += 1
            continue
        failed += not s["ok"]
        samples.append(s)
    if not samples:
        raise RuntimeError(f"all {attempted} jobs raised")
    # per-job wall times and steal ride along in runs.jsonl
    per_job = [{**runner.metrics_of(s), **runner.context_of(s)}
               for s in samples]
    metrics = {k: statistics.median(m[k] for m in per_job) for k in E2E_UNITS}
    return metrics, attempted, failed, per_job


def traced_run(runner: Runner, run_id: str) -> tuple[dict, int, int, dict]:
    """An untraced job (for the overhead figure), then a traced job, then
    the serial replay. Returns per-layer metrics and the trace summary."""
    import ray

    from sbo_ray.pipelines import logpipe

    plain = runner.job()
    tracer = tracing.Tracer(run_id)

    def traced_body(fn):
        with tracer.span("ray.body", workload=runner.workload) as rec:
            tracer.root = rec["id"]
            try:
                return tracing.traced_ray_body(tracer, fn)
            finally:
                tracer.root = None

    def after_body(result):
        body = tracer.named("ray.body")[0]
        events = ray.timeline()
        timeline = tracing.fold_timeline(tracer, events, body["id"],
                                         result["ops"])
        fixed = []
        if runner.workload != "token_exchange":
            # full_pipeline over one shard in the warm session: its fixed cost
            for _ in range(3):
                d = os.path.join(runner.out, "fixed")
                shutil.rmtree(d, ignore_errors=True)
                t0 = time.perf_counter()
                logpipe.full_pipeline(runner.inputs.paths[:1], workloads.job(),
                                      d)
                fixed.append(time.perf_counter() - t0)
        return {"timeline": timeline,
                "fixed_s": statistics.median(fixed) if fixed else 0.0}

    traced = runner.job(traced_body=traced_body, after_body=after_body)
    counts = tracing.replay(tracer, runner.workload, runner.inputs,
                            os.path.join(runner.out, "replay"))
    values = tracing.layer_metrics(tracer, counts, traced["timeline"],
                                   traced["cpu_s"], traced["fixed_s"])
    rps_plain = runner.metrics_of(plain)["rows_per_s"]
    rps_traced = runner.metrics_of(traced)["rows_per_s"]
    summary = {"untraced_rows_per_s": rps_plain, "traced_rows_per_s": rps_traced,
               "tracing_overhead": rps_plain / rps_traced - 1.0}
    print(tracing.format_table(values, runner.workload), file=sys.stderr)
    print(f"tracing overhead: untraced {rps_plain:.0f} rows/s, traced "
          f"{rps_traced:.0f} rows/s ({summary['tracing_overhead']:+.1%})",
          file=sys.stderr)
    path = os.path.join(OUT, f"trace-{runner.workload}-s{runner.inputs.seed}.jsonl")
    tracer.write_jsonl(
        path, head=[{"type": "trace", "run_id": run_id, **summary}],
        tail=[{"type": "layer", "name": k, "value": v,
               "unit": tracing.LAYER_METRICS[k][0]} for k, v in values.items()])
    print(f"spans written to {path}", file=sys.stderr)
    failed = (not plain["ok"]) + (not traced["ok"])
    return values, 2, failed, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    # stdout carries only the result line; Ray and everything else -> stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    # temp files of this process and its children stay in the checkout
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    tempfile.tempdir = None

    import ray  # noqa: F401  (counted in set-up)

    import sbo_ray.pipelines.queries  # noqa: F401

    import_s = time.perf_counter() - _T0
    import_net_s = import_s * (1.0 - session.stolen_share(
        _TICKS0, session.host_cpu_ticks()))
    os.makedirs(OUT, exist_ok=True)
    digest = workloads.source_digest(ROOT)
    inputs = workloads.make_inputs(args.workload, args.seed,
                                   args.rows or workloads.ROWS,
                                   os.path.join(CACHE, "synth"))
    log(f"inputs ready: {inputs.rows} rows in {len(inputs.paths)} shards")
    ref = workloads.reference(args.workload, inputs, os.path.join(CACHE, "ref"),
                              digest)
    log("reference ready")
    nproc = session.nproc()
    sess = session.RaySession(nproc, os.path.join(TMP, str(os.getpid())))
    runner = Runner(args.workload, inputs, ref, sess, import_s, import_net_s)
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "nproc": nproc, "ray_num_cpus": nproc, "rows": inputs.rows,
               "input_bytes": inputs.bytes, "git_commit": _git_commit(),
               "source_digest": digest, "loadavg1_before": session.loadavg1()}
    ticks0 = session.host_cpu_ticks()
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed, extra = traced_run(runner, run_id)
            units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        else:
            metrics, attempted, failed, per_job = timed_runs(runner, args.seconds)
            units, extra = E2E_UNITS, {"jobs": per_job}
    finally:
        shutil.rmtree(runner.out, ignore_errors=True)
        sess.cleanup()
    context["loadavg1_after"] = session.loadavg1()
    context["steal_share"] = session.stolen_share(ticks0,
                                                  session.host_cpu_ticks())
    record = {**context, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, **extra, "metrics": metrics}
    with open(os.path.join(OUT, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    log(f"run: {json.dumps(record)}")
    if not args.trace:
        log(f"{args.workload} seed {args.seed}: medians of {len(extra['jobs'])} "
            f"jobs, failed_frac {failed / attempted:.3f}")
        for k, unit in {**units, **CONTEXT_UNITS}.items():
            vals = sorted(m[k] for m in extra["jobs"])
            print(f"  {k:20} {statistics.median(vals):12.4f} {unit:7} (min "
                  f"{vals[0]:.4f}, max {vals[-1]:.4f})", file=sys.stderr)
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.write(result_fd, (json.dumps(out) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
