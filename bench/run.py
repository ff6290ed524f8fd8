"""Benchmark of the poretail pipeline, end to end and per module.

    python3 bench/run.py --workload walkthrough --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every workload builds its inputs from ``--seed`` through
``poretail.cli.main`` in this process, at least three times and for at
least two seconds (``setup_s`` is the median set-up), then repeats its
timed ops until ``--seconds`` have passed (at least once) and reports
medians over those passes. Both times are scaled to a reference machine
speed by a gauge timed between the steps (SpeedGauge). It checks every
output, scores the engine against the closed-form reference
in reference.py, and compares the sha256 of every output with the first
run of the same program at the same seed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` drives the same
ops in-process, once untraced and once with every public function of each
module wrapped in a timing span, and prints per-layer metrics. The last
line of standard output is the result as one JSON object; run artifacts
and the run record (context, cases, spans) go to ``.bench_runs/``.
"""

from __future__ import annotations

import os

# Single-threaded numerics here and in every child, before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
# Set-ups per run: at least SETUP_REPEATS, and until SETUP_SECONDS of set-up
# have run, so that a set-up of a fraction of a second is still the median
# of many (its run-to-run jitter here is about 25%).
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Fresh interpreters timed importing poretail; the median is the import cost.
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 150.0
FALLBACK_SHARE = 0.01  # a case counts as fallback-bound when P(N = 0) exceeds this
# Largest share of the traced pass that may lie outside every span (the
# in-process command plumbing, engine configs, probes) before the run fails.
UNATTRIBUTED_SHARE = 0.01
UNSCORED = 1.0  # error reported when outputs could not be scored (the run is then incorrect)
# Seconds the speed gauge's fixed work takes at the reference speed (about
# this 2-core VM's usual speed); wall_s and setup_s are given at that speed.
GAUGE_REFERENCE_S = 0.2
# Layers whose self times account for a traced pass (synthetic runs only in set-up).
LAYERS = ("cli", "geometry", "threshold", "gpd", "extremes", "reports", "equivalence")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cdf_sup_err": "prob",
}


class SetupFailed(Exception):
    pass


class TraceMismatch(Exception):
    """The layer self times do not account for the measured traced pass."""


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    rss_mb: float = 0.0
    error: str = ""
    value: object = None


@dataclass
class Digests:
    """sha256 of every output, checked against the first run at this seed."""

    path: Path
    stored: dict = field(default_factory=dict)
    seen: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.path.is_file():
            self.stored = json.loads(self.path.read_text())

    def matches(self, key: str, digest: str) -> bool:
        first = self.seen.setdefault(key, digest)
        return first == digest and self.stored.get(key, digest) == digest

    def save(self) -> None:
        if not self.stored:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
            os.replace(tmp, self.path)


class SpeedGauge:
    """The machine's speed during one phase of a run.

    A shared 2-core VM runs identical work up to 1.5 times slower for
    minutes at a time. The gauge times a fixed piece of numpy and
    interpreter work in this process before and after each timed step of a
    phase; seconds measured in the phase times scale() are seconds at the
    reference speed. The gauge shares no code with the program, so a faster
    program still reads faster.
    """

    def __init__(self) -> None:
        import numpy as np

        self.samples: list[float] = []
        self._values = np.random.default_rng(0).random(200_000)

    def sample(self) -> None:
        import numpy as np

        start = time.perf_counter()
        for _ in range(20):
            np.histogram(np.sort(np.exp(3.0 * self._values)), bins=2048)
            total = 0
            for i in range(50_000):
                total += i % 7
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        return GAUGE_REFERENCE_S / statistics.fmean(self.samples)


def code_sha256() -> str:
    """Hash of the program and of this benchmark: the key of the digest record."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "poretail").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def digest_files(work: Path, names: list[str]) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((work / name).read_bytes())
    return digest.hexdigest()


def digest_distribution(dist) -> str:
    digest = hashlib.sha256()
    for array in (dist.bin_edges_um, dist.pdf_mass, dist.cdf_at_edges):
        digest.update(array.tobytes())
    digest.update(repr(sorted(dist.summary().items())).encode())
    return digest.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one command in a fresh interpreter: (exit code, seconds, peak RSS MB)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def run_cli_inprocess(argv: list[str], cwd: Path, log: Path) -> tuple[int, float]:
    """Run one command through poretail.cli.main in this process."""
    import poretail.cli

    with contextlib.chdir(cwd), open(log, "a", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = time.perf_counter()
            code = poretail.cli.main(argv)
            return code, time.perf_counter() - start


def run_op(op, work: Path, in_process: bool, tracer=None) -> OpResult:
    log = work / "commands.log"
    if tracer is not None:
        tracer.op = op.name
    try:
        if op.call is not None:
            with contextlib.chdir(work):
                start = time.perf_counter()
                value = op.call()
                return OpResult(op.name, time.perf_counter() - start, True, value=value)
        if in_process:
            code, seconds = run_cli_inprocess(op.argv, work, log)
            rss = 0.0
        else:
            code, seconds, rss = run_child([sys.executable, "-m", "poretail", *op.argv], work, log)
        return OpResult(op.name, seconds, code == 0, rss, "" if code == 0 else f"exit code {code}")
    except Exception:
        return OpResult(op.name, 0.0, False, error=traceback.format_exc(limit=3))


def record_digest(result: OpResult, op, work: Path, digests: Digests, prefix: str = "") -> None:
    if not result.ok:
        return
    try:
        digest = digest_files(work, op.outputs) if op.outputs else digest_distribution(result.value)
    except OSError as exc:
        result.ok, result.error = False, f"missing output: {exc}"
        return
    if not digests.matches(prefix + op.name, digest):
        result.ok, result.error = False, "output digest differs from the first run at this seed"


def run_pass(ops, work: Path, digests: Digests, in_process: bool, tracer=None, gauge=None) -> tuple[float, list[OpResult]]:
    """Run the ops once: (seconds spent in them, results). A gauge samples after each op."""
    wall, results = 0.0, []
    for op in ops:
        start = time.perf_counter()
        results.append(run_op(op, work, in_process, tracer))
        wall += time.perf_counter() - start
        if gauge is not None:
            gauge.sample()
    for op, result in zip(ops, results):
        record_digest(result, op, work, digests)
    return wall, results


def run_setup(workload, work: Path, digests: Digests) -> float:
    """One in-process set-up; returns its seconds."""
    total = 0.0
    for op in workload.setup_steps():
        result = run_op(op, work, in_process=True)
        record_digest(result, op, work, digests, prefix="setup:")
        if not result.ok:
            raise SetupFailed(f"set-up step {op.name} failed: {result.error}")
        total += result.seconds
    return total


def metric(value, unit: str) -> dict:
    return {"value": value if isinstance(value, int) else float(value), "unit": unit}


def check_outputs(workload, work: Path, env, results: list[OpResult]):
    """Score the last pass: (cases, input properties). A failed check fails its op."""
    import workloads

    try:
        return workload.check(work, env, {r.name: r.value for r in results})
    except workloads.CheckFailed as exc:
        failed = next(r for r in results if r.name == exc.op)
        if failed.ok:
            failed.ok, failed.error = False, str(exc)
        return [], {}


def op_records(results: list[OpResult]) -> list[dict]:
    return [{k: v for k, v in vars(r).items() if k != "value"} for r in results]


def untraced(workload, work: Path, digests: Digests, seconds: float) -> dict:
    setup_gauge = SpeedGauge()
    setup_gauge.sample()
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        setups.append(run_setup(workload, work, digests))
        setup_gauge.sample()
    start = time.perf_counter()
    env = workload.load(work)
    load_s = time.perf_counter() - start

    ops = workload.ops(env)
    in_process = any(op.call is not None for op in ops)
    # The import is part of set-up only where the timed ops run in this
    # process; CLI commands pay their own import.
    import_s = fresh_import_seconds(work, setup_gauge) if in_process else 0.0
    pass_gauge = SpeedGauge()
    pass_gauge.sample()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, work, digests, in_process=False, gauge=pass_gauge))
    if in_process:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss = max(r.rss_mb for _, results in passes for r in results)

    cases, props = check_outputs(workload, work, env, passes[-1][1])
    wall_s = statistics.median(wall for wall, _ in passes)
    setup_s = statistics.median(setups) + import_s + load_s
    metrics = {
        "wall_s": wall_s * pass_gauge.scale(),
        "setup_s": setup_s * setup_gauge.scale(),
        "peak_rss_mb": peak_rss,
        "cdf_sup_err": max((c.cdf_sup_err for c in cases), default=UNSCORED),
    }
    return {
        "metrics": {name: metric(value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
        "cases": cases,
        "props": props,
        "results": [r for _, results in passes for r in results],
        "record": {
            "measured_wall_s": wall_s,
            "measured_setup_s": setup_s,
            "gauge_reference_s": GAUGE_REFERENCE_S,
            "gauge_setup_s": setup_gauge.samples,
            "gauge_pass_s": pass_gauge.samples,
            "pass_walls_s": [wall for wall, _ in passes],
            "passes": [op_records(results) for _, results in passes],
            "setup_repeats_s": setups,
            "import_s": import_s,
            "load_s": load_s,
        },
    }


def sample_largest_probe(args, kwargs, dist) -> dict:
    import reference

    fit, voi, config = args[:3]
    mode = config.uncertainty_mode
    slices = 1 if mode == "none" else config.n_count_samples
    params = config.n_param_samples if mode == "all" else 1
    return {
        "volume_mm3": voi.volume_mm3,
        "mode": mode,
        "combinations": slices * params * config.n_p_samples,
        "overflow_mass": dist.overflow_mass,
        "p_zero": reference.zero_count_probability(reference.Fit.from_tail_fit(fit), voi.volume_mm3, mode),
    }


PROBES = {
    "geometry.ingest_specimen": lambda args, kwargs, dataset: {"pores": len(dataset)},
    "threshold.stability_scan": lambda args, kwargs, scan: {
        "candidates": len(args[1]),
        "passing": sum(bool(c.passes) for c in scan.candidates),
    },
    "extremes.sample_largest": sample_largest_probe,
    "reports.write_fit_report": lambda args, kwargs, _: {"bytes": os.path.getsize(args[1])},
}


def fresh_import_seconds(work: Path, gauge=None) -> float:
    """Median time of a fresh interpreter that imports poretail."""
    times = []
    for _ in range(IMPORT_REPEATS):
        code, seconds, _ = run_child([sys.executable, "-c", "import poretail"], work, work / "commands.log")
        if code != 0:
            raise SetupFailed("a fresh interpreter could not import poretail")
        times.append(seconds)
        if gauge is not None:
            gauge.sample()
    return statistics.median(times)


def layer_metrics(tracer, commands: int, import_s: float, cases) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def info_sum(name: str, key: str) -> float:
        return sum(span.info[key] for span in tracer.outermost(name))

    samples = tracer.outermost("extremes.sample_largest")
    engine_s = tracer.total("extremes.sample_largest")
    combinations = info_sum("extremes.sample_largest", "combinations")
    ingest_s, pores = tracer.total("geometry.ingest_specimen"), info_sum("geometry.ingest_specimen", "pores")
    scan_s, candidates = tracer.total("threshold.stability_scan"), info_sum("threshold.stability_scan", "candidates")
    fits, nll_evals = len(tracer.outermost("gpd.select_estimator")), tracer.counts["gpd.gpd_nll"]
    self_s = tracer.self_times()
    self_s["cli"] = self_s.get("cli", 0.0) + commands * import_s
    out = {
        "cli.import_s": (import_s, "s"),
        "cli.commands": (commands, "count"),
        "geometry.ingest_s": (ingest_s, "s"),
        "geometry.ingest_us_per_pore": (1e6 * ratio(ingest_s, pores), "us"),
        "geometry.dump_s": (tracer.total("geometry.dump_specimen"), "s"),
        "geometry.pores": (pores, "count"),
        "threshold.scan_s": (scan_s, "s"),
        "threshold.scan_ms_per_candidate": (1e3 * ratio(scan_s, candidates), "ms"),
        "threshold.candidates": (candidates, "count"),
        "threshold.candidates_passing": (info_sum("threshold.stability_scan", "passing"), "count"),
        "gpd.fits": (fits, "count"),
        "gpd.fit_s": (tracer.total("gpd.select_estimator"), "s"),
        "gpd.nll_evals": (nll_evals, "count"),
        "gpd.nll_evals_per_fit": (ratio(nll_evals, fits), "count"),
        "extremes.sample_largest_s": (engine_s, "s"),
        "extremes.calls": (len(samples), "count"),
        "extremes.combinations": (combinations, "count"),
        "extremes.combinations_per_s": (ratio(combinations, engine_s), "1/s"),
        "extremes.overflow_mass": (max((s.info["overflow_mass"] for s in samples), default=0.0), "prob"),
        "extremes.cdf_sup_err": (max((c.cdf_sup_err for c in cases), default=UNSCORED), "prob"),
        "extremes.p97_5_rel_err": (max((c.p97_5_rel_err for c in cases), default=UNSCORED), "fraction"),
        "extremes.zero_count_share": (max((c.p_zero for c in cases), default=0.0), "prob"),
        "extremes.fallback_time_share": (
            ratio(sum(s.end - s.start for s in samples if s.info["p_zero"] > FALLBACK_SHARE), engine_s),
            "fraction",
        ),
        "reports.write_fit_s": (tracer.total("reports.write_fit_report"), "s"),
        "reports.read_fit_s": (tracer.total("reports.read_fit_report"), "s"),
        "reports.fit_report_bytes": (info_sum("reports.write_fit_report", "bytes"), "bytes"),
        "reports.write_table_s": (tracer.total("reports.write_table"), "s"),
        "reports.write_prediction_s": (tracer.total("reports.write_prediction"), "s"),
        "reports.read_prediction_s": (tracer.total("reports.read_prediction"), "s"),
        "equivalence.build_report_s": (tracer.total("equivalence.build_report"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    unreported = set(self_s) - set(LAYERS)
    if unreported:
        raise TraceMismatch(f"spans outside the reported layers: {sorted(unreported)}")
    return out


def traced(workload, work: Path, digests: Digests) -> dict:
    from tracing import Tracer

    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        run_setup(workload, work, digests)
        env = workload.load(work)
    finally:
        setup_tracer.uninstall()

    ops = workload.ops(env)
    untraced_wall, _ = run_pass(ops, work, digests, in_process=True)
    tracer = Tracer(PROBES)
    tracer.install()
    try:
        wall, results = run_pass(ops, work, digests, in_process=True, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(work / "spans.jsonl")

    import_s = fresh_import_seconds(work)
    commands = sum(op.argv is not None for op in ops)
    cases, props = check_outputs(workload, work, env, results)
    layers = layer_metrics(tracer, commands, import_s, cases)
    # The measured traced pass, each command charged its interpreter start
    # as cli does; whatever no span covers is reported and bounded.
    traced_wall = wall + commands * import_s
    unattributed = traced_wall - sum(layers[f"{layer}.self_s"][0] for layer in LAYERS)
    layers["synthetic.generate_s"] = (setup_tracer.total("synthetic.generate_specimen"), "s")
    layers["trace.wall_s"] = (traced_wall, "s")
    layers["trace.unattributed_s"] = (unattributed, "s")
    layers["trace.overhead_s"] = (wall - untraced_wall, "s")
    if not -1e-6 <= unattributed <= UNATTRIBUTED_SHARE * traced_wall:
        raise TraceMismatch(
            f"layer self times leave {unattributed:.4f} s of the {traced_wall:.4f} s traced pass unaccounted "
            f"(at most {UNATTRIBUTED_SHARE:.0%} allowed)"
        )
    return {
        "metrics": {name: metric(value, unit) for name, (value, unit) in layers.items()},
        "cases": cases,
        "props": props,
        "results": results,
        "record": {
            "untraced_in_process_wall_s": untraced_wall,
            "traced_in_process_wall_s": wall,
            "ops": op_records(results),
            "spans": "spans.jsonl",
        },
    }


def run_context(workload, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy
    import workloads

    cpu = ""
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")), "")
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mc_plan": workloads.MC_PLAN,
        "error_gate": workloads.ERROR_GATE,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "code_sha256": code_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the command it is waiting for (run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for this process and every command it starts, so that the speed
    # gauge runs on the CPU the timed ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "poretail" / "__init__.py").is_file():
        print(f"bench: no poretail sources in {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up, and the traced passes, run commands in this process.
    import poretail.cli  # noqa: F401
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    context = run_context(workload, args.seconds, bool(args.trace))
    digests = Digests(RUNS / "digests" / f"{context['code_sha256'][:16]}-{args.workload}-seed{args.seed}.json")
    try:
        if args.trace:
            outcome = traced(workload, work, digests)
        else:
            outcome = untraced(workload, work, digests, args.seconds)
    except (SetupFailed, TraceMismatch) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    results = outcome["results"]
    failed = [r for r in results if not r.ok]
    if not failed:
        digests.save()
    record = {
        "context": context,
        "input": outcome["props"],
        "cases": [vars(case) for case in outcome["cases"]],
        "metrics": outcome["metrics"],
        "failures": [f"{r.name}: {r.error}" for r in failed],
        "digests": digests.seen,
        **outcome["record"],
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, default=float))

    for case in outcome["cases"]:
        print(f"case {case.name:24s} P(N=0)={case.p_zero:.3f} cdf_err={case.cdf_sup_err:.4f} p97.5_rel_err={case.p97_5_rel_err:.4f}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(f"record: {(work / 'result.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
