"""esrsim benchmark: one workload per invocation, closed loop, one client.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-batch --seed 1 --seconds 40 --trace 0

Workloads are ``cli-batch``, ``invariants`` and ``sweeps`` (see
bench/README.md).  Every input is generated from ``--seed``.  Items run one
after another until ``--seconds`` of wall time have passed (at least one
whole round always runs), and every output is checked against a reference
that does not come from esrsim.  Human-readable lines go to stdout; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A full record, environment stamp included, is
written to ``.esrbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
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
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".esrbench"
SETUP_REPEATS = 5
MIN_ITEMS = 100
IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("cli-batch", "invariants", "sweeps")

# Per-layer metrics in the JSON line: each is measured on every workload.
# The full per-layer table (every span) is printed and written to the record.
LAYER_TIMES_MS = (
    "linalg.DensityOperator",
    "hidden_variables.enumerate_local_strategies",
    "hidden_variables.build_feasibility_lp",
    "simplex.solve_lp_simplex",
    "correlations.ghz_local_model_search",
)
LAYER_CALLS = (
    "cli.process",
    "cli.validate_config",
    "cli.render_csv",
    "cli.render_json",
    "linalg.DensityOperator",
    "linalg.validate_density_operator",
    "linalg.validate_spectral_observable",
    "measurement.GeneralizedObservable",
    "measurement.probability_triple",
    "measurement.luders_update",
    "measurement.unitary_evolve",
    "measurement.sample_outcomes",
    "mixtures.proper_conditional_probability",
    "mixtures.esr_qm_divergence",
    "hidden_variables.enumerate_local_strategies",
    "hidden_variables.build_feasibility_lp",
    "simplex.solve_lp_simplex",
    "correlations.efficiency_scan",
    "correlations.trichotomic_expectation",
    "correlations.ghz_local_model_search",
    "selftest.fundamental_equation_suite",
    "selftest.qm_reduction_suite",
    "selftest.chsh_bound_suite",
    "selftest.lp_certificate_suite",
)
ROUND_COUNTS = (
    "simplex.pivots",
    "simplex.solves",
    "hidden_variables.lp_rows",
    "hidden_variables.strategies",
    "measurement.mc_draws",
    "cli.config_bytes",
    "cli.report_bytes",
)
GAUGES = (
    "product_law_residual",
    "ghz_max_residual",
    "threshold_error",
    "suite.fundamental_equation",
    "suite.qm_reduction",
    "suite.chsh_bound",
    "suite.lp_certificate",
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def locate_program() -> None:
    """Fail unless the checkout holds the esrsim sources and shipped configs."""
    if not (ROOT / "src" / "esrsim" / "__init__.py").is_file():
        fail(f"no esrsim sources under {ROOT / 'src'}; run from a checkout of the repository")
    if not list((ROOT / "configs").glob("*.json")):
        fail(f"no shipped configs under {ROOT / 'configs'}")
    sys.path.insert(0, str(ROOT / "src"))


def work_dir(args) -> Path:
    return WORK / f"{args.workload}-seed{args.seed}"


def setup(args):
    """Import the program and generate this seed's inputs; return the manifest."""
    import workloads  # noqa: F401  (imports every esrsim module the workloads drive)
    import gen

    if not str(Path(workloads.cli.__file__).resolve()).startswith(str(ROOT / "src")):
        fail(f"imported esrsim from {workloads.cli.__file__}, not from this checkout")
    if args.workload == "cli-batch":
        return gen.write_cli_inputs(args.seed, ROOT / "configs", work_dir(args) / "inputs")
    rounds = {"invariants": gen.invariants_round, "sweeps": gen.sweeps_round}[args.workload]
    first = json.dumps(rounds(args.seed, 0)).encode()
    return {"seed": args.seed, "digest": hashlib.sha256(first).hexdigest()}


def measure_setup(args, probe) -> tuple[list[float], list[float], dict]:
    """Set up in fresh processes; every one must generate the same inputs.

    Returns the set-up times at the probe's reference speed, the raw times
    and the manifest of the generated inputs.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, raw, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        probe.sample()
        probe.sample()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        raw.append(time.perf_counter() - start)
        probe.sample()
        probe.sample()
        times.append(raw[-1] * probe.REFERENCE_S / statistics.median(probe.samples[-4:]))
        if proc.returncode != 0:
            fail(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        digests.add(json.loads(proc.stdout.strip().splitlines()[-1])["digest"])
    if len(digests) != 1:
        fail("input generation is not deterministic for this seed")
    if args.workload == "cli-batch":
        manifest = json.loads((work_dir(args) / "inputs" / "manifest.json").read_text())
    else:
        manifest = {"digest": digests.pop()}
    return times, raw, manifest


def measure_import_ms(env: dict) -> list[float]:
    """Fresh-process ``import esrsim.cli`` times, in ms."""
    code = "import time; t = time.perf_counter(); import esrsim.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60, check=True)
        out.append(float(proc.stdout) * 1e3)
    return out


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


class SpeedProbe:
    """A fixed kernel timed between items: numpy and interpreter work, no esrsim.

    On a shared host, contention from other tenants slows every process for
    seconds at a time, and the program and this probe alike.  Each item's
    latency is scaled by REFERENCE_S over the median of the probe samples
    taken around it, which reports it at one reference machine speed.
    """

    REFERENCE_S = 2.0e-3

    def __init__(self):
        import numpy

        self._np = numpy
        a = numpy.random.default_rng(0).normal(size=(8, 8, 2)) @ [1.0, 1j]
        self._h = a + a.conj().T
        self.samples: list[float] = []

    def sample(self) -> None:
        np, h = self._np, self._h
        start = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            acc += float(np.linalg.eigvalsh(h)[0]) + float(np.trace(h @ h).real)
            acc += sum({i: i * i for i in range(40)}.values())
        self.samples.append(time.perf_counter() - start)

    def factor(self, index: int) -> float:
        window = self.samples[max(0, index - 2): index + 3]
        return self.REFERENCE_S / statistics.median(window)


class Tally:
    """Latencies, failures, counts and headroom gauges of a set of items."""

    def __init__(self):
        self.latency_s: list[float] = []
        self.probe_index: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts = Counter()
        self.gauges: dict[str, float] = {}
        self.rss_kb = 0

    def add(self, out, probe_index: int = 0) -> None:
        self.attempted += 1
        self.latency_s.append(out.latency_s)
        self.probe_index.append(probe_index)
        if out.problems:
            self.failed += 1
            self.problems += out.problems
        self.counts.update(out.counts)
        for name, value in out.gauges.items():
            self.gauges[name] = max(self.gauges.get(name, 0.0), value)
        self.rss_kb = max(self.rss_kb, out.rss_kb)


def run_item(wl, item, tracer=None, item_id=None):
    """Run and check one item; return (outcome, wall seconds of the run part).

    An item that raises is a failed item, not a failed run.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run(item)
        else:
            tracer.item = item_id
            with tracer.span(f"item.{wl.name}"):
                out = wl.run(item, tracer)
        wall = time.perf_counter() - start
        wl.check(item, out)
    except Exception:
        from workloads import Outcome

        wall = time.perf_counter() - start
        problem = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        out = Outcome(wall, problems=[f"{json.dumps(item)[:200]} raised: {problem}"])
    return out, wall


def run_untraced(wl, seconds: float, probe: SpeedProbe) -> Tally:
    """Closed loop, probing the host speed after every item.

    Runs until ``seconds`` have passed, one whole round is done and
    MIN_ITEMS items have run (so that ten or more lie above p90), but stops
    at 1.5 x ``seconds`` whatever the count.
    """
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        items = wl.round(index)
        for pos, item in enumerate(items):
            out, _ = run_item(wl, item)
            tally.add(out, len(probe.samples))
            probe.sample()
            elapsed = time.perf_counter() - start
            if index == 0 and pos < len(items) - 1:
                continue
            if elapsed >= seconds and (tally.attempted >= MIN_ITEMS or elapsed >= 1.5 * seconds):
                return tally
        index += 1


def run_traced(wl, seconds: float, tracer):
    """Alternate each round untraced then traced; round 0 always runs whole.

    Returns the traced tally, round 0's counts and gauges, round 0's item ids
    and the traced-over-untraced throughput ratio on the items run both ways.
    """
    tally, first = Tally(), Tally()
    plain_s = traced_s = 0.0
    matched = 0
    deadline = time.perf_counter() + seconds
    index = 0
    round0_ids = set()
    while True:
        items = wl.round(index)
        plain_walls = []
        for item in items:
            out, wall = run_item(wl, item)
            tally.add(out)
            plain_walls.append(wall)
            if index > 0 and time.perf_counter() >= deadline:
                break
        for pos, (item, plain) in enumerate(zip(items, plain_walls)):
            item_id = f"r{index}i{pos}"
            out, wall = run_item(wl, item, tracer, item_id)
            tally.add(out)
            plain_s += plain
            traced_s += wall
            if index == 0:
                first.add(out)
                round0_ids.add(item_id)
            matched += 1
            if index > 0 and time.perf_counter() >= deadline:
                return tally, first, round0_ids, (plain_s / traced_s, matched)
        index += 1
        if time.perf_counter() >= deadline:
            return tally, first, round0_ids, (plain_s / traced_s, matched)


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def latency_metrics(lat: list[float], prefix: str = "") -> dict:
    p90 = statistics.quantiles(lat, n=10)[8]
    return {
        f"{prefix}items_per_s": metric(len(lat) / sum(lat), "1/s", len(lat)),
        f"{prefix}item_p50_ms": metric(statistics.median(lat) * 1e3, "ms", len(lat)),
        f"{prefix}item_p90_ms": metric(p90 * 1e3, "ms", len(lat)),
    }


def end_to_end(tally: Tally, setup_s: list[float], workload: str, probe: SpeedProbe) -> dict:
    """End-to-end metrics; item latencies are taken at the probe's reference speed."""
    lat = [x * probe.factor(i) for x, i in zip(tally.latency_s, tally.probe_index)]
    out = latency_metrics(lat)
    beyond = sum(1 for x in lat if x * 1e3 > out["item_p90_ms"]["value"])
    if beyond < 10:
        print(f"bench: warning: only {beyond} samples above p90; raise --seconds", file=sys.stderr)
    if workload == "cli-batch":
        out["peak_rss_mb"] = metric(tally.rss_kb / 1024.0, "MB", len(lat))  # the largest child
    else:
        out["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    out["setup_s"] = metric(statistics.median(setup_s), "s", len(setup_s))
    return out


def per_layer(tracer, first: Tally, round0_ids, stages, import_ms, overhead, all_counts):
    """(JSON per-layer metrics, full per-layer table for the record).

    ``<span>_ms`` is the mean inclusive time per call.  Where the traced run
    replayed a span's inner public functions as its children,
    ``<span>_self_ms`` is the mean of its duration minus theirs.
    """
    table = tracer.layer_table()
    table0 = tracer.layer_table(round0_ids)
    full = {}
    for name, row in sorted(table.items()):
        full[f"{name}_ms"] = metric(row["total_s"] / row["calls"] * 1e3, "ms", row["calls"])
        if row["child_s"]:
            self_ms = (row["total_s"] - row["child_s"]) / row["calls"] * 1e3
            full[f"{name}_self_ms"] = metric(self_ms, "ms", row["calls"])
    for name in LAYER_TIMES_MS:
        if f"{name}_ms" not in full:
            raise RuntimeError(f"layer {name} was not exercised by the traced run")
    pivots = all_counts["simplex.pivots"]
    full["simplex.us_per_pivot"] = metric(
        table["simplex.solve_lp_simplex"]["total_s"] / pivots * 1e6, "us", pivots)
    if "measurement.sample_outcomes" in table:
        full["measurement.sample_outcomes_ms_per_1e6"] = metric(
            table["measurement.sample_outcomes"]["total_s"] / all_counts["trace.sample_draws"] * 1e9,
            "ms", table["measurement.sample_outcomes"]["calls"])
    if "correlations.trichotomic_expectation" in table:
        row = table["correlations.trichotomic_expectation"]
        full["correlations.trichotomic_expectation_us"] = metric(
            row["total_s"] / row["calls"] * 1e6, "us", row["calls"])
    for stage, values in stages.items():
        if values:
            full[f"cli.{stage}_ms"] = metric(statistics.mean(values) * 1e3, "ms", len(values))
    full["cli.import_ms"] = metric(statistics.median(import_ms), "ms", len(import_ms))
    ratio, matched = overhead
    full["trace.overhead_ratio"] = metric(ratio, "1", matched)

    out = {name: full[name] for name in ("cli.import_ms", "trace.overhead_ratio", "simplex.us_per_pivot")}
    out.update({f"{name}_ms": full[f"{name}_ms"] for name in LAYER_TIMES_MS})
    out["items.per_round"] = metric(first.attempted, "count", 1)
    for name in ROUND_COUNTS:
        out[name] = metric(first.counts[name], "count", 1)
    out["trace.replay_mismatch"] = metric(first.counts["trace.replay_mismatch"], "count", 1)
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = metric(table0.get(name, {"calls": 0})["calls"], "count", 1)
    for name in GAUGES:
        out[f"headroom.{name}"] = metric(first.gauges.get(name, 0.0), "1", 1)
    return out, full


def main() -> int:
    args = parse_args()
    locate_program()
    sys.path.insert(0, str(BENCH))
    if args.setup_only:
        print(json.dumps({"digest": setup(args)["digest"]}))
        return 0

    env = environment()
    setup_s, setup_raw_s, manifest = measure_setup(args, SpeedProbe())
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir(args), manifest)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            probe = SpeedProbe()
            tally = run_untraced(wl, args.seconds, probe)
            metrics = end_to_end(tally, setup_s, args.workload, probe)
            full = dict(metrics, **latency_metrics(tally.latency_s, "unscaled."))
            full["unscaled.setup_s"] = metric(statistics.median(setup_raw_s), "s", len(setup_raw_s))
            full["probe_ms"] = metric(statistics.median(probe.samples) * 1e3, "ms", len(probe.samples))
        else:
            import_ms = measure_import_ms(workloads.child_env(ROOT))
            tally, first, round0_ids, overhead = run_traced(wl, args.seconds, tracer)
            stages = getattr(wl, "stages", {})
            metrics, full = per_layer(tracer, first, round0_ids, stages, import_ms, overhead, tally.counts)
    finally:
        wl.close()
    env["loadavg_end"] = os.getloadavg()

    for name, m in full.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"{args.workload} failed_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} items)")
    for name in GAUGES:
        if name in tally.gauges:
            print(f"{args.workload} headroom.{name} = {tally.gauges[name]:.3g} of its limit")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "inputs_sha256": manifest["digest"],
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted, "problems": tally.problems[:200],
        "metrics": metrics, "all_metrics": full, "gauges": tally.gauges,
        "counts": dict(tally.counts), "setup_s_samples": setup_s, "setup_raw_s_samples": setup_raw_s,
        "spans": tracer.to_json() if tracer else None,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    shutil.rmtree(work_dir(args), ignore_errors=True)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
