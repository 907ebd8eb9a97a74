"""swcheck benchmark: time to a verdict, checked against recorded verdicts.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-oracle

Load shape: a closed loop with one caller.  One swcheck invocation runs at a
time, each in a fresh interpreter (``perfbench/child.py``), as a person or a
CI job waits for one verdict before asking for the next.  A run makes
``round(S * rate)`` timed invocations (at least 4), with a fixed ``rate`` per
workload, so the invocation count is the same on every commit run with the
same S, and a run lasts about S seconds at the commit that defined the
benchmark.  Every fourth invocation is a ``--perturb 1e-3`` negative
control, which must exit 1.

Each invocation gets its own swcheck seed (and, for ``model-decimal``, its
own chart) derived from ``--seed``; one untimed warm-up invocation uses a
seed outside the timed set.  Every report is compared with the verdicts in
``perfbench/oracle.json``.

Times are measured inside the child and converted to reference seconds by
``probe.SpeedMeter``, because the machine's speed drifts with other tenants'
load; the raw times are printed and kept next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the same invocations twice, alternately untraced and traced, and
prints the per-layer metrics of the traced ones, as means per invocation,
with ``trace.overhead_s``.  The last line of standard output is one JSON
object; a results file with the environment stamp and every invocation is
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
ORACLE = BENCH / "oracle.json"

sys.path.insert(0, str(BENCH))
import chart  # noqa: E402
import oracle  # noqa: E402

PERTURB_EVERY = 4
PERTURB = ("--perturb", "1e-3")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60
SEED_STRIDE = 1000
WARMUP_OFFSET = SEED_STRIDE - 1


@dataclass(frozen=True)
class Workload:
    # Timed invocations per second of --seconds.  Set so that at the commit
    # that defined the benchmark a run, set-up and warm-up included, lasts
    # about --seconds on an uncontended 2-vCPU sandbox.
    rate: float
    suite_args: tuple[str, ...] = ()
    chart: bool = False

    def argv(self, seed: int, perturbed: bool, chart_path: Path | None) -> list[str]:
        out = list(self.suite_args) + ["--seed", str(seed)]
        if self.chart:
            out += ["--model", str(chart_path)]
        return out + (list(PERTURB) if perturbed else [])


WORKLOADS = {
    # The command users run; curvature and extalg do most of its work.
    "all-default": Workload(
        rate=0.14,
        suite_args=("all",),
    ),
    # Symbolic poly work rebuilt inside point loops; curvature is idle.
    "dirac-fields": Workload(
        rate=0.9,
        suite_args=("dirac",),
    ),
    # Float residue keeps residual polynomials live: each is built once and
    # evaluated at every point, the opposite use of poly from dirac-fields.
    "model-decimal": Workload(
        rate=1.15,
        suite_args=("model", "--samples", "50"),
        chart=True,
    ),
}


# -- environment --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "swcheck").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_stamp() -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "swcheck_commit": _git_commit(),
        "swcheck_source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# -- child processes ------------------------------------------------------------


def _child(spec: dict, tag: str) -> tuple[dict | None, str]:
    """Run ``child.py`` on ``spec``; return its record (None if it died) and stderr."""
    result = WORK / f"{tag}.result.json"
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(dict(spec, result=str(result)))],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"killed after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.exists():
        return None, proc.stderr[-2000:] or f"child exited {proc.returncode}"
    return json.loads(result.read_text(encoding="utf-8")), proc.stderr[-2000:]


def measure_setup() -> list[dict]:
    """``import swcheck.cli`` in SETUP_REPEATS fresh interpreters: raw and normalised times."""
    times = []
    for k in range(SETUP_REPEATS):
        record, err = _child({"mode": "setup"}, f"setup-{k}")
        if record is None:
            raise RuntimeError(f"import swcheck.cli failed: {err}")
        times.append({"wall_s": record["wall_s"], "normalised_s": record["normalised_s"]})
    return times


def invoke(argv: list[str], tag: str, trace: bool, invocation: int) -> dict:
    """Run one invocation in a fresh interpreter; return its record and report."""
    report = WORK / f"{tag}.report.json"
    report.unlink(missing_ok=True)
    spec = {
        "mode": "invoke",
        "argv": argv + ["--output", str(report)],
        "trace": int(trace),
        "invocation": invocation,
        "spans": str(RESULTS / f"{tag}.spans.json"),
    }
    record, err = _child(spec, tag)
    if record is None:
        return {"exit": None, "error": err, "report": None}
    if record["exit"] == 2:
        record["error"] = err
    record["report"] = (
        json.loads(report.read_text(encoding="utf-8")) if report.exists() else None
    )
    return record


# -- one run ----------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    index: int
    seed: int
    perturbed: bool
    chart_path: Path | None


def plan(workload: Workload, seed: int, seconds: int) -> tuple[Invocation, list[Invocation]]:
    """The warm-up and the timed invocations of one run, from the run seed."""
    base = (seed % 1_000_000) * SEED_STRIDE
    n = max(PERTURB_EVERY, round(seconds * workload.rate))

    def make(index: int, s: int, perturbed: bool) -> Invocation:
        path = None
        if workload.chart:
            path = WORK / f"chart-{s}.json"
            chart.write_chart(s, path)
        return Invocation(index, s, perturbed, path)

    warmup = make(-1, base + WARMUP_OFFSET, False)
    timed = [make(k, base + k, k % PERTURB_EVERY == PERTURB_EVERY - 1) for k in range(n)]
    return warmup, timed


def judge(name: str, inv: Invocation, record: dict, expected: dict) -> list[str]:
    """Reasons this invocation failed; empty when it is right."""
    variant = "perturbed" if inv.perturbed else "clean"
    if record["exit"] is None or record["exit"] == 2:
        return [f"raised or exited 2: {record.get('error')}"]
    want = expected[name][variant]
    problems = []
    if record["exit"] != want["exit"]:
        problems.append(f"exit {record['exit']}, expected {want['exit']}")
    if record["report"] is None:
        return problems + ["no report written"]
    problems += oracle.compare(oracle.verdicts(record["report"]), want["checks"], inv.perturbed)
    return problems


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    expected = json.loads(ORACLE.read_text(encoding="utf-8"))["workloads"]
    stamp = environment_stamp()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)

    setup_times = measure_setup()
    warmup, timed = plan(workload, seed, seconds)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    invoke(workload.argv(warmup.seed, False, warmup.chart_path), f"{stem}-warmup", False, -1)

    if trace:
        targets = timed[: math.ceil(len(timed) / 2)]
        passes = [(inv, tr) for inv in targets for tr in (False, True)]
    else:
        passes = [(inv, False) for inv in timed]

    rows = []
    for inv, tr in passes:
        tag = f"{stem}-{inv.index}-{'traced' if tr else 'plain'}"
        record = invoke(workload.argv(inv.seed, inv.perturbed, inv.chart_path), tag, tr, inv.index)
        problems = judge(name, inv, record, expected)
        rows.append(
            {
                "index": inv.index,
                "seed": inv.seed,
                "perturbed": inv.perturbed,
                "traced": tr,
                "exit": record["exit"],
                "wall_s": record.get("wall_s"),
                "normalised_s": record.get("normalised_s"),
                "probe_s": record.get("probe_s"),
                "maxrss_kb": record.get("maxrss_kb"),
                "problems": problems,
                "trace": record.get("trace"),
            }
        )
    failed = sum(1 for r in rows if r["problems"])
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": stamp,
        "setup": setup_times,
        "invocations": rows,
        "attempted": len(rows),
        "failed": failed,
        "failed_frac": failed / len(rows),
    }
    if trace:
        result["metrics"] = layer_metrics(rows)
    else:
        result["metrics"], result["raw"] = end_to_end_metrics(rows, setup_times)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    shutil.rmtree(WORK, ignore_errors=True)
    return result


def record_oracle() -> None:
    """Rewrite ``oracle.json`` from every workload's clean and perturbed variants.

    Each variant runs on every seed in ``oracle.RECORD_SEEDS``; the verdicts
    must agree across seeds, or nothing is written.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    workloads: dict = {}
    for name, workload in WORKLOADS.items():
        variants: dict = {}
        for seed in oracle.RECORD_SEEDS:
            for inv in plan(workload, seed, 0)[1]:
                argv = workload.argv(inv.seed, inv.perturbed, inv.chart_path)
                record = invoke(argv, f"oracle-{name}-{inv.index}", False, inv.index)
                if record["exit"] not in (0, 1) or record["report"] is None:
                    raise SystemExit(f"{name} seed {inv.seed}: {record['error']}")
                entry = {"exit": record["exit"], "checks": oracle.verdicts(record["report"])}
                variant = "perturbed" if inv.perturbed else "clean"
                if variants.setdefault(variant, entry) != entry:
                    raise SystemExit(f"{name} {variant}: verdicts differ between seeds")
        workloads[name] = variants
    doc = {
        "recorded_from": {"swcheck_commit": _git_commit(), "python": platform.python_version()},
        "record_seeds": list(oracle.RECORD_SEEDS),
        "workloads": workloads,
    }
    ORACLE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"wrote {ORACLE}")


# -- metrics ------------------------------------------------------------------------


def end_to_end_metrics(rows: list[dict], setup: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, in reference seconds, and the same times raw."""
    done = [r for r in rows if r["normalised_s"] is not None]
    norm = [r["normalised_s"] for r in done] or [0.0]
    raw = [r["wall_s"] - r["probe_s"] for r in done] or [0.0]
    rss = [r["maxrss_kb"] for r in rows if r["maxrss_kb"] is not None] or [0]
    metrics = {
        "setup_s": (statistics.median(t["normalised_s"] for t in setup), "s"),
        "wall_s": (sum(norm), "s"),
        "verdict_s.p50": (statistics.median(norm), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }
    raw_metrics = {
        "raw.setup_s": (statistics.median(t["wall_s"] for t in setup), "s"),
        "raw.wall_s": (sum(raw), "s"),
        "raw.verdict_s.p50": (statistics.median(raw), "s"),
    }
    return metrics, raw_metrics


# Per-layer metric names: (layer, kind) with kind "calls", "self_s" or "s".
LAYER_METRICS = (
    [("cli.run", "self_s")]
    + [(f"cli.suite.{s}", "s") for s in ("clifford", "selfdual", "curvature", "model", "dirac", "solution")]
    + [
        (layer, kind)
        for layer in (
            "curvature.draw",
            "curvature.rho_plus",
            "curvature.bianchi_b",
            "curvature.ric_identity_check",
            "curvature.curvature_tensor",
            "extalg.wedge",
            "extalg.hodge_star",
            "extalg.contact_star",
            "extalg.sd_project",
            "cliff5.sigma_full",
            "cliff5.two_form_matrix",
            "poly.mul",
            "poly.add",
            "poly.diff",
            "poly.eval",
            "poly.parse",
            "models.apply",
            "models.lie_bracket",
            "dirac_sw.spin_covariant_derivative",
            "dirac_sw.full_dirac",
            "dirac_sw.full_dirac_fd",
        )
        for kind in ("calls", "self_s")
    ]
    + [
        (f"models.{f}", "s")
        for f in ("contact_check", "tw_axiom_check", "cr_check", "load_model", "sample_points")
    ]
    + [
        (f"dirac_sw.{f}", "s")
        for f in ("dbar_identity_residual", "sw_residual", "canonical_solution")
    ]
)


def layer_metrics(rows: list[dict]) -> dict:
    """Per-layer metrics as means over the traced invocations."""
    traced = [r for r in rows if r["traced"] and r["trace"]]
    plain = {
        r["index"]: r["wall_s"] - r["probe_s"]
        for r in rows
        if not r["traced"] and r["wall_s"] is not None
    }
    n = len(traced)
    if n == 0:
        return {}

    def mean(values) -> float:
        return sum(values) / n

    out = {}
    for layer, kind in LAYER_METRICS:
        value = mean(r["trace"]["layers"].get(layer, {}).get(kind, 0) for r in traced)
        unit = "count" if kind == "calls" else "s"
        out[f"{layer}.{kind}"] = (value, unit)
    for counter in ("extalg.KForm.created", "poly.from_dict.calls"):
        out[counter] = (mean(r["trace"]["counts"].get(counter, 0) for r in traced), "count")
    out["poly.eval.terms"] = (mean(r["trace"]["poly.eval.terms"] for r in traced), "count")
    applies = sum(r["trace"]["layers"].get("models.apply", {}).get("calls", 0) for r in traced)
    repeats = sum(r["trace"]["models.apply.repeats"] for r in traced)
    out["models.apply.repeat_frac"] = (repeats / applies if applies else 0.0, "ratio")
    pairs = [(r["wall_s"], plain[r["index"]]) for r in traced if r["index"] in plain]
    out["trace.overhead_s"] = (sum(t - p for t, p in pairs) / max(len(pairs), 1), "s")
    return out


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-oracle", action="store_true", help="rewrite perfbench/oracle.json")
    args = p.parse_args(argv)

    if not (SRC / "swcheck" / "cli.py").is_file():
        print(f"perfbench: no swcheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_oracle:
        record_oracle()
        return 0
    if not ORACLE.is_file():
        print(f"perfbench: missing {ORACLE}", file=sys.stderr)
        return 2
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"  invocations {result['attempted']} (every {PERTURB_EVERY}th a --perturb control)")
    for key, (value, unit) in {**result["metrics"], **result.get("raw", {})}.items():
        print(f"  {key:42s} {value:.6g} {unit}")
    print(f"  {'failed_frac':42s} {result['failed_frac']:.6g} share")
    for row in result["invocations"]:
        for problem in row["problems"]:
            print(f"perfbench: invocation {row['index']} seed {row['seed']}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
