"""statlen benchmark: three study workloads run as in-process CLI calls.

Usage, from the root of a checkout (the package is run from ``src``, not
installed):

    python3 perfbench/run.py --workload transport-study --seed 0 --seconds 30 --trace 0

One client runs a fixed batch of studies in a closed loop: the next study
starts only when the previous one has finished and its records have been
checked.  Each experiment is a call to ``statlen.cli.main``.  The batch is
repeated while another repetition fits in ``--seconds``; it always runs at
least once.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the batch
once untraced and once traced and prints the per-layer metrics.  Times are
scaled to the speed of a reference machine by a calibration kernel timed
between calls (README.md, "Machine speed").  The last line of standard
output is one JSON object; a fuller result with the environment, record
digests and spans is written under ``.perfbench/``.
"""
from __future__ import annotations

import os
import sys

# The BLAS thread count must be fixed before numpy loads.  One thread is
# never more than nproc and keeps runs on a shared machine comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("STATLEN_DIM_CAP", None)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import studies
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PROBE_TIMEOUT_S = 120
# Mean seconds of each calibration kernel on the machine the benchmark was
# defined on (a 2-vCPU x86_64 VM, OpenBLAS on one thread); reported times
# are scaled to that speed.  See "Machine speed" in README.md.
REF_KERNEL_S = {"interpreter": 0.0230, "lapack": 0.0260}
# Calls not started this long after the process began are counted as failed,
# so that a run of a much slower program still ends within 180 s.
DEADLINE_S = 150


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _load_statlen():
    init = SRC / "statlen" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no statlen sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import statlen

    if Path(statlen.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported statlen from {statlen.__file__}, not {init}")
    import statlen.cli

    return statlen


# ---------- environment ----------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "statlen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas():
    """(config string, thread count) from the loaded OpenBLAS, when found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = threads = None
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if threads is None and hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    fn = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    threads = fn()
                if config is None and hasattr(lib, f"{prefix}get_config{suffix}"):
                    fn = getattr(lib, f"{prefix}get_config{suffix}")
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    config = fn().decode()
        if config or threads:
            return config, threads
    return None, None


def _steal_ticks():
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _environment():
    import numpy as np

    config, threads = _openblas()
    try:
        blas_version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        blas_version = None
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_version": blas_version,
        "openblas_config": config,
        "blas_threads": threads,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "statlen_dim_cap_env": os.environ.get("STATLEN_DIM_CAP"),
        "machine": platform.machine(),
    }


# ---------- machine speed ----------

_LAPACK_INPUT = []


def _calibrate(kernel):
    """Seconds taken by a fixed kernel that shares no code with statlen:
    ``interpreter``, a 300 000-step loop, or ``lapack``, two 300x300
    symmetric eigendecompositions.

    On a shared host the machine's speed drifts by up to 2x over minutes,
    and the program's times drift with it.  Every timed span is scaled by
    the calibration samples taken around it, so the reported times follow
    the program, not the host."""
    import numpy as np

    if not _LAPACK_INPUT:
        m = np.random.default_rng(0).standard_normal((300, 300))
        _LAPACK_INPUT.append(m + m.T)
    t0 = time.perf_counter()
    if kernel == "interpreter":
        acc = 0
        for i in range(300_000):
            acc += i * i
    else:
        for _ in range(2):
            np.linalg.eigh(_LAPACK_INPUT[0])
    return time.perf_counter() - t0


def _speed_scale(samples, kernel):
    """Factor that turns seconds measured during ``samples`` into seconds on
    the reference machine.

    A timed span adds up the machine's slowness over its length, so the
    slowness is estimated by a mean of the samples, not a median: the host
    switches between a fast and a slow state many times a second, and a
    median jumps with the share of samples that fell in each.  The highest
    and lowest twentieth (at least one each) are dropped, so that a stall
    that hit a single short sample does not count."""
    samples = sorted(samples)
    cut = max(1, len(samples) // 20)
    return REF_KERNEL_S[kernel] / statistics.fmean(samples[cut:-cut])


# ---------- set-up ----------

def _setup_probe(args) -> int:
    _load_statlen()
    print(studies.config_digest(studies.make_batch(args.workload, args.seed)))
    return 0


class _SetupProbes:
    """Wall times of fresh interpreters importing statlen and generating the
    configs, and the config digests they printed.

    The first pass runs one probe before each study and one after the last,
    outside the timed spans, so that the probes sample the machine over the
    whole pass rather than in one burst, and the pass's scale applies to
    them."""

    def __init__(self, workload, seed):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.samples, self.digests = [], set()

    def __call__(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        self.samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{proc.stderr}")
        self.digests.add(proc.stdout.strip())


# ---------- running and checking ----------

def _run_call(call, main_fn):
    """Run one experiment; return (seconds, digests, bytes written, problems)."""
    outputs = [Path(call.out)] + ([Path(call.out + ".history.csv")] if call.history else [])
    for path in outputs:
        path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        code = main_fn(call.argv(call.name + ".json"))
    except (Exception, SystemExit):  # a crash in the program is a failed call
        return time.perf_counter() - t0, [], 0, [traceback.format_exc(limit=3)]
    seconds = time.perf_counter() - t0
    problems = [] if code == 0 else [f"exit code {code}"]
    digests, size = [], 0
    try:
        data = [path.read_bytes() for path in outputs]
        digests = [hashlib.sha256(d).hexdigest() for d in data]
        size = sum(len(d) for d in data)
        problems += call.check(*[studies.parse_csv(d.decode("utf-8")) for d in data])
    except Exception:  # unreadable or malformed records fail the call
        problems.append(traceback.format_exc(limit=3))
    return seconds, digests, size, problems


def _run_batch(batch, main_fn, deadline, kernel, tracer=None, between=None):
    """Run every study in order; per-study seconds, per-call results and the
    calibration samples taken before every call.  ``between`` is called
    before each study and after the last.  Neither is inside a timed span."""
    study_s, calls, calibration = [], {}, []
    for index, study in enumerate(batch):
        if time.perf_counter() > deadline:
            for call in (c for rest in batch[index:] for c in rest):
                calls[call.name] = (0.0, [], 0, ["not run: the run's time limit was reached"])
            break
        if between is not None:
            between()
        elapsed = 0.0
        for call in study:
            calibration.append(_calibrate(kernel))
            if tracer is not None:
                tracer.study, tracer.split = index, call.split
            s0 = time.perf_counter()
            calls[call.name] = _run_call(call, main_fn)
            elapsed += time.perf_counter() - s0
        study_s.append(elapsed)
    if between is not None:
        between()
    calibration.append(_calibrate(kernel))
    scale = _speed_scale(calibration, kernel)
    return {"wall_s": scale * sum(study_s), "study_s": [scale * s for s in study_s],
            "raw_wall_s": sum(study_s), "scale": scale, "calibration_s": calibration,
            "calls": calls}


def _run_passes(batch, statlen, seconds, trace, deadline, kernel, probes):
    """Untraced repetitions of the batch, then a traced one when asked.  The
    set-up ``probes`` run between the studies of the first pass."""
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        for study in batch:
            for call in study:
                Path(call.name + ".json").write_text(json.dumps(call.config), encoding="utf-8")
        passes = []
        start = time.perf_counter()
        while True:
            s0 = time.perf_counter()
            passes.append(_run_batch(batch, statlen.cli.main, deadline, kernel,
                                     between=None if passes else probes))
            now = time.perf_counter()
            if trace or now > deadline or now - start + (now - s0) > seconds:
                break
        tracer = None
        if trace:
            tracer = tracing.Tracer(statlen)
            traced_main = tracer.wrap(statlen.cli.main, "cli.main")
            tracer.install()
            try:
                passes.append(_run_batch(batch, traced_main, deadline, kernel, tracer))
            finally:
                tracer.uninstall()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    # records must repeat byte for byte across repetitions and under tracing
    digests = {name: r[1] for name, r in passes[0]["calls"].items()}
    for p in passes[1:]:
        for name, (_, later, _, problems) in p["calls"].items():
            if later != digests[name]:
                problems.append("record differs from the first untraced run of the call")
    return passes, tracer, digests


def _baseline_mismatches(workload, seed, digests):
    """Records whose digest differs from the committed baseline, or None."""
    path = BENCH_DIR / "baseline.json"
    if not path.is_file():
        return None
    known = json.loads(path.read_text()).get("digests", {}).get(workload, {}).get(str(seed))
    if known is None:
        return None
    return sum(1 for name, d in digests.items() if known.get(name) != d)


def _layer_values(workload, tracer, untraced, traced, notes):
    values = tracing.layer_metrics(tracer)
    values["serialize.bytes_written"] = sum(r[2] for r in traced["calls"].values())
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    for name, entry in spec["layers"].items():
        if workload in entry["moves"] and not values.get(name):
            notes.append(f"layer metric {name} is zero on a workload it should move")
    return values


def _end_to_end_values(setup_samples, passes, failures):
    return {
        # the probes ran during the first pass, so its scale applies to them
        "setup_s": passes[0]["scale"] * statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "study_s.p50": statistics.median(s for p in passes for s in p["study_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # add-one estimate over the batch's distinct calls: never 0, and a
        # single new failure doubles it
        "failed_frac": (len(failures) + 1) / (len(passes[0]["calls"]) + 1),
    }


def _write_result(stem, result, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        fields = ("id", "parent", "name", "study", "split", "start", "end", "self_s")
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.records:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def main(argv=None) -> int:
    deadline = time.perf_counter() + DEADLINE_S
    args = _parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    statlen = _load_statlen()
    if args.workload not in studies.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(studies.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    steal0 = _steal_ticks()
    kernel = studies.CALIBRATION_KERNEL[args.workload]
    _calibrate(kernel)  # warm-up: the first eigh loads LAPACK
    batch = studies.make_batch(args.workload, args.seed)
    config_digest = studies.config_digest(batch)
    probes = _SetupProbes(args.workload, args.seed)
    passes, tracer, digests = _run_passes(batch, statlen, args.seconds, args.trace, deadline,
                                          kernel, probes)
    notes = []
    if probes.digests != {config_digest}:
        notes.append(f"configs differ between interpreters: {sorted(probes.digests)}")
    failures = {name: r[3] for p in passes for name, r in p["calls"].items() if r[3]}
    attempted = sum(len(p["calls"]) for p in passes)
    failed = sum(1 for p in passes for r in p["calls"].values() if r[3])
    traced = passes.pop() if args.trace else None
    if args.trace:
        values = _layer_values(args.workload, tracer, passes[0], traced, notes)
    else:
        values = _end_to_end_values(probes.samples, passes, failures)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics declared but not measured: {missing}")
    steal1 = _steal_ticks()

    def timings(p):
        return {"wall_s": p["wall_s"], "study_s": p["study_s"], "raw_wall_s": p["raw_wall_s"],
                "scale": p["scale"], "calibration_s": p["calibration_s"]}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "config_sha256": config_digest,
        "setup_samples_s": probes.samples,
        "calibration_kernel": kernel,
        "calibration_ref_s": REF_KERNEL_S[kernel],
        "steal_ticks": None if None in (steal0, steal1) else steal1 - steal0,
        "untraced_passes": [timings(p) for p in passes],
        "traced_pass": timings(traced) if traced else None,
        "call_s": {name: statistics.median(p["calls"][name][0] for p in passes)
                   for name in digests},
        "record_sha256": digests,
        "records_differing_from_baseline": _baseline_mismatches(args.workload, args.seed, digests),
        "failures": failures,
        "notes": notes,
        "metrics": values,
        "rebound_names": tracer.rebound if tracer else None,
    }
    _write_result(f"{args.workload}-seed{args.seed}-trace{args.trace}", result, tracer)

    for name, problems in failures.items():
        print(f"FAILED {name}: {problems[0].strip()}")
    for note in notes:
        print(f"NOTE {note}")
    print(f"config sha256 {config_digest}; records differing from baseline: "
          f"{result['records_differing_from_baseline']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failures and not notes, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
