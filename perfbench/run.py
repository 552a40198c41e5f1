"""pamunet benchmark: one workload per call, run in a fresh child process.

Run from the root of a pamunet checkout:

    python3 perfbench/run.py --workload train-ablation --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same figures by name and unit, plus the run record.  The
exit code is 0 only when every output check passed.

    python3 perfbench/run.py --self-test [--workload NAME]

runs the traced run twice per workload and asserts that the computed counts
repeat exactly and that the MACs counted at the ops equal ``flops.count_flops``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-ablation", "train-paper", "predict-paper")
CHILD_TIMEOUT_S = 170
# One BLAS thread: on a shared host a second thread waits for a second CPU
# that other tenants also use, so step times would measure the scheduler.
BLAS_THREADS = 1
# counts computed from shapes and call sites; they must repeat exactly
COUNT_METRICS = ("tensor.op_calls", "tensor.tape_nodes", "flops.forward_macs",
                 "attention.materialized_mib", "attention.scaled_dot_attention_streaming.calls",
                 "cli.forwards_per_image", "data.write_image_mib")


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def die_with_parent() -> None:
    """Runs in the child before exec: the kernel kills it if this process dies
    first, even by SIGKILL, so no workload outlives the benchmark."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    PR_SET_PDEATHSIG = 1
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def run_child(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; returns its result plus peak RSS."""
    work = os.path.join(root, ".perfbench", "work", f"{workload}-{seed}-{os.getpid()}")
    spans_dir = os.path.join(root, ".perfbench", "spans")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(spans_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work, "--result", result_path,
           "--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.csv.gz")]
    proc = None
    try:
        # the child's own prints (e.g. the CLI's) go to stderr, keeping stdout ours
        proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, preexec_fn=die_with_parent)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
            time.sleep(0.02)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        if proc is not None and proc.returncode is None:  # timed out or interrupted
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    result["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def report(workload: str, seed: int, seconds: float, trace: int, result: dict) -> bool:
    """Print the human-readable lines and the final JSON line; True if correct."""
    rec = result["record"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={trace}")
    print(f"record nproc={rec['nproc']} blas_threads={rec['blas_threads']} "
          f"python={rec['python']} numpy={rec['numpy']} machine={rec['machine']} "
          f"openblas=\"{rec['openblas']}\"")
    if trace:
        units = metric_units("per_layer")
        metrics = {name: result["per_layer"].get(name, 0.0) for name in units}
        for name, value in metrics.items():
            print(f"  {name:<48} {value:14.6g} {units[name]}")
        a, b = result["untraced"], result["traced"]
        print(f"  tracing overhead: step_ms_p50 {a['step_ms_p50']:.4f} ms untraced "
              f"({a['steps']} steps), {b['step_ms_p50']:.4f} ms traced ({b['steps']} steps)")
    else:
        units = metric_units("end_to_end")
        metrics = dict(result["end_to_end"], setup_s=result["setup_s"],
                       peak_rss_mib=result["peak_rss_mib"])
        notes = {"step_ms_p50": f"{metrics['steps']} steps",
                 "samples_per_s": f"{metrics['samples']} samples",
                 "peak_rss_mib": "child process",
                 "setup_s": f"median of {result['setup_reps']} set-ups"}
        for name, unit in units.items():
            print(f"  {name:<16} {metrics[name]:14.6f} {unit:<4} ({notes.get(name, '')})")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<16} {rate:14.6f} {'':<4} ({failed} of {attempted} steps failed)")
    problems = result["checks"] + result["errors"]
    values_ok = all(isinstance(m["value"], (int, float)) and m["value"] == m["value"]
                    for m in out.values())
    correct = not problems and failed == 0 and attempted > 0 and values_ok
    for msg in problems:
        print(f"  check failed: {msg}")
    print("  output checks: " + ("passed" if correct else "FAILED"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return correct


def self_test(root: str, workloads) -> bool:
    ok = True
    for workload in workloads:
        runs = [run_child(root, workload, 1, 2.0, 1) for _ in range(2)]
        for i, r in enumerate(runs):
            if r["checks"] or r["failed"]:
                ok = False
                print(f"FAIL {workload} run {i}: {r['checks'] + r['errors']}")
            diag = r["diagnostics"]
            if diag["op_macs"] != diag["flops_macs"]:
                ok = False
                print(f"FAIL {workload} run {i}: MACs at the ops {diag['op_macs']} "
                      f"!= flops.count_flops {diag['flops_macs']}")
        missing = set(metric_units("per_layer")) - set(runs[0]["per_layer"])
        if missing:
            ok = False
            print(f"FAIL {workload}: per-layer metrics not produced: {sorted(missing)}")
        for name in COUNT_METRICS:
            a, b = (r["per_layer"][name] for r in runs)
            if a != b:
                ok = False
                print(f"FAIL {workload}: {name} differs between runs: {a!r} vs {b!r}")
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: "
              + ", ".join(f"{n}={runs[0]['per_layer'][n]:g}" for n in COUNT_METRICS))
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pamunet benchmark (see perfbench/README.md)")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    # a termination request unwinds through run_child, which stops the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pamunet", "__init__.py")):
        print("perfbench: src/pamunet not found; run from the root of a pamunet checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test(root, [args.workload] if args.workload else WORKLOADS) else 1
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        result = run_child(root, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0 if report(args.workload, args.seed, args.seconds, args.trace, result) else 1


if __name__ == "__main__":
    sys.exit(main())
