"""Run one benchmark workload and print its metrics.

    python3 hsibench/run.py --workload amc-gpu --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics and
writes the recorded spans under ``.hsibench_out/``.

Exit codes: 0 success, 1 an output or count check failed (the result
line says ``"correct": false``), 2 the run is invalid or the checkout
has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("amc-gpu", "amc-ref-chunked", "serve-mixed")
PROBE_TIMEOUT_S = 120


def import_repro() -> float:
    """Import the checkout's package; returns the seconds it took."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no package to measure: {src}/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import repro
    elapsed = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up and print it as JSON")
    parser.add_argument("--state-dir", help="seeded state (probe only)")
    return parser.parse_args(argv)


def prober(args):
    """A function running one set-up probe in a fresh process."""
    def probe(extra=()):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        return json.loads(done.stdout.strip().splitlines()[-1])
    return probe


def select_metrics(wanted: list[dict], values: dict[str, float]) -> dict:
    """``values`` as ``{name: {value, unit}}`` for exactly ``wanted``.

    A per-layer metric the workload did not touch reads 0; a value no
    catalogue entry names is an error (a misspelt layer).
    """
    names = {m["name"] for m in wanted}
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_repro()
    # import only the workload's own module: the benchmark's imports
    # count in the process's peak RSS
    sys.path.insert(0, HERE)
    from common import PROBES
    from spans import write_spans

    if args.workload == "serve-mixed":
        import serve
    else:
        import closed
        spec = {"amc-gpu": closed.AMC_GPU,
                "amc-ref-chunked": closed.AMC_REF_CHUNKED}[args.workload]

    if args.setup_probe:
        if args.workload == "serve-mixed":
            out = serve.probe_setup(args.seed, args.seconds, import_s,
                                    args.state_dir)
        else:
            out = closed.probe_setup(spec, args.seed, import_s)
        print(json.dumps(out))
        return 0

    bench = catalogue()
    trace = bool(args.trace)
    probe = prober(args)
    if args.workload == "serve-mixed":
        outcome = serve.run(ROOT, args.seed, args.seconds, trace, import_s,
                            probe)
    else:
        outcome = closed.run(spec, args.seed, args.seconds, trace, import_s,
                             lambda: [probe() for _ in range(PROBES)])
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    if trace:
        out_dir = os.path.join(ROOT, ".hsibench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"{args.workload}-seed{args.seed}.spans.jsonl")
        write_spans(outcome.spans, path)
        print(f"spans: {path}")
    if outcome.invalid:
        for reason in outcome.invalid:
            print(f"INVALID RUN: {reason}")
        return 2
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    result = {"correct": not outcome.problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": select_metrics(wanted, outcome.metrics)}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
