#!/usr/bin/env python3
"""Build and run the placement-system benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload pipeline_suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload frontier_suite --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selfcheck --workload serve_mixed --seed 1 --seconds 20

The benchmark is built from source with cargo (offline) into
$CARGO_TARGET_DIR, by default `.bench_build` at the repository root.  The
last line printed is one JSON object: `correct`, `attempted`, `failed` and
the metrics BENCHMARK.json lists, the end-to-end ones with `--trace 0` and
the per-layer ones with `--trace 1`.  The exit code is nonzero when an
operation's output was wrong, when the build failed, or when a metric
BENCHMARK.json names was not measured.

`--selfcheck` runs the workload twice with the same seed and fails unless
the deterministic metrics (quality metrics, and for the closed-loop
workloads the per-layer counts) are identical.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    """Build the benchmark; return the path of its binary, or None."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build_cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        result = subprocess.run(build_cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run cargo: {err}", file=sys.stderr)
        return None
    if result.returncode != 0:
        return None
    return os.path.join(target, "release", "flashram-perfbench")


def run(binary, args):
    """Run the benchmark binary; return (exit code, stdout lines)."""
    try:
        result = subprocess.run(
            [binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return result.returncode, result.stdout.splitlines()


def deterministic_line(lines):
    return next((l for l in lines if l.startswith("deterministic ")), None)


def main():
    args = sys.argv[1:]
    selfcheck = "--selfcheck" in args
    args = [a for a in args if a != "--selfcheck"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if selfcheck:
        runs = [run(binary, args + ["--trace", "0"]) for _ in range(2)]
        lines = [deterministic_line(out) for _, out in runs]
        if any(code != 0 for code, _ in runs) or None in lines:
            print("perfbench: selfcheck run failed", file=sys.stderr)
            return 1
        if lines[0] != lines[1]:
            print("perfbench: deterministic metrics differ between two runs of one seed")
            print(lines[0])
            print(lines[1])
            return 1
        print("perfbench: deterministic metrics identical across two runs")
        print(lines[0])
        return 0

    code, lines = run(binary, args)
    if not lines:
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        return code or 1
    traced = "--trace" in args and args[args.index("--trace") + 1] not in ("0", "")
    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    for m in wanted:
        unit = result["metrics"][m["name"]]["unit"]
        if unit != m["unit"]:
            print(f"perfbench: {m['name']} measured in {unit}, not {m['unit']}", file=sys.stderr)
            return 3
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
