#!/usr/bin/env python3
"""End-to-end protected-session benchmark: build, run, self-test.

Run from the repository root:

  python3 perfbench/run.py --workload local_spec_n8 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test        # short runs plus negative checks
  python3 perfbench/run.py --record-digests   # re-record perfbench/digests.json

The first call builds the library from src/ and the benchmark into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench). Build output goes to
stderr; the benchmark's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOADS = ["local_spec_n8", "local_locks_sharded", "remote_tcp", "attack_replay"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "nvx.h")):
        print("perfbench: no library sources under %s/src; run from a full checkout" % ROOT,
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench_e2e")


def raise_fd_limit():
    # Servers raise their soft descriptor limit to the hard one; the remote
    # workload's executors keep every served connection open (a known
    # defect the benchmark reports as net.open_fds_delta).
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))


def run_binary(binary, args, capture=False):
    cmd = [binary, "--digests", DIGESTS] + args
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    return subprocess.run(cmd, timeout=170)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """Short runs of every workload in both modes, plus the negative checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = run_binary(binary, ["--workload", workload, "--seed", "7", "--seconds", "1",
                                       "--trace", trace], capture=True)
            result = last_json(proc.stdout)
            tag = "%s --trace %s" % (workload, trace)
            if proc.returncode != 0 or not result or not result["correct"]:
                errors.append("%s: run failed (exit %d)" % (tag, proc.returncode))
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                errors.append("%s: attempted %d failed %d" %
                              (tag, result["attempted"], result["failed"]))
            printed = {}
            for line in proc.stdout.splitlines():
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            for name, unit in expected[trace].items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    errors.append("%s: metric %s missing or not in %s" % (tag, name, unit))
                if printed.get(name) != unit:
                    errors.append("%s: metric %s not printed with unit %s" % (tag, name, unit))
            extra = set(result["metrics"]) - set(expected[trace])
            if extra:
                errors.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
            print("self-test: %-32s ok (%d sessions)" % (tag, result["attempted"]))

    # Each deliberate fault must make the run fail.
    faults = [
        ("local_spec_n8", "--corrupt-digest"),
        ("local_spec_n8", "--force-wrong-verdict"),
        ("attack_replay", "--force-wrong-verdict"),
    ]
    for workload, flag in faults:
        proc = run_binary(binary, ["--workload", workload, "--seed", "7", "--seconds", "1",
                                   "--trace", "0", flag], capture=True)
        result = last_json(proc.stdout)
        caught = proc.returncode != 0 and result is not None and not result["correct"]
        if flag == "--force-wrong-verdict":
            caught = caught and result["failed"] >= 1
        tag = "%s %s" % (workload, flag)
        if caught:
            print("self-test: %-32s fails as it must" % tag)
        else:
            errors.append("%s: the run did not fail" % tag)

    for error in errors:
        print("self-test FAILED: %s" % error)
    print("self-test: %s" % ("ok" if not errors else "FAILED"))
    return 0 if not errors else 1


def record_digests(binary):
    digests = {}
    for workload in WORKLOADS:
        proc = run_binary(binary, ["--workload", workload, "--seconds", "1", "--record-digest"],
                          capture=True)
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] == "golden_digest":
                digests[parts[1]] = parts[2]
    if sorted(digests) != sorted(WORKLOADS):
        print("perfbench: could not record every digest", file=sys.stderr)
        return 1
    with open(DIGESTS, "w") as f:
        json.dump({w: digests[w] for w in WORKLOADS}, f, indent=2)
        f.write("\n")
    print("recorded %s" % DIGESTS)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.record_digests):
        parser.error("one of --workload, --self-test or --record-digests is required")

    binary = build()
    if binary is None:
        return 2
    raise_fd_limit()
    if args.self_test:
        return self_test(binary)
    if args.record_digests:
        return record_digests(binary)

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        bench_args += ["--spans-out", os.path.join(build_dir(), "spans-%s.tsv" % args.workload)]
    sys.stdout.flush()
    return run_binary(binary, bench_args).returncode


if __name__ == "__main__":
    sys.exit(main())
