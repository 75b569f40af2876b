"""Benchmark of ideallat: one workload per run, every metric on the last line.

    python3 bench/run.py --workload corpus|hash|oracles|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  ideallat is imported from ``src/`` of
that checkout, never from an installed copy; without it the run fails.
The program runs in fresh child processes (see worker.py) and this
process checks their outputs afterwards against computations made apart
from ideallat (see checks.py).

With ``--trace 0`` the last line reports the end-to-end metrics
``ops_per_s``, ``setup_s`` and ``peak_rss_mb``.  The two times are scaled
to a reference host speed measured in the same processes (calibrate.py);
stderr shows the raw figures.  With ``--trace 1`` it
reports the per-layer metrics of tracer.py from a separate traced run of
a fixed number of rounds, and the spans go to ``bench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate  # bench/ is on sys.path when this file runs as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 9  # set-up is timed in this many fresh processes; the median is reported
PROBE_RUNS = 5  # fresh interpreters timed for cli.startup_s and cli.import_s
CHILD_TIMEOUT_S = 150
# traced runs do a fixed number of rounds so that their counters repeat exactly
TRACE_ROUNDS = {"corpus": 1, "hash": 300, "oracles": 1, "cli": 2}
# the one operation kept although it fails: minima_bruteforce's box search
KEPT_FAULT = ("oracles", "minima")


def fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    # Operations run one at a time with no threads.  numpy's BLAS would
    # otherwise start a thread per core at import, which spins on the other
    # core and makes the wall time depend on what else runs there.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(argv, stdout_path, stderr_path):
    """Run one child to completion, reaped with wait4 to read its own usage.

    Returns (exit code, wall seconds, CPU seconds, peak RSS in MiB).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def worker(workload, tag, mode, input_path, seconds, trace_rounds=0):
    out = OUT / ("%s-%s.jsonl" % (tag, mode))
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--inputs", str(input_path), "--out", str(out), "--src", str(SRC),
        "--mode", mode, "--seconds", str(seconds),
    ]
    if trace_rounds:
        argv += ["--trace-rounds", str(trace_rounds), "--trace-file", str(OUT / ("%s-spans.jsonl" % tag))]
    code = run_child(argv, OUT / ("%s-%s.stdout" % (tag, mode)), OUT / ("%s-%s.stderr" % (tag, mode)))[0]
    if code != 0:
        sys.stderr.write((OUT / ("%s-%s.stderr" % (tag, mode))).read_text())
        fail("worker exited with %d" % code)
    with open(out) as fh:
        lines = [json.loads(line) for line in fh]
    return lines[0], lines[1:-1], lines[-1]


def setup_times(workload, tag, input_path, runs):
    """(raw, scaled) set-up seconds of ``runs`` fresh processes.

    Set-up is mostly ``import ideallat``, so each is scaled by the host
    speed of a process unit run right after it.
    """
    times = []
    for _ in range(runs):
        setup_s = worker(workload, tag, "setup", input_path, 0)[0]["setup_s"]
        meter = calibrate.Meter(calibrate.process_unit, calibrate.REF_PROCESS_S)
        meter.run(1)
        times.append((setup_s, setup_s * meter.speed))
    return times


# ---------------------------------------------------------------------------
# checking


def check_records(workload, inp, head, records):
    """(failed, unexpected problems) over all records of one run."""
    import checks

    failed = 0
    problems = []
    first = {}
    per_family = {}
    if workload == "hash":
        convs = [checks.Convolver(shape, inp["p"]) for shape in inp["rings"]]
        keys = [[checks.inputs.poly_from_json(a) for a in key] for key in head["keys"]]
    for n, rec in enumerate(records):
        label = rec["op"]
        if workload == "oracles":
            # the position of the operation within its family and round
            index = per_family.get((rec["round"], label), 0)
            per_family[(rec["round"], label)] = index + 1
        if rec["error"] is not None:
            found = ["raised %s" % rec["error"]]
        elif workload == "corpus":
            out = rec["out"]
            if out["ideal"] not in first:
                first[out["ideal"]] = out
                found = checks.check_corpus_record(inp["ideals"][out["ideal"]], out)
            else:
                ref = first[out["ideal"]]
                same = all(out[k] == ref[k] for k in out if k in ref and k != "reps")
                found = [] if same else ["a repeated ideal gave a different result"]
        elif workload == "hash":
            out = rec["out"]
            b = [checks.inputs.poly_from_json(t) for t in out["b"]]
            found = checks.check_digest(convs[out["key"]], keys[out["key"]], b, out["digest"])
        else:
            key = (label, index)
            if key in first:
                found = [] if rec["out"] == first[key][0] else ["a repeated problem gave a different answer"]
                if not found:
                    found = first[key][1]
            else:
                found = checks.check_oracle_record(inp, label, index, rec["out"])
                first[key] = (rec["out"], found)
        if found:
            failed += 1
            kept = (workload, label) == KEPT_FAULT and all(p.startswith("lambda = ") for p in found)
            if not kept:
                problems.append("op %d (%s): %s" % (n, label, "; ".join(found)))
    return failed, problems


def check_cli(inp, runs, keys):
    """runs[i] = list of (argv, code, stdout bytes) per round."""
    import checks

    failed = 0
    problems = []
    for i, argv in enumerate(inp["commands"]):
        results = [r[i] for r in runs]
        found = []
        for _, code, stdout in results:
            if code != 0:
                found.append("exit code %d" % code)
        text = results[0][2]
        if not found:
            if len({r[2] for r in results}) != 1:
                found.append("stdout differs between repeats")
            if text.count(b"\n") != 1 or not text.endswith(b"\n"):
                found.append("stdout is not one JSON line")
            else:
                try:
                    obj = json.loads(text)
                except ValueError:
                    found.append("stdout is not JSON")
                else:
                    found += checks.check_cli_output(argv, obj, inp, keys)
        if found:
            failed += len(results)
            problems.append("%s: %s" % (" ".join(argv[:2]), "; ".join(found)))
    return failed, problems


# ---------------------------------------------------------------------------
# the cli workload: one subprocess per operation


def write_cli_files(inp, tag):
    base = OUT / ("%s-files" % tag)
    base.mkdir(exist_ok=True)
    paths = {}
    for name, obj in inp["files"].items():
        paths[name] = str(base / name)
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    paths["digest.bin"] = str(base / "digest.bin")
    with open(paths["digest.bin"], "wb") as fh:
        fh.write(bytes(inp["digest_bytes"]))
    for name in inp["key_seeds"]:
        paths[name] = str(base / name)
    return paths


def cli_loop(inp, paths, seconds, tag):
    """Returns (wall, CPU seconds, peak MiB, runs, host speed)."""
    wall = cpu_s = peak = 0.0
    runs = []
    meter = calibrate.Meter(calibrate.process_unit, calibrate.REF_PROCESS_S)
    while True:
        this_round = []
        for argv in inp["commands"]:
            argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
            code, elapsed, cpu, rss = run_child(
                [sys.executable, "-m", "ideallat.cli", *argv],
                OUT / ("%s-cli.stdout" % tag), OUT / ("%s-cli.stderr" % tag),
            )
            cpu_s += cpu
            wall += elapsed
            meter.after(wall)
            peak = max(peak, rss)
            this_round.append((argv, code, (OUT / ("%s-cli.stdout" % tag)).read_bytes()))
        runs.append(this_round)
        # two rounds at least, so that repeats can be compared byte for byte
        if wall >= seconds and len(runs) >= 2:
            return wall, cpu_s, peak, runs, meter.speed


def probe(code, tag):
    """Median wall time of a fresh interpreter running ``code``; in-process time for imports."""
    times = []
    for _ in range(PROBE_RUNS):
        prog = "import time; t = time.perf_counter(); %s; print(time.perf_counter() - t)" % code
        rc, elapsed, _, _ = run_child([sys.executable, "-c", prog], OUT / ("%s-probe.stdout" % tag), OUT / ("%s-probe.stderr" % tag))
        if rc != 0:
            fail("probe %r failed" % code)
        inner = float((OUT / ("%s-probe.stdout" % tag)).read_text())
        times.append(inner if code != "pass" else elapsed)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "hash", "oracles", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    if not (SRC / "ideallat" / "__init__.py").is_file():
        fail("no ideallat source tree at %s; run from a checkout of the repository" % SRC)
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))
    import inputs

    w = args.workload
    tag = "%s-%d-%s" % (w, args.seed, "trace" if args.trace else "run")
    inp = inputs.MAKERS[w](args.seed)
    if w == "cli":
        paths = write_cli_files(inp, tag)
    input_path = OUT / ("%s-inputs.json" % tag)
    with open(input_path, "w") as fh:
        json.dump(dict(inp, paths=paths) if w == "cli" else inp, fh)

    if args.trace:
        import tracer

        probes = {
            "cli.startup_s": probe("pass", tag),
            "cli.import_s": probe("import ideallat", tag),
        }
        head, records, tail = worker(w, tag, "run", input_path, args.seconds, TRACE_ROUNDS[w])
        with open(OUT / ("%s-spans.jsonl" % tag)) as fh:
            spans = [json.loads(line) for line in fh]
        metrics = tracer.layer_metrics(spans, probes)
        attempted = tail["attempted"]
        rate = attempted / tail["wall_s"]
        print("bench: traced %d ops in %.3f s (%.4g ops/s raw, %.4g scaled to the reference host), %d spans"
              % (attempted, tail["wall_s"], rate, rate / tail["speed"], len(spans)), file=sys.stderr)
        if w == "cli":
            runs = [[] for _ in range(tail["rounds"])]
            for rec, argv in zip(records, inp["commands"] * tail["rounds"]):
                out = rec.get("out") or {"code": -1, "stdout": rec["error"]}
                runs[rec["round"]].append((argv, out["code"], out["stdout"].encode()))
            failed, problems = check_cli(inp, runs, load_keys(paths, inp))
        else:
            failed, problems = check_records(w, inp, head, records)
    else:
        setups = setup_times(w, tag, input_path, SETUP_RUNS)
        if w == "cli":
            wall, cpu, peak, runs, speed = cli_loop(inp, paths, args.seconds, tag)
            attempted = sum(len(r) for r in runs)
            failed, problems = check_cli(inp, runs, load_keys(paths, inp))
        else:
            head, records, tail = worker(w, tag, "run", input_path, args.seconds)
            wall, cpu, peak, attempted = tail["wall_s"], tail["cpu_s"], tail["peak_rss_mb"], tail["attempted"]
            speed = tail["speed"]
            failed, problems = check_records(w, inp, head, records)
        print("bench: %d ops in %.3f s (%.4g ops/s raw), %.3f CPU s; host speed %.3f of the reference;"
              " raw set-up median %.4f s"
              % (attempted, wall, attempted / wall, cpu, speed, statistics.median(s[0] for s in setups)),
              file=sys.stderr)
        metrics = {
            "ops_per_s": {"value": attempted / wall / speed, "unit": "1/s"},
            "setup_s": {"value": statistics.median(s[1] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
        }
    for p in problems:
        print("bench: FAILED %s" % p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / ("%s-result.json" % tag), "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))


def load_keys(paths, inp):
    keys = {}
    for name in inp["key_seeds"]:
        with open(paths[name]) as fh:
            keys[name] = json.load(fh)
    return keys


if __name__ == "__main__":
    main()
