#!/usr/bin/env python3
"""Run the repository benchmark over seeds, and compare two sets of results.

Run from the repository root:

    python3 perfbench/compare.py run OUT_DIR [--seeds 1,2,3] [--workloads a,b]
                                             [--trace 0,1]
    python3 perfbench/compare.py diff BASE_DIR NEW_DIR

`run` executes the command in BENCHMARK.json once per workload, seed and
trace setting, for BENCHMARK.json's run_seconds, and saves each result
line as OUT_DIR/<workload>.trace<t>.seed<n>.json.

`diff` reads two such directories. Per workload it prints the median of
each end-to-end metric on both sides, the change and whether it is worse
than the metric's bound; then each layer's self time on both sides with
the change in seconds, so a saving can be placed in the layer that made
it; then every exact work count that differs.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_run(args):
    bench = load_bench()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    for wl in workloads:
        for trace in args.trace.split(","):
            for seed in args.seeds.split(","):
                argv = bench["command"] + ["--workload", wl, "--seed", seed, "--seconds", seconds, "--trace", trace]
                p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    sys.exit(f"{wl} trace {trace} seed {seed}: exit {p.returncode}\n{p.stderr[-4000:]}")
                (out / f"{wl}.trace{trace}.seed{seed}.json").write_text(lines[-1] + "\n")
                result = json.loads(lines[-1])
                print(f"{wl} trace {trace} seed {seed}: correct={result['correct']} failed={result['failed']}")


def load_dir(path):
    """{workload: {trace: [metrics dict per run]}} plus failures seen."""
    runs, failures = {}, []
    for f in sorted(pathlib.Path(path).glob("*.trace*.seed*.json")):
        wl, trace, _ = f.name.rsplit(".", 3)[:3]
        result = json.loads(f.read_text().strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            failures.append(f.name)
        runs.setdefault(wl, {}).setdefault(trace, []).append(
            {k: v["value"] for k, v in result["metrics"].items()}
        )
    return runs, failures


def medians(results):
    keys = sorted({k for r in results for k in r})
    return {k: statistics.median(r[k] for r in results if k in r) for k in keys}


def cmd_diff(args):
    bench = load_bench()
    base, base_fail = load_dir(args.base)
    new, new_fail = load_dir(args.new)
    for name, fails in (("base", base_fail), ("new", new_fail)):
        if fails:
            print(f"{name}: incorrect or failed runs: {', '.join(fails)}")
    for wl in sorted(set(base) & set(new)):
        print(f"\n== {wl}")
        b0, n0 = base[wl].get("trace0", []), new[wl].get("trace0", [])
        if b0 and n0:
            bm, nm = medians(b0), medians(n0)
            print(f"end to end (median of {len(b0)} base, {len(n0)} new runs)")
            for m in bench["end_to_end"]:
                k = m["name"]
                if k not in bm or k not in nm:
                    continue
                rel = (nm[k] - bm[k]) / bm[k] if bm[k] else 0.0
                worse = rel > m["bound"] if m["better"] == "lower" else -rel > m["bound"]
                flag = "  WORSE than bound" if worse else ""
                print(f"  {k:<18} {bm[k]:>14.6g} -> {nm[k]:<14.6g} {rel:+8.2%} {m['unit']}{flag}")
        b1, n1 = base[wl].get("trace1", []), new[wl].get("trace1", [])
        if b1 and n1:
            bm, nm = medians(b1), medians(n1)
            print(f"layer self time (median of {len(b1)} base, {len(n1)} new traced runs)")
            rows = [k for k in bm if k.endswith(".self_s") and k in nm]
            rows.sort(key=lambda k: -(abs(nm[k] - bm[k])))
            for k in rows:
                layer = k[: -len(".self_s")]
                d = nm[k] - bm[k]
                print(f"  {layer:<22} {bm[k]:>10.4f} s -> {nm[k]:>10.4f} s {d:+9.4f} s"
                      f"   share {bm.get(layer + '.share', 0):.1%} -> {nm.get(layer + '.share', 0):.1%}")
            counts = [k for k in bm if k in nm and not k.endswith((".self_s", ".share"))
                      and not k.startswith("trace.") and not k.endswith("_us") and bm[k] != nm[k]]
            if counts:
                print("work counts that changed")
                for k in sorted(counts):
                    print(f"  {k:<36} {bm[k]:>14.6g} -> {nm[k]:<14.6g}")
            print(f"  tracing overhead {bm.get('trace.overhead_s', 0):+.4f} s -> {nm.get('trace.overhead_s', 0):+.4f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the benchmark and save its result lines")
    r.add_argument("out_dir")
    r.add_argument("--seeds", default="1,2,3")
    r.add_argument("--workloads")
    r.add_argument("--trace", default="0,1")
    d = sub.add_parser("diff", help="compare two directories of saved results")
    d.add_argument("base")
    d.add_argument("new")
    args = ap.parse_args()
    cmd_run(args) if args.cmd == "run" else cmd_diff(args)


if __name__ == "__main__":
    main()
