"""One benchmark run in a fresh interpreter; run.py starts it.

Times `import measurefde.cli` (the set-up every CLI invocation pays), runs
one workload through `cli.main` into a scratch directory, reads the peak
resident set, checks the outputs, deletes the directory and prints one JSON
line.  With --trace the run records spans (see tracer.py) and writes them
to --trace-file.
"""

import sys
import time


def main() -> int:
    # nothing but the interpreter's own start-up modules may be loaded before
    # this point: setup_s is the whole import, numpy and scipy included
    t0 = time.perf_counter()
    import measurefde.cli as cli
    setup_s = time.perf_counter() - t0

    import argparse
    import json
    import os
    import resource
    import shutil
    import tempfile

    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--trace-file")
    ap.add_argument("--run-id", type=int, default=0)
    args = ap.parse_args()

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"measurefde imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    tracer = None
    if args.trace_file:
        import tracer as tracing
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)

    outdir = tempfile.mkdtemp(prefix="run-", dir=args.scratch)
    try:
        out = os.path.join(outdir, "run")
        argv = workloads.cli_args(args.workload, args.seed, args.small, out)
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        written = workloads.output_bytes(outdir)
        if args.perturb:
            workloads.perturb(args.workload, out)
        failures = [f"cli exit code {code}"] if code != 0 else []
        failures += workloads.check(args.workload, out, args.seed, args.small,
                                    workloads.load_reference())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "failures": failures}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(written)
        tracer.save(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
