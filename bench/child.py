"""
One measured process of the benchmark, started by run.py.

    child.py elements|noncrossing --n N --size K --seed S --index I
             [--setup-only] [--trace STEM]
    child.py cli --trace STEM -- ARGS...

The first form generates the inputs of pass I and, unless --setup-only,
runs them and prints the pass result as one JSON line.  The second runs the
CLI with ARGS under tracing, its output going to stdout as usual.  With
--trace STEM the trace summary goes to STEM.json and the spans to
STEM.spans.tsv.gz.
"""
from __future__ import annotations

import argparse
import json
import sys

import workloads


def main(argv: list[str]) -> int:
    cli_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("elements", "noncrossing", "cli"))
    parser.add_argument("--n", type=int)
    parser.add_argument("--size", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--index", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    import shardorder as so

    # Taken before tracing wraps mu, so the noncrossing check adds no calls
    # or cache hits to the trace.
    uncached_mu = getattr(so.mu, "__wrapped__", so.mu)
    tracer = None
    if args.kind == "cli":
        inputs = None
    else:
        inputs = workloads.INPUTS[args.kind](so, args.n, args.size, args.seed, args.index)
        if args.setup_only:
            return 0
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    if args.kind == "cli":
        from shardorder import cli

        code = cli.main(cli_args)
        sys.stdout.flush()
    elif args.kind == "elements":
        result = workloads.run_elements(so, inputs, tracer)
    else:
        result = workloads.run_noncrossing(so, inputs, tracer, mu=uncached_mu)

    if tracer is not None:
        with open(f"{args.trace}.json", "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(f"{args.trace}.spans.tsv.gz")
    if args.kind == "cli":
        return code
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
