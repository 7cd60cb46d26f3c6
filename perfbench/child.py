"""One benchmark repetition in a fresh process.

    python3 child.py WORKLOAD PREFIX [--setup-only] [--trace]

Imports km2d, numpy and scipy, builds and validates the workload's
representation, then runs the workload the way a user would: a km2d CLI
command, or for `central-eps` the library call.  The program's output goes
to PREFIX.out.  PREFIX.stamps.json receives the monotonic times at which
set-up ended and the output was written; the clock is system-wide, so the
parent subtracts its own spawn time.  With --trace the layers are wrapped
by the tracer and the spans go to PREFIX.spans.json.
"""

import json
import sys
import time


def _central_eps(rep, out_path):
    from fractions import Fraction

    from km2d import fock, verifier

    cfg = fock.torus_sector("NS", "NS", rep.d, Fraction(9, 2), Fraction(9, 2))
    k = verifier.measure_central("TT", 1, rep=rep, cfg=cfg,
                                 method="eps_extrapolated", eps0=0.1, levels=5)
    c = 2.0 * verifier.measure_central("LL", 2, rep=rep, cfg=cfg,
                                       method="eps_extrapolated", eps0=0.1,
                                       levels=5)
    with open(out_path, "w") as fh:
        json.dump({"c": c, "k": k}, fh)
    return 0


def main(argv):
    name, prefix = argv[0], argv[1]
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import km2d.cli
    from km2d import lie_core
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    rep = None
    if workload.rep is not None:
        rep = lie_core.get_rep(workload.rep)
        if not lie_core.validate_rep(rep).passed:
            raise SystemExit(f"representation {workload.rep} invalid")
    stamps = {"t_setup": time.monotonic(), "km2d": km2d.cli.__file__}
    if "--setup-only" not in argv:
        out_path = prefix + ".out"
        if workload.argv is None:
            rc = _central_eps(rep, out_path)
        else:
            rc = km2d.cli.main(list(workload.argv) + ["--output", out_path])
        stamps["t_done"] = time.monotonic()
        stamps["rc"] = rc
    if tracer is not None:
        tracer.dump(prefix + ".spans.json")
    with open(prefix + ".stamps.json", "w") as fh:
        json.dump(stamps, fh)
    return stamps.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
