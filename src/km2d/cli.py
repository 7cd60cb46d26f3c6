"""Command-line front end.

Commands
--------
verify-torus         bracket closure + regulated charges on the torus
verify-sphere        same for the sphere realization
sphere-abstract      Jacobi identities of the abstract sphere algebra
structure-constants  triple-product coefficient table (CSV)
regularization       finite-part table of the damped multiplicity sums
car-check            exhaustive anticommutator check in a sector

Exit codes: 0 all requested checks pass, 1 usage/config error, 2 check
failure, 3 unresolved-prescription path.  Identical configurations produce
byte-identical JSON reports (fixed key order, no timestamps).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from fractions import Fraction

from .fock import check_car, sphere_sector, torus_sector
from .halfints import to_doubled
from .harmonics import MAX_TABLE_DEGREE, structure_table
from .lie_core import get_rep
from .regulator import (HeatSum, UnresolvedPrescriptionError, delta_reg_zero,
                        heat_sum_finite_part, solve_a_m)
from .verifier import (Window, WindowViolationError, central_raw_scan,
                       check_sphere_abstract, check_sphere_realization,
                       check_torus_algebra)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_UNRESOLVED = 3


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops an OSError from writing the help; through _output
        # a failed stdout exits 1
        if file is not None:
            return super().print_help(file)
        with _output(None) as fh:
            fh.write(self.format_help())

    def error(self, message):
        # one line, as every refused input gets; --help prints the usage
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


class _OutputError(Exception):
    """The --output file could not be written."""

    def __init__(self, path: str, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _output(path: str | None):
    """The --output file opened for writing, or stdout when no path is given.

    A new or regular file is written to a temporary file beside it, with the
    mode ``open(path, "w")`` would give, and renamed over the path on
    success; a failure removes it and leaves an old report intact.  Devices
    and symbolic links are written in place.  An ``OSError`` becomes an
    ``_OutputError`` that names the path; a failed stdout points fd 1 at the
    null device, so its unwritten buffer cannot fail again at exit.
    """
    try:
        if not path:
            yield sys.stdout
            sys.stdout.flush()
            return
        old = os.lstat(path) if os.path.lexists(path) else None
        if old and not stat.S_ISREG(old.st_mode):
            with open(path, "w") as fh:
                yield fh
            return
        os.umask(umask := os.umask(0))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
        try:
            with open(fd, "w") as fh:
                os.fchmod(fd, old.st_mode & 0o7777 if old else 0o666 & ~umask)
                yield fh
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        if not path:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _OutputError(path or "stdout", exc) from None


def _probe_output(path: str | None) -> None:
    """Fail before any work if the --output file cannot be opened.

    The file is opened for appending, so an existing report is left intact
    until the new one is ready; a file the probe creates is removed again.
    """
    if not path:
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise _OutputError(path, exc) from None
    if not existed:
        os.remove(path)


# encoder chunks per write: the default torus report goes out in 45 writes
# of at most 7,000 characters in 5.0 ms (json.dumps: 5.5 ms, and 1.6 MB more
# peak RSS; json.dump, one write per chunk, is slower than either)
REPORT_BATCH = 1024


def _write_report(payload: dict, path: str | None) -> None:
    """Write json.dumps(payload, indent=2) and a newline in REPORT_BATCH
    chunks.  The output is open before encoding starts, so the payload must
    hold only dict, list, str, int, float, bool and None: any other type, as
    a numpy scalar, raises TypeError mid-stream; an --output file is kept."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    with _output(path) as fh:
        while batch := list(itertools.islice(chunks, REPORT_BATCH)):
            fh.write("".join(batch))
        fh.write("\n")


def _half(value: str) -> Fraction:
    try:
        return Fraction(to_doubled(value), 2)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _torus_sectors(value: str) -> tuple:
    try:
        z, ang = (s.strip() for s in value.split(","))
    except ValueError:
        raise ValueError("--sectors needs 'z,angular'") from None
    return z, ang


def _sphere_sector(value: str) -> str:
    if value.strip() not in ("R", "NS"):
        raise ValueError(f"--sectors on the sphere is R or NS, got {value!r}")
    return value.strip()


def _window(value: str) -> Window:
    try:
        wz, wa, n = value.split(",")
        window = Window.of(Fraction(wz), Fraction(wa), int(n))
    except Exception:
        raise argparse.ArgumentTypeError(
            f"window must be 'Wz,Wa,N', got {value!r}") from None
    if min(window.w_z2, window.w_a2, window.n_max) < 0:
        # a negative bound admits no probe state, so nothing is certified
        raise argparse.ArgumentTypeError(
            f"window bounds must be nonnegative, got {value!r}")
    return window


def _tolerance(value: str) -> float:
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite nonnegative number, got {value!r}")
    return tol


def _count(value: str) -> int:
    if not value.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {value!r}")
    return int(value)


def _apply_config_file(argv: list) -> list:
    """Prepend key=value pairs from --config as flags (explicit flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    extra = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                extra += [f"--{key.strip()}", value.strip()]
    except OSError as exc:
        sys.stderr.write(f"error: cannot read config {path}: {exc}\n")
        sys.exit(EXIT_USAGE)
    return rest[:1] + extra + rest[1:]


def build_parser() -> _Parser:
    parser = _Parser(prog="km2d", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rep=True, tol=True):
        """--output and --config; --rep, --d and --tol where they are read."""
        if rep:
            p.add_argument("--rep", default="so3-adjoint",
                           help="Lie algebra representation name")
            p.add_argument("--d", type=int, default=None,
                           help="expected flavour count (checked against "
                                "the rep)")
        if tol:
            p.add_argument("--tol", type=_tolerance, default=1e-9)
        p.add_argument("--output", default=None)
        p.add_argument("--config", default=None, help=argparse.SUPPRESS)

    pt = sub.add_parser("verify-torus", help="certify the torus algebra")
    add_common(pt)
    pt.add_argument("--sectors", default="NS,NS",
                    help="z,angular sectors, e.g. NS,NS or R,NS")
    pt.add_argument("--cutoff-m", type=_half, default=Fraction(9, 2))
    pt.add_argument("--cutoff-p", type=_half, default=Fraction(9, 2))
    pt.add_argument("--window", type=_window, default=Window.of(1, 1, 2))
    pt.add_argument("--max-mode", type=_count, default=2)
    pt.add_argument("--method", choices=("analytic", "eps"),
                    default="analytic",
                    help="eps needs an NS z sector")

    ps = sub.add_parser("verify-sphere", help="certify the sphere realization")
    add_common(ps)
    ps.add_argument("--sectors", default="R", help="z sector, R or NS")
    ps.add_argument("--cutoff-l", type=_half, default=Fraction(4))
    ps.add_argument("--lmax", type=_count, default=None,
                    help="structure-table degree (default: cutoff, "
                         "rounded up)")
    ps.add_argument("--window", type=_window, default=Window.of(1, 1, 2))
    ps.add_argument("--max-l", type=_count, default=1)
    ps.add_argument("--central-tol", type=_tolerance, default=1e-8)
    ps.add_argument("--method", choices=("analytic",), default="analytic",
                    help="the sphere has the analytic method only")

    pa = sub.add_parser("sphere-abstract", help="abstract Jacobi identities")
    add_common(pa)
    pa.add_argument("--lmax", type=_count, default=8)
    pa.add_argument("--l-probe", type=_count, default=2)
    pa.set_defaults(tol=1e-10)

    pc = sub.add_parser("structure-constants", help="export the product table")
    add_common(pc, rep=False, tol=False)
    pc.add_argument("--lmax", type=_count, default=4)
    pc.add_argument("--format", choices=("json", "csv"), default="csv")

    pr = sub.add_parser("regularization", help="finite-part table")
    add_common(pr, tol=False)
    pr.add_argument("--sphere-m", type=int, nargs="*", default=[0, 1, 2])
    pr.add_argument("--include-sphere-ns", action="store_true")
    pr.add_argument("--raw-scan", action="store_true",
                    help="also scan the raw central term against the "
                         "angular cutoff (documents the divergence)")

    pk = sub.add_parser("car-check", help="anticommutation relations")
    add_common(pk, rep=False, tol=False)
    pk.add_argument("--d", type=int, default=2, help="flavour count")
    pk.add_argument("--geometry", choices=("torus", "sphere"), default="torus")
    pk.add_argument("--sectors", default=None,
                    help="z,angular on the torus (default NS,NS); "
                         "R or NS on the sphere (default NS)")
    pk.add_argument("--cutoff-m", type=_half, default=None,
                    help="torus z cutoff (default 3/2)")
    pk.add_argument("--cutoff-p", type=_half, default=None,
                    help="torus angular cutoff (default 3/2)")
    pk.add_argument("--cutoff-l", type=_half, default=None,
                    help="degree cutoff (default 1 for R, 3/2 for NS)")
    return parser


def _check_rep(args):
    try:
        rep = get_rep(args.rep)     # validated when it is built
    except (KeyError, ValueError) as exc:
        raise ValueError(f"--rep {args.rep!r}: {exc.args[0]}") from None
    if args.d is not None and args.d != rep.d:
        raise ValueError(f"--d {args.d} does not match representation "
                         f"{args.rep} with d={rep.d}")
    return rep


def _cmd_verify_torus(args) -> int:
    rep = _check_rep(args)
    if args.cutoff_m <= 0 or args.cutoff_p <= 0:
        raise ValueError("cutoffs must be positive")
    z, ang = _torus_sectors(args.sectors)
    cfg = torus_sector(z, ang, rep.d, args.cutoff_m, args.cutoff_p)
    method = {"eps": "eps_extrapolated"}.get(args.method, args.method)
    report = check_torus_algebra(cfg, rep, args.window, tol=args.tol,
                                 max_mode=args.max_mode,
                                 central_method=method)
    _write_report(report.to_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_verify_sphere(args) -> int:
    rep = _check_rep(args)
    cfg = sphere_sector(_sphere_sector(args.sectors), rep.d, args.cutoff_l)
    l_min = math.ceil(args.cutoff_l)
    l_max = args.lmax if args.lmax is not None else l_min
    if l_max < l_min:
        raise ValueError("--lmax below --cutoff-l")
    table = structure_table(l_max)
    report = check_sphere_realization(
        cfg, rep, table, args.window, tol=args.tol, max_l=args.max_l,
        central_tol=args.central_tol)
    _write_report(report.to_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_sphere_abstract(args) -> int:
    rep = _check_rep(args)
    if args.lmax < 3 * args.l_probe:
        raise ValueError(f"need --lmax >= {3 * args.l_probe} "
                         f"for --l-probe {args.l_probe}")
    table = structure_table(args.lmax)
    report = check_sphere_abstract(table, rep, l_probe=args.l_probe,
                                   tol=args.tol)
    _write_report(report, args.output)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def _cmd_structure_constants(args) -> int:
    table = structure_table(args.lmax)
    with _output(args.output) as fh:
        if args.format == "csv":
            table.to_csv(fh.buffer)
            return EXIT_OK
        # json.dumps(indent=2) of {"(l1, m1, l2, m2, l3)": value}, streamed
        head, tail = json.dumps({"L_max": table.L_max, "entries": {"": 0}},
                                indent=2).split('    "": 0')
        fh.write(head)
        chunk = 1 << 16
        for i in range(0, len(table.values), chunk):
            lines = ('    "(%d, %d, %d, %d, %d)": %r' % (*k, v) for k, v in
                     zip(table.keys[i:i + chunk].tolist(),
                         table.values[i:i + chunk].tolist()))
            fh.write((",\n" if i else "") + ",\n".join(lines))
        fh.write(tail + "\n")
    return EXIT_OK


def _cmd_regularization(args) -> int:
    rep = _check_rep(args)
    for m in args.sphere_m:
        # no sphere mode has a larger m, and delta_reg(0) drifts past 404
        if abs(m) > MAX_TABLE_DEGREE:
            raise ValueError(f"--sphere-m {m} lies outside "
                             f"-{MAX_TABLE_DEGREE}..{MAX_TABLE_DEGREE}")
    rows = [{"descriptor": f"torus {sector}", "pole": 0.5,
             "finite_part": heat_sum_finite_part(HeatSum(1, shift))[1],
             "delta_reg0": delta_reg_zero("torus", sector)}
            for sector, shift in (("NS", 0.0), ("R", -0.5))]
    for m in args.sphere_m:
        a_m = solve_a_m(m)
        hs = HeatSum(2, 2 * abs(m) + a_m)
        pole, fin = heat_sum_finite_part(hs)
        rows.append({"descriptor": f"sphere R m={m}", "a_m": a_m,
                     "pole": pole, "finite_part": fin,
                     "delta_reg0": delta_reg_zero("sphere", "R", m)})
    code = EXIT_OK
    if args.include_sphere_ns:
        try:
            delta_reg_zero("sphere", "NS")
        except UnresolvedPrescriptionError as exc:
            rows.append({"descriptor": "sphere NS",
                         "error": f"unresolved prescription: {exc}"})
            code = EXIT_UNRESOLVED
    header = f"{'descriptor':<16} {'pole':>8} {'finite part':>12} {'delta_reg(0)':>13}"
    lines = [header, "-" * len(header)]
    for r in rows:
        if "error" in r:
            lines.append(f"{r['descriptor']:<16} {r['error']}")
        else:
            lines.append(f"{r['descriptor']:<16} {r['pole']:>8.4g} "
                         f"{r['finite_part']:>12.10g} {r['delta_reg0']:>13.10g}")
    scan = None
    if args.raw_scan:
        scan = central_raw_scan("NS", "NS", rep.d, rep, Fraction(5, 2),
                                [Fraction(5, 2), Fraction(9, 2), Fraction(13, 2)])
        lines.append("")
        lines.append("raw current central term vs angular cutoff "
                     "(divergence before regularization):")
        for r in scan:
            lines.append(f"  |p| <= {r['p_cut']:<5} modes={r['angular_modes']:>3} "
                         f"raw central = {r['raw_central']:.6g}")
    with _output(None) as fh:
        fh.write("\n".join(lines) + "\n")
    if args.output:
        payload = {"rows": rows}
        if scan is not None:
            payload["raw_scan"] = scan
        _write_report(payload, args.output)
    return code


def _cmd_car_check(args) -> int:
    other = ({"--cutoff-l": args.cutoff_l} if args.geometry == "torus" else
             {"--cutoff-m": args.cutoff_m, "--cutoff-p": args.cutoff_p})
    for flag, value in other.items():
        if value is not None:
            raise ValueError(f"{flag} does not apply to --geometry "
                             f"{args.geometry}")
    if args.geometry == "torus":
        z, ang = _torus_sectors(args.sectors or "NS,NS")
        m_cut, p_cut = (Fraction(3, 2) if c is None else c
                        for c in (args.cutoff_m, args.cutoff_p))
        cfg = torus_sector(z, ang, args.d, m_cut, p_cut)
    else:
        z = _sphere_sector(args.sectors or "NS")
        l_cut = args.cutoff_l
        if l_cut is None:
            l_cut = Fraction(1) if z == "R" else Fraction(3, 2)
        cfg = sphere_sector(z, args.d, l_cut)
    residual = check_car(cfg)
    payload = {"task": "car-check", "sector": cfg.describe(),
               "max_residual": residual, "pass": residual <= 1e-14}
    _write_report(payload, args.output)
    return EXIT_OK if residual <= 1e-14 else EXIT_FAIL


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _OutputError as exc:         # the --help text was not written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    handler = {
        "verify-torus": _cmd_verify_torus,
        "verify-sphere": _cmd_verify_sphere,
        "sphere-abstract": _cmd_sphere_abstract,
        "structure-constants": _cmd_structure_constants,
        "regularization": _cmd_regularization,
        "car-check": _cmd_car_check,
    }[args.command]
    try:
        _probe_output(args.output)
        return handler(args)
    except UnresolvedPrescriptionError as exc:
        sys.stderr.write(f"unresolved prescription: {exc}\n")
        return EXIT_UNRESOLVED
    except WindowViolationError as exc:
        sys.stderr.write(f"error: window/cutoff combination invalid: {exc}\n")
        return EXIT_USAGE
    except (_OutputError, ValueError) as exc:   # bad input or --output
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"error: out of memory{detail}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
