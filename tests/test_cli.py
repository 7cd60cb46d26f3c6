import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from km2d import cli
from km2d.cli import main
from km2d.harmonics import StructureTable
from km2d.lie_core import MAX_SO_N

TORUS_ARGS = ["verify-torus", "--rep", "so3-adjoint", "--sectors", "NS,NS",
              "--cutoff-m", "9/2", "--cutoff-p", "9/2", "--window", "1,1,2",
              "--tol", "1e-9", "--max-mode", "1"]


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_verify_torus_passes(tmp_path):
    out = tmp_path / "r.json"
    code = main(TORUS_ARGS + ["--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["charges"]["c_measured"] == 1.5
    assert payload["charges"]["k_measured"] == 1.0


def test_json_reports_are_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(TORUS_ARGS + ["--output", str(f1)]) == 0
    assert main(TORUS_ARGS + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_structure_constants_csv(tmp_path, capsysbinary):
    out = tmp_path / "sc.csv"
    assert main(["structure-constants", "--lmax", "4",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l1,m1,l2,m2,l3,m3,value"
    golden = [ln for ln in lines if ln.startswith("1,0,1,0,2,0,0.894427")]
    assert golden, "expected the 2/sqrt(5) row"
    # stdout is the other write path: the same bytes through its buffer
    assert main(["structure-constants", "--lmax", "4"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


# JSON values of every kind the encoder special-cases, and one payload of
# more than REPORT_BATCH chunks
STREAMED_PAYLOADS = [
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
     "none": None, "true": True, "false": False, "int": -7, "float": 0.1},
    {"list": [], "dict": {}, "nested": [[], {}, [[1, [2.5, None]],
                                                 {"a": {"b": [{}]}}]]},
    [], {}, [{}], {"": []},
    {"\u00e9t\u00e9": "\u2603 \U0001d11e",
     "esc": "\" \\ / \b\f\n\r\t \x00\x1f"},
    {"rows": [{"i": i, "x": i / 7, "ok": i % 2 == 0} for i in range(2000)]},
]


@pytest.mark.parametrize("payload", STREAMED_PAYLOADS)
def test_streamed_report_is_json_dumps(payload, tmp_path):
    out = tmp_path / "r.json"
    cli._write_report(payload, str(out))
    assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def test_report_is_written_in_bounded_batches(monkeypatch):
    # the default torus report arrives in many writes, none longer than
    # the 7,000 characters that REPORT_BATCH's comment states
    writes = []

    class Sink:
        write = writes.append

    monkeypatch.setattr(cli, "_output",
                        lambda path: contextlib.nullcontext(Sink()))
    assert main(["verify-torus"]) == 0
    assert len(writes) > 1
    assert max(map(len, writes)) <= 7000
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == \
        PINNED_REPORTS[PINNED_IDS.index("torus-default")][1]


def test_verify_torus_stdout_is_its_output_file(tmp_path, capsysbinary):
    out = tmp_path / "r.json"
    assert main(["verify-torus", "--output", str(out)]) == 0
    assert main(["verify-torus"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_half_integer_flag_forms(tmp_path):
    # decimal and fraction forms are equivalent
    base = ["car-check", "--geometry", "torus", "--sectors", "NS,NS", "--d",
            "1", "--cutoff-m"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(base + ["1.5", "--cutoff-p", "3/2", "--output", str(out1)]) == 0
    assert main(base + ["3/2", "--cutoff-p", "1.5", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parity_inconsistent_cutoff_rejected(capsys):
    code = main(["verify-torus", "--sectors", "NS,NS", "--cutoff-m", "2",
                 "--cutoff-p", "9/2"])
    assert code == 1
    assert "parity" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["verify-torus", "--frobnicate"])
    assert exc.value.code == 1


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["verify-torus", "--cutoff-m", "nonsense"])
    assert exc.value.code == 1


def test_d_mismatch_rejected(capsys):
    assert main(["verify-torus", "--rep", "so3-adjoint", "--d", "4"]) == 1
    assert capsys.readouterr().err == ("error: --d 4 does not match "
                                       "representation so3-adjoint with d=3\n")


def test_regularization_table(capsys):
    assert main(["regularization"]) == 0
    out = capsys.readouterr().out
    assert "torus NS" in out and "torus R" in out
    lines = [ln for ln in out.splitlines() if ln.startswith("torus")]
    for ln in lines:
        assert ln.split()[-1] == "1"


def test_regularization_sphere_m_reads_one_up_to_the_bound(capsys):
    # --sphere-m is bounded by MAX_TABLE_DEGREE (33 is refused with the bad
    # inputs below); past m = 404 delta_reg(0) drifts from 1
    assert main(["regularization", "--sphere-m", "-32", "32"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("sphere R")]
    assert [row[2] for row in rows] == ["m=-32", "m=32"]
    assert all(row[-1] == "1" for row in rows)


def test_regularization_raw_scan(capsys):
    assert main(["regularization", "--raw-scan"]) == 0
    out = capsys.readouterr().out
    assert "raw central" in out


def test_regularization_sphere_ns_unresolved(capsys):
    code = main(["regularization", "--include-sphere-ns"])
    assert code == 3
    assert "unresolved" in capsys.readouterr().out


def test_sphere_ns_verification_exits_three(capsys):
    # the default --lmax is the cutoff rounded up, which covers NS degrees
    for args in (["--cutoff-l", "3/2", "--lmax", "2", "--max-l", "0",
                  "--window", "1/2,1/2,2"],
                 ["--cutoff-l", "9/2"]):
        code = main(["verify-sphere", "--sectors", "NS"] + args)
        assert code == 3
        assert "unresolved prescription" in capsys.readouterr().err


def test_window_violation_exits_one(capsys):
    code = main(["verify-torus", "--sectors", "NS,NS", "--cutoff-m", "5/2",
                 "--cutoff-p", "5/2", "--window", "1,1,2", "--max-mode", "2"])
    assert code == 1
    assert "window" in capsys.readouterr().err.lower()


def test_sphere_verification_passes(tmp_path):
    out = tmp_path / "s.json"
    code = main(["verify-sphere", "--sectors", "R", "--cutoff-l", "4",
                 "--window", "1,1,2", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True


def test_sphere_abstract_command(tmp_path):
    out = tmp_path / "j.json"
    code = main(["sphere-abstract", "--lmax", "4", "--l-probe", "1",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_jacobi_residual"] <= 1e-10


def test_sphere_abstract_without_a_residual_names_no_triple(tmp_path):
    # every residual is 0.0, so no triple is the worst: JSON null
    out = tmp_path / "j.json"
    assert main(["sphere-abstract", "--lmax", "0", "--l-probe", "0",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_jacobi_residual"] == 0.0
    assert payload["worst_triple"] is None


def test_car_check_command(tmp_path):
    out = tmp_path / "c.json"
    code = main(["car-check", "--geometry", "sphere", "--sectors", "R",
                 "--d", "2", "--cutoff-l", "1", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["max_residual"] == 0.0


def test_config_file_merged_under_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff-m=9/2\ncutoff-p=9/2\nmax-mode=1\nsectors=NS,NS\n")
    out = tmp_path / "r.json"
    # explicit flag overrides the config value
    code = main(["verify-torus", "--config", str(cfg), "--max-mode", "1",
                 "--output", str(out)])
    assert code == 0
    ref = tmp_path / "ref.json"
    assert main(TORUS_ARGS + ["--output", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("content", [None, b"\xff\xfe"],
                         ids=["missing", "not-utf8"])
def test_unreadable_config_exits_one(tmp_path, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    proc = _km2d(["verify-torus", "--config", str(cfg)], subprocess.PIPE)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1 and stdout == b""
    _assert_one_error_line(stderr)
    assert stderr.startswith(b"error: cannot read config ")


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "km2d.cli", "regularization"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "torus NS" in proc.stdout


def test_check_failure_exits_two(tmp_path):
    # an impossible central tolerance forces a clean check failure
    out = tmp_path / "fail.json"
    code = main(["verify-sphere", "--sectors", "R", "--cutoff-l", "4",
                 "--window", "1,1,2", "--central-tol", "1e-17",
                 "--output", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["pass"] is False


@pytest.mark.parametrize("flags,central_tol", [
    ([], None),                                   # check_torus_algebra: --tol
    (["--method", "analytic"], None),
    (["--method", "eps"], None),
    (["--method", "eps", "--tol", "1e-3"], None),
])
def test_torus_central_tol(flags, central_tol, monkeypatch, tmp_path):
    # every method checks c and k at --tol: no central_tol reaches the verifier
    seen = {}

    class Report:
        passed = True

        def to_dict(self):
            return {}

    def fake_check(*args, **kwargs):
        seen.update(kwargs)
        return Report()

    monkeypatch.setattr(cli, "check_torus_algebra", fake_check)
    out = str(tmp_path / "r.json")
    assert main(["verify-torus", *flags, "--output", out]) == 0
    assert seen.get("central_tol") == central_tol


def test_verify_torus_eps_certifies_at_tol(tmp_path):
    out = tmp_path / "eps.json"
    assert main(TORUS_ARGS + ["--method", "eps", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["charges"]["c_measured"] == pytest.approx(1.5, abs=1e-10)
    assert payload["charges"]["k_measured"] == pytest.approx(1.0, abs=1e-10)


def _method_choices(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions
                  if a.dest == "method")
    return action.choices


@pytest.mark.parametrize("command,args", [
    ("verify-torus", ["--max-mode", "1"]),
    ("verify-sphere", ["--max-l", "1"]),
])
def test_every_method_can_pass(command, args, tmp_path):
    # each documented --method certifies a small default configuration
    choices = _method_choices(command)
    assert "analytic" in choices
    for method in choices:
        out = tmp_path / f"{method}.json"
        assert main([command, *args, "--method", method,
                     "--output", str(out)]) == 0, method
        assert json.loads(out.read_text())["pass"] is True


def _exit_code(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", [
    "so03-adjoint", "so+3-adjoint", "so 3-adjoint", "so\u0663-adjoint",
    "so3 -adjoint", "so-3-adjoint", "so3-adjoint ", "so3-adjoint\n",
    "so0-adjoint",
    f"so{MAX_SO_N + 1}-adjoint", "so40-adjoint"])
def test_malformed_or_huge_rep_is_refused_unbuilt(name, capsys, monkeypatch):
    # a strict ASCII decimal n, at most lie_core.MAX_SO_N
    import km2d.lie_core as lie_core

    def built(n):
        raise AssertionError(f"so({n}) was built")

    monkeypatch.setattr(lie_core, "build_so_adjoint", built)
    assert _exit_code(["verify-torus", "--rep", name]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --rep {name!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["verify-torus", "--rep", "su2-fund"],
    ["verify-torus", "--rep", "so2-adjoint"],
    ["verify-torus", "--tol", "nan"],
    ["verify-torus", "--tol", "inf"],
    ["verify-torus", "--tol=-1e-9"],
    ["verify-sphere", "--central-tol", "nan"],
    ["sphere-abstract", "--lmax", "-1", "--l-probe", "-1"],
    ["sphere-abstract", "--l-probe", "-1"],
    ["verify-torus", "--max-mode", "-1"],
    ["verify-sphere", "--max-l", "-1"],
    # c is read at m = 2, which needs degree-2 modes
    ["verify-sphere", "--cutoff-l", "1", "--max-l", "0", "--window", "0,0,1"],
    # the raw central grows with every angular mode, so no raw run can pass
    ["verify-sphere", "--sectors", "NS", "--cutoff-l", "3/2", "--lmax", "2",
     "--max-l", "0", "--window", "1/2,1/2,2", "--method", "raw"],
    ["verify-torus", "--max-mode", "1", "--method", "raw"],
    ["verify-sphere", "--max-l", "1", "--method", "raw"],
    # eps extrapolation needs an NS z sector: on R,R the damping leaves a
    # zero-mode block, and on R,NS a finite part linear in p
    ["verify-torus", "--sectors", "R,R", "--cutoff-m", "2", "--cutoff-p", "2",
     "--window", "0,0,2", "--method", "eps", "--max-mode", "1"],
    ["verify-torus", "--sectors", "R,NS", "--cutoff-m", "4", "--cutoff-p",
     "9/2", "--method", "eps", "--max-mode", "1"],
    # a flag that the command does not read is rejected, not ignored
    ["car-check", "--format", "csv"],
    ["car-check", "--tol", "5"],
    ["car-check", "--rep", "so5-adjoint"],
    ["structure-constants", "--tol", "1e-3"],
    ["structure-constants", "--rep", "so3-adjoint"],
    ["structure-constants", "--d", "3"],
    ["regularization", "--tol", "1e-3"],
    ["regularization", "--format", "json"],
    ["verify-torus", "--format", "csv"],
    ["sphere-abstract", "--format", "json"],
    # an unwritable --output is one error line, not a traceback
    ["structure-constants", "--output", "/nonexistent/x.csv"],
    ["structure-constants", "--format", "json", "--output", "/nonexistent/x.json"],
    ["verify-torus", "--max-mode", "0", "--output", "/nonexistent/r.json"],
    ["verify-sphere", "--max-l", "0", "--output", "/nonexistent/r.json"],
    ["sphere-abstract", "--lmax", "2", "--l-probe", "0",
     "--output", "/nonexistent/r.json"],
    # the sphere takes one sector label; the torus takes two
    ["verify-sphere", "--sectors", "R,NS", "--cutoff-l", "2", "--max-l", "0"],
    ["verify-sphere", "--sectors", "garbage"],
    ["car-check", "--geometry", "sphere", "--sectors", "NS,garbage"],
    ["car-check", "--geometry", "sphere", "--sectors", "R,R"],
    ["car-check", "--geometry", "torus", "--sectors", "R"],
    # the other geometry's cutoff flags are not read, so they are rejected
    ["car-check", "--geometry", "sphere", "--cutoff-m", "5/2"],
    ["car-check", "--geometry", "torus", "--cutoff-l", "2"],
    ["verify-torus", "--sectors", "R,R,R"],
    # a negative window bound admits no probe state
    ["verify-torus", "--window=-1,1,2", "--max-mode", "0"],
    ["verify-torus", "--window=1,-1,2", "--max-mode", "0"],
    ["verify-torus", "--window=1,1,-1", "--max-mode", "0"],
    ["verify-sphere", "--window=1,1,-1", "--max-l", "0"],
    # a structure table above MAX_TABLE_DEGREE is refused at once
    ["structure-constants", "--lmax", "4000000"],
    ["sphere-abstract", "--lmax", "4000000"],
    ["verify-sphere", "--lmax", "4000000"],
    # the rep is checked on every run, not only for the raw scan
    ["regularization", "--d", "5"],
    ["regularization", "--rep", "foo"],
    ["regularization", "--sphere-m", "33"],
    ["regularization", "--sphere-m", "0", "-1000000000"],
    pytest.param(["structure-constants", "--lmax", "1", "--output", "/dev/full"],
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="needs /dev/full")),
], ids=lambda args: "_".join(args))
def test_bad_input_exits_one(args, capsys):
    assert _exit_code(args) == 1
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["structure-constants",
                                     "sphere-abstract", "verify-sphere"])
def test_oversized_lmax_sets_up_no_quadrature(command, monkeypatch, capsys):
    # refused before leggauss builds its set-up arrays, which for
    # --lmax 100000000 take about 3.6 GB before the eigensolve is refused
    import numpy as np

    from km2d.harmonics import MAX_TABLE_DEGREE

    def leggauss(n):
        raise AssertionError(f"leggauss({n}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    for lmax in (MAX_TABLE_DEGREE + 1, 100_000_000):
        assert main([command, "--lmax", str(lmax)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: structure table degree {lmax} is not in "
                       f"0..{MAX_TABLE_DEGREE}\n")


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _km2d(args, stdout, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "km2d.cli", *args],
                            stdout=stdout, stderr=subprocess.PIPE, env=env,
                            preexec_fn=preexec_fn)


def _assert_one_error_line(stderr: bytes):
    # no traceback and no "Exception ignored" at interpreter exit
    lines = stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ["structure-constants", "--lmax", "1"],          # flushed at the end
    ["structure-constants", "--lmax", "12"],         # fails inside a write
    ["car-check", "--d", "1"],                       # a JSON report
    ["regularization"],                              # the printed table
], ids=lambda args: "_".join(args))
def test_full_stdout_exits_one(args):
    with open("/dev/full", "w") as full:
        proc = _km2d(args, full)
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    _assert_one_error_line(stderr)
    assert stderr.startswith(b"error: cannot write stdout:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [["--help"], ["verify-torus", "--help"]],
                         ids=lambda args: "_".join(args))
def test_help_on_full_stdout_exits_one(args):
    # argparse itself drops a failed write of the help text
    with open("/dev/full", "w") as full:
        proc = _km2d(args, full)
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    _assert_one_error_line(stderr)
    assert stderr.startswith(b"error: cannot write stdout:")


def test_closed_pipe_exits_one():
    # the reader takes the header and leaves; the table is far larger than
    # the pipe buffer, so a later write meets the closed pipe
    proc = _km2d(["structure-constants", "--lmax", "12"], subprocess.PIPE)
    assert proc.stdout.readline() == b"l1,m1,l2,m2,l3,m3,value\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    _assert_one_error_line(stderr)
    assert b"Broken pipe" in stderr


def test_window_guard_fails_before_the_sweep_is_built():
    # max-mode 6 is 169 modes, 71,487 brackets, under the sweep limit; the
    # guard rejects the first pair before any task tuple exists.  The
    # address-space limit keeps a run that builds them first bounded.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = _km2d(["verify-torus", "--max-mode", "6"], subprocess.PIPE, limit)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1 and stdout == b""
    _assert_one_error_line(stderr)
    assert b"z reach 25/2 exceeds cutoff 9/2" in stderr


def test_window_guard_fails_before_the_window_is_enumerated():
    # the full window 9/2,9/2,6 holds millions of probe states; its reach is
    # read from the one-particle window, so the guard refuses it at once
    proc = _km2d(["verify-torus", "--window", "9/2,9/2,6"], subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.returncode == 1 and stdout == b""
    _assert_one_error_line(stderr)
    assert b"z reach 17/2 exceeds cutoff 9/2" in stderr


@pytest.mark.parametrize("args,message", [
    (["car-check", "--sectors", "R,R", "--d", "3", "--cutoff-m", "2",
      "--cutoff-p", "2"], b"1428750 mode pairs times states"),
    (["verify-torus", "--max-mode", "0", "--window", "9/2,9/2,4"],
     b"scans 20822901 combinations"),
    (["verify-torus", "--max-mode", "0", "--cutoff-m", "20001/2",
      "--window", "0,0,0"], b"holds 600060 modes, above the limit of 100000"),
    (["verify-torus", "--max-mode", "0", "--cutoff-m", "1001/2",
      "--window", "23/2,9/2,2"], b"holds 21115 probes times 30060 modes"),
], ids=["car-check", "window", "sector", "engine"])
def test_oversized_work_is_refused_before_it_is_listed(args, message):
    # a car-check above fock.MAX_CAR_WORK, a window that passes the guard
    # but scans above verifier.MAX_PROBE_SCAN, a sector of more than
    # verifier.MAX_SECTOR_MODES modes, and probes times modes above
    # verifier.MAX_ENGINE_CELLS exit at once
    proc = _km2d(args, subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.returncode == 1 and stdout == b""
    _assert_one_error_line(stderr)
    assert message in stderr


def test_oversized_sweep_is_refused_up_front():
    # max-mode 30 at cutoffs 129/2 passes the window guard, and its
    # 34,616,463 brackets would not fit in the address-space limit; the
    # count is refused before the guard loop or any task exists
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = _km2d(["verify-torus", "--max-mode", "30", "--cutoff-m", "129/2",
                  "--cutoff-p", "129/2"], subprocess.PIPE, limit)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1 and stdout == b""
    _assert_one_error_line(stderr)
    assert b"34616463 brackets at size 30 exceeds the limit of 100000" \
        in stderr


def test_torus_sectors_need_two_labels(capsys):
    assert main(["car-check", "--geometry", "torus", "--sectors", "R"]) == 1
    assert capsys.readouterr().err == "error: --sectors needs 'z,angular'\n"


def test_car_check_sectors_default_by_geometry(tmp_path):
    for geometry, sector in (("torus", "torus(NS,NS)"),
                             ("sphere", "sphere(NS)")):
        out = tmp_path / f"{geometry}.json"
        assert main(["car-check", "--geometry", geometry, "--d", "1",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["sector"].startswith(sector)


def test_unwritable_output_fails_before_the_sweep(monkeypatch, capsys):
    called = []
    monkeypatch.setattr(cli, "check_torus_algebra",
                        lambda *args, **kwargs: called.append(1))
    assert main(["verify-torus", "--output", "/nonexistent/r.json"]) == 1
    assert called == []
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_output_probe_keeps_existing_report(tmp_path):
    # the probe neither truncates an old report nor leaves a new empty file
    out = tmp_path / "r.json"
    out.write_text("old report\n")
    assert main(["verify-torus", "--cutoff-m", "5/2", "--cutoff-p", "5/2",
                 "--output", str(out)]) == 1     # window violation
    assert out.read_text() == "old report\n"
    fresh = tmp_path / "fresh.json"
    assert main(["verify-torus", "--cutoff-m", "5/2", "--cutoff-p", "5/2",
                 "--output", str(fresh)]) == 1
    assert not fresh.exists()


def test_failed_write_keeps_existing_report(tmp_path, monkeypatch, capsys):
    # a write that fails mid-stream leaves the old bytes and no temporary
    # file: an OSError exits 1 with one error line, a payload that cannot
    # be encoded raises its TypeError
    out = tmp_path / "r.csv"
    out.write_bytes(b"old report\n")

    def full_disk(table, fh):
        fh.write(b"l1,m1,l2,m2,l3,m3,value\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(StructureTable, "to_csv", full_disk)
    assert main(["structure-constants", "--lmax", "4",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot write {out}: No space left on device\n"
    assert out.read_bytes() == b"old report\n"
    with pytest.raises(TypeError):
        cli._write_report({"rows": list(range(3000)) + [np.int64(1)]},
                          str(out))
    assert out.read_bytes() == b"old report\n"
    assert os.listdir(tmp_path) == ["r.csv"]


def test_output_keeps_the_mode_open_would_give(tmp_path):
    # an existing report keeps its mode; a new one takes 0o666 less the umask
    out, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    out.write_text("old report\n")
    out.chmod(0o640)
    umask = os.umask(0o027)
    try:
        for path in (out, fresh):
            cli._write_report({"ok": True}, str(path))
    finally:
        os.umask(umask)
    assert out.read_text() == fresh.read_text() == '{\n  "ok": true\n}\n'
    assert (out.stat().st_mode & 0o777, fresh.stat().st_mode & 0o777) == \
        (0o640, 0o640)


# sha256 of reports of the default configurations at two small sweep sizes,
# of an R,R torus run (Clifford zero modes, exact R anomaly), of the
# abstract sphere Jacobi check, of the structure table as CSV and JSON, of
# sphere R runs with 21 (odd: the unpaired generator acts), 18 and 27 zero
# modes, and of torus runs with a second representation (d = 6) and with a
# mixed sector, of the raw-divergence scan, of the default torus run
# (1575 brackets, 63 of them zero-total), and of three more torus runs
# whose zero-total brackets the engine decides: the mixed NS,R sector, the
# eps-extrapolated centrals, and so(4) on R,R (six zero modes), of a
# sphere R run with so(4) (d = 6 flavour matrices), and of the abstract
# sphere Jacobi check with so(4), whose six currents include commuting
# pairs
PINNED_REPORTS = [
    (["verify-torus", "--max-mode", "1"],
     "7c04c9dc775176786011a02b155e1b6ca24f3b10d7376863385ac3093af44b37"),
    (["verify-sphere", "--sectors", "R", "--cutoff-l", "4", "--max-l", "1"],
     "43bf1274ab09cccd71cb2854490cd744ffa2528baba88fbed792c845e334fea6"),
    (["verify-torus", "--sectors", "R,R", "--cutoff-m", "2", "--cutoff-p", "2",
      "--window", "0,0,2", "--max-mode", "1"],
     "78a54e6cde5c07b7acb510a35d591ac71a5900b9a1544f2ae7c9056aa1aa3c02"),
    (["sphere-abstract", "--lmax", "6", "--l-probe", "2"],
     "daaf3b91ac34aadb7b4bde76c1cda564624581a241f1deee8c6500c459b7cc74"),
    (["structure-constants", "--lmax", "8"],
     "a3123fc97cc9938f14c30fb75eecd70e4194c9bdf89aa4cd1f43665d5533e5ce"),
    (["structure-constants", "--lmax", "4", "--format", "json"],
     "710dd8cfa9d2cded73adfd77cd6016fca32b463adebe58cb89ca70fb3f11fb87"),
    (["verify-sphere", "--sectors", "R", "--cutoff-l", "6", "--max-l", "2"],
     "eccf0876d4b638510f1fb7c1a080c14b51f7bc48372b706892acc2cf88e049bd"),
    (["verify-sphere", "--sectors", "R", "--cutoff-l", "5", "--max-l", "1"],
     "8dba36bc3c86fbe489a66f16287678eea682e23e728f81e55655e25c90260ab3"),
    (["verify-torus", "--rep", "so4-adjoint", "--max-mode", "1"],
     "7e43b0e3fdb6a6c7317efaf3291721fb8ffb96d65586a4c428bb114dd5555941"),
    (["verify-torus", "--sectors", "R,NS", "--cutoff-m", "4", "--cutoff-p",
      "9/2", "--max-mode", "1"],
     "c8af8076e55f922cab64eb3d33ae29beac4b8afe774adff7bb230eb0791ff173"),
    (["regularization", "--raw-scan"],
     "e5ce5c6feb59b4da6af2d55698597250f9a21b01f6f266e177b945f226261292"),
    (["verify-torus"],
     "e0b3fdd12580319c2ccd85e7ae7c77f9688229a70b70cc694c8e8442faaa8ea0"),
    (["verify-torus", "--sectors", "NS,R", "--cutoff-m", "9/2", "--cutoff-p",
      "4", "--max-mode", "1"],
     "f0b89f368e94109739a66da80350d67ddf9933a7089165b56accac6e416878f0"),
    (["verify-torus", "--method", "eps", "--max-mode", "1"],
     "8d7209657706b6cfbccdcaedbc7475bddd136c35500972f526b108e29153e4a9"),
    (["verify-torus", "--sectors", "R,R", "--cutoff-m", "4", "--cutoff-p",
      "4", "--rep", "so4-adjoint", "--max-mode", "1"],
     "ada86ea161eb776a18bc6d4c5879ab2836458da7266d555a581d084980d48921"),
    (["verify-sphere", "--sectors", "R", "--cutoff-l", "8", "--max-l", "3"],
     "1cf375b39291a23ba270aebd58ab50a3cdedd6e0effdb8507443ebd5c390f877"),
    (["verify-sphere", "--sectors", "R", "--rep", "so4-adjoint", "--cutoff-l",
      "6", "--max-l", "2"],
     "0199d1ef1589ed02c608e5f6f4a4aea14c2c6f4ca1813ae66f8a9d1b010ee564"),
    # sweep size 2 on R,R: the L weight at n = 0 and the zero-mode block of
    # the vacuum trace, on 63 zero-total brackets
    (["verify-torus", "--sectors", "R,R", "--cutoff-m", "5", "--cutoff-p", "5",
      "--max-mode", "2"],
     "5051bd7cc1d3617dc8b7c86d78fbf07f6c3ed0d257a3157ed206f161fde40c37"),
    (["verify-torus", "--sectors", "R,R", "--cutoff-m", "5", "--cutoff-p", "5",
      "--max-mode", "2", "--rep", "so4-adjoint"],
     "7baf975a92a860b09a05067a4e00f038bb5859b31954ff2defe5347dddeaaab5"),
    (["sphere-abstract", "--rep", "so4-adjoint", "--lmax", "6", "--l-probe",
      "2"],
     "5c4ec9d7c28f67096af2afa016a9a409a7429486096c48f4c73d977610012203"),
    # d = 10 flavour matrices on the sphere
    (["verify-sphere", "--sectors", "R", "--rep", "so5-adjoint", "--cutoff-l",
      "6", "--max-l", "2"],
     "7e358ee28cdc2aab6fa37a1ced60270c0a2e5cf966152314c56157e23e81abc1"),
]
PINNED_IDS = ["torus", "sphere", "torus-rr", "sphere-abstract", "table-csv",
              "table-json", "sphere-r-l6", "sphere-r-l5", "torus-so4",
              "torus-rns", "raw-scan", "torus-default", "torus-nsr",
              "torus-eps", "torus-rr-so4", "sphere-r-l8", "sphere-r-so4",
              "torus-rr-2", "torus-rr-so4-2", "sphere-abstract-so4",
              "sphere-r-so5"]


def _builtin_json(value) -> bool:
    """Whether value is built only of dict, list, str, int, float, bool and
    None, by exact type, as a report streamed from an open file must be."""
    if type(value) is dict:
        return all(type(k) is str and _builtin_json(v)
                   for k, v in value.items())
    if type(value) is list:
        return all(map(_builtin_json, value))
    return type(value) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("args,digest", PINNED_REPORTS, ids=PINNED_IDS)
def test_report_bytes_are_pinned(args, digest, tmp_path, monkeypatch):
    # every payload handed to _write_report holds built-in types only: the
    # file is open before encoding, so a numpy scalar would truncate it
    write_report = cli._write_report

    def checked(payload, path):
        assert _builtin_json(payload)
        write_report(payload, path)

    monkeypatch.setattr(cli, "_write_report", checked)
    out = tmp_path / "r.json"
    assert main(args + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_failing_sphere_report_is_pinned(tmp_path):
    # at tol 0 every sphere bracket with quadrature round-off fails and
    # names a state: the bytes pin each residual, refitted [L, T]
    # coefficient and largest-coefficient tie-break of the engine
    out = tmp_path / "r.json"
    assert main(["verify-sphere", "--sectors", "R", "--cutoff-l", "6",
                 "--max-l", "2", "--tol", "0", "--output", str(out)]) == 2
    brackets = json.loads(out.read_text())["brackets"]
    failed = [b for b in brackets if not b["pass"]]
    assert (len(brackets), len(failed)) == (207, 195)
    assert all(b["offending_state"] for b in failed)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "680a2c8e19121d63f46968b8c94507713be1528ccf598cea296915742592a965"


# sha256 of the pinned sphere reports, as sorted-key JSON, without the fields
# that changed when the sphere brackets moved from probe states to
# one-particle matrices: each bracket's residual (now the largest compared
# coefficient), raw central (now the oscillator vacuum trace) and refitted
# [L, T] coefficient, and the refit's largest deviation from the rule.
# Taken from the reports of the Fock path; every verdict, label, central
# value and count is the same.
SPHERE_STRIPPED = {
    "sphere":
        "622ed73b21058bacbac07ca038d74b6577617b5c1c9fe2c237777e31b5a0922d",
    "sphere-r-l5":
        "9c05ccbdfe563d6b2ce5d8b8d62ffc9187b433c945a8f1907cba91911ed6c51b",
    "sphere-r-l6":
        "053715acf7378081a8b37cbf20183057000ae78e9ad98856e9e8254b99fad966",
    "sphere-r-l8":
        "3d27f821586de846b9c25a4ca4dd61d12f755be0655540d993634519a75a4f53",
}


@pytest.mark.parametrize("name", sorted(SPHERE_STRIPPED))
def test_sphere_reports_keep_the_fock_path_fields(name, tmp_path):
    args = PINNED_REPORTS[PINNED_IDS.index(name)][0]
    out = tmp_path / "r.json"
    assert main(args + ["--output", str(out)]) == 0
    report = json.loads(out.read_text())
    for bracket in report["brackets"]:
        for key in ("residual", "raw_central", "kappa_measured"):
            bracket.pop(key, None)
    del report["lt_coefficient"]["max_deviation_from_rule"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == SPHERE_STRIPPED[name]


def test_raw_scan_table_is_pinned(capsys):
    # the printed table of the divergence diagnostic, byte for byte
    assert main(["regularization", "--raw-scan"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        "af806086411caa1265b00f0417f218dd4157a1bb178117a081ddf9d01f9e3938"


# ---------------------------------------------------------------------------
# fuzzing the command line in-process
# ---------------------------------------------------------------------------

def _halves(lo, hi):
    """Half-integers from lo to hi of both parities, as '3/2' or '2'."""
    return st.integers(2 * lo, 2 * hi).map(
        lambda k: str(k // 2) if k % 2 == 0 else f"{k}/2")


# valid flag values stay cheap: n <= 5, N <= 2, car-check d <= 3 at its
# smallest cutoffs; the malformed ones are refused before any work
_LATTICE = {"NS": ["1/2", "3/2", "5/2", "7/2", "9/2"],
            "R": ["1", "2", "3", "4"]}
_REPS = st.sampled_from(["so3-adjoint", "so4-adjoint", "so5-adjoint"])
_BAD_REPS = st.sampled_from(["so2-adjoint", "so40-adjoint", "so03-adjoint",
                             "so3-adjoint\n", "su2-fund", ""])
_TOLS = st.sampled_from(["0", "1e-12", "1e-9", "1e-3"])
_BAD_TOLS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1e-9", "x"]),
                      st.floats().map(repr))
_BAD_SECTORS = st.sampled_from(["R", "NS", "R,NS", "R,R,R", "garbage,NS", ""])
_BAD_WINDOWS = st.sampled_from(["1,1", "a,b,c", "1,1,1.5", "-1/2,1,1",
                                "nan,1,1", "1,1,-1"])
_WINDOWS = st.tuples(_halves(0, 2), _halves(0, 2),
                     st.integers(0, 2)).map(lambda w: "%s,%s,%d" % w)
_BAD_HALVES = st.sampled_from(["-1/2", "0", "3/4", "x"])


@st.composite
def _argv(draw):
    """One command line whose flags are valid but for one draw in six."""
    def pick(good, bad):
        return draw(bad if draw(st.integers(0, 5)) == 0 else good)

    def flag(name, good, bad):
        return [name, pick(good, bad)] if draw(st.booleans()) else []

    def lattice(sector, values):
        return pick(st.sampled_from(values[sector]), _BAD_HALVES)

    command = draw(st.sampled_from(["verify-torus", "verify-sphere",
                                    "sphere-abstract", "structure-constants",
                                    "regularization", "car-check"]))
    sectors = st.sampled_from(["R", "NS"])
    z, ang = draw(sectors), draw(sectors)
    argv = [command]
    if command not in ("structure-constants", "car-check"):
        argv += flag("--rep", _REPS, _BAD_REPS)
    if command in ("verify-torus", "verify-sphere", "sphere-abstract"):
        argv += flag("--tol", _TOLS, _BAD_TOLS)
    if command == "verify-torus":
        argv += ["--sectors", pick(st.just(f"{z},{ang}"), _BAD_SECTORS),
                 "--cutoff-m", lattice(z, _LATTICE),
                 "--cutoff-p", lattice(ang, _LATTICE),
                 "--max-mode",
                 pick(st.sampled_from(["0", "1"]), st.just("-1"))]
        argv += flag("--window", _WINDOWS, _BAD_WINDOWS)
        argv += flag("--method", st.sampled_from(["analytic", "eps"]),
                     st.just("raw"))
    elif command == "verify-sphere":
        argv += ["--sectors", pick(st.just(z), _BAD_SECTORS), "--cutoff-l",
                 lattice(z, {"R": ["2", "3"], "NS": ["3/2", "5/2"]}),
                 "--max-l", pick(st.sampled_from(["0", "1"]), st.just("-1"))]
        argv += flag("--lmax", st.sampled_from(["3", "4"]),
                     st.sampled_from(["1", "-1", "33"]))
        argv += flag("--window", _WINDOWS, _BAD_WINDOWS)
        argv += flag("--central-tol", _TOLS, _BAD_TOLS)
    elif command == "sphere-abstract":
        argv += ["--lmax", pick(st.sampled_from(["3", "4"]),
                                st.sampled_from(["0", "-1", "x"])),
                 "--l-probe", pick(st.sampled_from(["0", "1"]),
                                   st.sampled_from(["2", "-1"]))]
    elif command == "structure-constants":
        argv += ["--lmax", pick(st.sampled_from(["0", "1", "3"]),
                                st.sampled_from(["-1", "33", "x"]))]
        argv += flag("--format", st.sampled_from(["json", "csv"]),
                     st.just("xml"))
    elif command == "regularization":
        argv += ["--sphere-m", *map(str, draw(st.lists(
            st.integers(-40, 40), max_size=3)))]
        argv += draw(st.sampled_from([[], ["--include-sphere-ns"]]))
        argv += draw(st.sampled_from([[], ["--raw-scan"]]))
    else:
        argv += ["--d", pick(st.sampled_from(["1", "2", "3"]),
                             st.sampled_from(["0", "-1"]))]
        if pick(st.just(True), st.just(False)):
            geometry = draw(st.sampled_from(["torus", "sphere"]))
            argv += ["--geometry", geometry]
        else:
            geometry = "torus"
            argv += ["--geometry", "disk"]
        if geometry == "torus":
            argv += ["--sectors", pick(st.just(f"{z},{ang}"), _BAD_SECTORS),
                     "--cutoff-m", lattice(z, {"R": ["1"], "NS": ["1/2"]}),
                     "--cutoff-p", lattice(ang, {"R": ["0"], "NS": ["1/2"]})]
            argv += pick(st.just([]), st.just(["--cutoff-l", "1"]))
        else:
            argv += ["--sectors", pick(st.just(z), _BAD_SECTORS),
                     "--cutoff-l", lattice(z, {"R": ["0"], "NS": ["1/2"]})]
            argv += pick(st.just([]), st.just(["--cutoff-m", "1/2"]))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv(), output=st.sampled_from([None, "new", "old"]))
def test_fuzzed_command_lines_end_cleanly(argv, output, tmp_path_factory):
    # every run exits 0-3 with no traceback, a failure with one stderr line;
    # an --output file is a whole report or the earlier file, unchanged
    path = None
    if output:
        path = tmp_path_factory.mktemp("out") / "report"
        argv = argv + ["--output", str(path)]
        if output == "old":
            path.write_bytes(b"earlier report\n")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= (1 if code else 0), (argv, err)
    if not output:
        return
    before = b"earlier report\n" if output == "old" else None
    after = path.read_bytes() if path.exists() else None
    if after == before:
        # only a refused run, or one stopped unresolved, writes nothing
        assert code in (1, 3), argv
        return
    assert code != 1, argv
    if argv[0] == "structure-constants" and "json" not in argv:
        lines = after.decode().splitlines()
        assert after.endswith(b"\n") and len(
            {line.count(",") for line in lines}) == 1, argv
    else:
        json.loads(after)
