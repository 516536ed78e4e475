import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscdet
from oscdet import spectrum
from oscdet.actions import binomial_action
from oscdet.cli import main
from oscdet.errors import DomainError
from oscdet.predictions import predict_det_ratio_g, predict_Z1
from oscdet.special_functions import alternating_ladder_zeta, ladder_zeta
from oscdet.spectral import zeta_full, zeta_skew

from helpers import uncoupled


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_action_command_bc4(capsys):
    code, out = run_cli(capsys, "action", "--spec", "4 2 1 1 0")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-1.0 / 3.0, rel=1e-10)
    assert payload["method"] == "closed-normal"


def test_action_numeric_route(capsys):
    code, out = run_cli(capsys, "action", "--spec", "6 4 1 1 0", "--method", "numeric")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-0.06817893171, abs=1e-7)


def test_action_numeric_with_constant_and_shift(capsys):
    # q^6 + 1 + 1: both small terms of the tail series are nonzero at once
    code, out = run_cli(capsys, "action", "--spec", "6 0 1 1 1", "--method", "numeric")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(
        binomial_action(1.0, 2.0, 6, 0).value, abs=1e-9)


def test_action_numeric_sums_its_tail_to_rounding(capsys):
    # the tail series stops once the orders left out are below rounding, so
    # there is no tolerance to pass: q^4 + q^2 comes out within 1e-14 of -1/3
    code, out = run_cli(capsys, "action", "--spec", "4 2 1 1 0", "--method", "numeric")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-1.0 / 3.0, abs=1e-14)
    _exit_two_without_traceback(capsys, "action", "--spec", "4 2 1 1 0", "--method", "numeric",
                                "--tol", "1e-8")


def test_zeta_harmonic_constant(capsys):
    code, out = run_cli(capsys, "zeta", "--spec", "2 0 1 0 0", "--s", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.pi**2 / 8.0, abs=1e-10)


def test_zeta_harmonic_far_up_the_ladder(capsys):
    # 2^1000 is printed; 100^400 is beyond double range and printed as null
    code, out = run_cli(capsys, "zeta", "--spec", "2 0 1 0 0", "--s", "1000", "--skew",
                        "--E", "0.5")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0**1000, rel=1e-15)
    code, out = run_cli(capsys, "zeta", "--spec", "2 0 1 0 0", "--s", "400", "--E", "0.99")
    assert code == 0
    assert _strict_json(out)["value"] is None


@settings(max_examples=100, derandomize=True, deadline=None)
# the s = 1 skew at an energy of inf and of nan
@example(s=1, skew=True, E=-math.inf)
@example(s=1, skew=True, E=math.nan)
@given(s=st.integers(-2, 10**6), skew=st.booleans(),
       E=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(-12.0, 0.0).map(lambda e: 1.0 - 10.0 ** e)))
def test_zeta_harmonic_exits_with_a_documented_code(s, skew, E):
    argv = ["zeta", "--spec", "2 0 1 0 0", f"--s={s}", f"--E={E!r}"]
    argv += ["--skew"] if skew else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    value = _strict_json(out.getvalue()).get("value") if code in (0, 3) else None
    assert value is None or value >= 0.0


def test_zeta_divergent_exit_code(capsys):
    code, out = run_cli(capsys, "zeta", "--spec", "2 0 1 0 0", "--s", "1")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "DivergenceError"


@pytest.mark.parametrize("u, v, lam, E, s, skew", [
    (1.0, 0.0, 0.0, 0.0, 2, False), (1.0, 0.0, 0.0, 0.0, 1, True),
    (2.5, 1.0, 3.0, -0.7, 1, True), (2.5, 1.0, 3.0, -0.7, 3, False),
    (1e-3, 100.0, -50.0, 0.5, 3, True), (4.0, 0.0, 1e6, 10.0, 2, False),
    (0.3, 2.0, 0.25, 2.5, 5, True), (1e6, 0.5, -0.25, -1e3, 2, True)])
def test_zeta_of_n_two_is_the_exact_ladder(capsys, u, v, lam, E, s, skew):
    # u q^2 + v + lam has the levels sqrt(u)(2k+1) + v + lam: the constant
    # moves into E, and the E echoed is the one asked for
    spec = f"2 0 {u!r} {v!r} {lam!r}"
    code, out = run_cli(capsys, "zeta", "--spec", spec, "--s", str(s), f"--E={E!r}",
                        *(["--skew"] if skew else []))
    assert code == 0
    ladder = alternating_ladder_zeta if skew else ladder_zeta
    root = math.sqrt(u)
    assert _strict_json(out) == {"spec": spec, "s": s, "E": E, "skew": skew,
                                 "value": ladder(s, root - (E - (v + lam)), 2.0 * root),
                                 "tail_fraction": 0.0}


def test_zeta_of_n_two_keeps_its_digits_far_above_the_ground_state(capsys):
    # sum_k (-1)^k (2k + 1 + lam)^-s = 4^-s [zeta(s, b) - zeta(s, b + 1/2)],
    # b = (1 + lam)/4, in polygamma form
    import mpmath

    with mpmath.workdps(40):
        for lam in (0.0, 1e2, 1e4, 1e6, 1e8):
            b = (1 + mpmath.mpf(lam)) / 4
            for s in (1, 2, 3):
                hurwitz = [(-1) ** s * mpmath.psi(s - 1, x) / mpmath.factorial(s - 1)
                           for x in (b, b + 0.5)]
                want = (hurwitz[0] - hurwitz[1]) / 4**s
                code, out = run_cli(capsys, "zeta", "--spec", f"2 0 1 0 {lam!r}",
                                    "--s", str(s), "--skew")
                assert code == 0
                assert abs(_strict_json(out)["value"] - want) <= 1e-14 * want, (lam, s)


@pytest.mark.parametrize("spec", ("2 0 1 0 0", "4 2 1 1 0"))
@pytest.mark.parametrize("skew", (False, True))
def test_zeta_below_s_one_exit_two(capsys, spec, skew):
    _exit_two_without_traceback(capsys, "zeta", "--spec", spec, "--s", "0",
                                *(["--skew"] if skew else []))


@pytest.mark.parametrize("command", ("spectrum", "action", "det", "zeta"))
def test_potential_is_named_only_by_spec(capsys, command):
    # --spec is the one way to name a potential: per-coefficient flags, and
    # a zeta flag for the harmonic ladder, are usage errors
    flags = ["--N=4", "--M=2", "--u=1", "--v=1", "--lam=0", "--lambda=0"]
    for flag in flags + (["--harmonic"] if command == "zeta" else []):
        err = _exit_two_without_traceback(capsys, command, flag)
        assert f"unrecognized arguments: {flag}" in err


def test_action_refuses_a_coefficient_its_form_leaves_out(capsys):
    # the closed form is the action of u q^N + v q^M, at lambda = 0, and
    # the asymptotic form that of q^N + v q^M + lambda, at u = 1
    for spec, method in (("4 2 1 1 5", "closed"), ("4 2 2 1 0", "asymptotic")):
        err = _exit_two_without_traceback(capsys, "action", "--spec", spec, "--method", method)
        assert "use --method numeric" in err
    for spec, method in (("4 2 2 1 0", "closed"), ("4 2 1 1 5", "asymptotic")):
        assert run_cli(capsys, "action", "--spec", spec, "--method", method)[0] == 0


def test_det_harmonic(capsys):
    code, out = run_cli(capsys, "det", "--spec", "2 0 1.0 0.0 0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed-harmonic"
    assert payload["value"]["full"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # the N = 2 closed form takes the constant whichever slot it is written in
    logs = [json.loads(run_cli(capsys, "det", "--spec", spec, "--shift", "0.5")[1])["log_abs"]
            for spec in ("2 0 1 0 3", "2 0 1 3 0", "2 0 1 1 2")]
    assert logs[0] == logs[1] == logs[2]


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 does not allow."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_det_beyond_double_range(capsys):
    import jsonschema

    from oscdet import schemas

    code, out = run_cli(capsys, "det", "--spec", "6 4 1 10000 0")
    assert code == 0
    payload = _strict_json(out)
    jsonschema.validate(payload, schemas.DET_SCHEMA)
    assert all(math.isfinite(x) for x in payload["log_abs"].values())
    assert payload["value"]["full"] is None
    assert payload["value"]["skew"] == pytest.approx(math.exp(payload["log_abs"]["skew"]))


def test_det_at_an_eigenvalue_is_strict_json(capsys):
    import jsonschema

    from oscdet import schemas

    # lambda = -1 is the ground state of q^2: log D+ = -inf
    code, out = run_cli(capsys, "det", "--spec", "2 0 1 0 0", "--shift", "-1")
    assert code == 0
    payload = _strict_json(out)
    jsonschema.validate(payload, schemas.DET_SCHEMA)
    assert payload["log_abs"]["even"] is None and payload["log_abs"]["full"] is None
    assert payload["value"]["full"] == 0.0
    assert payload["log_abs"]["odd"] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_det_tail_point_beyond_double_range(capsys):
    # u = 1e-300 puts the tail point near 2e150, where u q^4 overflows
    code, out = run_cli(capsys, "det", "--spec", "4 2 1e-300 1 0")
    assert code == 3
    payload = _strict_json(out)
    assert payload["error"] == "AccuracyError"
    assert "double range" in payload["message"] and "\n" not in payload["message"]


@pytest.mark.parametrize("spec", ("6 2 1 1e300 0", "4 0 1e-300 1e300 0",
                                  "2 0 1e-14 1e300 0", "2 0 1e-300 1e200 0"))
def test_det_terms_beyond_double_range(capsys, spec):
    # P where the shot's start is chosen, a tail point (4 v / u)^(1/4) beyond
    # double range, and log Gamma of the harmonic ladder at lambda/sqrt(u) =
    # 1e307 and inf
    code, out = run_cli(capsys, "det", "--spec", spec)
    assert code == 3
    assert "double range" in _strict_json(out)["message"]


@pytest.mark.parametrize("spec, shift, code", [
    # a finite potential whose lambda/sqrt(u) is beyond double range
    ("2 0 1e-300 0 -1e300", "0", 3),
    # lambda + shift overflows, or the shift is not a finite number: there is
    # no potential, for N = 2 as for N > 2
    ("2 0 1 0 -1e308", "-1e308", 2),
    *[(spec, shift, 2) for spec in ("2 0 1 0 0", "4 2 1 1 0") for shift in ("nan", "inf", "-inf")],
])
def test_det_at_a_shift_it_cannot_use_is_one_line(capsys, spec, shift, code):
    try:
        got = main(["det", "--spec", spec, f"--shift={shift}"])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code and "Traceback" not in captured.err
    if code == 3:
        payload = _strict_json(captured.out)
        assert "double range" in payload["message"] and "\n" not in payload["message"]
        assert captured.err == ""
    else:
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "must be finite" in captured.err


def test_det_of_a_huge_constant_is_finite(capsys):
    # q^4 + C, C = 6.4e163: the WKB start is formed from P'/P, P''/P and
    # P'''/P, so no power of P leaves double range.  At this C, log D is its
    # leading large-lambda term -c_0 Gamma(-3/4) C^(3/4), with
    # c_0 = Gamma(1/4) / (2 sqrt(4 pi)), and the skew is (1/2) log C
    code, out = run_cli(capsys, "det", "--spec", "4 0 1 6.4e163 0")
    assert code == 0
    log_abs = _strict_json(out)["log_abs"]
    c_0 = math.gamma(0.25) / (2.0 * math.sqrt(4.0 * math.pi))
    assert log_abs["full"] == pytest.approx(-c_0 * math.gamma(-0.75) * 6.4e163**0.75, rel=1e-12)
    assert log_abs["skew"] == pytest.approx(0.5 * math.log(6.4e163), rel=1e-12)


def test_spectrum_basis_wider_than_count(capsys):
    # N/2 = 20 band diagonals and 8 levels: the basis must hold the band;
    # an exception would escape run_cli as a traceback
    code, _ = run_cli(capsys, "spectrum", "--spec", "40 2 1 1 0", "--count", "8")
    assert code in (0, 3)


def test_spectrum_csv_schema(capsys):
    code, out = run_cli(capsys, "spectrum", "--spec", "2 0 1.0 0.0 0.0",
                        "--count", "4", "--tol", "1e-6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,parity,value,err_est"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "even"
    assert float(first[2]) == pytest.approx(1.0, abs=1e-6)


def test_emitted_json_validates_against_shipped_schemas(capsys):
    import jsonschema

    from oscdet import schemas

    cases = [
        (["poles", "--N", "4", "--M", "2"], schemas.POLES_SCHEMA),
        (["det", "--spec", "4 0 1.0 0.0 0.0", "--shift", "0.5"], schemas.DET_SCHEMA),
        (["zeta", "--spec", "2 0 1 0 0", "--s", "2"], schemas.ZETA_SCHEMA),
        (["action", "--spec", "4 2 1 1 0"], schemas.ACTION_SCHEMA),
        (["predict", "--N", "4", "--g", "1e-2"], schemas.PREDICT_SCHEMA),
    ]
    for argv, schema in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    code, out = run_cli(capsys, "poles", "--N", "4", "--M", "2")
    payload = json.loads(out)
    assert payload["contributing"]["leading"]["sigma0"] == "3/2"
    assert payload["contributing"]["subleading"]["sigma0"] == "-1/2"


def test_predict_command(capsys):
    code, out = run_cli(capsys, "predict", "--N", "4", "--g", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["Z1"] == pytest.approx(-0.5 * math.log(1e-3) + 2.0214757838506295,
                                          rel=1e-10)


def test_parse_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--tol", "not-a-number"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--spec", "3 2 1.0 1.0 0.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--grid", "abc"])
    assert exc.value.code == 2


def _exit_two_without_traceback(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    return err


# every option of every subcommand, --help aside: an option added or taken
# away changes this table and README's CLI section with it
_CLI_OPTIONS = {
    "spectrum": ("--spec", "--count", "--tol", "--out"),
    "action": ("--spec", "--method", "--out"),
    "poles": ("--N", "--M", "--window-lo", "--window-hi", "--out"),
    "det": ("--spec", "--shift", "--out"),
    "zeta": ("--spec", "--s", "--E", "--skew", "--count", "--tol", "--out"),
    "predict": ("--N", "--g", "--E", "--out"),
    "verify": ("--N", "--grid", "--format", "--out"),
    "fig2": ("--families", "--grid", "--outdir"),
}


def test_cli_option_set_is_pinned():
    import argparse

    from oscdet.cli import build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    got = {name: {option for action in parser._actions for option in action.option_strings
                  if option not in ("-h", "--help")}
           for name, parser in sub.choices.items()}
    assert got == {name: set(options) for name, options in _CLI_OPTIONS.items()}
    assert sum(map(len, got.values())) == 33


def test_a_run_builds_only_its_own_subparser(capsys, monkeypatch):
    import argparse

    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["verify", "--N", "4", "--grid", "0.1,0.01"]) == 0
    assert built == ["verify"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--version"])
    assert built == list(_CLI_OPTIONS)


def test_a_one_command_parser_prints_the_whole_usage_line(capsys):
    from oscdet.cli import build_parser

    usage = build_parser().format_usage()
    assert usage == build_parser("verify").format_usage()
    assert "{spectrum,action,poles,det,zeta,predict,verify,fig2}" in usage
    err = _exit_two_without_traceback(capsys, "verify", "--bogus")
    assert err == usage + "oscdet: error: unrecognized arguments: --bogus\n"


def test_malformed_spec_exit_two(capsys):
    _exit_two_without_traceback(capsys, "spectrum", "--spec", "4 2 x 1 0")
    _exit_two_without_traceback(capsys, "spectrum", "--spec", "4 2 1 1 nan")


def test_nonpositive_tolerance_exit_two(capsys):
    for tol in ("0", "-1e-6", "nan", "inf"):
        _exit_two_without_traceback(capsys, "spectrum", "--spec", "4 0 1 0 0", "--tol", tol)


@pytest.mark.parametrize("command, message", [
    ("fig2 --families 4,x", ""),
    ("verify --grid 0.1,-1", ""),
    ("verify --grid 0.1,0", ""),
    ("verify --grid 0.1,nan", ""),
    ("verify --grid 0.1,inf", ""),
    ("verify --grid 1e-2,1e-2", "distinct"),
    ("verify --grid 1e-2,1e-3,1e-2", "distinct"),
    ("fig2 --grid 1e-2,1e-2", "distinct"),
    ("fig2 --grid 1e-1,-1e-2", "positive"),
    ("fig2 --families 4,3 --grid 1e-2,1e-3", "N=3"),
    ("fig2 --families 6,2 --grid 1e-2,1e-3", "M=2"),
    ("verify --N 5 --grid 1e-2,1e-3", "N=5"),
])
def test_bad_verify_input_exit_two_before_measuring(command, message, capsys, monkeypatch):
    import oscdet.predictions as predictions

    def refuse(*args, **kwargs):
        raise AssertionError("a point was measured before the input was checked")

    monkeypatch.setattr(predictions, "measure_point", refuse)
    assert message in _exit_two_without_traceback(capsys, *command.split())


def test_fig2_measures_each_point_once(tmp_path, capsys, monkeypatch):
    import oscdet.predictions as predictions

    calls = []

    def fake(N, g, *, count=256, tol=1e-6):
        calls.append((N, g))
        return predictions.PointMeasurement(g=g, v=2.0, z1=1.0, zp1=0.5, z2=1.5,
                                            zp2=0.25, slope=0.0, ratio0=0.0,
                                            skew_ratio0=0.0)

    monkeypatch.setattr(predictions, "measure_point", fake)
    code, _ = run_cli(capsys, "fig2", "--families", "4,6", "--grid", "1e-1,3e-2",
                      "--outdir", str(tmp_path))
    assert code == 0
    assert sorted(calls) == [(4, 3e-2), (4, 1e-1), (6, 3e-2), (6, 1e-1)]
    right = (tmp_path / "fig2_right.csv").read_text().splitlines()
    assert right[1] == f"q2+gq4,4,0.1,{math.log(0.1)!r},1.0,{predict_Z1(4, 0.1)!r}"


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _ = run_cli(capsys, "det", "--spec", "4 0 1.0 0.0 0.0",
                          "--shift", "0.5", "--out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_csv_to_a_file(tmp_path, capsys):
    # --out writes the bytes stdout would carry and prints the path
    argv = ["verify", "--N", "4", "--grid", "1e-1,3e-2", "--format", "csv"]
    code, csv_text = run_cli(capsys, *argv)
    path = tmp_path / "verify.csv"
    assert run_cli(capsys, *argv, "--out", str(path)) == (code, f"{path}\n")
    assert path.read_text() == csv_text
    assert csv_text.splitlines()[0].startswith("g,") and len(csv_text.splitlines()) == 3


def test_spectrum_into_the_output_directory(tmp_path, capsys, monkeypatch):
    argv = ["spectrum", "--spec", "4 0 1 0 0", "--count", "4"]
    code, csv_text = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("OSCDET_OUTDIR", str(tmp_path))
    path = tmp_path / "spectrum.csv"
    assert run_cli(capsys, *argv) == (0, f"{path}\n")
    assert path.read_text() == csv_text


def test_fig2_emission_small_grid(tmp_path, capsys):
    code, out = run_cli(capsys, "fig2", "--families", "4",
                        "--grid", "1e-1,3e-2", "--outdir", str(tmp_path))
    assert code == 0
    left = (tmp_path / "fig2_left.csv").read_text().splitlines()
    right = (tmp_path / "fig2_right.csv").read_text().splitlines()
    assert left[0] == "family,N,g,v,inv_v,ZP1,Z2,ZP2"
    assert right[0] == "family,N,g,log_g,Z1,Z1_predicted"
    assert len(left) == 3 and len(right) == 3
    # rerun is byte-identical
    code, _ = run_cli(capsys, "fig2", "--families", "4",
                      "--grid", "1e-1,3e-2", "--outdir", str(tmp_path))
    assert (tmp_path / "fig2_left.csv").read_text().splitlines() == left


@pytest.mark.parametrize("argv", (["spectrum", "--spec", "4 2 1 1e60 0"],
                                  ["zeta", "--spec", "4 2 1 1e300 0", "--s", "2"],
                                  ["spectrum", "--spec", "4 0 1 6.4e163 0", "--count", "24"],
                                  ["zeta", "--spec", "4 0 1 6.4e163 0", "--s", "2"]))
def test_turning_point_far_below_one_exit_three(capsys, argv):
    # the levels are found (not "below the potential minimum"), and the
    # absolute tolerance on levels near 1e30 or 1e150, or on levels that
    # round onto a constant of 6.4e163, is out of reach
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert "tolerance" in _strict_json(out)["message"]


def test_zeta_of_a_shallow_quartic(capsys):
    # 1e-40 q^4, whose level tail, taken in Q, was refused: the dilation of
    # q^4 by 1e40^(1/6), Z(1) times 1e40^(1/3)
    values = []
    for spec in ("4 0 1e-40 0 0", "4 0 1 0 0"):
        code, out = run_cli(capsys, "zeta", "--spec", spec, "--s", "1", "--count", "8")
        assert code == 0
        values.append(_strict_json(out)["value"])
    assert values[0] == pytest.approx(values[1] * 1e40 ** (1.0 / 3.0), rel=1e-10)


def test_cli_never_imports_scipy_integrate_or_optimize(tmp_path):
    # nor scipy.special, nor the scipy and scipy.linalg packages: LAPACK's
    # wrapper is the one scipy module loaded.  No module at all, numpy's and
    # scipy's included, is first imported inside a command, where its cost
    # would fall on the command rather than on the import.  This process
    # imports scipy for its oracles, so the commands run in a fresh interpreter
    script = """
import contextlib, io, sys
from oscdet.cli import main
runs = (["verify", "--N", "4", "--grid", "0.01"], ["det", "--spec", "4 2 1 1 0"],
        ["zeta", "--spec", "4 2 1 1 0", "--s", "2", "--count", "16"],
        ["zeta", "--spec", "2 0 1 0 0", "--s", "2"],
        ["zeta", "--spec", "2 0 1 0 0", "--s", "1", "--skew"],
        ["zeta", "--spec", "2 0 1 0 0", "--s", "2", "--skew"],
        ["action", "--spec", "4 2 1 1 0.5", "--method", "numeric"],
        ["spectrum", "--spec", "4 2 1 1 0", "--count", "8"],
        ["predict", "--N", "4", "--g", "0.01"], ["poles", "--N", "4", "--M", "2"],
        ["fig2", "--families", "4", "--grid", "1e-1,3e-2", "--outdir", sys.argv[1]],
        ["verify", "--N", "6", "--grid", "0.01", "--format", "json"])
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
      sorted(set(sys.modules) - before))
"""
    src = str(Path(oscdet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] ['scipy.linalg._flapack'] []", \
        done.stdout


def test_spectrum_of_a_non_finite_band_exit_three(capsys, monkeypatch):
    # no spectrum is known to reach a non-finite band, so one is patched in
    def band_with_nan(*args):
        band = sector_band(*args)
        band[0, 3] = math.nan
        return band

    sector_band = spectrum._sector_band
    monkeypatch.setattr(spectrum, "_sector_band", band_with_nan)
    spectrum._eigenvalues_cached.cache_clear()
    code = main(["spectrum", "--spec", "4 2 1 1 0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    payload = _strict_json(captured.out)
    assert payload["error"] == "AccuracyError"
    assert "not finite" in payload["message"] and "\n" not in payload["message"]


@pytest.mark.parametrize("E", (math.inf, -math.inf, math.nan))
def test_non_finite_energy_is_a_domain_error(capsys, E):
    q2 = uncoupled(2, 1.0)
    for entry in (lambda: zeta_full(q2, 2, E), lambda: zeta_skew(q2, 1, E),
                  lambda: zeta_skew(q2, 2, E), lambda: predict_Z1(4, 0.01, E),
                  lambda: predict_det_ratio_g(4, 2, 0.01, E)):
        with pytest.raises(DomainError, match="E must be finite"):
            entry()
    for argv in (["zeta", "--spec", "2 0 1 0 0", "--s", "1", "--skew", f"--E={E!r}"],
                 ["predict", "--N", "4", "--g", "0.01", f"--E={E!r}"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "E must be finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("--spec", "4 0 1 0 0", "--E", "nan", "--skew"), "E must be finite"),
    (("--spec", "4 0 1 0 0", "--E", "nan"), "E must be finite"),
    (("--spec", "4 0 1 0 0", "--E=-inf"), "E must be finite"),
    (("--spec", "4 0 1 0 0", "--E=inf", "--skew", "--s", "1"), "E must be finite"),
    # E - lambda = 2e308 is beyond double range, and far above the ground state
    (("--spec", "2 0 1 0 -1e308", "--E", "1e308"), "below the ground state"),
])
def test_zeta_at_an_energy_it_cannot_use_exit_two(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _exit_two_without_traceback(capsys, "zeta", *argv)
    assert caught == []
    assert err.count("\n") == 1 and message in err


def test_zeta_with_every_term_below_double_range_exit_three(capsys):
    # each (lam_k + 1e200)^-2 underflows, although the sum, near 4.6e-251,
    # does not: an accuracy error, not a value of 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["zeta", "--spec", "4 0 1 0 0", "--E=-1e200", "--s", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == "" and caught == []
    payload = _strict_json(captured.out)
    assert payload["error"] == "AccuracyError" and "below double range" in payload["message"]


@pytest.mark.parametrize("g", ("6e-232", "1e-300"))
def test_predict_forms_no_series_order_it_discards(capsys, g):
    # the law is formed in g itself, so no series term beyond double range is
    # formed; the prediction is the one at 7e-232, whose log det ratio
    # scales as 1/g
    code = main(["predict", "--N", "4", "--g", g])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    payload = _strict_json(captured.out)
    code, out = run_cli(capsys, "predict", "--N", "4", "--g", "7e-232")
    assert code == 0
    ref = _strict_json(out)
    assert payload["log_det_ratio"] * float(g) == pytest.approx(ref["log_det_ratio"] * 7e-232, rel=1e-13)


@pytest.mark.parametrize("method", ("closed", "numeric", "asymptotic"))
def test_action_beyond_double_range_exit_three(capsys, method):
    # -v^(3/2)/3 at v = 1e300 is beyond double range; so are the anomalous
    # residues u^(1/2-j) v^j of 1e-450 (j = 3), 1e-650 (j = 2) and, in the
    # uncoupled term 1e200 q^2 + 1e-300 of the asymptotic form, 1e-400 (j = 1)
    specs = {"closed": ("4 2 1 1e300 0", "10 8 1 1e-150 0", "6 4 1e300 1e-100 0"),
             "numeric": ("4 2 1 1e300 0",),
             "asymptotic": ("4 2 1 1e300 0", "8 2 1 1e200 1e-300")}[method]
    for spec in specs:
        code, out = run_cli(capsys, "action", "--spec", spec, "--method", method)
        assert code == 3, spec
        assert "double range" in _strict_json(out)["message"], spec


@pytest.mark.parametrize("command", ["zeta", "det"])
def test_harmonic_constant_beyond_double_range_exit_three(capsys, command):
    # v + lambda = 2e308 overflows: every level of q^2 + v + lambda is beyond
    # double range, so both commands fail as accuracy errors, not on E
    extra = {"zeta": ("--s", "2"), "det": ()}[command]
    code, out = run_cli(capsys, command, "--spec", "2 0 1 1e308 1e308", *extra)
    assert code == 3
    assert "double range" in _strict_json(out)["message"]
    if command == "zeta":
        code, out = run_cli(capsys, "zeta", "--spec", "2 0 1 1e308 1e308", "--skew")
        assert code == 3
        assert "v + lambda - E" in _strict_json(out)["message"]


@st.composite
def _fuzz_spec(draw):
    N = draw(st.sampled_from(range(2, 11, 2)))
    M = draw(st.sampled_from(range(0, N, 2)))
    u = 10.0 ** draw(st.floats(-60.0, 60.0))
    v = draw(st.one_of(st.just(0.0), st.floats(-6.0, 300.0).map(lambda e: 10.0 ** e)))
    lam = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(0.0, 40.0).map(lambda e: -10.0 ** e)))
    return f"{N} {M} {u!r} {v!r} {lam!r}"


def _case(spec, command, method="closed", shift=0.0, s=1, count=1):
    return example(spec=spec, command=command, s=s, skew=False, count=count, shift=shift,
                   method=method)


@settings(max_examples=200, derandomize=True, deadline=None)
# the random draws rarely overflow action: these do, on each of its routes,
# the last with its tail point beyond double range; and a det at strong
# coupling, where the shot starts nearest the origin; a shallow power, whose
# gauge end and plain leg are measured in its length; gauge ends that
# cancel P to zero or below; quadratures of the zeta tail that fail; and a
# prediction at E = inf, a domain error
@_case("4 2 1 1e300 0", "action", "closed")
@_case("4 2 1 1e300 0", "action", "numeric")
@_case("4 2 1 1e300 0", "action", "asymptotic")
@_case("2 0 0.006 3e182 1", "action", "numeric")
@_case("8 6 1 4e162 -5", "action", "asymptotic")
@_case("4 0 1e-300 1e300 0", "action", "numeric")
@_case("4 2 1 1e6 0", "det")
@_case("4 0 1e-60 0 0", "det")
@_case("4 0 1 0 -1e40", "det")
@_case("4 2 1 1 -1e18", "det")
@_case("4 2 4.997464767238886e-48 1.4219851749774957e-43 0.0", "zeta", s=1, count=8)
@_case("2 0 3.0938190730941977e-06 0.0 2694.078445340049", "zeta", s=2, count=4)
@_case("4 2 0.01 1 inf", "predict")
@given(spec=_fuzz_spec(),
       command=st.sampled_from(("spectrum", "zeta", "det", "action", "poles", "predict")),
       s=st.sampled_from((1, 2, 3)), skew=st.booleans(), count=st.integers(1, 32),
       shift=st.floats(-5.0, 5.0), method=st.sampled_from(("closed", "numeric", "asymptotic")))
def test_cli_fuzz_exits_with_a_documented_code(spec, command, s, skew, count, shift, method):
    N, M, u, _, lam = spec.split()
    if command == "poles":
        argv = [command, "--N", N, "--M", M]
    elif command == "predict":
        argv = [command, "--N", N, "--g", u, "--E", lam]
    else:
        argv = [command, "--spec", spec]
    if command == "det":
        argv += ["--shift", repr(shift)]
    elif command in ("spectrum", "zeta"):
        argv += ["--count", str(count)]
    if command == "zeta":
        argv += ["--s", str(s)] + (["--skew"] if skew else [])
    if command == "action":
        argv += ["--method", method]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    # 1 is reserved for failed verdicts, which none of these commands has
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    # usage and domain errors go to stderr, and nothing else does
    assert code == 2 or err.getvalue() == ""
    if out.getvalue().startswith("{"):
        _strict_json(out.getvalue())


def test_verify_at_strong_coupling_is_quiet(capsys):
    # the partners q^4 + v q^2 at g = 1e-8, 1e-9 have v = 1e5.3, 1e6: the
    # s = 2 bridge integrand peaks at q_cut
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--N", "4", "--grid", "1e-8,1e-9"])
    captured = capsys.readouterr()
    assert caught == [] and captured.err == ""
    payload = _strict_json(captured.out)
    assert payload["notes"] == []
    assert code in (0, 1)
    assert payload["measured"]["z2"] == pytest.approx([math.pi**2 / 8.0] * 2, rel=1e-6)


def test_verify_json_writes_a_non_finite_value_as_null(capsys, monkeypatch):
    import oscdet.predictions as predictions

    def fake(N, g, *, count=64, tol=1e-6):
        return predictions.PointMeasurement(g=g, v=2.0, z1=math.nan, zp1=0.5, z2=1.5,
                                            zp2=0.25, slope=0.0, ratio0=0.0,
                                            skew_ratio0=0.0)

    monkeypatch.setattr(predictions, "measure_point", fake)
    assert main(["verify", "--grid", "1e-1,3e-2"]) == 1
    payload = _strict_json(capsys.readouterr().out)
    assert payload["measured"]["z1"] == payload["residuals"]["z1"] == [None, None]
    assert payload["measured"]["zp1"] == [0.5, 0.5]


def test_readme_cli_examples_run(tmp_path, capsys):
    # every `oscdet ...` line of README's CLI block, with fig2 writing to tmp_path
    import re
    import shlex
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    outputs = {}
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)[1:]
        if argv[0] == "fig2":
            argv[argv.index("--outdir") + 1] = str(tmp_path)
        code, out = run_cli(capsys, *argv)
        assert code == 0, line
        outputs[line.split("#")[0].strip()] = out
    assert len(outputs) == 10
    assert json.loads(outputs['oscdet action   --spec "4 2 1 1 0"'])["value"] == \
        pytest.approx(-1.0 / 3.0, rel=1e-12)
    assert json.loads(outputs['oscdet det      --spec "2 0 1.0 0.0 0.0"'])["value"]["full"] == \
        pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert json.loads(outputs['oscdet zeta     --spec "2 0 1 0 0" --s 2'])["value"] == \
        pytest.approx(math.pi**2 / 8.0, rel=1e-12)
    assert (tmp_path / "fig2_left.csv").exists() and (tmp_path / "fig2_right.csv").exists()
