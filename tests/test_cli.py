import json
import math

import pytest

from oscdet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_action_command_bc4(capsys):
    code, out = run_cli(capsys, "action", "--N", "4", "--M", "2", "--u", "1", "--v", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-1.0 / 3.0, rel=1e-10)
    assert payload["method"] == "closed-normal"


def test_action_numeric_route(capsys):
    code, out = run_cli(capsys, "action", "--N", "6", "--M", "4", "--v", "1",
                        "--method", "numeric", "--tol", "1e-8")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(-0.06817893171, abs=1e-7)


def test_zeta_harmonic_constant(capsys):
    code, out = run_cli(capsys, "zeta", "--harmonic", "--s", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.pi**2 / 8.0, abs=1e-10)


def test_zeta_divergent_exit_code(capsys):
    code, out = run_cli(capsys, "zeta", "--harmonic", "--s", "1")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "DivergenceError"


def test_det_harmonic(capsys):
    code, out = run_cli(capsys, "det", "--spec", "2 0 1.0 0.0 0.0", "--harmonic")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["full"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


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
        (["zeta", "--harmonic", "--s", "2"], schemas.ZETA_SCHEMA),
        (["action", "--N", "4", "--M", "2"], schemas.ACTION_SCHEMA),
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
        main(["action", "--N", "not-a-number"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--spec", "3 2 1.0 1.0 0.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "4,2"])   # M must be 2
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


def test_malformed_spec_exit_two(capsys):
    _exit_two_without_traceback(capsys, "spectrum", "--spec", "4 2 x 1 0")
    _exit_two_without_traceback(capsys, "spectrum", "--spec", "4 2 1 1 nan")


def test_nonpositive_tolerance_exit_two(capsys):
    for tol in ("0", "-1e-6", "nan", "inf"):
        _exit_two_without_traceback(capsys, "spectrum", "--spec", "4 0 1 0 0", "--tol", tol)


def test_unknown_config_key_exit_two(tmp_path, capsys):
    config = tmp_path / "verify.cfg"
    config.write_text("# thresholds\nspectrum_cout = 64\n")
    err = _exit_two_without_traceback(capsys, "verify", "--config", str(config))
    assert "spectrum_cout" in err


def test_verify_family_alias(capsys):
    code, out = run_cli(capsys, "verify", "--family", "2,4",
                        "--grid", "1e-1,3e-2,1e-2")
    assert code in (0, 1)
    payload = json.loads(out)
    assert payload["family"] == {"N": 4, "M": 2}


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _ = run_cli(capsys, "det", "--spec", "4 0 1.0 0.0 0.0",
                          "--shift", "0.5", "--out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


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
