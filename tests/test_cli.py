import importlib.util
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from tclab import cli

from conftest import fresh_python


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_table_golden(capsys):
    code, out, _ = run_capture(capsys, ["field", "--field", "sqrt5.field"])
    assert code == 0
    assert out == (
        "# field\n"
        "degree: 2\n"
        "discriminant: 5\n"
        'label: "sqrt5"\n'
        "minkowski_bound: 2\n"
        'poly: ["-1", "-1", "1"]\n'
        'signature: ["2", "0"]\n'
    )


def test_json_report_schema(capsys):
    code, out, _ = run_capture(capsys, ["--json", "rayclass", "--field",
                                        "sqrt5.field", "--p", "3",
                                        "--modulus", "5 107 197"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "tclab-report/1"
    assert rep["command"] == "rayclass"
    assert rep["inputs"]["p"] == 3
    assert rep["results"]["p_part"] == "Z/27"
    assert rep["results"]["modulus"] == ["5_1", "107_1", "197_1"]
    assert "wall_time_s" in rep


def test_table_is_derived_from_json(capsys):
    code, json_out, _ = run_capture(
        capsys, ["--json", "classgroup", "--field", "sqrt5.field"])
    rep = json.loads(json_out)
    table = cli.emit_table(rep)
    code2, table_out, _ = run_capture(capsys, ["classgroup", "--field", "sqrt5.field"])
    # the table renderer sees only the report, so rerunning must agree
    # except for the wall time, which the table does not print
    assert table_out == table


def test_prime_set_selectors():
    from tclab.fieldfile import parse_field_file
    from importlib import resources
    K = parse_field_file(resources.files("tclab.data") / "sqrt5.field")
    assert [P.label for P in cli.parse_prime_set(K, "11")] == ["11_1"]
    assert [P.label for P in cli.parse_prime_set(K, "11:2")] == ["11_2"]
    assert [P.label for P in cli.parse_prime_set(K, "11:all")] == ["11_1", "11_2"]
    assert [P.label for P in cli.parse_prime_set(K, "5,11:all")] == ["5_1", "11_1", "11_2"]


def test_prime_set_errors():
    from tclab.fieldfile import parse_field_file
    from importlib import resources
    from tclab.numberfield import FieldError
    K = parse_field_file(resources.files("tclab.data") / "sqrt5.field")
    with pytest.raises(FieldError):
        cli.parse_prime_set(K, "6")
    with pytest.raises(FieldError):
        cli.parse_prime_set(K, "11:3")
    with pytest.raises(FieldError):
        cli.parse_prime_set(K, "11:x")


def test_usage_exit_code(capsys):
    code, _, err = run_capture(capsys, ["not-a-command"])
    assert code == 64


def test_precondition_exit_code(capsys):
    code, _, err = run_capture(capsys, ["rayclass", "--field", "sqrt5.field",
                                        "--p", "3", "--modulus", "3"])
    assert code == 2
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert "wild" in rep["error"]["reason"]


@pytest.mark.parametrize("command,option", [("rayclass", "--modulus"), ("rusb", "--S")])
def test_repeated_modulus_prime_is_precondition(capsys, command, option):
    code, out, err = run_capture(capsys, ["--json", command, "--field", "sqrt5.field",
                                          "--p", "5", option, "11,11"])
    assert code == 2 and out == ""
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert "repeats" in rep["error"]["reason"]


P_COMMANDS = {
    "selmer": ["--S", "11"],
    "rusb": ["--S", "11"],
    "rayclass": ["--modulus", "11"],
    "search-x": [],
    "sandwich": ["--T", "11", "--V", "11"],
}


@pytest.mark.parametrize("p", [0, 1, 4, -3])
@pytest.mark.parametrize("command", sorted(P_COMMANDS))
def test_non_prime_p_is_precondition(capsys, command, p):
    argv = [command, "--field", "sqrt5.field", "--p", str(p)] + P_COMMANDS[command]
    code, out, err = run_capture(capsys, ["--json"] + argv)
    assert code == 2 and out == ""
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert f"p = {p} " in rep["error"]["reason"]


@pytest.mark.parametrize("option,value,reason", [
    ("--count", "-2", "--count = -2 is not positive"),
    ("--count", "0", "--count = 0 is not positive"),
    ("--norm-bound", "-5", "--norm-bound = -5 is below 2"),
    ("--norm-bound", "1", "--norm-bound = 1 is below 2"),
])
def test_bad_search_x_count_or_bound_is_precondition(capsys, option, value, reason):
    code, out, err = run_capture(capsys, ["--json", "search-x", "--field", "sqrt5.field",
                                          "--p", "3", option, value])
    assert code == 2 and out == ""
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert rep["error"]["reason"].startswith(reason)


def test_non_prime_p_in_layer_config_is_precondition(capsys, tmp_path):
    ini = tmp_path / "p4.ini"
    ini.write_text(cli._data_path("example1.ini").read_text().replace("p = 3", "p = 4"))
    code, _, err = run_capture(capsys, ["sandwich", "--config", str(ini), "--twisted"])
    assert code == 2
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert "p = 4 " in rep["error"]["reason"]


# M^2 = -1 over F_3 (Gamma = Z/2); 2 x 3; ragged; order 2 over F_2 (Gamma = Z/3).
@pytest.mark.parametrize("ini,matrix", [("example1.ini", "0 1 / 2 0"),
                                        ("example2.ini", "1 0 0 / 0 1 0"),
                                        ("example2.ini", "1 0 / 0"),
                                        ("example2.ini", "1 1 / 0 1")])
def test_twist_that_is_not_a_gamma_action_is_precondition(capsys, tmp_path, ini, matrix):
    text = cli._data_path(ini).read_text()
    bad = tmp_path / ini
    bad.write_text(re.sub(r"(?m)^matrix = .*$", f"matrix = {matrix}", text))
    code, _, err = run_capture(capsys, ["--json", "sandwich", "--config", str(bad), "--twisted"])
    assert code == 2
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert rep["error"]["reason"].startswith(f"twist matrix '{matrix}'")


def test_every_traced_name_resolves():
    # perfbench/tracer.py wraps each path of LAYERS by name; a rename in
    # src/tclab fails here as well as in the traced benchmark run.
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, entries in tracer.LAYERS.items():
        home = importlib.import_module(f"tclab.{layer}")
        for _, paths in entries:
            for dotted in paths:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                assert callable(vars(owner).get(attr)), f"{layer}.{dotted}"


@pytest.mark.parametrize("argv", [["--p", "3", "--T", "7"],
                                  ["--field", "sqrt5.field", "--T", "11", "--V", "11"]],
                         ids=["no-field", "no-p"])
def test_sandwich_without_config_needs_field_and_p(capsys, argv):
    code, _, err = run_capture(capsys, ["sandwich"] + argv)
    assert code == 64
    assert "--field and --p" in err


def test_bad_field_file_is_precondition(capsys, tmp_path):
    f = tmp_path / "bad.field"
    f.write_text("poly -1 0 2\n")
    code, _, err = run_capture(capsys, ["field", "--field", str(f)])
    assert code == 2
    rep = json.loads(err.strip())
    assert "monic" in rep["error"]["reason"]


# 2 -3 0 1 is (x - 1)^2 (x + 2), of discriminant 0.
@pytest.mark.parametrize("poly", ["-4 0 1", "-1 0 0 1", "4 0 0 0 1",
                                  "2 0 3 0 1", "1 0 0 0 0 0 1", "2 -3 0 1"])
def test_reducible_field_file_is_precondition(capsys, tmp_path, poly):
    f = tmp_path / "reducible.field"
    f.write_text(f"poly {poly}\n")
    code, out, err = run_capture(capsys, ["--json", "field", "--field", str(f)])
    assert code == 2 and out == ""
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert "reducible" in rep["error"]["reason"]


def test_real_quadratic_commands_on_a_nonstandard_polynomial(capsys, tmp_path):
    # x^2 + 3x - 3 generates Q(sqrt 21), with unit 4 + theta = (5 + sqrt 21)/2;
    # its reduction cycle has period 2.
    f = tmp_path / "sqrt21.field"
    f.write_text("poly -3 3 1\n")
    code, out, _ = run_capture(capsys, ["--json", "units", "--field", str(f)])
    assert code == 0
    assert json.loads(out)["results"]["fundamental_units"] == ["[4, 1]"]
    code, out, _ = run_capture(capsys, ["--json", "selmer", "--field", str(f),
                                        "--p", "5", "--S", "11"])
    assert code == 0
    assert json.loads(out)["results"]["dim"] == 1


@pytest.mark.parametrize("poly,p,S,gen", [("-79 0 1", 3, "7", "7_1"), ("-79 0 1", 3, "7:2", "7_2"),
                                           ("-10 0 1", 2, "3", "3_1")])
def test_selmer_where_a_generator_is_not_a_unit(capsys, tmp_path, poly, p, S, gen):
    # A V_emptyset generator has a pole at a prime above q: selmer reads its
    # local condition, while rusb and sandwich still refuse q, whose primes
    # generate the class group.
    f = tmp_path / "k.field"
    f.write_text(f"poly {poly}\n")
    code, out, _ = run_capture(capsys, ["--json", "selmer", "--field", str(f),
                                        "--p", str(p), "--S", S])
    assert code == 0 and json.loads(out)["results"]["reverified"]
    for argv in (["rusb", "--S", S], ["sandwich", "--T", S, "--V", S]):
        code, out, err = run_capture(capsys, ["--json", argv[0], "--field", str(f),
                                              "--p", str(p)] + argv[1:])
        error = json.loads(err.strip())["error"]
        assert code == 2 and out == "" and error["kind"] == "precondition"
        assert error["reason"].startswith(f"class group generator {gen} divides the modulus")


def test_out_of_scope_exit_code(capsys, tmp_path):
    f = tmp_path / "cbrt2.field"
    f.write_text("poly -2 0 0 1\n")
    code, out, err = run_capture(capsys, ["units", "--field", str(f)])
    assert code == 2 and out == ""
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "out_of_scope"
    assert "mixed-signature" in rep["error"]["reason"]


# Totally complex fields of degree 4 (x^3 - 2 is covered above): unit groups
# are refused before any search, so each case answers at once instead of
# running for minutes.
@pytest.mark.parametrize("poly,command,code", [
    ("1 1 1 1 1", "units", 2),         # Phi_5
    ("1 0 0 0 1", "units", 2),         # Phi_8
    ("1 0 0 0 1", "classgroup", 2),    # Phi_8: the prime above 2 needs units
    ("1 1 1 1 1", "classgroup", 0),    # Phi_5: no prime below the Minkowski bound
])
def test_complex_places_scope(capsys, tmp_path, poly, command, code):
    f = tmp_path / "cx.field"
    f.write_text(f"poly {poly}\n")
    rc, out, err = run_capture(capsys, ["--json", command, "--field", str(f)])
    assert rc == code
    if code == 0:
        assert json.loads(out)["results"]["order"] == 1
    else:
        rep = json.loads(err.strip())
        assert rep["error"]["kind"] == "out_of_scope"
        assert "mixed-signature" in rep["error"]["reason"]


# A basis directive is accepted only where its order is shown maximal.
# Z[sqrt 5] (disc 20) fails Dedekind's criterion at 2, and given as
# Z[sqrt 20 / 2] its index 2 over Z[theta] leaves 2 undecided; the bases of
# x^3 - 4x - 8 (index 8, disc -23), Q(sqrt -7) (index 2) and Dedekind's
# cubic x^3 - x^2 - 2x - 8 (index 2, disc -503) pass.
@pytest.mark.parametrize("text,command", [
    ("poly -5 0 1\nbasis 1 0 / 0 1\n", "field"),
    ("poly -5 0 1\nbasis 1 0 / 0 1\n", "units"),
    ("poly -5 0 1\nbasis 1 0 / 0 1\n", "classgroup"),
    ("poly -20 0 1\nbasis 1 0 / 0 1/2\n", "field"),
])
def test_non_maximal_basis_is_precondition(capsys, tmp_path, text, command):
    f = tmp_path / "zsqrt5.field"
    f.write_text(text)
    start = time.perf_counter()
    rc, out, err = run_capture(capsys, ["--json", command, "--field", str(f)])
    assert time.perf_counter() - start < 2
    assert rc == 2 and out == ""
    rep = json.loads(err.strip())
    assert rep["error"]["kind"] == "precondition"
    assert "maximal at 2" in rep["error"]["reason"]


@pytest.mark.parametrize("text,disc", [
    ("poly -8 -4 0 1\nbasis 1 0 0 / 0 1/2 0 / 0 0 1/4\n", -23),
    ("poly 7 0 1\nbasis 1 0 / 1/2 1/2\n", -7),
    ("poly -8 -2 -1 1\nbasis 1 0 0 / 0 1 0 / 0 1/2 1/2\n", -503),
])
def test_maximal_basis_is_accepted(capsys, tmp_path, text, disc):
    f = tmp_path / "basis.field"
    f.write_text(text)
    rc, out, _ = run_capture(capsys, ["--json", "field", "--field", str(f)])
    assert rc == 0
    assert json.loads(out)["results"]["discriminant"] == disc


# The --json reports of the README's commands, minus wall_time_s.
README_REPORTS = json.loads((Path(__file__).parent / "readme_reports.json").read_text())


@pytest.mark.parametrize("command", sorted(README_REPORTS))
def test_readme_reports_golden(capsys, monkeypatch, command):
    monkeypatch.delenv("TCLAB_SEED", raising=False)
    code, out, _ = run_capture(capsys, ["--json", *shlex.split(command)])
    assert code == 0
    rep = json.loads(out)
    del rep["wall_time_s"]
    assert rep == README_REPORTS[command]


@pytest.mark.parametrize("exc,kind,code", [
    (cli.classunit.UnitRankError(1, 0), "budget", 2),
    (cli.classunit.CertificationError("cap"), "budget", 2),
    (cli.sm.CrosscheckError("routes differ"), "internal", 1),
    (KeyError("x"), "internal", 1),
])
def test_library_errors_map_to_json(capsys, monkeypatch, exc, kind, code):
    def fail(args, seed):
        raise exc
    monkeypatch.setattr(cli, "cmd_field", fail)
    rc, out, err = run_capture(capsys, ["field", "--field", "q.field"])
    assert rc == code and out == ""
    rep = json.loads(err.strip())
    assert rep["command"] == "field" and rep["error"]["kind"] == kind


def test_seed_echoed(capsys, monkeypatch):
    monkeypatch.setenv("TCLAB_SEED", "42")
    code, out, _ = run_capture(capsys, ["--json", "field", "--field", "q.field"])
    assert json.loads(out)["seed"] == 42


def test_reproduce_example1(capsys):
    code, out, _ = run_capture(capsys, ["reproduce", "example1"])
    assert code == 0
    assert "match: true" in out
    assert 'rcg_3_parts: ["0", "Z/3", "Z/27"]' in out


def test_reproduce_json_roundtrip(capsys):
    code, out, _ = run_capture(capsys, ["--json", "reproduce", "example1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["match"]
    assert rep["results"]["rcg_3_parts"] == ["0", "Z/3", "Z/27"]
    # rendering the same report twice is byte-identical
    assert cli.emit_table(rep) == cli.emit_table(json.loads(out))


def test_module_entry_point():
    proc = fresh_python("-m", "tclab.cli", "--json", "reproduce", "example1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["match"]


def test_classgroup_of_q_sqrt_minus_11311(tmp_path):
    # h = 73 is beyond any fixed bound on the order of a prime's class.
    f = tmp_path / "m11311.field"
    f.write_text("poly 2828 -1 1\n")
    t0 = time.perf_counter()
    proc = fresh_python("-m", "tclab.cli", "--json", "classgroup", "--field", str(f))
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["results"]
    assert res["group"] == "Z/73" and res["certified"] is True


def test_reproduce_leaves_sympy_unloaded():
    # sympy costs more start-up time than both examples' arithmetic, and
    # no command imports it.
    code = ("import contextlib, io, sys\n"
            "from tclab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.run(['--json', 'reproduce', ex])\n"
            "             for ex in ('example1', 'example2')]\n"
            "print(codes, 'sympy' in sys.modules)\n")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] False\n"


def test_cli_import_skips_the_inspect_chain():
    # dataclasses pulls in inspect, dis, ast and tokenize, which cost every
    # process several milliseconds of cold import and which tclab never
    # uses.  The diff against a bare interpreter ignores whatever site
    # preloads.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import tclab.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'dis', 'ast', 'tokenize'}\n"
            "             & (set(sys.modules) - before)))\n")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_skips_importlib_resources():
    # importlib.resources pulls in zipfile and tempfile; the bundled data is
    # found next to cli.py instead.  python -S keeps site from preloading
    # any of them, so the check holds wherever site does.
    code = ("import sys\n"
            "import tclab.cli\n"
            "print(sorted({'importlib.resources', 'zipfile', 'tempfile'} & set(sys.modules)))\n")
    proc = fresh_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sandwich_twisted_config(capsys):
    code, out, _ = run_capture(capsys, ["--json", "sandwich", "--config",
                                        "example1.ini", "--twisted"])
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["lower"] == 1
    assert rep["results"]["upper"] == 1
    assert rep["results"]["certified"]


def test_shifted_basis_layer(capsys, tmp_path):
    # zeta7plus on the basis 1, 1 + theta, theta + theta^2, where gamma's
    # image -2 + theta^2 has coordinates -1 -1 1: the bundled example's numbers.
    (tmp_path / "shifted.field").write_text("poly -1 -2 1 1\nbasis 1 0 0 / 1 1 0 / 0 1 1\n")
    ini = tmp_path / "shifted.ini"
    ini.write_text(cli._data_path("example2.ini").read_text()
                   .replace("zeta7plus.field", "shifted.field")
                   .replace("gamma = -2 0 1", "gamma = -1 -1 1"))
    code, out, _ = run_capture(capsys, ["--json", "orbit-check", "--config", str(ini),
                                        "--X", "181 293"])
    res = json.loads(out)["results"]
    assert code == 0 and res["agree"]
    assert (res["dim_with_X_prime"], res["dim_with_X_tilde"]) == (3, 3)
    code, out, _ = run_capture(capsys, ["--json", "sandwich", "--config", str(ini),
                                        "--twisted"])
    res = json.loads(out)["results"]
    assert code == 0
    assert (res["lower"], res["upper"], res["certified"], res["mode"]) == \
        (2, 2, True, "twisted-transfer")
