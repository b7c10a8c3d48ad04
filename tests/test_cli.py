import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallalg.cli import (
    Config,
    ConfigError,
    config_digest,
    config_to_text,
    main,
    parse_config,
    run_command,
)

A2_TEXT = """
[quiver]
vertices = 2
arrows = [[1, 2]]
[field]
q = 2
[limits]
bound = [2, 2]
height = 2
[output]
format = text
"""

KRONECKER_TEXT = """
[quiver]
vertices = 2
arrows = [[1, 2], [1, 2]]
[field]
q = 2
[limits]
bound = [2, 2]
height = 4
"""


def test_parse_basic():
    c = parse_config(A2_TEXT)
    assert c.vertices == 2
    assert c.arrows == ((0, 1),)
    assert c.q == 2
    assert c.bound == (2, 2)
    assert c.height == 2
    assert c.output_format == "text"


def test_parse_defaults():
    c = parse_config("[quiver]\nvertices = 1\narrows = [[1,1]]\n[field]\nq = 3\n")
    assert c.bound == (2,)
    assert c.height == 2
    assert c.max_states == 10**7
    assert c.output_format == "text"
    two = parse_config("[quiver]\nvertices = 2\n[field]\nq = 2\n[limits]\nbound = [2, 3]\n")
    assert two.height == 2


def test_kac_passes_with_default_height(tmp_path, capsys):
    cfg = tmp_path / "a2.cfg"
    cfg.write_text("[quiver]\nvertices = 2\narrows = [[1, 2]]\n[field]\nq = 2\n[limits]\nbound = [2, 2]\n")
    assert main(["verify", "--config", str(cfg), "--suite", "kac"]) == 0
    assert "suite kac: pass" in capsys.readouterr().out


def test_field_size_limit_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "q257.cfg"
    cfg.write_text("[quiver]\nvertices = 1\n[field]\nq = 257\n")
    assert main(["classify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "line 4" in captured.err and "251" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "arrows,bound",
    [("[[1, 2]]", "[1, 0]"), ("[[1, 2]]", "[0, 0]"), ("[[1, 1]]", "[0]")],
    ids=["a2-1-0", "a2-0-0", "jordan-0"],
)
def test_bound_with_a_zero_component_is_a_config_error(tmp_path, capsys, arrows, bound):
    vertices = bound.count(",") + 1
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        f"[quiver]\nvertices = {vertices}\narrows = {arrows}\n[field]\nq = 2\n"
        f"[limits]\nbound = {bound}\n"
    )
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "line 7" in captured.err and "[limits] bound" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_roundtrip():
    c = parse_config(KRONECKER_TEXT)
    assert parse_config(config_to_text(c)) == c
    assert config_digest(c) == config_digest(parse_config(config_to_text(c)))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as e:
        parse_config("[quiver]\nvertices = 2\narrows = [[1, 3]]\n[field]\nq = 2\n")
    assert "line 3" in str(e.value) and "out of range" in str(e.value)
    with pytest.raises(ConfigError) as e:
        parse_config("[quiver]\nvertices = 2\n[field]\nq = 4\n")
    assert "line 4" in str(e.value) and "prime" in str(e.value)
    with pytest.raises(ConfigError) as e:
        parse_config("[quiver]\nvertices = 2\nwhat = 1\n")
    assert "unknown key" in str(e.value)
    with pytest.raises(ConfigError) as e:
        parse_config("[nope]\n")
    assert "unknown section" in str(e.value)
    with pytest.raises(ConfigError):
        parse_config("[field]\nq = 2\n")  # vertices missing


def test_classify_command():
    config = parse_config(A2_TEXT)
    code, out = run_command("classify", config)
    assert code == 0
    assert "(1, 1)" in out


def test_classify_json_schema():
    import dataclasses

    config = dataclasses.replace(parse_config(A2_TEXT), output_format="json")
    code, out = run_command("classify", config)
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "classify"
    assert {"dim": [1, 1], "classes": 2, "indecomposable": 1} in data["rows"]


def test_roots_command():
    config = parse_config(KRONECKER_TEXT)
    code, out = run_command("roots", replace(config, height=5))
    assert code == 0
    assert out.count("real") == 6
    assert out.count("imaginary") == 2
    assert "positive roots up to height 5: 8" in out


def test_roots_height_option_enters_the_config(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text(KRONECKER_TEXT)
    assert main(["roots", "--config", str(cfg), "--height", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ran = replace(parse_config(KRONECKER_TEXT), height=5, output_format="json")
    assert data["height"] == 5
    assert data["config_digest"] == config_digest(ran)


def test_roots_height_beyond_max_classes_is_a_resource_limit(tmp_path, capsys):
    # A2 has C(52, 2) - 1 = 1325 vectors of height 1..50 to scan.
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(A2_TEXT.replace("height = 2\n", "height = 2\nmax_classes = 100\n"))
    assert main(["roots", "--config", str(cfg), "--height", "50"]) == 3
    out = capsys.readouterr().out
    assert "resource limit" in out and "[limits] height" in out


def test_kac_height_beyond_max_classes_is_a_resource_limit(tmp_path, capsys):
    # The default height is min(bound) = 2000; kac lists the table's 2001
    # dimension vectors, more than max_classes, before it builds a class.
    cfg = tmp_path / "jordan.cfg"
    cfg.write_text(
        "[quiver]\nvertices = 1\narrows = [[1, 1]]\n[field]\nq = 2\n"
        "[limits]\nbound = [2000]\nmax_classes = 1000\nmax_states = 100\n"
    )
    assert main(["verify", "--config", str(cfg), "--suite", "kac"]) == 3
    out = capsys.readouterr().out
    assert "resource limit" in out and "[limits] bound" in out


def test_cartan_command():
    config = parse_config(KRONECKER_TEXT)
    code, out = run_command("cartan", config)
    assert code == 0
    assert "-2" in out


def test_sv_command():
    config = parse_config(KRONECKER_TEXT)
    code, out = run_command("sv", config)
    assert code == 0
    assert "[[1, 1], 1], [[1, 1], 2]" in out


def test_hall_table_command():
    config = parse_config(A2_TEXT)
    code, out = run_command("hall-table", config)
    assert code == 0
    assert "g[" in out


def test_verify_command_exit_codes():
    config = parse_config(A2_TEXT)
    code, out = run_command("verify", config, suite="composition")
    assert code == 0
    assert "suite composition: pass" in out


def test_verify_json_report_schema():
    import dataclasses

    config = dataclasses.replace(parse_config(A2_TEXT), output_format="json")
    code, out = run_command("verify", config, suite="kac")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["suite", "config_digest", "checks", "overall"]
    assert data["overall"] == "pass"
    for c in data["checks"]:
        assert set(c) == {"name", "status", "witness"}


def test_verify_reports_are_deterministic():
    import dataclasses

    config = dataclasses.replace(parse_config(A2_TEXT), output_format="json")
    out1 = run_command("verify", config, suite="pairing")[1]
    out2 = run_command("verify", config, suite="pairing")[1]
    assert out1 == out2


def test_failed_check_exit_code():
    import dataclasses

    # height above the table bound makes the kac coverage check fail
    config = dataclasses.replace(parse_config(A2_TEXT), height=5)
    code, out = run_command("verify", config, suite="kac")
    assert code == 1
    assert "fail" in out


def test_resource_limit_exit_code():
    import dataclasses

    config = dataclasses.replace(parse_config(KRONECKER_TEXT), max_states=3)
    code, out = run_command("classify", config)
    assert code == 3
    assert "resource limit" in out and "[limits] max_states" in out


def test_class_count_limit_names_its_key(tmp_path, capsys):
    # Jordan (3) has 4 dimension vectors, within max_classes, but 1 + 1 + 2 + 3
    # = 7 classes, so the limit is hit while the classes are built.
    cfg = tmp_path / "jordan.cfg"
    cfg.write_text(
        "[quiver]\nvertices = 1\narrows = [[1, 1]]\n[field]\nq = 2\n"
        "[limits]\nbound = [3]\nmax_classes = 5\n"
    )
    assert main(["classify", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "resource limit" in out and "[limits] max_classes" in out


def test_main_entry(tmp_path, capsys):
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(A2_TEXT)
    assert main(["classify", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg), "--suite", "kac"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("[field]\nq = 4\n")
    assert main(["classify", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert main(["classify", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\n" + A2_TEXT.encode())
    assert main(["classify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_shipped_configs_are_consistent():
    import pathlib

    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for name in ("a2.cfg", "jordan.cfg", "kronecker.cfg"):
        config = parse_config((here / name).read_text())
        # the kac suite exercises the bound/height coverage contract
        code, out = run_command("verify", config, suite="kac")
        assert code == 0, (name, out)


def test_main_json_flag(tmp_path, capsys):
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(A2_TEXT)
    assert main(["cartan", "--config", str(cfg), "--format", "json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["matrix"] == [[2, -1], [-1, 2]]


BOOL_BASE = {
    "vertices": "2",
    "arrows": "[[1, 2]]",
    "q": "2",
    "bound": "[2, 2]",
    "height": "2",
    "max_states": "1000",
    "max_classes": "1000",
}


@pytest.mark.parametrize(
    "key,value",
    [
        ("vertices", "true"),
        ("arrows", "[[true, 2]]"),
        ("arrows", "[[1, false]]"),
        ("q", "true"),
        ("bound", "[true, 2]"),
        ("height", "true"),
        ("height", "false"),
        ("max_states", "true"),
        ("max_classes", "true"),
    ],
)
def test_boolean_integer_is_a_config_error(tmp_path, capsys, key, value):
    v = dict(BOOL_BASE, **{key: value})
    cfg = tmp_path / "bool.cfg"
    cfg.write_text(
        f"[quiver]\nvertices = {v['vertices']}\narrows = {v['arrows']}\n"
        f"[field]\nq = {v['q']}\n"
        f"[limits]\nbound = {v['bound']}\nheight = {v['height']}\n"
        f"max_states = {v['max_states']}\nmax_classes = {v['max_classes']}\n"
    )
    assert main(["classify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_repeated_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text("[quiver]\nvertices = 1\n[field]\nq = 2\nq = 3\n")
    assert main(["classify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "line 5" in captured.err and "'q'" in captured.err


def test_negative_roots_height_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "a2.cfg"
    cfg.write_text(A2_TEXT)
    with pytest.raises(SystemExit) as e:
        main(["roots", "--config", str(cfg), "--height", "-3"])
    assert e.value.code == 2
    assert "--height" in capsys.readouterr().err
    assert main(["roots", "--config", str(cfg), "--height", "0"]) == 0
    assert "positive roots up to height 0: 0" in capsys.readouterr().out


@st.composite
def _small_configs(draw):
    vertices = draw(st.integers(1, 2))
    vertex = st.integers(1, vertices)
    arrows = draw(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=3))
    q = draw(st.sampled_from([2, 3]))
    bound = draw(st.lists(st.integers(1, 2), min_size=vertices, max_size=vertices))
    return (
        f"[quiver]\nvertices = {vertices}\narrows = {json.dumps(arrows)}\n"
        f"[field]\nq = {q}\n[limits]\nbound = {json.dumps(bound)}\n"
    )


@settings(max_examples=30, deadline=None)
@given(_small_configs())
def test_random_small_configs_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "random.cfg"
        cfg.write_text(text)
        # sv and verify stay out: on the 3-arrow Kronecker quiver at q=3,
        # bound (2,2), they take minutes.
        for command in ("classify", "hall-table", "cartan", "roots"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--format", "json"])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                json.loads(out.getvalue())
