"""Config parsing, typing, and echo round-trips."""

import pytest

from homlab.config import ConfigError, StudyConfig, format_value, parse_config


def test_parse_types_by_shape():
    entries = parse_config(
        "family.kind = regular\n"
        "schedule.eps = 0.1, 0.05, 0.025\n"
        "mesh.cap_dof = 8192\n"
        "criterion.auto = true\n"
        "shift.value = -1.5\n",
        "<config>",
    )
    assert entries["family.kind"] == "regular"
    assert entries["schedule.eps"] == (0.1, 0.05, 0.025)
    assert entries["mesh.cap_dof"] == 8192
    assert entries["criterion.auto"] is True
    assert entries["shift.value"] == -1.5


def test_comments_and_blank_lines_ignored():
    entries = parse_config("# header\n\na.b = 1\n   # trailing\n", "<config>")
    assert entries == {"a.b": 1}


@pytest.mark.parametrize("bad", [
    "just words",
    "Upper.Case = 1",
    "a.b = ",
    "a.b = 1\na.b = 2",
    "3x = 5",
    "a.b = 1, , 2",
    "a.b = 1,",
    "a.b = ,",
])
def test_malformed_lines_raise(bad):
    with pytest.raises(ConfigError):
        parse_config(bad, "<config>")


def test_empty_list_entry_names_line_and_key():
    with pytest.raises(ConfigError,
                       match=r"^cfg:2: empty list entry for 'schedule.eps'$"):
        parse_config("a.b = 1\nschedule.eps = 0.1, , 0.05\n", source="cfg")


def test_error_message_names_line():
    with pytest.raises(ConfigError, match=r"cfg:2"):
        parse_config("a.b = 1\noops\n", source="cfg")


def test_typed_getters_enforce_types():
    cfg = StudyConfig.from_text(
        "count = 4\nscale = 2.5\nflag = false\nname = demo\n"
        "eps = 0.1, 0.2\n",
        "<config>",
    )
    assert cfg.get_int("count") == 4
    assert cfg.get_float("scale") == 2.5
    assert cfg.get_float("count") == 4.0
    assert cfg.get_str("name") == "demo"
    assert cfg.get_floats("eps") == (0.1, 0.2)
    assert cfg.get_floats("scale") == (2.5,)
    with pytest.raises(ConfigError):
        cfg.get_int("scale")
    with pytest.raises(ConfigError):
        cfg.get_str("flag")
    with pytest.raises(ConfigError):
        cfg.get_str("eps")


@pytest.mark.parametrize("value", [
    "nan", "inf", "-inf", "1e400", "0.1, nan",
    pytest.param("1" + "0" * 400, id="int_beyond_float_range"),
])
def test_float_getters_refuse_non_finite_numbers(value):
    cfg = StudyConfig.from_text(f"x.y = {value}\n", "<config>")
    with pytest.raises(ConfigError, match="'x.y' needs a finite number"):
        cfg.get_floats("x.y")
    if "," not in value:
        with pytest.raises(ConfigError, match="'x.y' needs a finite number"):
            cfg.get_float("x.y")


def test_missing_key_and_defaults():
    cfg = StudyConfig.from_text("a = 1\n", "<config>")
    with pytest.raises(ConfigError, match="missing required"):
        cfg.get("b")
    assert cfg.get_int("b", 7) == 7
    assert cfg.get_floats("b", None) is None


def test_unused_key_tracking():
    cfg = StudyConfig.from_text("a = 1\nb = 2\n", "<config>")
    cfg.get_int("a")
    assert cfg.unused_keys() == ("b",)
    with pytest.raises(ConfigError, match="unrecognized"):
        cfg.check_all_used()
    cfg.get_int("b")
    cfg.check_all_used()


def test_echo_round_trip():
    text = (
        "family.kind = regular\n"
        "schedule.eps = 0.1, 0.05\n"
        "flag = true\n"
        "shift.value = -0.10000000000000001\n"
    )
    cfg = StudyConfig.from_text(text, "<config>")
    echoed = "\n".join(f"{k} = {v}" for k, v in cfg.echo())
    again = parse_config(echoed, "<config>")
    assert again == cfg.entries


def test_format_value_17_digits():
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value((1, 2.5)) == "1, 2.5"
    assert format_value(True) == "true"


def test_load_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        StudyConfig.load("/nonexistent/path.cfg")
