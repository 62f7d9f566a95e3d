import json

import pytest

from uryson.lattice import Mask, vec
from uryson.report import csv_table, dumps, format_float


def test_format_float():
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"
    assert format_float(1e-9) == "1e-09"
    assert format_float(1 / 3) == "0.333333333333"
    with pytest.raises(ValueError, match="non-finite"):
        format_float(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        format_float(float("inf"))


def test_dumps_translates_domain_objects():
    obj = {"v": vec(1.0, -2.0), "m": Mask.from_indices(3, (2, 0)), "n": None}
    assert json.loads(dumps(obj)) == {"v": [1.0, -2.0], "m": [0, 2], "n": None}
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps(object())


def test_dumps_golden_bytes():
    report = {
        "b": [1, 2.5, True],
        "a": {"nested": vec(0.0, -0.0)},
        "c": "text",
        "d": None,
        "empty_list": [],
        "empty_map": {},
    }
    assert dumps(report) == (
        "{\n"
        '  "a": {\n'
        '    "nested": [\n'
        "      0,\n"
        "      0\n"
        "    ]\n"
        "  },\n"
        '  "b": [\n'
        "    1,\n"
        "    2.5,\n"
        "    true\n"
        "  ],\n"
        '  "c": "text",\n'
        '  "d": null,\n'
        '  "empty_list": [],\n'
        '  "empty_map": {}\n'
        "}\n"
    )


def test_dumps_sorts_keys_stably():
    assert dumps({"z": 1, "a": 2}) == dumps({"a": 2, "z": 1})


def test_dumps_coerces_keys_to_strings():
    assert dumps({1: "x"}) == '{\n  "1": "x"\n}\n'
    # sorted as strings, so "10" comes before "9"; a tuple renders as a list
    assert dumps({9: (True,), 10: "a"}) == '{\n  "10": "a",\n  "9": [\n    true\n  ]\n}\n'


def test_csv_table():
    text = csv_table(["probe", "y1"], [["x1", 0.5], ["x2", -0.0]])
    assert text == "probe,y1\nx1,0.5\nx2,0\n"


# -- string escaping ---------------------------------------------------------


def _reference(s: str) -> str:
    return json.dumps(s, ensure_ascii=True)


def test_strings_escape_as_json_on_every_bmp_code_point():
    # lone surrogates included: json escapes them as \udxxx too
    for cp in range(0x10000):
        s = chr(cp)
        assert dumps(s) == _reference(s) + "\n", hex(cp)


@pytest.mark.parametrize("cp", [0x10000, 0x1F600, 0x2FFFF, 0xE0001, 0x10FFFF])
def test_astral_characters_escape_as_surrogate_pairs(cp):
    s = chr(cp)
    assert dumps(s) == _reference(s) + "\n"
    assert dumps(s).count("\\u") == 2


@pytest.mark.parametrize(
    "s",
    [
        "",
        "plain ascii ~ text",
        'quote " and backslash \\ and slash /',
        "\b\f\n\r\t\x00\x1f\x7f",
        "caf\xe9 \xa0 \u2028 \ufeff \ud800 \udfff end",
        "x\U0001F600y\U0010FFFFz\ud83d",
    ],
)
def test_mixed_strings_escape_as_json_in_values_and_keys(s):
    assert dumps(s) == _reference(s) + "\n"
    assert dumps({s: s}) == "{\n  " + _reference(s) + ": " + _reference(s) + "\n}\n"
