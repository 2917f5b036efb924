import json
import os
import re

import pytest

import marginlab._atomic
from marginlab._atomic import read_json, write_file, write_json
from marginlab.errors import ConfigError


def test_write_file_writes_text_as_utf8_and_bytes_as_they_are(tmp_path):
    path = tmp_path / "out"
    write_file(path, "a,ü\nb\r\n")
    assert path.read_bytes() == "a,ü\nb\r\n".encode("utf-8")
    write_file(path, b"\x00bytes\xff")
    assert path.read_bytes() == b"\x00bytes\xff"
    assert os.listdir(tmp_path) == ["out"]


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "out"
    write_file(path, "old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(marginlab._atomic.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_file(path, "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out"]


def test_json_round_trip_with_sorted_keys(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": [1.5, 2], "a": None})
    assert path.read_text() == '{"a": null, "b": [1.5, 2]}\n'
    assert read_json(path, "test file") == {"a": None, "b": [1.5, 2]}


@pytest.mark.parametrize("content", [None, b"{", b"\xff{}", b"[" * 100000],
                         ids=["missing", "bad-json", "bad-utf8", "deep"])
def test_unreadable_json_is_a_config_error_naming_the_file(tmp_path,
                                                          content):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(str(path))}: cannot read "
                             f"test file \\("):
        read_json(path, "test file")


def test_read_json_reads_what_json_loads_reads(tmp_path):
    doc = {"x": [1e400, -0.0, 10 ** 30], "y": "é"}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert read_json(path, "test file") == json.loads(json.dumps(doc))
