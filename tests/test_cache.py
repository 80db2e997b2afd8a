from pathlib import Path

import pytest

from brownlab import cache
from brownlab.cache import ResultCache, resolve_cache_dir


def test_cache_dir_falls_back_to_the_user_cache_root(tmp_path, monkeypatch):
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert resolve_cache_dir() == tmp_path / "xdg" / "brownlab"
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert resolve_cache_dir() == tmp_path / "home" / ".cache" / "brownlab"


def test_put_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cache.os, "replace", refuse)
    store = ResultCache(tmp_path / "cache")
    with pytest.raises(OSError, match="rename refused"):
        store.put({"command": "vdw", "r": 2, "l": 3}, {"nodes": 1})
    assert list(Path(tmp_path / "cache").iterdir()) == []
