"""The example scripts under ``scripts/``, loaded by path."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lightwalk import CATALOG_HEADER, DomainError, embedded_table1, parse_catalog

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CATALOG = embedded_table1()


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ladder_script = load_script("speed_ladder")
speed_ladder = ladder_script.speed_ladder


def test_speed_ladder_group_means_descend():
    ladder = speed_ladder(CATALOG)
    labels = [label for label, _, _ in ladder]
    assert labels == ["Li-F", "Ne-Ar", "K-Kr", "Rb-Xe", "Cs-Rn", "Fr-U"]
    means = [mean for _, mean, _ in ladder]
    assert all(a > b for a, b in zip(means, means[1:]))
    members_by_label = {label: names for label, _, names in ladder}
    assert "Li-7" in members_by_label["Li-F"]
    assert members_by_label["Fr-U"] == ("U-238",)


def test_speed_ladder_rejects_unknown_symbols():
    bogus = parse_catalog(CATALOG_HEADER + "\nQq-1,1.0,label,500.0\n")
    with pytest.raises(DomainError):
        speed_ladder(bogus)


def test_speed_ladder_prints_the_embedded_ladder(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["speed_ladder.py"])
    assert ladder_script.main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b6fca6c9711d1a82b5329274c28266b72a2645430fe4dc053c3ed4a1a185c954"
    )
