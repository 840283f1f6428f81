"""``scripts/check_test_only.py`` finds defs and methods only tests name."""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "check_test_only.py"

PLANTED = '''
class Planted:
    _summary_fields = ("rate",)

    def used(self):
        return self.helper()

    def helper(self):
        return 1

    @property
    def rate(self):
        return 2.0

    def only_tested(self):
        return 3

    def __repr__(self):
        return "Planted()"
'''


@pytest.fixture
def checker(monkeypatch, tmp_path):
    """The script, pointed at a scratch tree holding one planted module
    (``src/repro/planted.py``), an example that uses it, and a test."""
    spec = importlib.util.spec_from_file_location("check_test_only", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for root in module.ROOTS + ("tests",):
        (tmp_path / root).mkdir()
    (tmp_path / "src" / "repro").mkdir()
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (tmp_path / "src" / "repro" / "planted.py").write_text(PLANTED)
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.planted import Planted\nPlanted().used()\n")
    (tmp_path / "tests" / "test_planted.py").write_text(
        "from repro.planted import Planted\n"
        "assert Planted().only_tested() == 3\n")
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    return module


def test_a_planted_test_only_method_fails(checker, capsys):
    flagged = [name for _, _, name in checker.find_test_only()]
    assert flagged == ["Planted.only_tested"]
    assert checker.main() == 1
    assert "Planted.only_tested: only tests name it" in capsys.readouterr().out


def test_an_allowed_method_passes(checker, monkeypatch, capsys):
    monkeypatch.setitem(checker.ALLOWED, "Planted.only_tested", "a reason")
    assert checker.main() == 0
    assert "Planted.only_tested: a reason" in capsys.readouterr().out


def test_the_repository_passes(capsys):
    spec = importlib.util.spec_from_file_location("check_test_only", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0, capsys.readouterr().err
