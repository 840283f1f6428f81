"""``scripts/check_test_only.py`` finds defs and methods only tests name,
attributes nothing reads, and allowlist entries that name nothing."""

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
    (``src/repro/planted.py``), an example that uses it, and a test, with
    empty allowlists (the real ones name nothing in the scratch tree)."""
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
    monkeypatch.setattr(module, "ALLOWED", {})
    monkeypatch.setattr(module, "ALLOWED_MODULES", {})
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


COUNTER = '''
class Counter:
    def __init__(self):
        self.hits = 0
        self.limit = 3

    def bump(self):
        self.hits += 1
        return self.limit
'''


def test_an_attribute_nothing_reads_fails(checker, capsys):
    root = checker.REPO_ROOT
    (root / "src" / "repro" / "counter.py").write_text(COUNTER)
    (root / "examples" / "count.py").write_text(
        "from repro.counter import Counter\nCounter().bump()\n")
    # ``self.hits += 1`` stores; only ``self.limit`` is ever read.
    assert [(str(path), line, name) for path, line, name in checker.find_unread()] \
        == [("src/repro/counter.py", 4, "hits")]
    assert checker.main() == 1
    assert "counter.py:4: .hits: stored, never read" in capsys.readouterr().out
    # A read anywhere, a test's included, is a read.
    (root / "tests" / "test_counter.py").write_text(
        "from repro.counter import Counter\nassert Counter().hits == 0\n")
    assert checker.find_unread() == []


REPORT = '''
class Report:
    def __init__(self):
        self.packets = 0


def tally(report):
    report.packets += 1
    report.unread += 1
    return report.packets
'''


def test_an_attribute_stored_through_any_name_counts(checker, capsys):
    root = checker.REPO_ROOT
    (root / "src" / "repro" / "report.py").write_text(REPORT)
    (root / "examples" / "tally.py").write_text(
        "from repro.report import Report, tally\ntally(Report())\n")
    # ``report.unread += 1`` stores through a name other than ``self``.
    assert [(str(path), line, name) for path, line, name in checker.find_unread()] \
        == [("src/repro/report.py", 9, "unread")]
    assert checker.main() == 1
    assert "report.py:9: .unread: stored, never read" in capsys.readouterr().out


def test_a_stale_allowlist_entry_fails(checker, monkeypatch, capsys):
    monkeypatch.setitem(checker.ALLOWED, "Planted.only_tested", "a reason")
    monkeypatch.setitem(checker.ALLOWED, "Planted.gone", "a reason")
    monkeypatch.setitem(checker.ALLOWED_MODULES, "repro.gone", "a reason")
    assert checker.find_stale() == ["Planted.gone", "repro.gone"]
    assert checker.main() == 1
    out = capsys.readouterr().out
    assert "Planted.gone: allowlisted, but src/repro defines no such" in out
    assert "repro.gone: allowlisted" in out


def test_the_repository_passes(capsys):
    spec = importlib.util.spec_from_file_location("check_test_only", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0, capsys.readouterr().err
