import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_exports_finds_no_difference_between_a_tree_and_itself(capsys):
    tool = load_tool("compare_exports")
    assert tool.main([str(ROOT), str(ROOT), "--max", "40"]) == 0
    assert "8 exports compared" in capsys.readouterr().out


def test_compare_exports_queries_find_no_difference_between_a_tree_and_itself(capsys):
    tool = load_tool("compare_exports")
    assert tool.main([str(ROOT), str(ROOT), "--max", "40", "--queries"]) == 0
    out = capsys.readouterr().out
    assert "8 exports compared" in out
    assert "16 query outputs compared: 0 differ" in out
    assert "10 intersect outputs for the other ell-pairs compared: 0 differ" in out
    assert "30 biroute outputs for the other ell-pairs compared: 0 differ" in out


def test_ab_builds_times_a_tree_against_itself_and_restores_its_modules(capsys):
    import sys

    import ssig

    tool = load_tool("ab_builds")
    assert tool.main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("round 1: old ") and out[0].endswith("(old first)")
    assert out[1] == "tree  median_s  min_s  wins"
    assert [line.split()[0] for line in out[2:]] == ["old", "new"]
    assert sys.modules["ssig"] is ssig
